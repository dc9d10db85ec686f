"""Dense simplex solver with a live condensed tableau.

Every distortion, fairness, and instance-optimality computation in this
package reduces to small dense linear programs; this module solves them
deterministically without an external solver. Every program has one form: a
:class:`LinearProgram` maximizes ``objective @ x`` over ``A_ub x <= b_ub``
and ``x >= 0``, with every entry of ``b_ub`` nonnegative. So ``x = 0`` is
always feasible, and a :class:`Tableau` is built cold at the slack basis
with no pivot. It then stays live: rows added to it enter against the
current basis and are re-optimized by the dual simplex (the old basis stays
dual feasible), and a new objective resumes the primal simplex from the
last basis. A changed coefficient of the one row with a nonzero rhs is
taken in by a rank-one update in the current basis, and
:meth:`Tableau.at_optimum` tells whether a basis needs any pivot at all.
:func:`solve` is a cold build plus one optimization. The tableau is
condensed: it stores only the columns of the nonbasic variables, so a
pivot is a Jordan exchange that updates (rows + 1) x (nonbasic + 1) cells.
Every per-variable vector is indexed by variable label, over the
structural variables and the slacks alike, with zero slack entries: the
objective, a row entering and the basic solution. So a new objective's cost
row, a new row's elimination and the basic solution are each one gather or
scatter by the labels of the basis and the columns, and no step splits
structural from slack variables.
Both pivot loops run a greedy rule for speed and switch permanently to
Bland's rule after a stall, so termination is guaranteed even on the highly
degenerate metric polytopes this package produces.

A tableau counts its work as it happens into a ``stats`` dict, keyed by
``TABLEAU_STATS``: each pivot of either loop, each refactor of a drifted
optimum and each switch to Bland's rule. Tableaux built on one dict share
it, so a caller that replaces its tableaux keeps one ledger of their work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram",
    "LpInputError",
    "LpOutcome",
    "LpStatus",
    "SolverFailure",
    "TABLEAU_STATS",
    "Tableau",
    "solve",
]

DEFAULT_PIVOT_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-7
DEFAULT_MAX_PIVOTS = 1_000_000
TABLEAU_STATS = (
    "primal_pivots",
    "dual_pivots",
    "refactors",  # tableaux recomputed from their rows to shed round-off
    "bland_switches",  # pivot loops that stalled and switched to Bland's rule
)

# Consecutive pivots without objective progress tolerated under Dantzig's
# rule before switching to Bland's rule for the rest of the solve.
_STALL_LIMIT = 500
# Row violation by an optimal basic solution above which the tableau is
# refactored from its rows: round-off that many pivots have accumulated.
_DRIFT_TOL = 1e-11
# The ndarray methods min and max without their Python-level wrappers: they
# run on every pivot and every solve.
_min, _max = np.minimum.reduce, np.maximum.reduce


class LpInputError(ValueError):
    """Malformed program: wrong shape, non-finite data, a negative rhs."""


class SolverFailure(RuntimeError):
    """Pivot cap exceeded, a round-off dead end, or a failed verification.

    Every program is feasible at ``x = 0``, so a dual-simplex row with no
    entering column is round-off too. ``lp_text`` (a
    :meth:`LinearProgram.dump_text`) and ``profile_text``, when set, are
    enough to reproduce the failure.
    """

    def __init__(self, message, *, lp_text=None, profile_text=None):
        super().__init__(message)
        self.lp_text = lp_text
        self.profile_text = profile_text


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


class LinearProgram:
    """Immutable dense LP in array form, validated once.

    Maximizes ``objective @ x`` over ``x >= 0`` subject to
    ``A_ub @ x <= b_ub``, where every entry of ``b_ub`` is nonnegative, so
    ``x = 0`` is feasible. The rows may be left out. Constraints are indexed
    as the rows of ``A_ub``, the order of :attr:`relations`, :attr:`rhs`,
    :meth:`dump_text` and :class:`Tableau`.

    Args:
        objective: coefficient vector, one entry per variable.
        A_ub, b_ub: the rows, a 2-d array with one column per variable, and
            their right-hand sides.

    Raises:
        LpInputError: a shape does not match, an entry is not finite, or a
            right-hand side is negative.
    """

    __slots__ = ("objective", "A_ub", "b_ub")

    def __init__(self, objective, A_ub=None, b_ub=None):
        self.objective = np.array(objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise LpInputError("objective must be a nonempty vector")
        n = self.objective.size
        if A_ub is None and b_ub is None:
            A_ub, b_ub = np.zeros((0, n)), np.zeros(0)
        elif A_ub is None or b_ub is None:
            raise LpInputError("A_ub and b_ub must be given together")
        self.A_ub = np.array(A_ub, dtype=float)
        self.b_ub = np.array(b_ub, dtype=float)
        if self.A_ub.ndim != 2 or self.A_ub.shape[1] != n:
            raise LpInputError(
                f"A_ub must have shape (rows, {n}), got {self.A_ub.shape}"
            )
        if self.b_ub.shape != (self.A_ub.shape[0],):
            raise LpInputError(
                f"b_ub must have one entry per row of A_ub "
                f"({self.A_ub.shape[0]}), got shape {self.b_ub.shape}"
            )
        for arr in (self.objective, self.A_ub, self.b_ub):
            if not np.isfinite(arr).all():
                raise LpInputError("objective, rows and rhs must all be finite")
            arr.setflags(write=False)
        _check_rhs(self.b_ub)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    # relations, rhs and nonneg are read only by perfbench/tracer.py; they
    # leave with its move to program-owned counters (ROADMAP item 1).

    @property
    def relations(self) -> tuple:
        """``"<="`` per constraint."""
        return ("<=",) * self.b_ub.size

    @property
    def rhs(self) -> np.ndarray:
        """Right-hand sides in constraint order: ``b_ub``."""
        return self.b_ub

    @property
    def nonneg(self) -> np.ndarray:
        """All True: every variable is nonnegative."""
        flags = np.ones(self.num_vars, dtype=bool)
        flags.setflags(write=False)
        return flags

    def dump_text(self) -> str:
        """Plain-text dump, one constraint per line, for bug reports."""
        # tolist(): plain floats, whose repr is a number under every numpy
        objective = self.objective.tolist()
        lines = ["max " + " ".join(repr(c) for c in objective)]
        for coeffs, b in zip(self.A_ub.tolist(), self.b_ub.tolist()):
            lines.append(" ".join(repr(c) for c in coeffs) + f" <= {b!r}")
        return "\n".join(lines) + "\n"


def _check_rhs(rhs):
    """Raise unless every right-hand side is nonnegative: x = 0 stays feasible."""
    if (rhs < 0).any():
        raise LpInputError(
            "every right-hand side must be nonnegative, so that x = 0 is feasible"
        )


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict. ``value`` and ``assignment`` are set iff Optimal."""

    status: LpStatus
    value: float | None = None
    assignment: np.ndarray | None = None


def _do_pivot(T, basis, nonbasic, r, c):
    """Jordan exchange on a condensed tableau at row ``r``, column ``c``.

    The nonbasic variable of column ``c`` enters the basis in row ``r``, and
    the variable it replaces takes over column ``c``.
    """
    p = T[r, c]
    col = T[:, c].copy()
    col[r] = 0.0
    T[r] /= p
    T -= col[:, None] * T[r]
    T[:, c] = -(col * (1.0 / p))
    T[r, c] = 1.0 / p
    basis[r], nonbasic[c] = nonbasic[c], basis[r]


def _smallest_label(indices, labels) -> int:
    """The entry of ``indices`` whose variable has the smallest label.

    Bland's rule picks by it, and the greedy rules break ties by it, as a
    tableau with its columns in label order would.
    """
    return int(indices[labels[indices].argmin()])


def _pivot_loop(T, basis, nonbasic, pivot_tol, stats) -> str:
    """Run primal simplex to optimality on a feasible tableau.

    Row ``m`` carries reduced costs for a maximization; a column enters while
    its reduced cost is below ``-pivot_tol``. Counts each pivot in ``stats``,
    at most ``DEFAULT_MAX_PIVOTS`` of them.
    """
    m = T.shape[0] - 1
    costs, values = T[m, :-1], T[:m, -1]
    if costs.size == 0:
        return "optimal"  # every variable is basic
    cap = stats["primal_pivots"] + DEFAULT_MAX_PIVOTS
    bland = False
    stall = 0
    while True:
        if bland:
            eligible = (costs < -pivot_tol).nonzero()[0]
            if eligible.size == 0:
                return "optimal"
            # Bland: entering variable with the smallest label.
            col = _smallest_label(eligible, nonbasic)
        else:
            col = int(costs.argmin())
            best = costs[col]
            if best >= -pivot_tol:
                return "optimal"
            tied = (costs == best).nonzero()[0]
            if tied.size > 1:
                col = _smallest_label(tied, nonbasic)

        col_vals = T[:m, col]
        rows = (col_vals > pivot_tol).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = values[rows] / col_vals[rows]
        ties = rows[ratios <= _min(ratios) + pivot_tol]
        if ties.size == 1:
            row = int(ties[0])
        elif bland:
            # Bland: leaving variable with the smallest label.
            row = _smallest_label(ties, basis)
        else:
            # Prefer a large pivot element for numerical stability.
            row = int(ties[col_vals[ties].argmax()])

        before = T[m, -1]
        _do_pivot(T, basis, nonbasic, row, col)
        stats["primal_pivots"] += 1
        if stats["primal_pivots"] > cap:
            raise SolverFailure(f"pivot cap of {DEFAULT_MAX_PIVOTS} exceeded")

        if not bland:
            stall = stall + 1 if T[m, -1] <= before + 1e-12 else 0
            if stall >= _STALL_LIMIT:
                bland = True
                stats["bland_switches"] += 1


def _dual_loop(T, basis, nonbasic, pivot_tol, stats):
    """Run dual simplex to optimality on a dual-feasible tableau.

    A row leaves while its basic value is below ``-pivot_tol``; the entering
    column keeps every reduced cost nonnegative. Counts each pivot in
    ``stats``, at most ``DEFAULT_MAX_PIVOTS`` of them.

    Raises:
        SolverFailure: a leaving row has no negative entry to pivot on. It
            would prove the program infeasible, but ``x = 0`` is feasible,
            so only round-off leads there.
    """
    m = T.shape[0] - 1
    costs, values = T[m, :-1], T[:m, -1]
    cap = stats["dual_pivots"] + DEFAULT_MAX_PIVOTS
    bland = False
    stall = 0
    while True:
        if bland:
            negative = (values < -pivot_tol).nonzero()[0]
            if negative.size == 0:
                return
            # Bland: leaving variable with the smallest label.
            row = _smallest_label(negative, basis)
        else:
            row = int(values.argmin())
            if values[row] >= -pivot_tol:
                return

        row_vals = T[row, :-1]
        cols = (row_vals < -pivot_tol).nonzero()[0]
        if cols.size == 0:
            raise SolverFailure(
                f"dual simplex row {row} has no entering column; the program "
                "is feasible at x = 0, so the tableau carries round-off"
            )
        ratios = np.maximum(costs[cols], 0.0) / -row_vals[cols]
        ties = cols[ratios <= _min(ratios) + pivot_tol]
        if ties.size == 1:
            col = int(ties[0])
        elif bland:
            # Bland: entering variable with the smallest label.
            col = _smallest_label(ties, nonbasic)
        else:
            # Prefer a large pivot element for numerical stability.
            pivots = row_vals[ties]
            col = _smallest_label(ties[pivots == pivots.min()], nonbasic)

        before = T[m, -1]
        _do_pivot(T, basis, nonbasic, row, col)
        stats["dual_pivots"] += 1
        if stats["dual_pivots"] > cap:
            raise SolverFailure(f"pivot cap of {DEFAULT_MAX_PIVOTS} exceeded")

        if not bland:
            stall = stall + 1 if T[m, -1] >= before - 1e-12 else 0
            if stall >= _STALL_LIMIT:
                bland = True
                stats["bland_switches"] += 1


class Tableau:
    """Live condensed simplex tableau of one program; rows enter, objectives change.

    Built cold from a :class:`LinearProgram` at the slack basis, which every
    program's nonnegative rhs makes feasible, so the build makes no pivot.
    Its constraints are indexed as the program's are, and rows added later
    follow them. The variables are the structural ones and one slack per
    constraint, each with a stable label: the ``n`` structural variables
    first, then the slacks in constraint order, so constraint ``i``'s slack
    is label ``n + i``. The tableau is condensed (a dictionary, or Tucker,
    tableau): one row per basic variable, one column per nonbasic variable,
    and the basic values in the last column; row ``m`` holds the reduced
    costs of the maximization. Basic columns, unit vectors in a full
    tableau, are not stored, so a pivot is a Jordan exchange of one row
    label with one column label, and added rows never widen the tableau.
    Bland's rule picks the smallest label. The objective is held as a
    vector over every label, 0 on the slacks, so the cost row is
    ``c[basis] @ rows - c[nonbasic]`` and a row entering is eliminated over
    every basic row, its slack entries 0; a cold build, whose basis is all
    slacks, sets the cost row to ``0.0 - objective`` with no product. These
    products sum over every basic row, slack ones included, so their last
    bits can differ from sums over the structural rows alone.

    Args:
        lp: the program to build.
        pivot_tol: pivot and optimality tolerance of both pivot loops.
        stats: the dict, keyed by ``TABLEAU_STATS``, that :meth:`optimize`
            counts its work into as it happens; a fresh one when None.
    """

    def __init__(self, lp, *, pivot_tol=DEFAULT_PIVOT_TOL, stats=None):
        self.pivot_tol = pivot_tol
        self.stats = dict.fromkeys(TABLEAU_STATS, 0) if stats is None else stats
        m, n = lp.A_ub.shape
        self.rows = lp.A_ub.copy()
        self.rhs = lp.b_ub.copy()
        self._cost = np.zeros(n + m)  # the objective by label, 0 on the slacks
        self._cost[:n] = lp.objective
        self._T = np.zeros((m + 1, n + 1))
        self._T[:m, :n] = lp.A_ub
        self._T[:m, -1] = lp.b_ub
        # Every basic variable is a slack, of cost 0: no product.
        self._T[-1, :n] = 0.0 - lp.objective
        self._basis = n + np.arange(m)  # label of each row's basic variable
        self._nonbasic = np.arange(n)  # label of each column's nonbasic variable
        # The basic solution and its row excesses, until the basis or the
        # rows change: the objective does not enter them.
        self._checked = None

    @property
    def objective(self) -> np.ndarray:
        """The objective over the structural variables."""
        return self._cost[: self.rows.shape[1]]

    def _set_cost_row(self):
        """Reduced costs of the current objective in the current basis."""
        T, c = self._T, self._cost
        T[-1] = c[self._basis] @ T[:-1]
        T[-1, :-1] -= c[self._nonbasic]

    def basic_slacks(self) -> np.ndarray:
        """Mask over the constraints: those whose slack is basic.

        The others bind at the basic solution.
        """
        basic = np.zeros(self._cost.size, dtype=bool)
        basic[self._basis] = True
        return basic[self.rows.shape[1] :]

    def program(self) -> LinearProgram:
        """The program the tableau currently holds, in the same constraint order."""
        return LinearProgram(self.objective, self.rows, self.rhs)

    def add_rows(self, rows, rhs):
        """Append ``rows @ x <= rhs``; each row enters with its own basic slack.

        The rows are written over the nonbasic columns by eliminating the
        basic variables, so the tableau gains rows but no columns, and the
        reduced costs are untouched: an optimal basis stays dual feasible,
        and :meth:`optimize` restores primal feasibility by the dual
        simplex.

        Raises:
            LpInputError: a right-hand side is negative. The tableau is then
                left unchanged.
        """
        m, n = self.rows.shape
        A = np.asarray(rows, dtype=float).reshape(-1, n)
        rhs = np.asarray(rhs, dtype=float)
        _check_rhs(rhs)
        T = self._T
        # The new rows by label, with the rhs last: no old slack in them.
        wide = np.zeros((rhs.size, n + m + 1))
        wide[:, :n] = A
        wide[:, -1] = rhs
        block = wide[:, self._columns()] - wide[:, self._basis] @ T[:-1]
        self._T = np.concatenate([T[:-1], block, T[-1:]])
        self._basis = np.concatenate([self._basis, n + m + np.arange(rhs.size)])
        self._cost = np.concatenate([self._cost, np.zeros(rhs.size)])
        self.rows = np.concatenate([self.rows, A])
        self.rhs = np.concatenate([self.rhs, rhs])
        self._checked = None

    def _columns(self):
        """The label of each tableau column, -1 for the rhs: it indexes the
        last entry of a label vector with the rhs appended."""
        return np.append(self._nonbasic, -1)

    def refactor(self):
        """Recompute the tableau from the rows in the current basis.

        Sheds the round-off that pivots accumulate in a long-lived tableau.
        """
        m, n = self.rows.shape
        # The constraints by label, [rows | I | rhs].
        M = np.zeros((m, n + m + 1))
        M[:, :n] = self.rows
        M[:, n:-1] = np.eye(m)
        M[:, -1] = self.rhs
        try:
            self._T[:-1] = np.linalg.solve(M[:, self._basis], M[:, self._columns()])
        except np.linalg.LinAlgError:
            raise SolverFailure("basis matrix is singular") from None
        self._set_cost_row()
        self._checked = None

    def update_coefficient(self, row, column, value):
        """Set one coefficient of constraint ``row``, whose rhs must be 1 and
        the only nonzero one, by a rank-one update in the current basis.

        The rhs is then ``e_row``, so the last column ``t``, the basic
        values above the objective's value, is ``B^-1 e_row`` (cost row
        included): the direction along which a change ``delta`` of the
        coefficient moves the tableau. A nonbasic variable's column gains
        ``delta t``. A basic one's, in row r, changes column r of the basis
        matrix B, and Sherman-Morrison gives
        ``T -= (delta / a) outer(t, T[r])`` with ``a = 1 + delta t[r]``: the
        basic solution becomes ``x / a``. No pivot: the basis stays, and so
        does its dual feasibility.

        Raises:
            LpInputError: the rhs of ``row`` is not 1, or another is not 0.
            SolverFailure: ``a <= pivot_tol``: the changed basis matrix is
                singular, or its basic solution negative. The tableau is
                then left unchanged.
        """
        if self.rhs[row] != 1.0 or np.count_nonzero(self.rhs) != 1:
            raise LpInputError(f"the rhs must be 1 on constraint {row} and 0 elsewhere")
        T = self._T
        delta = value - self.rows[row, column]
        nonbasic = (self._nonbasic == column).nonzero()[0]
        if nonbasic.size:
            T[:, nonbasic[0]] += delta * T[:, -1]
        else:
            r = int((self._basis == column).nonzero()[0][0])
            a = 1.0 + delta * T[r, -1]
            if not a > self.pivot_tol:
                raise SolverFailure(f"basis matrix would be singular: a = {a}")
            T -= (delta / a) * np.outer(T[:, -1], T[r])
        self.rows[row, column] = value
        self._checked = None

    def set_objective(self, objective):
        """Switch to ``objective`` from the current basis.

        The basic solution and its verification stay: they depend on the
        basis and the rows alone.
        """
        objective = np.asarray(objective, dtype=float)
        if objective.shape != (self.rows.shape[1],):
            raise LpInputError("objective must keep the number of variables")
        self._cost[: objective.size] = objective
        self._set_cost_row()

    def at_optimum(self) -> bool:
        """Whether :meth:`optimize` would return at once: no pivot, no refactor.

        True when no basic value and no reduced cost is below ``-pivot_tol``
        and the basic solution violates no row by more than ``_DRIFT_TOL``.
        """
        T, tol = self._T, self.pivot_tol
        return bool(
            _min(T[:-1, -1], initial=0.0) >= -tol
            and _min(T[-1, :-1], initial=0.0) >= -tol
            and self._residual() <= _DRIFT_TOL
        )

    def optimize(self) -> LpStatus:
        """Re-optimize from the current basis.

        A primal-feasible tableau runs the primal simplex; one that lost
        primal feasibility to added rows runs the dual simplex first. Basic
        values below zero by at most ``DEFAULT_FEAS_TOL``, round-off of
        earlier pivots, are left to the primal simplex when the reduced
        costs do not allow the dual. An optimum that violates a row by more
        than ``_DRIFT_TOL`` is refactored from the rows and re-optimized
        once. Pivots, that refactor and switches to Bland's rule count in
        ``stats`` as they happen, so a call that raises has counted its
        work.

        Raises:
            SolverFailure: more than ``DEFAULT_MAX_PIVOTS`` pivots in one
                pivot loop, or round-off left the basis neither primal nor
                dual feasible, or left the dual simplex no entering column
                (rebuild the tableau cold).
        """
        status = self._optimize()
        if status is LpStatus.OPTIMAL and self._residual() > _DRIFT_TOL:
            self.refactor()
            self.stats["refactors"] += 1
            status = self._optimize()
        return status

    def _residual(self):
        """Largest violation of a row by the basic solution."""
        return self._check()[2]

    def _check(self):
        """The basic solution, by how much it violates each row, and the most.

        Computed once per basis: the drift check of :meth:`optimize` and the
        verification of :meth:`outcome` share it.
        """
        if self._checked is None:
            x = self._solution()
            excess = _excess(self.rows, self.rhs, x)
            self._checked = (x, excess, _max(excess, initial=0.0))
        return self._checked

    def _solution(self):
        """The basic solution over the structural variables."""
        x = np.zeros(self._cost.size)
        x[self._basis] = self._T[:-1, -1]
        return x[: self.rows.shape[1]]

    def _optimize(self):
        T, basis, nonbasic, tol = self._T, self._basis, self._nonbasic, self.pivot_tol
        self._checked = None
        lowest = _min(T[:-1, -1], initial=0.0)
        if lowest < -tol:
            if (T[-1, :-1] < -tol).any():
                if lowest < -DEFAULT_FEAS_TOL:
                    raise SolverFailure("basis is neither primal nor dual feasible")
            else:
                _dual_loop(T, basis, nonbasic, tol, self.stats)
        status = _pivot_loop(T, basis, nonbasic, tol, self.stats)
        if status == "unbounded":
            return LpStatus.UNBOUNDED
        return LpStatus.OPTIMAL

    def outcome(self) -> LpOutcome:
        """The optimal outcome at the current basis, verified against every row.

        Raises:
            SolverFailure: the basic solution violates a row or a sign
                constraint by more than ``DEFAULT_FEAS_TOL``.
        """
        x, excess, worst = self._check()
        lowest = _min(x, initial=0.0)
        _verify(lowest, excess, worst)
        if lowest < 0.0:
            x = np.where(x < 0.0, 0.0, x)  # verified within tolerance
        value = float(self.objective @ x)
        x.setflags(write=False)
        return LpOutcome(status=LpStatus.OPTIMAL, value=value, assignment=x)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` by the dense tableau simplex, from the slack basis.

    Returns:
        LpOutcome with status Optimal (value and assignment set) or
        Unbounded. Same input bits always produce the same output bits,
        for a fixed BLAS thread count: the tableau's matrix products go
        through BLAS, whose summation order can change with it.

    Raises:
        SolverFailure: pivot cap exceeded, round-off, or the computed
            assignment fails feasibility verification.
    """
    tableau = Tableau(lp)
    status = tableau.optimize()
    if status is not LpStatus.OPTIMAL:
        return LpOutcome(status=status)
    return tableau.outcome()


def _excess(rows, rhs, x):
    """By how much ``x`` violates each row (negative where it holds strictly)."""
    return rows @ x - rhs


def _verify(lowest, excess, worst):
    """Raise unless an assignment is feasible: its smallest entry is ``lowest``,
    its row violations are ``excess`` and the largest of them is ``worst``."""
    if lowest < -DEFAULT_FEAS_TOL:
        raise SolverFailure("assignment violates nonnegativity beyond tolerance")
    if worst > DEFAULT_FEAS_TOL:
        i = int((excess > DEFAULT_FEAS_TOL).argmax())
        raise SolverFailure(f"assignment violates constraint {i} by {excess[i]:.3e}")
