"""Dense simplex solver with a live condensed tableau.

Every distortion, fairness, and instance-optimality computation in this
package reduces to small dense linear programs; this module solves them
deterministically without an external solver. Every program has one form: a
:class:`LinearProgram` maximizes ``objective @ x`` over ``A_ub x <= b_ub``
and ``x >= 0``, with every entry of ``b_ub`` nonnegative. So ``x = 0`` is
always feasible, and a :class:`Tableau` is built cold at the slack basis
with no pivot. It then stays live: rows added to it enter against the
current basis and are re-optimized by the dual simplex (the old basis stays
dual feasible), rows removed from it leave a primal feasible basis, and a
new objective resumes the primal simplex from the last basis. When a single
constraint has a nonzero right-hand side, its row can be swapped for
another in place (:meth:`Tableau.replace_equation`), and
:meth:`Tableau.copy` lets one optimum seed another program. :func:`solve`
is a cold build plus one optimization. The tableau is condensed: it stores
only the columns of the nonbasic variables, so a pivot is a Jordan exchange
that updates (rows + 1) x (nonbasic + 1) cells. Both pivot loops run a
greedy rule for speed and switch permanently to Bland's rule after a stall,
so termination is guaranteed even on the highly degenerate metric polytopes
this package produces.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram",
    "LpInputError",
    "LpOutcome",
    "LpStatus",
    "SolverFailure",
    "Tableau",
    "solve",
]

DEFAULT_PIVOT_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-7
DEFAULT_MAX_PIVOTS = 1_000_000

# Consecutive pivots without objective progress tolerated under Dantzig's
# rule before switching to Bland's rule for the rest of the solve.
_STALL_LIMIT = 500
# Row violation by an optimal basic solution above which the tableau is
# refactored from its rows: round-off that many pivots have accumulated.
_DRIFT_TOL = 1e-11


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


class _PivotCounter:
    __slots__ = ("pivots", "cap", "bland_switches")

    def __init__(self, cap):
        self.pivots = 0
        self.cap = cap
        self.bland_switches = 0

    def tick(self):
        self.pivots += 1
        if self.pivots > self.cap:
            raise SolverFailure(f"pivot cap of {self.cap} exceeded")


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


def _pivot_loop(T, basis, nonbasic, pivot_tol, counter) -> str:
    """Run primal simplex to optimality on a feasible tableau.

    Row ``m`` carries reduced costs for a maximization; a column enters while
    its reduced cost is below ``-pivot_tol``.
    """
    m = T.shape[0] - 1
    costs, values = T[m, :-1], T[:m, -1]
    if costs.size == 0:
        return "optimal"  # every variable is basic
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
            best = costs.min()
            if best >= -pivot_tol:
                return "optimal"
            col = _smallest_label((costs == best).nonzero()[0], nonbasic)

        col_vals = T[:m, col]
        rows = (col_vals > pivot_tol).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = values[rows] / col_vals[rows]
        ties = rows[ratios <= ratios.min() + pivot_tol]
        if bland:
            # Bland: leaving variable with the smallest label.
            row = _smallest_label(ties, basis)
        else:
            # Prefer a large pivot element for numerical stability.
            row = int(ties[col_vals[ties].argmax()])

        before = T[m, -1]
        _do_pivot(T, basis, nonbasic, row, col)
        counter.tick()

        if not bland:
            stall = stall + 1 if T[m, -1] <= before + 1e-12 else 0
            if stall >= _STALL_LIMIT:
                bland = True
                counter.bland_switches += 1


def _dual_loop(T, basis, nonbasic, pivot_tol, counter):
    """Run dual simplex to optimality on a dual-feasible tableau.

    A row leaves while its basic value is below ``-pivot_tol``; the entering
    column keeps every reduced cost nonnegative.

    Raises:
        SolverFailure: a leaving row has no negative entry to pivot on. It
            would prove the program infeasible, but ``x = 0`` is feasible,
            so only round-off leads there.
    """
    m = T.shape[0] - 1
    costs, values = T[m, :-1], T[:m, -1]
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
        ties = cols[ratios <= ratios.min() + pivot_tol]
        if bland:
            # Bland: entering variable with the smallest label.
            col = _smallest_label(ties, nonbasic)
        else:
            # Prefer a large pivot element for numerical stability.
            pivots = row_vals[ties]
            col = _smallest_label(ties[pivots == pivots.min()], nonbasic)

        before = T[m, -1]
        _do_pivot(T, basis, nonbasic, row, col)
        counter.tick()

        if not bland:
            stall = stall + 1 if T[m, -1] >= before - 1e-12 else 0
            if stall >= _STALL_LIMIT:
                bland = True
                counter.bland_switches += 1


class Tableau:
    """Live condensed simplex tableau of one program; rows and objective can change.

    Built cold from a :class:`LinearProgram` at the slack basis, which every
    program's nonnegative rhs makes feasible, so the build makes no pivot.
    Its constraints are indexed as the program's are, and rows added later
    follow them. The variables are the structural ones and one slack per
    constraint, each with a stable label: structural variables first, then
    slacks in the order their constraints arrived. The tableau is condensed
    (a dictionary, or Tucker, tableau): one row per basic variable, one
    column per nonbasic variable, and the basic values in the last column;
    row ``m`` holds the reduced costs of the maximization. Basic columns,
    unit vectors in a full tableau, are not stored, so a pivot is a Jordan
    exchange of one row label with one column label, and added rows never
    widen the tableau. Bland's rule picks the smallest label.

    Args:
        lp: the program to build.
        pivot_tol: pivot and optimality tolerance of both pivot loops.
        feas_tol: the tolerance of the feasibility check in :meth:`outcome`,
            and how far below zero :meth:`optimize` lets a basic value drift
            when the basis is not dual feasible.
        max_pivots: pivot cap of each :meth:`optimize` call.
    """

    def __init__(
        self,
        lp,
        *,
        pivot_tol=DEFAULT_PIVOT_TOL,
        feas_tol=DEFAULT_FEAS_TOL,
        max_pivots=DEFAULT_MAX_PIVOTS,
    ):
        self.objective = lp.objective
        self.rows = lp.A_ub.copy()
        self.rhs = lp.b_ub.copy()
        self.pivot_tol = pivot_tol
        self.feas_tol = feas_tol
        self.max_pivots = max_pivots
        self.primal_pivots = 0
        self.dual_pivots = 0
        self.refactors = 0
        self.bland_switches = 0
        m, n = self.rows.shape
        self._T = np.zeros((m + 1, n + 1))
        self._T[:m, :n] = self.rows
        self._T[:m, -1] = self.rhs
        self._slack = n + np.arange(m)  # constraint -> label of its slack
        self._basis = self._slack.copy()  # label of each row's basic variable
        self._nonbasic = np.arange(n)  # label of each column's nonbasic variable
        self._next_label = n + m
        self._set_cost_row()

    def _set_cost_row(self):
        """Reduced costs of the current objective in the current basis."""
        T, basis, nonbasic = self._T, self._basis, self._nonbasic
        n = self.objective.size
        c = self.objective
        basic = np.flatnonzero(basis < n)
        T[-1] = c[basis[basic]] @ T[basic]
        structural = np.flatnonzero(nonbasic < n)
        T[-1, structural] -= c[nonbasic[structural]]
        # The basic solution and its row excesses, until the tableau changes.
        self._checked = None

    def copy(self) -> "Tableau":
        """An independent copy: changing either tableau leaves the other alone."""
        twin = copy.copy(self)
        for name in ("objective", "rows", "rhs", "_T", "_basis", "_nonbasic", "_slack"):
            setattr(twin, name, getattr(self, name).copy())
        twin._checked = None
        return twin

    def basic_slacks(self) -> np.ndarray:
        """Mask over the constraints: those whose slack is basic.

        :meth:`remove_rows` removes these without a pivot.
        """
        basic = np.zeros(self._next_label, dtype=bool)
        basic[self._basis] = True
        return basic[self._slack]

    def replace_equation(self, row):
        """Swap the row of the one constraint with a nonzero rhs, keeping the basis.

        With b the only nonzero rhs, the basic solution solves ``B x_B = b
        e_i``, so it only rescales, by b / s, where s = ``row @ x`` when the
        constraint binds (a constraint whose slack is basic has x = 0, and
        s = b): the basis stays primal feasible. The basis matrix changes
        in one row, a rank-one update of (rows + 1) x (nonbasic + 1) cells
        with no pivot. :meth:`optimize` then resumes the primal simplex.

        Raises:
            LpInputError: not exactly one constraint has a nonzero rhs, or
                ``row`` is not one entry per variable.
            SolverFailure: s / b is at most ``feas_tol``. The tableau is
                then left unchanged.
        """
        n = self.objective.size
        row = np.asarray(row, dtype=float)
        if row.shape != (n,):
            raise LpInputError(f"row must have {n} entries, got shape {row.shape}")
        nonzero = np.flatnonzero(self.rhs)
        if nonzero.size != 1:
            raise LpInputError(
                "the tableau must hold exactly one constraint with a nonzero "
                "right-hand side"
            )
        i = int(nonzero[0])
        delta = row - self.rows[i]
        if not delta.any():
            return
        T, basis, nonbasic = self._T, self._basis, self._nonbasic
        # w = (delta over the basic variables) @ B^-1 [N | b] - [delta_N | 0];
        # its last entry is delta @ x, so s = b + w[-1].
        basic = np.flatnonzero(basis < n)
        w = delta[basis[basic]] @ T[basic]
        structural = np.flatnonzero(nonbasic < n)
        w[structural] -= delta[nonbasic[structural]]
        b = self.rhs[i]
        s = b + w[-1]
        if not s / b > self.feas_tol:
            raise SolverFailure(
                f"new row is {s!r} at the basic solution, right-hand side "
                f"{b!r}: the basis would not stay feasible"
            )
        # Sherman-Morrison on the basis inverse: B'^-1 = B^-1 - u (delta_B
        # B^-1) / (s / b) with u = B^-1 e_i = x_B / b, the rhs column over b.
        T -= np.outer(T[:, -1], w / s)
        self.rows[i] = row
        self._checked = None

    def program(self) -> LinearProgram:
        """The program the tableau currently holds, in the same constraint order."""
        return LinearProgram(self.objective, self.rows, self.rhs)

    def add_rows(self, rows, rhs):
        """Append ``rows @ x <= rhs``; each row enters with its own basic slack.

        The rows are written over the nonbasic columns by eliminating the
        basic structural variables, so the tableau gains rows but no
        columns, and the reduced costs are untouched: an optimal basis stays
        dual feasible, and :meth:`optimize` restores primal feasibility by
        the dual simplex.

        Raises:
            LpInputError: a right-hand side is negative. The tableau is then
                left unchanged.
        """
        n = self.objective.size
        A = np.asarray(rows, dtype=float).reshape(-1, n)
        rhs = np.asarray(rhs, dtype=float)
        _check_rhs(rhs)
        k = rhs.size
        T, basis, nonbasic = self._T, self._basis, self._nonbasic
        block = np.zeros((k, T.shape[1]))
        structural = np.flatnonzero(nonbasic < n)
        block[:, structural] = A[:, nonbasic[structural]]
        block[:, -1] = rhs
        basic = np.flatnonzero(basis < n)
        block -= A[:, basis[basic]] @ T[basic]
        labels = self._next_label + np.arange(k)
        self._next_label += k
        self._T = np.vstack([T[:-1], block, T[-1:]])
        self._basis = np.concatenate([basis, labels])
        self._slack = np.concatenate([self._slack, labels])
        self.rows = np.vstack([self.rows, A])
        self.rhs = np.concatenate([self.rhs, rhs])
        self._checked = None

    def remove_rows(self, indices):
        """Delete the constraints ``indices``.

        A constraint whose slack is basic loses its row. One whose slack is
        nonbasic first has its slack pivoted into the basis: the pivot row
        is a row that stays, picked by a ratio test in whichever direction
        the slack moves least, so every basic value stays nonnegative (the
        slack itself may turn negative, since it goes with its row). The
        result is a primal feasible tableau of the smaller program; it stays
        optimal when every removed slack was basic. Each removal pivot counts
        as a primal pivot.

        Raises:
            SolverFailure: a nonbasic slack has no pivot in a row that
                stays. The pivots made before it keep the tableau valid for
                the program with every row still in it.
        """
        stays = np.ones(self.rhs.size, dtype=bool)
        stays[indices] = False
        self._checked = None
        T, basis, nonbasic = self._T, self._basis, self._nonbasic
        labels = self._slack[~stays]
        removed = np.zeros(self._next_label, dtype=bool)
        removed[labels] = True
        going = removed[basis]  # rows whose basic slack goes
        for c in np.flatnonzero(removed[nonbasic]):
            col = T[:-1, c]
            rows = np.flatnonzero(~going & (np.abs(col) > self.pivot_tol))
            if rows.size == 0:
                raise SolverFailure(
                    f"slack {nonbasic[c]} has no pivot in a row that stays; "
                    "its constraint cannot be removed"
                )
            ratios = np.maximum(T[rows, -1], 0.0) / np.abs(col[rows])
            ties = rows[ratios <= ratios.min() + self.pivot_tol]
            # Prefer a large pivot element for numerical stability.
            r = int(ties[np.abs(col[ties]).argmax()])
            _do_pivot(T, basis, nonbasic, r, c)
            going[r] = True
            self.primal_pivots += 1
        self._T = T[np.append(~going, True)]
        self._basis = basis[~going]
        self._slack = self._slack[stays]
        self.rows = self.rows[stays]
        self.rhs = self.rhs[stays]

    def refactor(self):
        """Recompute the tableau from the rows in the current basis.

        Sheds the round-off that pivots accumulate in a long-lived tableau.
        """
        basis, nonbasic = self._basis, self._nonbasic
        labels = np.concatenate([basis, nonbasic])
        # The constraints as [basic columns | nonbasic columns | rhs].
        M = np.zeros((basis.size, labels.size + 1))
        structural = np.flatnonzero(labels < self.objective.size)
        M[:, structural] = self.rows[:, labels[structural]]
        column_of = np.full(self._next_label, -1)
        column_of[labels] = np.arange(labels.size)
        M[np.arange(basis.size), column_of[self._slack]] = 1.0
        M[:, -1] = self.rhs
        try:
            self._T[:-1] = np.linalg.solve(M[:, : basis.size], M[:, basis.size :])
        except np.linalg.LinAlgError:
            raise SolverFailure("basis matrix is singular") from None
        self._set_cost_row()

    def set_objective(self, objective):
        """Switch to ``objective`` from the current basis."""
        objective = np.asarray(objective, dtype=float)
        if objective.shape != self.objective.shape:
            raise LpInputError("objective must keep the number of variables")
        self.objective = objective
        self._set_cost_row()

    def optimize(self) -> LpStatus:
        """Re-optimize from the current basis.

        A primal-feasible tableau runs the primal simplex; one that lost
        primal feasibility to added rows runs the dual simplex first. Basic
        values below zero by at most ``feas_tol``, round-off of earlier
        pivots, are left to the primal simplex when the reduced costs do
        not allow the dual. An optimum that violates a row by more than
        ``_DRIFT_TOL`` is refactored from the rows and re-optimized once.

        Raises:
            SolverFailure: pivot cap exceeded, or round-off left the basis
                neither primal nor dual feasible, or left the dual simplex no
                entering column (rebuild the tableau cold).
        """
        counter = _PivotCounter(self.max_pivots)
        try:
            status = self._optimize(counter)
            if status is LpStatus.OPTIMAL and self._residual() > _DRIFT_TOL:
                self.refactor()
                self.refactors += 1
                status = self._optimize(counter)
        finally:
            self.bland_switches += counter.bland_switches
        return status

    def _residual(self):
        """Largest violation of a row by the basic solution."""
        return self._check()[1].max(initial=0.0)

    def _check(self):
        """The basic solution and by how much it violates each row.

        Computed once per basis: the drift check of :meth:`optimize` and the
        verification of :meth:`outcome` share it.
        """
        if self._checked is None:
            x = self._solution()
            self._checked = (x, _excess(self.rows, self.rhs, x))
        return self._checked

    def _solution(self):
        """The basic solution over the structural variables."""
        x = np.zeros(self.objective.size)
        structural = self._basis < x.size
        x[self._basis[structural]] = self._T[:-1, -1][structural]
        return x

    def _optimize(self, counter):
        T, basis, nonbasic, tol = self._T, self._basis, self._nonbasic, self.pivot_tol
        self._checked = None
        lowest = T[:-1, -1].min(initial=0.0)
        if lowest < -tol:
            if (T[-1, :-1] < -tol).any():
                if lowest < -self.feas_tol:
                    raise SolverFailure("basis is neither primal nor dual feasible")
            else:
                before = counter.pivots
                try:
                    _dual_loop(T, basis, nonbasic, tol, counter)
                finally:
                    self.dual_pivots += counter.pivots - before
        before = counter.pivots
        try:
            status = _pivot_loop(T, basis, nonbasic, tol, counter)
        finally:
            self.primal_pivots += counter.pivots - before
        if status == "unbounded":
            return LpStatus.UNBOUNDED
        return LpStatus.OPTIMAL

    def outcome(self) -> LpOutcome:
        """The optimal outcome at the current basis, verified against every row.

        Raises:
            SolverFailure: the basic solution violates a row or a sign
                constraint by more than ``feas_tol``.
        """
        x, excess = self._check()
        _verify(x, excess, self.feas_tol)
        x = np.where(x < 0.0, 0.0, x)  # verified within tolerance
        value = float(self.objective @ x)
        x.setflags(write=False)
        return LpOutcome(status=LpStatus.OPTIMAL, value=value, assignment=x)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` by the dense tableau simplex, from the slack basis.

    Returns:
        LpOutcome with status Optimal (value and assignment set) or
        Unbounded. Same input bits always produce the same output bits.

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


def _verify(x, excess, feas_tol):
    """Raise unless ``x``, whose row violations are ``excess``, is feasible."""
    if (x < -feas_tol).any():
        raise SolverFailure("assignment violates nonnegativity beyond tolerance")
    bad = np.flatnonzero(excess > feas_tol)
    if bad.size:
        i = int(bad[0])
        raise SolverFailure(f"assignment violates constraint {i} by {excess[i]:.3e}")
