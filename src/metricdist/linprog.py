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
last basis. A changed constraint coefficient is taken in by refactoring
the tableau from its rows in the current basis. :func:`solve` is a cold
build plus one optimization. The tableau is condensed: it stores only the
columns of the nonbasic variables, so a pivot is a Jordan exchange that
updates (rows + 1) x (nonbasic + 1) cells. Its per-constraint arrays keep
spare rows from the build on, grown by doubling, so added rows are written
in place instead of copying the tableau on every addition. Both pivot
loops run a greedy rule for speed and switch permanently to Bland's rule
after a stall, so termination is guaranteed even on the highly degenerate
metric polytopes this package produces.
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
        counter.tick()

        if not bland:
            stall = stall + 1 if T[m, -1] >= before - 1e-12 else 0
            if stall >= _STALL_LIMIT:
                bland = True
                counter.bland_switches += 1


class Tableau:
    """Live condensed simplex tableau of one program; rows enter, objectives change.

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

    The arrays with one row per constraint (``rows``, ``rhs``, ``_T`` with
    its cost row below them, ``_basis`` and ``_slack``) are views of the
    leading rows of buffers with spare rows: a build leaves as many spare
    rows as it has rows, and :meth:`add_rows` writes into the spare rows,
    doubling the buffers when they are full. So a tableau's buffers hold at
    most twice the rows of its largest program.

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
        self.pivot_tol = pivot_tol
        self.feas_tol = feas_tol
        self.max_pivots = max_pivots
        self.primal_pivots = 0
        self.dual_pivots = 0
        self.refactors = 0
        self.bland_switches = 0
        m, n = lp.A_ub.shape
        capacity = 2 * m  # spare rows: the first additions write in place
        self._buffers = {
            "rows": np.empty((capacity, n)),
            "rhs": np.empty(capacity),
            "_T": np.zeros((capacity + 1, n + 1)),
            "_basis": np.empty(capacity, dtype=np.intp),  # each row's basic label
            "_slack": np.empty(capacity, dtype=np.intp),  # each constraint's slack
        }
        self._view(m)
        self.rows[:] = self._T[:m, :n] = lp.A_ub
        self.rhs[:] = self._T[:m, -1] = lp.b_ub
        self._basis[:] = self._slack[:] = n + np.arange(m)
        self._nonbasic = np.arange(n)  # label of each column's nonbasic variable
        self._next_label = n + m
        self._set_cost_row()

    def _view(self, m):
        """Point the per-constraint arrays at the leading rows of their buffers."""
        for name, buffer in self._buffers.items():
            setattr(self, name, buffer[: m + 1 if name == "_T" else m])

    def _set_cost_row(self):
        """Reduced costs of the current objective in the current basis."""
        T, basis, nonbasic = self._T, self._basis, self._nonbasic
        n = self.objective.size
        c = self.objective
        basic = (basis < n).nonzero()[0]
        T[-1] = c[basis[basic]] @ T[basic]
        structural = (nonbasic < n).nonzero()[0]
        T[-1, structural] -= c[nonbasic[structural]]
        # The basic solution and its row excesses, until the tableau changes.
        self._checked = None

    def basic_slacks(self) -> np.ndarray:
        """Mask over the constraints: those whose slack is basic.

        The others bind at the basic solution.
        """
        basic = np.zeros(self._next_label, dtype=bool)
        basic[self._basis] = True
        return basic[self._slack]

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
        m = self.rhs.size
        if m + k > self._buffers["rhs"].shape[0]:
            self._grow(max(m + k, 2 * m))
        buffers, basis, nonbasic = self._buffers, self._basis, self._nonbasic
        T = buffers["_T"]
        basic = (basis < n).nonzero()[0]
        elimination = A[:, basis[basic]] @ T[basic]
        T[m + k] = T[m]  # the cost row moves below the new rows
        block = T[m : m + k]
        block[:] = 0.0
        structural = (nonbasic < n).nonzero()[0]
        block[:, structural] = A[:, nonbasic[structural]]
        block[:, -1] = rhs
        block -= elimination
        labels = self._next_label + np.arange(k)
        self._next_label += k
        buffers["_basis"][m : m + k] = labels
        buffers["_slack"][m : m + k] = labels
        buffers["rows"][m : m + k] = A
        buffers["rhs"][m : m + k] = rhs
        self._view(m + k)
        self._checked = None

    def _grow(self, capacity):
        """Move the rows to buffers with room for ``capacity`` constraints."""
        for name, old in self._buffers.items():
            buffer = np.empty((capacity + (name == "_T"),) + old.shape[1:], old.dtype)
            held = getattr(self, name)
            buffer[: len(held)] = held
            self._buffers[name] = buffer
        self._view(self.rhs.size)

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

    def set_coefficient(self, row, column, value):
        """Set one constraint coefficient, then :meth:`refactor` in the current basis.

        Raises:
            SolverFailure: the basis matrix of the changed rows is singular.
        """
        self.rows[row, column] = value
        self.refactor()

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
        x = np.zeros(self.objective.size)
        structural = self._basis < x.size
        x[self._basis[structural]] = self._T[:-1, -1][structural]
        return x

    def _optimize(self, counter):
        T, basis, nonbasic, tol = self._T, self._basis, self._nonbasic, self.pivot_tol
        self._checked = None
        lowest = _min(T[:-1, -1], initial=0.0)
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
        x, excess, worst = self._check()
        lowest = _min(x, initial=0.0)
        _verify(lowest, excess, worst, self.feas_tol)
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


def _verify(lowest, excess, worst, feas_tol):
    """Raise unless an assignment is feasible: its smallest entry is ``lowest``,
    its row violations are ``excess`` and the largest of them is ``worst``."""
    if lowest < -feas_tol:
        raise SolverFailure("assignment violates nonnegativity beyond tolerance")
    if worst > feas_tol:
        i = int((excess > feas_tol).argmax())
        raise SolverFailure(f"assignment violates constraint {i} by {excess[i]:.3e}")
