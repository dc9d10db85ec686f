"""Dense simplex solver with a live condensed tableau.

Every distortion, fairness, and instance-optimality computation in this
package reduces to small dense linear programs; this module solves them
deterministically without an external solver. A :class:`Tableau` is built
cold by the two-phase method and then stays live: rows added to it enter
against the current basis and are re-optimized by the dual simplex (the old
basis stays dual feasible), and a new objective resumes the primal simplex
from the last optimal basis. :func:`solve` is a cold build plus one
optimization. The tableau is condensed: it stores only the columns of the
nonbasic variables, so a pivot is a Jordan exchange that updates
(rows + 1) x (nonbasic + 1) cells. Both pivot loops run a greedy rule for
speed and switch permanently to Bland's rule after a stall, so termination
is guaranteed even on the highly degenerate metric polytopes this package
produces.
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

_RELATIONS = ("<=", "=", ">=")
# Relation as a sign: a row is violated when sign * (lhs - rhs) exceeds the
# tolerance, or |lhs - rhs| does for an equation (sign 0).
_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}
_RELATION_OF_SIGN = {1.0: "<=", 0.0: "=", -1.0: ">="}


class LpInputError(ValueError):
    """Malformed program: shape mismatch, unknown relation, non-finite data."""


class SolverFailure(RuntimeError):
    """Pivot cap exceeded, or the final basis failed feasibility verification.

    ``lp_text`` (a :meth:`LinearProgram.dump_text`) and ``profile_text``,
    when set, are enough to reproduce the failure.
    """

    def __init__(self, message, *, lp_text=None, profile_text=None):
        super().__init__(message)
        self.lp_text = lp_text
        self.profile_text = profile_text


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LinearProgram:
    """Immutable dense LP: optimize ``objective @ x`` over rows ``A x <rel> b``.

    Args:
        sense: ``"max"`` or ``"min"``.
        objective: coefficient vector, one entry per variable.
        constraints: iterable of ``(coefficients, relation, rhs)`` with
            relation in ``{"<=", "=", ">="}``.
        nonneg: per-variable flags, default all ``True``. Variables with a
            cleared flag are free and get split internally.
    """

    __slots__ = ("sense", "objective", "rows", "relations", "rhs", "nonneg")

    def __init__(self, sense, objective, constraints=(), nonneg=None):
        if sense not in ("max", "min"):
            raise LpInputError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise LpInputError("objective must be a nonempty vector")
        n = self.objective.size

        constraints = list(constraints)
        rows = np.zeros((len(constraints), n))
        rhs = np.zeros(len(constraints))
        relations = []
        for i, (coeffs, rel, b) in enumerate(constraints):
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (n,):
                raise LpInputError(
                    f"constraint {i}: expected {n} coefficients, got {coeffs.shape}"
                )
            if rel not in _RELATIONS:
                raise LpInputError(f"constraint {i}: unknown relation {rel!r}")
            rows[i] = coeffs
            relations.append(rel)
            rhs[i] = float(b)
        self.rows = rows
        self.relations = tuple(relations)
        self.rhs = rhs

        if nonneg is None:
            self.nonneg = np.ones(n, dtype=bool)
        else:
            self.nonneg = np.asarray(nonneg, dtype=bool)
            if self.nonneg.shape != (n,):
                raise LpInputError("nonneg flags must match num_vars")

        if not (
            np.isfinite(self.objective).all()
            and np.isfinite(self.rows).all()
            and np.isfinite(self.rhs).all()
        ):
            raise LpInputError("objective, rows and rhs must all be finite")

        for arr in (self.objective, self.rows, self.rhs, self.nonneg):
            arr.setflags(write=False)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return len(self.relations)

    def dump_text(self) -> str:
        """Plain-text dump, one constraint per line, for bug reports."""
        # tolist(): plain floats, whose repr is a number under every numpy
        objective = self.objective.tolist()
        lines = [f"{self.sense} " + " ".join(repr(c) for c in objective)]
        free = np.flatnonzero(~self.nonneg)
        if free.size:
            lines.append("free " + " ".join(str(i) for i in free))
        rows, rhs = self.rows.tolist(), self.rhs.tolist()
        for coeffs, rel, b in zip(rows, self.relations, rhs):
            lines.append(" ".join(repr(c) for c in coeffs) + f" {rel} {b!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict. ``value`` and ``assignment`` are set iff Optimal."""

    status: LpStatus
    value: float | None = None
    assignment: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


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


def _pivot_loop(T, basis, nonbasic, pivot_tol, counter, inert_from=None) -> str:
    """Run primal simplex to optimality on a feasible tableau.

    Row ``m`` carries reduced costs for a maximization; a column enters while
    its reduced cost is below ``-pivot_tol``. A variable labelled
    ``inert_from`` or above (a phase-1 artificial) that leaves the basis
    gets a zero column, so it never enters again.
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
        if inert_from is not None and nonbasic[col] >= inert_from:
            T[:, col] = 0.0
        counter.tick()

        if not bland:
            stall = stall + 1 if T[m, -1] <= before + 1e-12 else 0
            if stall >= _STALL_LIMIT:
                bland = True
                counter.bland_switches += 1


def _dual_loop(T, basis, nonbasic, pivot_tol, counter) -> str:
    """Run dual simplex to optimality on a dual-feasible tableau.

    A row leaves while its basic value is below ``-pivot_tol``; the entering
    column keeps every reduced cost nonnegative. Returns ``"infeasible"``
    when a leaving row has no negative entry to pivot on.
    """
    m = T.shape[0] - 1
    costs, values = T[m, :-1], T[:m, -1]
    bland = False
    stall = 0
    while True:
        if bland:
            negative = (values < -pivot_tol).nonzero()[0]
            if negative.size == 0:
                return "optimal"
            # Bland: leaving variable with the smallest label.
            row = _smallest_label(negative, basis)
        else:
            row = int(values.argmin())
            if values[row] >= -pivot_tol:
                return "optimal"

        row_vals = T[row, :-1]
        cols = (row_vals < -pivot_tol).nonzero()[0]
        if cols.size == 0:
            return "infeasible"
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

    Built cold by the two-phase method from ``(rows, relations, rhs)``. The
    variables are the structural ones (free ones split in two) and one slack
    per inequality, each with a stable label: structural variables first,
    then slacks in the order their constraints arrived. The tableau is
    condensed (a dictionary, or Tucker, tableau): one row per basic
    variable, one column per nonbasic variable, and the basic values in the
    last column; row ``m`` holds the reduced costs of a maximization. Basic
    columns, unit vectors in a full tableau, are not stored, so a pivot is a
    Jordan exchange of one row label with one column label, and added rows
    never widen the tableau. Bland's rule picks the smallest label. Phase-1
    artificials drop out once they leave the basis. A program found
    infeasible by phase 1 keeps no tableau and only answers
    :meth:`optimize`.

    Args:
        sense, objective, rows, relations, rhs, nonneg: as for
            :class:`LinearProgram`, with ``rows`` a 2-d array.
        pivot_tol: pivot and optimality tolerance of both pivot loops.
        feas_tol: phase-1 infeasibility threshold and the tolerance of the
            feasibility check in :meth:`outcome`.
        max_pivots: pivot cap of the cold build and of each
            :meth:`optimize` call.
    """

    def __init__(
        self,
        sense,
        objective,
        rows,
        relations,
        rhs,
        nonneg=None,
        *,
        pivot_tol=DEFAULT_PIVOT_TOL,
        feas_tol=DEFAULT_FEAS_TOL,
        max_pivots=DEFAULT_MAX_PIVOTS,
    ):
        self.sense = sense
        self.objective = np.asarray(objective, dtype=float)
        n = self.objective.size
        self.rows = np.array(rows, dtype=float).reshape(-1, n)
        self.sign = np.array([_SIGN[rel] for rel in relations])
        self.rhs = np.array(rhs, dtype=float)
        self.nonneg = (
            np.ones(n, dtype=bool) if nonneg is None else np.asarray(nonneg, bool)
        )
        self.pivot_tol = pivot_tol
        self.feas_tol = feas_tol
        self.max_pivots = max_pivots
        self.primal_pivots = 0
        self.dual_pivots = 0
        self.refactors = 0
        self.bland_switches = 0
        self._free = np.flatnonzero(~self.nonneg)
        self._n_struct = n + self._free.size
        self._infeasible = False
        # The basic solution and its row excesses, until the tableau changes.
        self._checked = None
        self._build()

    def _std(self, rows):
        """``rows`` over the structural columns: free variables split in two."""
        if self._free.size:
            return np.hstack([rows, -rows[:, self._free]])
        return rows

    def _build(self):
        A = self._std(self.rows).copy()
        b = self.rhs.copy()
        sign = self.sign.copy()
        flip = b < 0
        A[flip] *= -1.0
        b[flip] *= -1.0
        sign[flip] *= -1.0

        m, n_struct = A.shape
        ineq = np.flatnonzero(sign != 0.0)
        surplus = np.flatnonzero(sign == -1.0)
        art = np.flatnonzero(sign != 1.0)
        a0 = n_struct + ineq.size
        # Constraint index -> label of its slack, -1 for an equation.
        slack = np.full(m, -1)
        slack[ineq] = n_struct + np.arange(ineq.size)
        basis = slack.copy()
        basis[art] = a0 + np.arange(art.size)
        nonbasic = np.concatenate([np.arange(n_struct), slack[surplus]])

        T = np.zeros((m + 1, nonbasic.size + 1))
        T[:m, :n_struct] = A
        T[surplus, n_struct + np.arange(surplus.size)] = -1.0
        T[:m, -1] = b
        keep = list(range(m))

        if art.size:
            # Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
            counter = _PivotCounter(self.max_pivots)
            T[m] = -T[art].sum(axis=0)
            status = _pivot_loop(
                T, basis, nonbasic, self.pivot_tol, counter, inert_from=a0
            )
            if status != "optimal":
                raise SolverFailure("phase 1 reported unbounded; numerical trouble")
            self.bland_switches += counter.bland_switches
            if T[m, -1] < -self.feas_tol:
                self.primal_pivots += counter.pivots
                self._infeasible = True
                return

            # Pivot leftover artificials out of the basis; a row where that
            # is impossible is redundant and gets dropped.
            keep = []
            for i in range(m):
                if basis[i] >= a0:
                    nonzero = np.flatnonzero(
                        (nonbasic < a0) & (np.abs(T[i, :-1]) > self.pivot_tol)
                    )
                    if nonzero.size == 0:
                        continue
                    col = _smallest_label(nonzero, nonbasic)
                    _do_pivot(T, basis, nonbasic, i, col)
                    counter.tick()
                keep.append(i)
            self.primal_pivots += counter.pivots
            cols = np.flatnonzero(nonbasic < a0)
            T = T[np.ix_(keep + [m], np.append(cols, nonbasic.size))]
            basis, nonbasic = basis[keep], nonbasic[cols]

        self._T = T
        self._basis = basis  # label of each row's basic variable
        self._nonbasic = nonbasic  # label of each column's nonbasic variable
        self._slack = slack
        self._next_label = a0
        # Constraints that have a row in the basis system (phase 1 drops
        # redundant ones).
        self._kept = np.zeros(m, dtype=bool)
        self._kept[keep] = True
        self._set_cost_row()

    def _set_cost_row(self):
        """Reduced costs of the current objective in the current basis."""
        T, basis, nonbasic = self._T, self._basis, self._nonbasic
        c = np.zeros(self._n_struct)
        n = self.objective.size
        c[:n] = self.objective if self.sense == "max" else -self.objective
        c[n:] = -c[self._free]
        basic = np.flatnonzero(basis < self._n_struct)
        T[-1] = c[basis[basic]] @ T[basic]
        structural = np.flatnonzero(nonbasic < self._n_struct)
        T[-1, structural] -= c[nonbasic[structural]]
        self._checked = None

    @property
    def relations(self) -> tuple:
        return tuple(_RELATION_OF_SIGN[s] for s in self.sign)

    def program(self) -> LinearProgram:
        """The program the tableau currently holds, for dumps."""
        return LinearProgram(
            self.sense,
            self.objective,
            zip(self.rows, self.relations, self.rhs),
            nonneg=self.nonneg,
        )

    def add_rows(self, rows, rhs):
        """Append ``rows @ x <= rhs``; each row enters with its own basic slack.

        The rows are written over the nonbasic columns by eliminating the
        basic structural variables, so the tableau gains rows but no
        columns, and the reduced costs are untouched: an optimal basis stays
        dual feasible, and :meth:`optimize` restores primal feasibility by
        the dual simplex.
        """
        rows = np.asarray(rows, dtype=float).reshape(-1, self.objective.size)
        rhs = np.asarray(rhs, dtype=float)
        k = rhs.size
        T, basis, nonbasic = self._T, self._basis, self._nonbasic
        A = self._std(rows)
        block = np.zeros((k, T.shape[1]))
        structural = np.flatnonzero(nonbasic < self._n_struct)
        block[:, structural] = A[:, nonbasic[structural]]
        block[:, -1] = rhs
        basic = np.flatnonzero(basis < self._n_struct)
        block -= A[:, basis[basic]] @ T[basic]
        labels = self._next_label + np.arange(k)
        self._next_label += k
        self._T = np.vstack([T[:-1], block, T[-1:]])
        self._basis = np.concatenate([basis, labels])
        self._slack = np.concatenate([self._slack, labels])
        self._kept = np.concatenate([self._kept, np.ones(k, dtype=bool)])
        self.rows = np.vstack([self.rows, rows])
        self.rhs = np.concatenate([self.rhs, rhs])
        self.sign = np.concatenate([self.sign, np.ones(k)])
        self._checked = None

    def remove_rows(self, indices) -> np.ndarray:
        """Delete those of the constraints ``indices`` whose slack is basic.

        The tableau without their rows is the tableau of the smaller program
        in the same basis, so optimality is kept. Equations and constraints
        with a nonbasic slack stay. Returns the mask of ``indices`` removed.
        """
        indices = np.asarray(indices, dtype=int)
        labels = self._slack[indices]
        row_of = np.full(self._next_label, -1)
        row_of[self._basis] = np.arange(self._basis.size)
        rows = np.where(labels >= 0, row_of[labels], -1)
        removed = rows >= 0
        if not removed.any():
            return removed
        indices = indices[removed]
        keep = np.ones(self._T.shape[0], dtype=bool)
        keep[rows[removed]] = False
        self._T = self._T[keep]
        self._basis = self._basis[keep[:-1]]
        self._slack = np.delete(self._slack, indices)
        self._kept = np.delete(self._kept, indices)
        self.rows = np.delete(self.rows, indices, axis=0)
        self.rhs = np.delete(self.rhs, indices)
        self.sign = np.delete(self.sign, indices)
        self._checked = None
        return removed

    def refactor(self):
        """Recompute the tableau from the rows in the current basis.

        Sheds the round-off that pivots accumulate in a long-lived tableau.
        """
        basis, nonbasic, kept = self._basis, self._nonbasic, self._kept
        labels = np.concatenate([basis, nonbasic])
        # The kept constraints as [basic columns | nonbasic columns | rhs].
        M = np.zeros((basis.size, labels.size + 1))
        structural = np.flatnonzero(labels < self._n_struct)
        M[:, structural] = self._std(self.rows[kept])[:, labels[structural]]
        column_of = np.full(self._next_label, -1)
        column_of[labels] = np.arange(labels.size)
        slack = self._slack[kept]
        has = np.flatnonzero(slack >= 0)
        M[has, column_of[slack[has]]] = self.sign[kept][has]
        M[:, -1] = self.rhs[kept]
        try:
            self._T[:-1] = np.linalg.solve(M[:, : basis.size], M[:, basis.size :])
        except np.linalg.LinAlgError:
            raise SolverFailure("basis matrix is singular") from None
        self._set_cost_row()

    def set_objective(self, objective):
        """Switch to ``objective`` (same sense) from the current basis."""
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
            SolverFailure: pivot cap exceeded, or the basis is neither
                primal nor dual feasible (rebuild the tableau cold).
        """
        if self._infeasible:
            return LpStatus.INFEASIBLE
        counter = _PivotCounter(self.max_pivots)
        status = self._optimize(counter)
        if status is LpStatus.OPTIMAL and self._residual() > _DRIFT_TOL:
            self.refactor()
            self.refactors += 1
            status = self._optimize(counter)
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
            self._checked = (x, _excess(self.rows, self.sign, self.rhs, x))
        return self._checked

    def _solution(self):
        """The basic solution over the original variables."""
        x_std = np.zeros(self._n_struct)
        structural = self._basis < self._n_struct
        x_std[self._basis[structural]] = self._T[:-1, -1][structural]
        n = self.objective.size
        x = x_std[:n]
        if self._free.size:
            x[self._free] -= x_std[n:]
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
                status = _dual_loop(T, basis, nonbasic, tol, counter)
                self.dual_pivots += counter.pivots - before
                if status == "infeasible":
                    return LpStatus.INFEASIBLE
        before = counter.pivots
        status = _pivot_loop(T, basis, nonbasic, tol, counter)
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
        _verify(self.sign, self.nonneg, x, excess, self.feas_tol)
        x = np.where(self.nonneg & (x < 0.0), 0.0, x)  # verified within tolerance
        value = float(self.objective @ x)
        x.setflags(write=False)
        return LpOutcome(status=LpStatus.OPTIMAL, value=value, assignment=x)


def solve(
    lp: LinearProgram,
    *,
    pivot_tol: float = DEFAULT_PIVOT_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
    max_pivots: int = DEFAULT_MAX_PIVOTS,
) -> LpOutcome:
    """Solve ``lp`` by two-phase dense tableau simplex.

    Returns:
        LpOutcome with status Optimal (value and assignment set), Infeasible,
        or Unbounded. Same input bits always produce the same output bits.

    Raises:
        SolverFailure: pivot cap exceeded or the computed assignment fails
            feasibility verification. Distinct from an Infeasible outcome.
    """
    tableau = Tableau(
        lp.sense,
        lp.objective,
        lp.rows,
        lp.relations,
        lp.rhs,
        lp.nonneg,
        pivot_tol=pivot_tol,
        feas_tol=feas_tol,
        max_pivots=max_pivots,
    )
    status = tableau.optimize()
    if status is not LpStatus.OPTIMAL:
        return LpOutcome(status=status)
    return tableau.outcome()


def _excess(rows, sign, rhs, x):
    """By how much ``x`` violates each row (negative where it holds strictly)."""
    err = rows @ x - rhs
    return np.where(sign == 0.0, np.abs(err), sign * err)


def _verify(sign, nonneg, x, excess, feas_tol):
    """Raise unless ``x``, whose row violations are ``excess``, is feasible."""
    if (x[nonneg] < -feas_tol).any():
        raise SolverFailure("assignment violates nonnegativity beyond tolerance")
    bad = np.flatnonzero(excess > feas_tol)
    if bad.size:
        i = int(bad[0])
        raise SolverFailure(
            f"assignment violates constraint {i} ({_RELATION_OF_SIGN[sign[i]]}) "
            f"by {excess[i]:.3e}"
        )
