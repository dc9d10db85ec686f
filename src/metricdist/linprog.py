"""Dense simplex solver with a live tableau.

Every distortion, fairness, and instance-optimality computation in this
package reduces to small dense linear programs; this module solves them
deterministically without an external solver. A :class:`Tableau` is built
cold by the two-phase method and then stays live: rows added to it enter
against the current basis and are re-optimized by the dual simplex (the old
basis stays dual feasible), and a new objective resumes the primal simplex
from the last optimal basis. :func:`solve` is a cold build plus one
optimization. Both pivot loops run a greedy rule for speed and switch
permanently to Bland's rule after a stall, so termination is guaranteed
even on the highly degenerate metric polytopes this package produces.
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
    __slots__ = ("pivots", "cap")

    def __init__(self, cap):
        self.pivots = 0
        self.cap = cap

    def tick(self):
        self.pivots += 1
        if self.pivots > self.cap:
            raise SolverFailure(f"pivot cap of {self.cap} exceeded")


def _do_pivot(T, r, c):
    T[r, :] /= T[r, c]
    col = T[:, c].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r, :])
    T[:, c] = 0.0
    T[r, c] = 1.0


def _pivot_loop(T, basis, pivot_tol, counter) -> str:
    """Run primal simplex to optimality on a feasible tableau.

    Row ``m`` carries reduced costs for a maximization; a column enters while
    its reduced cost is below ``-pivot_tol``.
    """
    m = T.shape[0] - 1
    bland = False
    stall = 0
    while True:
        obj_row = T[m, :-1]
        if bland:
            eligible = np.flatnonzero(obj_row < -pivot_tol)
            if eligible.size == 0:
                return "optimal"
            col = int(eligible[0])
        else:
            col = int(np.argmin(obj_row))
            if obj_row[col] >= -pivot_tol:
                return "optimal"

        col_vals = T[:m, col]
        positive = col_vals > pivot_tol
        if not positive.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[positive] = T[:m, -1][positive] / col_vals[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + pivot_tol)
        if bland:
            # Bland: leaving variable with the smallest index.
            row = int(ties[np.argmin(basis[ties])])
        else:
            # Prefer a large pivot element for numerical stability.
            row = int(ties[np.argmax(np.abs(col_vals[ties]))])

        before = T[m, -1]
        _do_pivot(T, row, col)
        basis[row] = col
        counter.tick()

        if not bland:
            stall = stall + 1 if T[m, -1] <= before + 1e-12 else 0
            if stall >= _STALL_LIMIT:
                bland = True


def _dual_loop(T, basis, pivot_tol, counter) -> str:
    """Run dual simplex to optimality on a dual-feasible tableau.

    A row leaves while its basic value is below ``-pivot_tol``; the entering
    column keeps every reduced cost nonnegative. Returns ``"infeasible"``
    when a leaving row has no negative entry to pivot on.
    """
    m = T.shape[0] - 1
    bland = False
    stall = 0
    while True:
        values = T[:m, -1]
        if bland:
            negative = np.flatnonzero(values < -pivot_tol)
            if negative.size == 0:
                return "optimal"
            # Bland: leaving variable with the smallest index.
            row = int(negative[np.argmin(basis[negative])])
        else:
            row = int(np.argmin(values))
            if values[row] >= -pivot_tol:
                return "optimal"

        row_vals = T[row, :-1]
        cols = np.flatnonzero(row_vals < -pivot_tol)
        if cols.size == 0:
            return "infeasible"
        ratios = np.maximum(T[m, cols], 0.0) / -row_vals[cols]
        ties = cols[ratios <= ratios.min() + pivot_tol]
        if bland:
            # Bland: entering variable with the smallest index.
            col = int(ties[0])
        else:
            # Prefer a large pivot element for numerical stability.
            col = int(ties[np.argmax(np.abs(row_vals[ties]))])

        before = T[m, -1]
        _do_pivot(T, row, col)
        basis[row] = col
        counter.tick()

        if not bland:
            stall = stall + 1 if T[m, -1] >= before - 1e-12 else 0
            if stall >= _STALL_LIMIT:
                bland = True


class Tableau:
    """Live simplex tableau of one program; rows and objective can change.

    Built cold by the two-phase method from ``(rows, relations, rhs)``. Its
    columns are the structural variables (free ones split in two), then one
    slack column per inequality; row ``m`` holds the reduced costs of a
    maximization and the last column the basic values. A program found
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
        self._free = np.flatnonzero(~self.nonneg)
        self._n_struct = n + self._free.size
        self._infeasible = False
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
        art = np.flatnonzero(sign != 1.0)
        a0 = n_struct + ineq.size
        n_total = a0 + art.size

        T = np.zeros((m + 1, n_total + 1))
        T[:m, :n_struct] = A
        T[:m, -1] = b
        slack = np.full(m, -1)
        slack[ineq] = n_struct + np.arange(ineq.size)
        T[ineq, slack[ineq]] = sign[ineq]
        basis = slack.copy()
        basis[art] = a0 + np.arange(art.size)
        T[art, basis[art]] = 1.0

        if art.size:
            # Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
            counter = _PivotCounter(self.max_pivots)
            T[m, a0:n_total] = 1.0
            T[m, :] -= T[art].sum(axis=0)
            status = _pivot_loop(T, basis, self.pivot_tol, counter)
            if status != "optimal":
                raise SolverFailure("phase 1 reported unbounded; numerical trouble")
            if T[m, -1] < -self.feas_tol:
                self.primal_pivots += counter.pivots
                self._infeasible = True
                return

            # Pivot leftover artificials out of the basis; a row where that
            # is impossible is redundant and gets dropped.
            keep = []
            for i in range(m):
                if basis[i] >= a0:
                    nonzero = np.flatnonzero(np.abs(T[i, :a0]) > self.pivot_tol)
                    if nonzero.size == 0:
                        continue
                    _do_pivot(T, i, int(nonzero[0]))
                    basis[i] = int(nonzero[0])
                    counter.tick()
                keep.append(i)
            self.primal_pivots += counter.pivots
            T = T[np.ix_(keep + [m], list(range(a0)) + [n_total])]
            basis = basis[keep]

        self._T = T
        self._basis = basis
        # Constraint index -> its slack column, -1 for an equation.
        self._slack = slack
        # Constraints that have a tableau row (phase 1 drops redundant ones).
        self._kept = np.ones(m, dtype=bool)
        if art.size:
            self._kept[:] = False
            self._kept[keep] = True
        self._set_cost_row()

    def _set_cost_row(self):
        """Reduced costs of the current objective in the current basis."""
        T, basis = self._T, self._basis
        c = np.zeros(T.shape[1] - 1)
        c[: self.objective.size] = (
            self.objective if self.sense == "max" else -self.objective
        )
        if self._free.size:
            c[self.objective.size : self._n_struct] = -c[self._free]
        T[-1, :-1] = -c
        T[-1, -1] = 0.0
        T[-1, :] += c[basis] @ T[:-1, :]
        T[-1, basis] = 0.0

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

        The rows are eliminated against the current basis, so the reduced
        costs are untouched: an optimal basis stays dual feasible, and
        :meth:`optimize` restores primal feasibility by the dual simplex.
        """
        rows = np.asarray(rows, dtype=float).reshape(-1, self.objective.size)
        rhs = np.asarray(rhs, dtype=float)
        k = rhs.size
        T, basis = self._T, self._basis
        m, width = T.shape[0] - 1, T.shape[1] - 1
        A = self._std(rows)
        new = np.zeros((m + k + 1, width + k + 1))
        new[:m, :width] = T[:m, :-1]
        new[:m, -1] = T[:m, -1]
        new[-1, :width] = T[-1, :-1]
        new[-1, -1] = T[-1, -1]
        block = new[m : m + k]
        block[:, : self._n_struct] = A
        block[:, width : width + k] = np.eye(k)
        block[:, -1] = rhs
        structural = basis < self._n_struct
        if structural.any():
            coef = A[:, basis[structural]]
            block -= coef @ new[:m][structural]
        block[:, basis] = 0.0
        self._T = new
        self._basis = np.concatenate([basis, width + np.arange(k)])
        self._slack = np.concatenate([self._slack, width + np.arange(k)])
        self._kept = np.concatenate([self._kept, np.ones(k, dtype=bool)])
        self.rows = np.vstack([self.rows, rows])
        self.rhs = np.concatenate([self.rhs, rhs])
        self.sign = np.concatenate([self.sign, np.ones(k)])

    def remove_rows(self, indices) -> np.ndarray:
        """Delete those of the constraints ``indices`` whose slack is basic.

        The tableau without them is the tableau of the smaller program in
        the same basis, so optimality is kept. Equations and constraints
        with a nonbasic slack stay. Returns the mask of ``indices`` removed.
        """
        indices = np.asarray(indices, dtype=int)
        T, basis = self._T, self._basis
        width = T.shape[1] - 1
        where = np.full(width + 1, -1)
        where[basis] = np.arange(basis.size)
        cols = self._slack[indices]
        removed = where[cols] >= 0  # an equation's -1 hits the rhs column
        indices, cols = indices[removed], cols[removed]
        if indices.size == 0:
            return removed
        drop_rows = where[cols]
        keep_cols = np.ones(width + 1, dtype=bool)
        keep_cols[cols] = False
        keep_rows = np.ones(T.shape[0], dtype=bool)
        keep_rows[drop_rows] = False
        renumber = np.cumsum(keep_cols[:-1]) - 1
        self._T = T[np.ix_(keep_rows, keep_cols)]
        self._basis = renumber[basis[keep_rows[:-1]]]
        slack = np.delete(self._slack, indices)
        self._slack = np.where(slack >= 0, renumber[slack], -1)
        self._kept = np.delete(self._kept, indices)
        self.rows = np.delete(self.rows, indices, axis=0)
        self.rhs = np.delete(self.rhs, indices)
        self.sign = np.delete(self.sign, indices)
        return removed

    def refactor(self):
        """Recompute the tableau from the rows in the current basis.

        Sheds the round-off that pivots accumulate in a long-lived tableau.
        """
        T, basis = self._T, self._basis
        kept = self._kept
        M = np.zeros((int(kept.sum()), T.shape[1]))
        M[:, : self._n_struct] = self._std(self.rows[kept])
        M[:, -1] = self.rhs[kept]
        slack = self._slack[kept]
        has = np.flatnonzero(slack >= 0)
        M[has, slack[has]] = self.sign[kept][has]
        try:
            T[:-1] = np.linalg.solve(M[:, basis], M)
        except np.linalg.LinAlgError:
            raise SolverFailure("basis matrix is singular") from None
        T[:-1, basis] = np.eye(basis.size)
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
        return status

    def _residual(self):
        """Largest violation of a row by the basic solution."""
        excess = _excess(self.rows, self.sign, self.rhs, self._solution())
        return excess.max(initial=0.0)

    def _solution(self):
        """The basic solution over the original variables."""
        x_std = np.zeros(self._T.shape[1] - 1)
        x_std[self._basis] = self._T[:-1, -1]
        n = self.objective.size
        x = x_std[:n].copy()
        if self._free.size:
            x[self._free] -= x_std[n : self._n_struct]
        return x

    def _optimize(self, counter):
        T, basis, tol = self._T, self._basis, self.pivot_tol
        lowest = T[:-1, -1].min(initial=0.0)
        if lowest < -tol:
            if (T[-1, :-1] < -tol).any():
                if lowest < -self.feas_tol:
                    raise SolverFailure("basis is neither primal nor dual feasible")
            else:
                before = counter.pivots
                status = _dual_loop(T, basis, tol, counter)
                self.dual_pivots += counter.pivots - before
                if status == "infeasible":
                    return LpStatus.INFEASIBLE
        before = counter.pivots
        status = _pivot_loop(T, basis, tol, counter)
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
        x = self._solution()
        _verify(self.rows, self.sign, self.rhs, self.nonneg, x, self.feas_tol)
        x[self.nonneg & (x < 0.0)] = 0.0  # verified above to be within tolerance
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


def _verify(rows, sign, rhs, nonneg, x, feas_tol):
    if (x[nonneg] < -feas_tol).any():
        raise SolverFailure("assignment violates nonnegativity beyond tolerance")
    bad = np.flatnonzero(_excess(rows, sign, rhs, x) > feas_tol)
    if bad.size:
        i = int(bad[0])
        raise SolverFailure(
            f"assignment violates constraint {i} ({_RELATION_OF_SIGN[sign[i]]}) "
            f"by {abs(rows[i] @ x - rhs[i]):.3e}"
        )
