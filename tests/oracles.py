"""Independent brute-force oracles used to cross-check the real implementations.

Everything here is deliberately naive: enumeration plus direct checks, sharing
no code path with the solvers under test. ``FullTableau`` is the simplex
tableau that keeps a column for every variable, the reference for the
condensed live tableau of ``metricdist.linprog``.
"""

from __future__ import annotations

import itertools

import numpy as np


def point_is_feasible(lp, x, tol=1e-9):
    if (np.asarray(x)[lp.nonneg] < -tol).any():
        return False
    lhs = lp.rows @ x
    for i, rel in enumerate(lp.relations):
        err = lhs[i] - lp.rhs[i]
        if rel == "<=" and err > tol:
            return False
        if rel == ">=" and err < -tol:
            return False
        if rel == "=" and abs(err) > tol:
            return False
    return True


def brute_force_lp_best(lp, tol=1e-9):
    """Best objective over all basic feasible points of ``lp``.

    Intersects every size-``num_vars`` subset of constraint hyperplanes
    (variable bounds included), keeps the feasible ones, and takes the best
    objective. Returns ``(value, point)`` or ``(None, None)`` when no basic
    feasible point exists.
    """
    n = lp.num_vars
    planes = [(np.asarray(row), float(b)) for row, b in zip(lp.rows, lp.rhs)]
    for i in range(n):
        if lp.nonneg[i]:
            e = np.zeros(n)
            e[i] = 1.0
            planes.append((e, 0.0))

    best_val, best_x = None, None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, b)
        if not point_is_feasible(lp, x, tol):
            continue
        val = float(lp.objective @ x)
        if best_val is None or (val > best_val if lp.sense == "max" else val < best_val):
            best_val, best_x = val, x
    return best_val, best_x


def naive_grid_search(profile, metric_weights, grid_values):
    """Max cost ratio over every grid matrix, filtered by direct definition checks.

    ``metric_weights`` is the probability vector of the evaluated outcome
    (a point mass for a deterministic winner). Used only at very small sizes
    to validate the fast grid oracle.
    """
    n, m = profile.num_agents, profile.num_alternatives
    best = 0.0
    for flat in itertools.product(grid_values, repeat=n * m):
        d = np.array(flat, dtype=float).reshape(n, m)
        if not _naive_consistent(d, profile):
            continue
        if not _naive_q_metric(d):
            continue
        col_sums = d.sum(axis=0)
        denom = col_sums.min()
        if denom <= 0.0:
            continue
        best = max(best, float(metric_weights @ col_sums) / denom)
    return best


def _naive_q_metric(d, tol=1e-9):
    n, m = d.shape
    for v in range(n):
        for vp in range(n):
            for c in range(m):
                for cp in range(m):
                    if d[v, c] > d[v, cp] + d[vp, cp] + d[vp, c] + tol:
                        return False
    return True


def _naive_consistent(d, profile, tol=1e-9):
    for v, ranking in enumerate(profile.rankings):
        for t in range(len(ranking) - 1):
            if d[v, ranking[t]] > d[v, ranking[t + 1]] + tol:
                return False
    return True


# ---------------------------------------------------------------------------
# Full-width simplex tableau: the reference for the condensed live tableau

_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}
_STALL_LIMIT = 500


def _do_pivot(T, r, c):
    T[r, :] /= T[r, c]
    col = T[:, c].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r, :])
    T[:, c] = 0.0
    T[r, c] = 1.0


def _pivot_loop(T, basis, tol):
    """Primal simplex on a feasible full tableau; row ``m`` holds reduced costs."""
    m = T.shape[0] - 1
    bland = False
    stall = 0
    while True:
        obj_row = T[m, :-1]
        if bland:
            eligible = np.flatnonzero(obj_row < -tol)
            if eligible.size == 0:
                return "optimal"
            col = int(eligible[0])
        else:
            col = int(np.argmin(obj_row))
            if obj_row[col] >= -tol:
                return "optimal"
        col_vals = T[:m, col]
        positive = col_vals > tol
        if not positive.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[positive] = T[:m, -1][positive] / col_vals[positive]
        ties = np.flatnonzero(ratios <= ratios.min() + tol)
        if bland:
            row = int(ties[np.argmin(basis[ties])])
        else:
            row = int(ties[np.argmax(np.abs(col_vals[ties]))])
        before = T[m, -1]
        _do_pivot(T, row, col)
        basis[row] = col
        if not bland:
            stall = stall + 1 if T[m, -1] <= before + 1e-12 else 0
            bland = stall >= _STALL_LIMIT


def _dual_loop(T, basis, tol):
    """Dual simplex on a dual-feasible full tableau."""
    m = T.shape[0] - 1
    bland = False
    stall = 0
    while True:
        values = T[:m, -1]
        if bland:
            negative = np.flatnonzero(values < -tol)
            if negative.size == 0:
                return "optimal"
            row = int(negative[np.argmin(basis[negative])])
        else:
            row = int(np.argmin(values))
            if values[row] >= -tol:
                return "optimal"
        row_vals = T[row, :-1]
        cols = np.flatnonzero(row_vals < -tol)
        if cols.size == 0:
            return "infeasible"
        ratios = np.maximum(T[m, cols], 0.0) / -row_vals[cols]
        ties = cols[ratios <= ratios.min() + tol]
        col = int(ties[0]) if bland else int(ties[np.argmax(np.abs(row_vals[ties]))])
        before = T[m, -1]
        _do_pivot(T, row, col)
        basis[row] = col
        if not bland:
            stall = stall + 1 if T[m, -1] >= before - 1e-12 else 0
            bland = stall >= _STALL_LIMIT


class FullTableau:
    """Live simplex tableau that keeps a column for every variable.

    One column per structural variable (free ones split in two) and per
    slack, basic ones included; phase-1 artificial columns live until phase
    1 ends. Supports the same warm operations as ``linprog.Tableau`` and
    answers with plain strings: ``optimize()`` returns ``"optimal"``,
    ``"infeasible"`` or ``"unbounded"``, and ``solution()`` the basic point.
    """

    def __init__(self, lp, tol=1e-9, feas_tol=1e-7):
        self.sense = lp.sense
        self.objective = np.array(lp.objective, dtype=float)
        self.rows = np.array(lp.rows, dtype=float).reshape(-1, lp.num_vars)
        self.sign = np.array([_SIGN[rel] for rel in lp.relations])
        self.rhs = np.array(lp.rhs, dtype=float)
        self.free = np.flatnonzero(~np.asarray(lp.nonneg))
        self.n_struct = lp.num_vars + self.free.size
        self.tol = tol
        self.infeasible = False
        self._build(feas_tol)

    def _std(self, rows):
        return np.hstack([rows, -rows[:, self.free]])

    def _build(self, feas_tol):
        A = self._std(self.rows)
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
        keep = list(range(m))
        if art.size:
            T[m, a0:n_total] = 1.0
            T[m, :] -= T[art].sum(axis=0)
            _pivot_loop(T, basis, self.tol)
            if T[m, -1] < -feas_tol:
                self.infeasible = True
                return
            keep = []
            for i in range(m):
                if basis[i] >= a0:
                    nonzero = np.flatnonzero(np.abs(T[i, :a0]) > self.tol)
                    if nonzero.size == 0:
                        continue
                    _do_pivot(T, i, int(nonzero[0]))
                    basis[i] = int(nonzero[0])
                keep.append(i)
            T = T[np.ix_(keep + [m], list(range(a0)) + [n_total])]
            basis = basis[keep]
        self.T, self.basis, self.slack = T, basis, slack
        self.kept = np.zeros(m, dtype=bool)
        self.kept[keep] = True
        self._set_cost_row()

    def _set_cost_row(self):
        T, basis = self.T, self.basis
        c = np.zeros(T.shape[1] - 1)
        n = self.objective.size
        c[:n] = self.objective if self.sense == "max" else -self.objective
        c[n : self.n_struct] = -c[self.free]
        T[-1, :-1] = -c
        T[-1, -1] = 0.0
        T[-1, :] += c[basis] @ T[:-1, :]
        T[-1, basis] = 0.0

    def add_rows(self, rows, rhs):
        """Append ``rows @ x <= rhs``, each with a new basic slack column."""
        rows = np.asarray(rows, dtype=float).reshape(-1, self.objective.size)
        rhs = np.asarray(rhs, dtype=float)
        k = rhs.size
        T, basis = self.T, self.basis
        m, width = T.shape[0] - 1, T.shape[1] - 1
        A = self._std(rows)
        new = np.zeros((m + k + 1, width + k + 1))
        new[:m, :width] = T[:m, :-1]
        new[:m, -1] = T[:m, -1]
        new[-1, :width] = T[-1, :-1]
        new[-1, -1] = T[-1, -1]
        block = new[m : m + k]
        block[:, : self.n_struct] = A
        block[:, width : width + k] = np.eye(k)
        block[:, -1] = rhs
        structural = basis < self.n_struct
        block -= A[:, basis[structural]] @ new[:m][structural]
        block[:, basis] = 0.0
        self.T = new
        self.basis = np.concatenate([basis, width + np.arange(k)])
        self.slack = np.concatenate([self.slack, width + np.arange(k)])
        self.kept = np.concatenate([self.kept, np.ones(k, dtype=bool)])
        self.rows = np.vstack([self.rows, rows])
        self.rhs = np.concatenate([self.rhs, rhs])
        self.sign = np.concatenate([self.sign, np.ones(k)])

    def remove_rows(self, indices):
        """Delete those constraints ``indices`` whose slack is basic; their mask."""
        indices = np.asarray(indices, dtype=int)
        T, basis = self.T, self.basis
        width = T.shape[1] - 1
        where = np.full(width + 1, -1)
        where[basis] = np.arange(basis.size)
        cols = self.slack[indices]
        removed = where[cols] >= 0
        indices, cols = indices[removed], cols[removed]
        keep_cols = np.ones(width + 1, dtype=bool)
        keep_cols[cols] = False
        keep_rows = np.ones(T.shape[0], dtype=bool)
        keep_rows[where[cols]] = False
        renumber = np.cumsum(keep_cols[:-1]) - 1
        self.T = T[np.ix_(keep_rows, keep_cols)]
        self.basis = renumber[basis[keep_rows[:-1]]]
        slack = np.delete(self.slack, indices)
        self.slack = np.where(slack >= 0, renumber[slack], -1)
        self.kept = np.delete(self.kept, indices)
        self.rows = np.delete(self.rows, indices, axis=0)
        self.rhs = np.delete(self.rhs, indices)
        self.sign = np.delete(self.sign, indices)
        return removed

    def refactor(self):
        T, basis, kept = self.T, self.basis, self.kept
        M = np.zeros((int(kept.sum()), T.shape[1]))
        M[:, : self.n_struct] = self._std(self.rows[kept])
        M[:, -1] = self.rhs[kept]
        slack = self.slack[kept]
        has = np.flatnonzero(slack >= 0)
        M[has, slack[has]] = self.sign[kept][has]
        T[:-1] = np.linalg.solve(M[:, basis], M)
        T[:-1, basis] = np.eye(basis.size)
        self._set_cost_row()

    def set_objective(self, objective):
        self.objective = np.asarray(objective, dtype=float)
        self._set_cost_row()

    def optimize(self):
        if self.infeasible:
            return "infeasible"
        T, basis = self.T, self.basis
        if T[:-1, -1].min(initial=0.0) < -self.tol:
            if _dual_loop(T, basis, self.tol) == "infeasible":
                return "infeasible"
        return _pivot_loop(T, basis, self.tol)

    def solution(self):
        x_std = np.zeros(self.T.shape[1] - 1)
        x_std[self.basis] = self.T[:-1, -1]
        n = self.objective.size
        x = x_std[:n].copy()
        x[self.free] -= x_std[n : self.n_struct]
        return x
