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
    """Whether ``x >= 0`` and ``lp.A_ub @ x <= lp.b_ub``, within ``tol``."""
    return _feasible(x, lp.A_ub, lp.b_ub, (), (), tol)


def _feasible(x, A_ub, b_ub, A_eq, b_eq, tol):
    if (np.asarray(x) < -tol).any():
        return False
    for row, b in zip(A_ub, b_ub):
        if np.asarray(row) @ x - b > tol:
            return False
    for row, b in zip(A_eq, b_eq):
        if abs(np.asarray(row) @ x - b) > tol:
            return False
    return True


def brute_force_lp_best(
    objective, A_ub, b_ub, A_eq=(), b_eq=(), sense="max", tol=1e-9
):
    """Best objective over all basic feasible points of a program.

    The program optimizes (``sense`` is ``"max"`` or ``"min"``)
    ``objective @ x`` over ``x >= 0``, ``A_ub @ x <= b_ub`` and
    ``A_eq @ x = b_eq``, given as plain arrays, so that a program
    ``linprog`` cannot state can still serve as a reference. Intersects every
    size-``n`` subset of constraint hyperplanes (the bounds ``x >= 0``
    included), keeps the feasible ones, and takes the best objective.
    Returns ``(value, point)`` or ``(None, None)`` when no basic feasible
    point exists.
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    planes = [
        (np.asarray(row, dtype=float), float(b))
        for A, rhs in ((A_eq, b_eq), (A_ub, b_ub))
        for row, b in zip(A, rhs)
    ]
    for i in range(n):
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
        if not _feasible(x, A_ub, b_ub, A_eq, b_eq, tol):
            continue
        val = float(objective @ x)
        if best_val is None or (val > best_val if sense == "max" else val < best_val):
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


def naive_ranked_pairs(weights, edge_tie_break):
    """Ranked Pairs by a dense closure matrix: ``(winner, locked, reachable)``.

    Sorts the ordered pairs by weight, heaviest first, and among equal
    weights by their place in ``edge_tie_break``; locks each edge unless its
    head already reaches its tail, and widens the boolean transitive closure
    by an outer product after every lock. ``locked`` lists ``(i, j, w(i, j))``
    in locking order.
    """
    w = np.asarray(weights)
    m = w.shape[0]
    priority = {pair: rank for rank, pair in enumerate(edge_tie_break)}
    edges = sorted(
        ((i, j) for i in range(m) for j in range(m) if i != j),
        key=lambda pair: (-w[pair], priority[pair]),
    )
    locked = np.zeros((m, m), dtype=bool)
    reach = np.zeros((m, m), dtype=bool)
    sequence = []
    for i, j in edges:
        if reach[j, i]:
            continue
        locked[i, j] = True
        sequence.append((i, j, int(w[i, j])))
        src = reach[:, i].copy()
        src[i] = True
        dst = reach[j, :].copy()
        dst[j] = True
        reach |= np.outer(src, dst)
    (winner,) = np.flatnonzero(~locked.any(axis=0))
    return int(winner), sequence, reach


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
                return
            row = int(negative[np.argmin(basis[negative])])
        else:
            row = int(np.argmin(values))
            if values[row] >= -tol:
                return
        row_vals = T[row, :-1]
        cols = np.flatnonzero(row_vals < -tol)
        # A row without a column would prove the program infeasible; x = 0
        # is feasible.
        assert cols.size, "dual simplex row without an entering column"
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

    One column per structural variable and per slack, basic ones included.
    The program is ``linprog``'s one form, ``max`` over ``<=`` rows with a
    nonnegative rhs, so the tableau starts at the slack basis. Supports the
    same warm operations as ``linprog.Tableau`` and answers with plain
    strings: ``optimize()`` returns ``"optimal"`` or ``"unbounded"``, and
    ``solution()`` the basic point.
    """

    def __init__(self, lp, tol=1e-9):
        self.objective = np.array(lp.objective, dtype=float)
        self.rows = np.array(lp.A_ub, dtype=float)
        self.rhs = np.array(lp.b_ub, dtype=float)
        m, n = self.rows.shape
        self.n_struct = n
        self.tol = tol
        self.T = np.zeros((m + 1, n + m + 1))
        self.T[:m, :n] = self.rows
        self.T[:m, n : n + m] = np.eye(m)
        self.T[:m, -1] = self.rhs
        self.basis = n + np.arange(m)
        self.slack = self.basis.copy()
        self._set_cost_row()

    def _set_cost_row(self):
        T, basis = self.T, self.basis
        c = np.zeros(T.shape[1] - 1)
        c[: self.objective.size] = self.objective
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
        new = np.zeros((m + k + 1, width + k + 1))
        new[:m, :width] = T[:m, :-1]
        new[:m, -1] = T[:m, -1]
        new[-1, :width] = T[-1, :-1]
        new[-1, -1] = T[-1, -1]
        block = new[m : m + k]
        block[:, : self.n_struct] = rows
        block[:, width : width + k] = np.eye(k)
        block[:, -1] = rhs
        structural = basis < self.n_struct
        block -= rows[:, basis[structural]] @ new[:m][structural]
        block[:, basis] = 0.0
        self.T = new
        self.basis = np.concatenate([basis, width + np.arange(k)])
        self.slack = np.concatenate([self.slack, width + np.arange(k)])
        self.rows = np.vstack([self.rows, rows])
        self.rhs = np.concatenate([self.rhs, rhs])

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
        self.slack = renumber[np.delete(self.slack, indices)]
        self.rows = np.delete(self.rows, indices, axis=0)
        self.rhs = np.delete(self.rhs, indices)
        return removed

    def refactor(self):
        T, basis = self.T, self.basis
        M = np.zeros((self.rhs.size, T.shape[1]))
        M[:, : self.n_struct] = self.rows
        M[:, -1] = self.rhs
        M[np.arange(self.rhs.size), self.slack] = 1.0
        T[:-1] = np.linalg.solve(M[:, basis], M)
        T[:-1, basis] = np.eye(basis.size)
        self._set_cost_row()

    def set_objective(self, objective):
        self.objective = np.asarray(objective, dtype=float)
        self._set_cost_row()

    def optimize(self):
        T, basis = self.T, self.basis
        if T[:-1, -1].min(initial=0.0) < -self.tol:
            _dual_loop(T, basis, self.tol)
        return _pivot_loop(T, basis, self.tol)

    def solution(self):
        x = np.zeros(self.T.shape[1] - 1)
        x[self.basis] = self.T[:-1, -1]
        return x[: self.n_struct]


def naive_quadruples(n, m):
    """Every quadruple ``(v, v', c, c')`` with ``v != v'`` and ``c != c'``,
    in lexicographic order."""
    return [
        (v, vp, c, cp)
        for v in range(n)
        for vp in range(n)
        if v != vp
        for c in range(m)
        for cp in range(m)
        if c != cp
    ]


def naive_quadruple_rows(quads, n, m):
    """Rows of ``d(v,c) - d(v,c') - d(v',c') - d(v',c) <= 0`` over the ``N * M``
    entries in row-major order, built from the quadruple tuples one by one."""
    rows = np.zeros((len(quads), n * m))
    for r, (v, vp, c, cp) in enumerate(quads):
        rows[r, v * m + c] += 1.0
        rows[r, v * m + cp] -= 1.0
        rows[r, vp * m + cp] -= 1.0
        rows[r, vp * m + c] -= 1.0
    return rows


def naive_orbits(groups, k, s):
    """s-tuples of k-agent subsets, one per orbit, by product and filter.

    ``groups`` are the agents of each ranking. Subset by subset, every count
    vector over the blocks (agents that every earlier subset holds or leaves
    out alike) is enumerated by ``itertools.product`` and kept if it sums to
    k; the subset takes each block's lowest-indexed agents.
    """

    def extend(blocks, chosen):
        if len(chosen) == s:
            yield chosen
            return
        for counts in itertools.product(*(range(len(b) + 1) for b in blocks)):
            if sum(counts) != k:
                continue
            cut = list(zip(blocks, counts))
            subset = tuple(sorted(v for block, c in cut for v in block[:c]))
            parts = [p for block, c in cut for p in (block[:c], block[c:]) if p]
            yield from extend(parts, chosen + (subset,))

    return extend(groups, ())
