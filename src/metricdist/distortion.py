"""Worst-case cost ratios over ranking-consistent metrics, certified by LP.

The admissible cost matrices consistent with a profile form a polyhedral
cone; bounding an opponent's total cost by 1 turns each worst-case ratio
into a dense LP, since objectives are nonnegative and any optimum scales
onto that bound (the Charnes-Cooper normalization). Quadrilateral rows are
generated lazily: solve a relaxation, add the rows it violates, repeat. A
run only terminates once the incumbent satisfies the complete inequality
family, so reported optima are exact up to solver tolerances, and every
report carries a feasibility-checked witness.

Every normalization is a set of ``<=`` rows over the metric variables: one
with rhs 1, the others homogeneous, and top-k adds rows with rhs 1 as they
are violated (see :func:`_normalization`). Every rhs is nonnegative, so a
cold build starts from the slack basis. Each opponent keeps
one live simplex tableau. Generated rows enter it and are re-optimized by
the dual simplex; the next objective (another candidate, subset or lottery)
resumes from the last optimal basis; another norm swaps its homogeneous
rows and replaces the rhs-1 row by a rank-one update, and a new opponent's
tableau starts from a copy of another's optimum by the same path. Only a
profile's first tableau and a failed switch are built cold.

A quadrilateral (v, v', c, c') is named by its id ``((v N + v') M + c) M + c'``,
its flat index into the gaps of :func:`metricspace._quad_gaps`. Separation
returns ids, each opponent's row pool is an id array in insertion order with
a membership mask over all N^2 M^2 ids, and each live tableau labels its
constraints with one int array: a quadrilateral row holds its id, any other
row a negative code (:class:`_LiveLp`).

Every LP entry point here and in :mod:`metricdist.instanceopt` takes its
solver from :func:`_solver_for`, which holds one solver, for the most
recently solved profile; solving another profile releases it. A profile
therefore keeps its tableaux and row pools across calls until another takes
the slot, and the rule is: *the same calls in the same order on a profile,
from the point it takes the slot, give the same bits*. Which optimal vertex
an LP returns can depend on earlier calls on that profile, so results that
depend on the vertex, not just the optimal value, can too: the lower bounds
of :func:`fairness_rand` outside its exact mode are one.

A ratio is infinite exactly when some positively weighted alternative has no
chain of single-agent preferences leading to the normalized opponent; that
reachability test decides unboundedness before any LP is solved. Along a
step a -> b of such a chain, where agent u ranks a over b, consistency gives
d(u,a) <= d(u,b) and the quadrilaterals (v, u, a, b) give
d(v,a) <= d(v,b) + 2 d(u,b); summed over v, col(a) <= 2N col(b). So every
relaxation is seeded with the rows (v, v', a, b), v != v', of each step of a
shortest chain from each positively weighted column to the opponent: with
the rhs-1 row, which bounds the opponent's total cost, they alone bound
every relaxation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from metricdist.linprog import (
    DEFAULT_PIVOT_TOL,
    LinearProgram,
    LpStatus,
    SolverFailure,
    Tableau,
)
from metricdist.metricspace import CostMatrix, _quad_gaps, is_consistent, is_q_metric
from metricdist.profiles import serialize_profile
from metricdist.tournament import build_weighted

__all__ = [
    "BudgetExceededError",
    "DistortionReport",
    "FairnessRandReport",
    "FairnessReport",
    "MetricPolytope",
    "a_det",
    "a_rand",
    "build_full_lp",
    "dist_det",
    "dist_rand",
    "fairness_det",
    "fairness_rand",
    "grid_oracle",
]

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_SEP_TOL = 1e-9
WITNESS_TOL = 1e-6
_SEPARATION_BATCH = 75
_MAX_ROUNDS = 1000
# Pivot tolerance of the second cold solve after numerical drift.
_RETRY_PIVOT_TOL = 1e-11
# Relative tolerance under which two optimal values count as tied.
TIE_TOL = 1e-9
# Most combinations of per-agent rows that grid_oracle enumerates.
GRID_BUDGET = 10**8
SOLVER_STATS = (
    "objectives",  # maximize calls that returned an optimum
    "cold_builds",  # tableaux built from scratch
    "warm_solves",  # re-optimizations of a live tableau
    "primal_pivots",
    "dual_pivots",
    "refactors",  # tableaux recomputed from their rows to shed round-off
    "rebuilds",  # cold rebuilds after a failed warm re-optimization
    "retries",  # cold solves repeated with a tighter pivot tolerance
    "bland_switches",  # pivot loops that stalled and switched to Bland's rule
    "separation_rounds",  # searches for violated rows
    "norm_swaps",  # live tableaux switched to another normalization in place
    "opponent_swaps",  # tableaux started from another opponent's optimum
    # A level, not a count: quadrilateral rows held across the opponent
    # pools when the call returns.
    "pool_rows",
)
_COUNTERS = SOLVER_STATS[:-1]
# Labels of a live tableau's constraints that are not quadrilateral ids.
_FIXED = -1  # a consistency row or the rhs-1 row
_NORM = -2  # a homogeneous row of the norm
_SUBSET = -3  # k-subset i of a top-k norm (MetricPolytope.subset_rows) is _SUBSET - i
_NO_IDS = np.zeros(0, dtype=np.intp)
_NO_IDS.setflags(write=False)


class BudgetExceededError(ValueError):
    """Requested enumeration exceeds the stated budget; message names the need."""


class MetricPolytope:
    """Linear description of the admissible metrics consistent with a profile.

    Variables are the ``N * M`` entries ``d(v, c)`` in row-major order, all
    nonnegative. Rows are the per-agent consistency chain (adjacent ranking
    positions suffice) and the quadrilateral inequalities, each named by its
    id ``((v N + v') M + c) M + c'`` in ``[0, N^2 M^2)``.
    """

    def __init__(self, profile):
        self.profile = profile
        self.num_agents = profile.num_agents
        self.num_alternatives = profile.num_alternatives
        self.num_metric_vars = self.num_agents * self.num_alternatives
        self.num_quad_ids = self.num_metric_vars**2
        # edges[a, b]: some agent prefers a over b (the tournament's support)
        self.edges = build_weighted(profile).weights > 0
        self._reach = None
        self._length = None  # steps of a shortest chain from a to b, m if none
        self._consistency = None
        self._subsets = {}  # k -> membership of the k-agent subsets, one row each
        self._groups = None
        self._proper = None

    def var(self, v: int, c: int) -> int:
        return v * self.num_alternatives + c

    @property
    def reach(self) -> np.ndarray:
        """``reach[a, b]``: a chain of ``edges`` leads from a to b; diagonal True."""
        if self._reach is None:
            # Breadth-first from every alternative at once: ``wider & ~near``
            # are the pairs whose shortest chain has k steps.
            m = self.num_alternatives
            edges = self.edges
            near = np.eye(m, dtype=bool)
            self._length = np.where(near, 0, m)
            for k in range(1, m):
                wider = near | (near @ edges)
                if (wider == near).all():
                    break
                self._length[wider & ~near] = k
                near = wider
            self._reach = near
        return self._reach

    def chain(self, a, b):
        """Steps ``(x, y)`` of a shortest chain of ``edges`` from a to b.

        Empty when ``a == b`` or when no chain exists.
        """
        steps = []
        if not self.reach[a, b]:
            return steps
        while a != b:
            closer = self.edges[a] & (self._length[:, b] == self._length[a, b] - 1)
            step = int(np.argmax(closer))
            steps.append((a, step))
            a = step
        return steps

    def consistency_rows(self) -> np.ndarray:
        if self._consistency is None:
            n, m, nm = self.num_agents, self.num_alternatives, self.num_metric_vars
            rows = np.zeros((n * (m - 1), nm))
            r = 0
            for v, ranking in enumerate(self.profile.rankings):
                for t in range(m - 1):
                    rows[r, self.var(v, ranking[t])] = 1.0
                    rows[r, self.var(v, ranking[t + 1])] = -1.0
                    r += 1
            self._consistency = rows
        return self._consistency

    @property
    def proper(self) -> np.ndarray:
        """Mask over the quadrilateral ids: those with ``v != v'`` and ``c != c'``."""
        if self._proper is None:
            n, m = self.num_agents, self.num_alternatives
            agents, alternatives = ~np.eye(n, dtype=bool), ~np.eye(m, dtype=bool)
            self._proper = (agents[:, :, None, None] & alternatives).ravel()
        return self._proper

    def quadruple_rows(self, ids) -> np.ndarray:
        """Rows of ``d(v,c) - d(v,c') - d(v',c') - d(v',c) <= 0``, one per id.

        Each id's quadruple ``(v, v', c, c')`` has ``v != v'`` and
        ``c != c'``, so its four entries are distinct.
        """
        m = self.num_alternatives
        rest, cp = np.divmod(np.asarray(ids, dtype=np.intp), m)
        rest, c = np.divmod(rest, m)
        v, vp = np.divmod(rest, self.num_agents)
        rows = np.zeros((len(cp), self.num_metric_vars))
        r = np.arange(len(cp))
        rows[r, v * m + c] = 1.0
        rows[r, v * m + cp] = -1.0
        rows[r, vp * m + cp] = -1.0
        rows[r, vp * m + c] = -1.0
        return rows

    def all_quadruples(self) -> np.ndarray:
        """Every proper quadrilateral id, ascending: lexicographic in (v, v', c, c')."""
        return self.proper.nonzero()[0]

    def chain_quadruples(self, a, b) -> np.ndarray:
        """Ids of the rows ``(v, v', x, y)``, ``v != v'``, of the steps of a chain.

        Step by step along ``chain(a, b)``, and per step in lexicographic
        order of ``(v, v')``.
        """
        n, m = self.num_agents, self.num_alternatives
        pairs = np.flatnonzero(~np.eye(n, dtype=bool))  # v N + v', v != v'
        steps = [(pairs * m + x) * m + y for x, y in self.chain(a, b)]
        return np.array(steps, dtype=np.intp).ravel()

    def violated_quadruples(self, values, tol, exclude, limit) -> np.ndarray:
        """Ids of the most-violated quadrilateral inequalities at ``values``.

        Worst first, at most ``limit``, skipping the ids that the boolean mask
        ``exclude`` holds; only proper quadruples (``v != v'``, ``c != c'``)
        count. When no gap, degenerate quadruples included, exceeds ``tol``,
        it returns before masking those out: masking only lowers entries, so
        that exit can never miss a row.
        """
        gaps = _quad_gaps(values).ravel()
        if np.maximum.reduce(gaps) <= tol:
            return _NO_IDS
        ids = ((gaps > tol) & self.proper).nonzero()[0]
        ids = ids[np.argsort(-gaps[ids])]
        return ids[~exclude[ids]][:limit]

    @property
    def ranking_groups(self):
        """Agents that share a ranking, one list per ranking, by first agent."""
        if self._groups is None:
            groups = {}
            for v, ranking in enumerate(self.profile.rankings.tolist()):
                groups.setdefault(tuple(ranking), []).append(v)
            self._groups = list(groups.values())
        return self._groups

    def subset_tuples(self, k, s):
        """One s-tuple of k-agent subsets per orbit, in ascending order.

        Permuting equally-ranked agents in every subset at once maps the
        polytope and every normalization onto themselves. An orbit is, per
        ranking group, the multiset of its agents' membership vectors across
        the s subsets. The tuple given hands a group's largest vectors to its
        lowest-indexed agents, so it comes first in its orbit.
        """
        return sorted(self._orbits(k, s))

    def _orbits(self, k, s):
        """:meth:`subset_tuples` unsorted, a generator, so a count can stop early.

        Subset by subset, each takes the lowest-indexed agents of each block:
        agents of one ranking that every subset before it holds or leaves
        out alike. So agents with larger membership vectors come first. The
        counts taken per block run over the vectors that sum to k, in
        lexicographic order (:func:`_compositions`).
        """

        def extend(blocks, chosen):
            if len(chosen) == s:
                yield chosen
                return
            for counts in _compositions([len(b) for b in blocks], k):
                cut = list(zip(blocks, counts))
                subset = tuple(sorted(v for block, c in cut for v in block[:c]))
                parts = [p for block, c in cut for p in (block[:c], block[c:]) if p]
                yield from extend(parts, chosen + (subset,))

        return extend(self.ranking_groups, ())

    def subset_members(self, k) -> np.ndarray:
        """Membership of the k-agent subsets, one boolean row per subset.

        Subset i is the i-th of ``itertools.combinations(range(N), k)``.
        """
        if k not in self._subsets:
            n = self.num_agents
            subsets = itertools.combinations(range(n), k)
            self._subsets[k] = np.array([[v in t for v in range(n)] for t in subsets])
        return self._subsets[k]

    def subset_rows(self, indices, k, z):
        """Rows of ``sum of d(v, z) over v in T <= 1``, one per k-subset index."""
        rows = np.zeros((len(indices), self.num_metric_vars))
        rows[:, z :: self.num_alternatives] = self.subset_members(k)[indices]
        return rows

    def violated_subsets(self, column, k, tol, exclude, limit):
        """Indices of the k-subsets to add at ``column``, the opponent's entries.

        None unless one outside ``exclude``, a boolean mask over the subsets,
        costs more than ``1 + tol``; then all outside it, violated or not,
        most loaded first, up to ``limit``: the next optimum's binding rows
        are mostly among them.
        """
        load = self.subset_members(k) @ column
        if np.maximum.reduce(load) <= 1.0 + tol:
            return _NO_IDS
        order = np.argsort(-load, kind="stable")
        order = order[~exclude[order]]
        if not order.size or load[order[0]] <= 1.0 + tol:
            return _NO_IDS
        return order[:limit]

    def satisfies(self, d, tol=DEFAULT_FEAS_TOL) -> bool:
        return is_q_metric(d, tol)[0] and is_consistent(d, self.profile, tol)[0]


def _compositions(sizes, total):
    """Count vectors ``c`` with ``0 <= c[i] <= sizes[i]`` and sum ``total``.

    In lexicographic order. Each count is bounded by what the later entries
    can still hold, so no partial vector is a dead end.
    """
    if not sizes:
        if total == 0:
            yield ()
        return
    rest = sum(sizes[1:])
    for first in range(max(0, total - rest), min(sizes[0], total) + 1):
        for tail in _compositions(sizes[1:], total - first):
            yield (first, *tail)


class _Pool:
    """One opponent's quadrilateral rows: ``ids`` in insertion order, and
    ``member``, a mask over every quadrilateral id, True on those held."""

    __slots__ = ("ids", "member")

    def __init__(self, num_quad_ids):
        self.ids = np.zeros(0, dtype=np.intp)
        self.member = np.zeros(num_quad_ids, dtype=bool)

    def add(self, ids):
        """Append ``ids``, which are distinct, but for those already held."""
        ids = ids[~self.member[ids]]
        if ids.size:
            self.member[ids] = True
            self.ids = np.concatenate([self.ids, ids])


class _LiveLp:
    """One live tableau, with what each of its constraints is.

    ``labels`` is an int array parallel to the tableau's constraints: a
    quadrilateral row holds its id (>= 0); ``_FIXED`` marks a consistency
    row or the rhs-1 row, which never leave (a retarget replaces the latter
    in place); ``_NORM`` a homogeneous normalization row; ``_SUBSET - i``
    the generated top-k row of k-subset i. ``in_tableau`` is a mask over
    every quadrilateral id, True on the rows held; ``subsets`` a mask over
    the k-subsets of a top-k norm, True on the rows held, or None before
    the norm's first separation round. ``opponent`` and ``norm`` are the
    normalization held.
    """

    __slots__ = ("tableau", "labels", "in_tableau", "subsets", "opponent", "norm")

    def __init__(self, tableau, labels, in_tableau, opponent, norm, subsets=None):
        self.tableau = tableau
        self.labels = labels
        self.in_tableau = in_tableau
        self.subsets = subsets
        self.opponent = opponent
        self.norm = norm

    def copy(self):
        """An independent copy, tableau included."""
        subsets = None if self.subsets is None else self.subsets.copy()
        return _LiveLp(
            self.tableau.copy(),
            self.labels.copy(),
            self.in_tableau.copy(),
            self.opponent,
            self.norm,
            subsets,
        )


class _PolytopeSolver:
    """Row-generating maximizer over one profile's metric polytope.

    Every LP here normalizes one opponent column, and generated
    quadrilateral rows are pooled per normalized opponent (a :class:`_Pool`
    of ids): the rows are valid for every LP over the polytope, but those
    that bind under one opponent's normalization are mostly slack under
    another's. Each pool starts with the chain rows of every column an
    objective weights (see the module docstring), and a pool only grows.

    Each opponent keeps one live tableau across calls, whatever its norm.
    New rows enter it and are re-optimized by the dual simplex; a new
    objective first takes in the pool rows the tableau lacks, then resumes
    the primal simplex from the last optimal basis. Another opponent or
    norm takes one path, :meth:`_retarget`, on the opponent's tableau or,
    for an opponent without one, on a copy of the most recently used
    tableau; only a profile's first tableau is built cold. Which pool rows
    a tableau lacks, which rows a switch removes and which rows join the
    pool are mask operations on the pool and the tableau's labels, taken
    in label order.

    Every round's assignment is verified against every row; a warm
    re-optimization that fails is rebuilt cold, as is a retarget that
    fails at any step, and a failing cold solve is retried once with a
    tighter pivot tolerance. ``stats`` counts all of it since the solver
    was built (every name of ``SOLVER_STATS`` but the level
    ``pool_rows``); :meth:`stats_since` gives one call's share.

    Entry points share one solver through :func:`_solver_for`; the module
    docstring says what an earlier call on the profile can change.
    """

    def __init__(self, polytope, feas_tol=DEFAULT_FEAS_TOL, sep_tol=DEFAULT_SEP_TOL):
        self.polytope = polytope
        self.feas_tol = feas_tol
        self.sep_tol = sep_tol
        # opponent -> _Pool of quadrilateral ids
        self.pools = {}
        # (column, opponent) pairs whose chain rows are in the pool
        self.seeded = set()
        # opponent -> _LiveLp, in the order they were last used
        self.live = {}
        self.stats = dict.fromkeys(_COUNTERS, 0)

    def stats_since(self, before):
        """``SOLVER_STATS`` of the work done since ``before``, a copy of ``stats``."""
        out = {name: self.stats[name] - before[name] for name in _COUNTERS}
        out["pool_rows"] = sum(pool.ids.size for pool in self.pools.values())
        return out

    def maximize(self, objective, *, opponent, norm):
        """Maximize over the polytope, ``opponent`` normalized; ``(value, metric)``.

        ``objective`` is nonnegative, one entry per metric variable. ``norm``
        picks the normalization (see :func:`_normalization` for its rows):
        ``"="`` bounds the opponent's total cost by 1; ``"cheapest"`` also
        makes every other column cost at least as much; an integer k bounds
        the sum of the opponent's k largest entries by 1. The rhs-1 row
        binds at any optimum, so the value is the normalized ratio. Row
        generation runs over the opponent's pool and live tableau.

        Raises:
            SolverFailure: the solve failed warm and cold, or a relaxation
                is unbounded (a weighted column has no chain to ``opponent``).
        """
        poly = self.polytope
        pool = self.pools.get(opponent)
        if pool is None:
            pool = self.pools[opponent] = _Pool(poly.num_quad_ids)
        # The chain rows of every weighted column bound the relaxation.
        weighted = (objective > 0).nonzero()[0] % poly.num_alternatives
        for c in set(weighted.tolist()):
            if (c, opponent) not in self.seeded:
                self.seeded.add((c, opponent))
                pool.add(poly.chain_quadruples(c, opponent))
        # Popped while in use, so a call that raises leaves no tableau behind.
        live = self.live.pop(opponent, None)
        if live is None and self.live:
            live = next(reversed(self.live.values())).copy()
        if live is None:
            live, status, out = self._start(objective, opponent, norm, pool)
        else:
            live, status, out = self._retarget(live, objective, opponent, norm, pool)
        value, x = self._generate_rows(live, opponent, pool, status, out)
        self.live[opponent] = live
        self.stats["objectives"] += 1
        return value, x.reshape(poly.num_agents, -1)

    def _start(self, objective, opponent, norm, pool):
        """Cold-build the opponent's tableau over its pool, from the slack basis."""
        lp, labels = _ratio_lp(self.polytope, objective, opponent, norm, pool.ids)
        tableau, status, out = self._cold(lp)
        live = _LiveLp(tableau, labels, pool.member.copy(), opponent, norm)
        return live, status, out

    def _retarget(self, live, objective, opponent, norm, pool):
        """Move a live tableau to ``objective``, ``opponent`` and ``norm``.

        The pool rows the tableau lacks, and on a switch of opponent or norm
        the new norm's homogeneous rows, enter under the old objective,
        whose basis stays dual feasible (dual simplex). On a switch, the old
        norm's rows (generated top-k rows included) then leave by
        :meth:`Tableau.remove_rows`, as do quadrilateral rows outside the
        pool whose slack is basic; the quadrilateral rows kept join the
        pool. Every row but the rhs-1 one then has rhs 0, so
        :meth:`Tableau.replace_equation` makes the new norm's bound that row
        with the basis still feasible, and the new objective resumes the
        primal simplex.

        Returns ``(live, status, outcome)``: ``live`` is a cold build over
        the pool when any step before the new objective fails.
        """
        switch = (live.opponent, live.norm) != (opponent, norm)
        try:
            held = live.labels.size
            if switch:
                bound, enter = _normalization(self.polytope, opponent, norm)
                if len(enter):
                    live.tableau.add_rows(enter, np.zeros(len(enter)))
                    codes = np.full(len(enter), _NORM)
                    live.labels = np.concatenate([live.labels, codes])
            missing = pool.ids[~live.in_tableau[pool.ids]]
            if missing.size:
                self._add_quads(live, missing)
            if live.labels.size > held:
                self.stats["warm_solves"] += 1
                status, _ = self._run(live.tableau)
                if status is not LpStatus.OPTIMAL:
                    raise SolverFailure(f"unexpected LP status {status}")
            if switch:
                labels = live.labels
                # The old norm's rows: all but the fixed rows and quadrilaterals.
                stale = labels <= _NORM
                stale[held:] = False
                # Only a copied tableau holds rows outside the pool.
                quads = labels >= 0
                outside = quads.copy()
                outside[quads] = ~pool.member[labels[quads]]
                if outside.any():
                    basic = live.tableau.basic_slacks()
                    stale |= outside & basic
                    pool.add(labels[outside & ~basic])
                if stale.any():
                    self._remove(live, stale)
                live.subsets = None
                live.tableau.replace_equation(bound)
        except SolverFailure:
            self.stats["rebuilds"] += 1
            return self._start(objective, opponent, norm, pool)
        if live.opponent != opponent:
            self.stats["opponent_swaps"] += 1
        elif live.norm != norm:
            self.stats["norm_swaps"] += 1
        live.opponent, live.norm = opponent, norm
        live.tableau.set_objective(objective)
        return (live, *self._reoptimize(live))

    def _generate_rows(self, live, opponent, pool, status, out):
        """Separation rounds until the optimum satisfies every row of its norm.

        Under a top-k norm, rounds add the k-subset rows along with the
        quadrilaterals (see :meth:`MetricPolytope.violated_subsets`).
        """
        poly = self.polytope
        top_k = None if isinstance(live.norm, str) else live.norm
        if top_k and live.subsets is None:
            live.subsets = np.zeros(len(poly.subset_members(top_k)), dtype=bool)
        for _ in range(_MAX_ROUNDS):
            if status is LpStatus.UNBOUNDED:
                raise self._failure(
                    "relaxation unbounded: chain rows missing", live.tableau.program()
                )

            x = out.assignment
            metric = x.reshape(poly.num_agents, -1)
            self.stats["separation_rounds"] += 1
            new = poly.violated_quadruples(
                metric, self.sep_tol, live.in_tableau, _SEPARATION_BATCH
            )
            subsets = _NO_IDS
            if top_k:
                column = metric[:, opponent]
                subsets = poly.violated_subsets(
                    column, top_k, self.sep_tol, live.subsets, _SEPARATION_BATCH
                )
            if not new.size and not subsets.size:
                return out.value, x

            if new.size:
                pool.add(new)
                self._add_quads(live, new)
            if subsets.size:
                rows = poly.subset_rows(subsets, top_k, opponent)
                live.tableau.add_rows(rows, np.ones(len(subsets)))
                live.labels = np.concatenate([live.labels, _SUBSET - subsets])
                live.subsets[subsets] = True
            status, out = self._reoptimize(live)
        raise self._failure("row generation did not converge", live.tableau.program())

    def _add_quads(self, live, ids):
        live.tableau.add_rows(self.polytope.quadruple_rows(ids), np.zeros(len(ids)))
        live.labels = np.concatenate([live.labels, ids])
        live.in_tableau[ids] = True

    def _remove(self, live, gone):
        """Remove the inequality constraints of the mask ``gone``.

        Raises:
            SolverFailure: a constraint's slack could not be pivoted into the
                basis; the tableau then still holds every row.
        """
        tableau = live.tableau
        before = tableau.primal_pivots
        try:
            tableau.remove_rows(gone.nonzero()[0])
        finally:
            self.stats["primal_pivots"] += tableau.primal_pivots - before
        labels = live.labels[gone]
        live.in_tableau[labels[labels >= 0]] = False
        live.labels = live.labels[~gone]

    def _run(self, tableau):
        """Optimize ``tableau``; the outcome is verified, pivots counted."""
        stats = self.stats
        primal, dual = tableau.primal_pivots, tableau.dual_pivots
        refactors, bland = tableau.refactors, tableau.bland_switches
        try:
            status = tableau.optimize()
            return status, tableau.outcome() if status is LpStatus.OPTIMAL else None
        finally:
            stats["primal_pivots"] += tableau.primal_pivots - primal
            stats["dual_pivots"] += tableau.dual_pivots - dual
            stats["refactors"] += tableau.refactors - refactors
            stats["bland_switches"] += tableau.bland_switches - bland

    def _reoptimize(self, live):
        """Warm re-optimization, rebuilt cold if it fails."""
        self.stats["warm_solves"] += 1
        tableau = live.tableau
        try:
            return self._run(tableau)
        except SolverFailure:
            self.stats["rebuilds"] += 1
        live.tableau, status, out = self._cold(tableau.program())
        return status, out

    def _cold(self, lp):
        """Cold solve of ``lp``, retried once with a tighter pivot tolerance."""
        self.stats["cold_builds"] += 1
        for pivot_tol in (DEFAULT_PIVOT_TOL, _RETRY_PIVOT_TOL):
            try:
                tableau = Tableau(lp, pivot_tol=pivot_tol, feas_tol=self.feas_tol)
                return (tableau, *self._run(tableau))
            except SolverFailure as exc:
                failure = exc
                if pivot_tol == DEFAULT_PIVOT_TOL:
                    self.stats["retries"] += 1
        raise self._failure(
            f"cold solve failed at every pivot tolerance: {failure}", lp
        ) from failure

    def _failure(self, message, program):
        """A failure that carries ``program`` and the profile to reproduce it."""
        return SolverFailure(
            message,
            lp_text=program.dump_text(),
            profile_text=serialize_profile(self.polytope.profile),
        )


_live_solver = None


def _solver_for(profile):
    """The solver of ``profile``: the live one, or a new one that replaces it.

    Only one solver is held, so memory stays at one profile's tableaux
    however many profiles a caller keeps. Profiles never change, which makes
    identity the right test. The slot is shared by the whole process, so
    calls from several threads must not overlap.
    """
    global _live_solver
    if _live_solver is None or _live_solver.polytope.profile is not profile:
        _live_solver = None  # release the old tableaux before building anew
        _live_solver = _PolytopeSolver(MetricPolytope(profile))
    return _live_solver


def _normalization(poly, opponent, norm):
    """``(bound, A)``: the ``<=`` rows that normalize ``opponent`` by ``norm``.

    ``bound`` is the row with rhs 1; the rows of ``A`` have rhs 0. Top-k
    has the bound ``(k/N) SC(z) <= 1``, which the k largest entries imply
    (they average at least the mean); its rows "these k agents cost at most
    1", rhs 1 too, are generated (:meth:`MetricPolytope.violated_subsets`).
    At k = N the bound is the one such row, so the LP is the ``=`` one.
    """
    m = poly.num_alternatives
    # Column c of the metric holds the entries v * M + c, one per agent v.
    total = np.zeros(poly.num_metric_vars)
    total[opponent::m] = 1.0
    if norm == "cheapest":
        # SC(z) - SC(c) <= 0: every other column costs at least as much
        rows = np.tile(total, (m - 1, 1))
        for r, c in enumerate(np.flatnonzero(np.arange(m) != opponent)):
            rows[r, c::m] = -1.0
        return total, rows
    scale = 1.0 if norm == "=" else norm / poly.num_agents
    return scale * total, np.zeros((0, total.size))


def _ratio_lp(poly, objective, opponent, norm, ids):
    """``(lp, labels)``: maximize ``objective`` over the consistency rows, the
    norm's rows (:func:`_normalization`) and the quadrilaterals ``ids``,
    labelled as in :class:`_LiveLp`."""
    bound, A_norm = _normalization(poly, opponent, norm)
    consistency = poly.consistency_rows()
    A_ub = np.vstack([consistency, bound, A_norm, poly.quadruple_rows(ids)])
    b_ub = np.zeros(len(A_ub))
    b_ub[len(consistency)] = 1.0
    labels = np.concatenate(
        [np.full(len(consistency) + 1, _FIXED), np.full(len(A_norm), _NORM), ids]
    )
    return LinearProgram(objective, A_ub, b_ub), labels


@dataclass
class DistortionReport:
    """Worst-case ratio for one outcome, with a feasibility-checked witness."""

    rule: str
    value: float
    winner: int | None = None
    distribution: np.ndarray | None = None
    opponent: int | None = None
    witness: CostMatrix | None = None
    per_opponent: dict = field(default_factory=dict)
    tie_break: list | None = None
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None
    # How the LPs were solved: counts keyed by SOLVER_STATS.
    solver_stats: dict = field(default_factory=lambda: dict.fromkeys(SOLVER_STATS, 0))

    def __post_init__(self):
        if self.witness is None:
            return
        ok, quad = is_q_metric(self.witness, WITNESS_TOL)
        if not ok:
            raise AssertionError(f"witness violates quadrilateral {quad}")
        achieved = self.evaluate_on(self.witness)
        if abs(achieved - self.value) > WITNESS_TOL:
            raise AssertionError(
                f"witness achieves {achieved}, report claims {self.value}"
            )

    def evaluate_on(self, metric: CostMatrix) -> float:
        """Cost ratio of the reported outcome under ``metric``."""
        sums = metric.values.sum(axis=0)
        if self.distribution is not None:
            num = float(self.distribution @ sums)
        else:
            num = float(sums[self.winner])
        denom = float(sums[self.opponent]) if self.opponent is not None else sums.min()
        return num / denom


def build_full_lp(winner_or_x, opponent, profile) -> LinearProgram:
    """Materialize the complete worst-ratio LP, every quadrilateral row included.

    Row generation makes this unnecessary for solving; it exists for debug
    dumps and for checking the assembled program against the solver directly
    at small sizes. The normalization is a ``<= 1`` row, as in every tableau.
    """
    weights = _outcome_weights(winner_or_x, profile.num_alternatives)
    opponent = _validated_alternative(opponent, profile.num_alternatives)
    poly = MetricPolytope(profile)
    objective = np.tile(weights, profile.num_agents)
    return _ratio_lp(poly, objective, opponent, "=", poly.all_quadruples())[0]


def a_det(c, opponent, profile):
    """Worst total-cost of ``c`` against ``opponent`` normalized to cost 1.

    Returns ``(value, witness)``; the value is ``inf`` with no witness when
    the ratio is unbounded (no preference chain from ``c`` to ``opponent``).
    """
    return a_rand(_outcome_weights(c, profile.num_alternatives), opponent, profile)


def a_rand(x, opponent, profile):
    """Worst expected cost of distribution ``x`` against a normalized opponent."""
    x = _validated_distribution(x, profile.num_alternatives)
    opponent = _validated_alternative(opponent, profile.num_alternatives, "opponent")
    solver = _solver_for(profile)
    poly = solver.polytope
    support = np.flatnonzero(x > 0)
    if not all(poly.reach[c, opponent] for c in support):
        return math.inf, None
    objective = np.tile(x, poly.num_agents)  # x[c] on every entry of column c
    value, metric = solver.maximize(objective, opponent=opponent, norm="=")
    return value, CostMatrix(metric)


def _validated_distribution(x, m):
    x = np.asarray(x, dtype=float)
    if x.shape != (m,) or (x < 0).any() or abs(x.sum() - 1.0) > 1e-9:
        raise ValueError("x must be a probability vector over the alternatives")
    return x


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _validated_alternative(c, m, name="alternative"):
    """``c`` as an int; NumPy would wrap a negative index to another alternative."""
    if not (_is_integer(c) and 0 <= c < m):
        raise ValueError(f"{name} must be an integer in 0..{m - 1}, got {c!r}")
    return int(c)


def dist_det(winner, profile, *, rule="", tie_break=None, seed=None):
    """Worst-case distortion of picking ``winner``: max over opponents of a_det."""
    return _distortion_report(
        profile,
        winner=_validated_alternative(winner, profile.num_alternatives, "winner"),
        distribution=None,
        rule=rule,
        tie_break=tie_break,
        seed=seed,
    )


def dist_rand(x, profile, *, rule="", tie_break=None, seed=None):
    """Worst-case expected distortion of distribution ``x``."""
    x = _validated_distribution(x, profile.num_alternatives)
    return _distortion_report(
        profile, winner=None, distribution=x, rule=rule, tie_break=tie_break, seed=seed
    )


def _distortion_report(profile, *, winner, distribution, rule, tie_break, seed):
    m = profile.num_alternatives
    opponents = [c for c in range(m) if c != winner]
    tolerances = {"feas_tol": DEFAULT_FEAS_TOL, "witness_tol": WITNESS_TOL}
    if not opponents:
        return DistortionReport(
            rule=rule,
            value=1.0,
            winner=winner,
            distribution=distribution,
            tie_break=tie_break,
            tolerances=tolerances,
            seed=seed,
        )

    solver = _solver_for(profile)
    before = dict(solver.stats)
    if distribution is None:
        results = [a_det(winner, opp, profile) for opp in opponents]
    else:
        results = [a_rand(distribution, opp, profile) for opp in opponents]

    per_opponent = {opp: value for opp, (value, _) in zip(opponents, results)}
    # Fixed reduction order: first opponent attaining the max wins ties.
    best_idx = max(range(len(opponents)), key=lambda i: results[i][0])
    best_value, best_witness = results[best_idx]
    return DistortionReport(
        rule=rule,
        value=best_value,
        winner=winner,
        distribution=distribution,
        opponent=opponents[best_idx] if math.isfinite(best_value) else None,
        witness=best_witness if math.isfinite(best_value) else None,
        per_opponent=per_opponent,
        tie_break=tie_break,
        tolerances=tolerances,
        seed=seed,
        solver_stats=solver.stats_since(before),
    )


# ---------------------------------------------------------------------------
# Fairness: ratios of sums of the k largest agent costs


@dataclass
class FairnessReport:
    winner: int
    per_k: dict
    value: float
    argmax: tuple | None = None  # (k, opponent, subset)
    witness: CostMatrix | None = None
    # How the LPs were solved: counts keyed by SOLVER_STATS.
    solver_stats: dict = field(default_factory=lambda: dict.fromkeys(SOLVER_STATS, 0))


@dataclass
class FairnessRandReport:
    distribution: np.ndarray
    per_k: dict  # k -> (lower, upper)
    exact_k: dict  # k -> bool
    value_bounds: tuple
    # How the LPs were solved: counts keyed by SOLVER_STATS.
    solver_stats: dict = field(default_factory=lambda: dict.fromkeys(SOLVER_STATS, 0))


def _fairness_sweep(solver, x, tuples):
    """``(per_k, blocked, solved)``: x's top-k LPs, one per opponent and tuple.

    Runs k descending (fewer tight k-subset rows pivot out on norm switches),
    then opponents ascending but for a point mass's own, worth exactly 1
    (every value starts there), then ``tuples[k]`` (:func:`_solve_tuple`).
    ``blocked`` is the first opponent some supported alternative has no
    chain to, found before any LP; every value is then infinite. ``solved``
    maps ``(k, opponent, tuple)`` to ``(value, metric)``.
    """
    support = np.flatnonzero(x > 0).tolist()
    opponents, blocked = _opponents(solver.polytope, support)
    if blocked is not None:
        return dict.fromkeys(tuples, math.inf), blocked, {}
    per_k, solved = dict.fromkeys(tuples, 1.0), {}
    for k in sorted(tuples, reverse=True):
        for z in opponents:
            for t in tuples[k]:
                value, _ = solved[k, z, t] = _solve_tuple(solver, x, support, t, z, k)
                per_k[k] = max(per_k[k], value)
    return per_k, blocked, solved


def _opponents(poly, support):
    """``(opponents, blocked)`` of a distribution supported on ``support``.

    The opponents are every alternative but a point mass's own; ``blocked``
    is the first one that some supported alternative has no chain to, or
    None.
    """
    opponents = [z for z in range(poly.num_alternatives) if support != [z]]
    blocked = next((z for z in opponents if not poly.reach[support, z].all()), None)
    return opponents, blocked


def _solve_tuple(solver, x, support, subsets, opponent, k):
    """The top-k LP whose objective is ``x[c]`` on c's entries of c's subset."""
    m = len(x)
    objective = np.zeros(solver.polytope.num_agents * m)
    for c, subset in zip(support, subsets):
        for v in subset:
            objective[v * m + c] = x[c]
    return solver.maximize(objective, opponent=opponent, norm=k)


def fairness_det(winner, profile, k_set=None, budget=10):
    """Worst-case top-k cost ratio of ``winner`` against every opponent.

    The sweep of the point mass on ``winner`` (:func:`_fairness_sweep`) runs,
    per k and opponent, one LP per class of k-agent subsets whose costs
    count (``subset_tuples(k, 1)``): up to 2^N - 1 over all k, so ``budget``
    caps N. ``argmax`` is the first ``(k, opponent, subset)``, in ascending
    order, whose value is within ``TIE_TOL`` (relative) of the best, so LP
    rounding never picks it. If some opponent has no chain from ``winner``,
    every value is infinite, no LP runs, and ``argmax`` is
    ``(max k, first such opponent, None)``.
    """
    winner = _validated_alternative(winner, profile.num_alternatives, "winner")
    n = profile.num_agents
    if n > budget:
        raise BudgetExceededError(f"enumeration needs budget >= {n}, got {budget}")
    k_set = _validated_k_set(k_set, n)
    solver = _solver_for(profile)
    before = dict(solver.stats)
    tuples = {k: solver.polytope.subset_tuples(k, 1) for k in k_set}
    x = _outcome_weights(winner, profile.num_alternatives)
    per_k, blocked, solved = _fairness_sweep(solver, x, tuples)
    argmax = witness = None
    if blocked is not None:
        argmax = (k_set[-1], blocked, None)
    elif solved:
        values = {(k, z, t[0]): value for (k, z, t), (value, _) in solved.items()}
        argmax = _first_within_tie(values)
        witness = CostMatrix(solved[argmax[0], argmax[1], argmax[2:]][1])
    return FairnessReport(
        winner=winner,
        per_k=per_k,
        value=max(per_k.values()),
        argmax=argmax,
        witness=witness,
        solver_stats=solver.stats_since(before),
    )


def _first_within_tie(values):
    """The smallest key whose value is within ``TIE_TOL`` (relative) of the largest."""
    top = max(values.values())
    return min(key for key, value in values.items() if value >= top * (1 - TIE_TOL))


def _validated_k_set(k_set, n):
    k_set = range(1, n + 1) if k_set is None else list(k_set)
    if not k_set or not all(_is_integer(k) and 1 <= k <= n for k in k_set):
        raise ValueError(f"k values must be integers in 1..{n}, got {k_set!r}")
    return sorted({int(k) for k in k_set})


def fairness_rand(x, profile, k_set=None, budget=20_000):
    """Expected top-k cost ratio bounds ``(lower, upper)`` for distribution ``x``.

    With s alternatives in x's support, the sweep of x (:func:`_fairness_sweep`)
    runs, per k and opponent, one LP per orbit of s-tuples of k-agent subsets
    (``subset_tuples(k, s)``): exact, lower = upper, if at most ``budget``.
    Else the upper bound is the sweep of each supported point mass, s times
    ``subset_tuples(k, 1)`` LPs per opponent, refused above ``budget``; the
    lower bound, a coordinate ascent over subset tuples from their optima.
    So ``budget`` bounds the LPs per opponent and k, apart from the ascent's.
    If some opponent has no chain from a supported alternative, every k is
    exact at ``(inf, inf)``, whatever the budget, and no LP runs.
    """
    x = _validated_distribution(x, profile.num_alternatives)
    k_set = _validated_k_set(k_set, profile.num_agents)
    solver = _solver_for(profile)
    before = dict(solver.stats)
    poly, support = solver.polytope, np.flatnonzero(x > 0).tolist()
    s = len(support)
    # classes: k -> subset_tuples(k, 1), for the bounded k
    tuples, classes = dict.fromkeys(k_set, []), {}
    # With an unreachable opponent every value is infinite and no LP runs.
    if _opponents(poly, support)[1] is None:
        for k in k_set:
            orbits = list(itertools.islice(poly._orbits(k, s), budget + 1))
            if len(orbits) > budget:
                orbits, classes[k] = [], poly.subset_tuples(k, 1)
            tuples[k] = sorted(orbits)
        need = max((s * len(c) for c in classes.values()), default=0)
        if need > budget:
            raise BudgetExceededError(f"bounds need budget >= {need}, got {budget}")
    per_k, blocked, _ = _fairness_sweep(solver, x, tuples)
    per_k = {k: (value, value) for k, value in per_k.items()}
    if blocked is None:
        per_k.update(_fairness_bounds(solver, x, classes))
    return FairnessRandReport(
        distribution=x,
        per_k=per_k,
        exact_k={k: k not in classes for k in k_set},
        value_bounds=tuple(map(max, zip(*per_k.values()))),
        solver_stats=solver.stats_since(before),
    )


def _fairness_bounds(solver, x, classes):
    """``k -> (lower, upper)`` for each k of ``classes`` (``subset_tuples(k, 1)``)."""
    # x has two or more supported alternatives (one is always exact), so
    # every alternative is an opponent, each with a chain from them all.
    m, support = len(x), np.flatnonzero(x > 0).tolist()
    sweeps = [_fairness_sweep(solver, np.eye(m)[c], classes)[2] for c in support]
    per_k = {}
    for k in classes:
        lower = upper = 1.0
        for z in range(m):
            best = []  # each supported c's own worst ratio and its first best subset
            for c, solved in zip(support, sweeps):
                runs = [(solved[k, z, t][0], t[0]) for t in classes[k] if c != z]
                best.append(max(runs or [(1.0, classes[k][0][0])], key=lambda r: r[0]))
            # Upper: each c at its own worst metric. Lower: coordinate ascent
            # on the subset tuple over one shared metric, from the best subsets.
            upper = max(upper, sum(float(x[c]) * v for c, (v, _) in zip(support, best)))
            value, tried = -1.0, tuple(subset for _, subset in best)
            for _ in range(101):
                new_value, metric = _solve_tuple(solver, x, support, tried, z, k)
                if new_value <= value + 1e-12:
                    break
                top = np.argsort(-metric[:, support], axis=0, kind="stable")[:k]
                value, current = new_value, tried
                tried = tuple(tuple(sorted(col)) for col in top.T.tolist())
                if tried == current:
                    break
            lower = max(lower, value)
        per_k[k] = lower, upper
    return per_k


# ---------------------------------------------------------------------------
# Independent grid-search oracle


def grid_oracle(winner_or_x, profile, grid_step=0.5, grid_max=3.0):
    """Lower bound on distortion by exhausting a finite cost grid.

    Enumerates every admissible consistent matrix with entries in
    ``{0, grid_step, ..., grid_max}`` and returns the largest cost ratio,
    skipping zero-denominator grids. Limited to ``N * M <= 9``, and to
    ``GRID_BUDGET`` combinations of per-agent rows: ``r ** N``, where an
    agent's ``r`` rows are the nondecreasing M-tuples of grid values.

    Raises:
        ValueError: ``grid_step`` is not positive and finite, or
            ``grid_max`` is not nonnegative and finite.
        BudgetExceededError: the grid needs more than ``GRID_BUDGET``
            combinations.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid step must be positive and finite, got {grid_step!r}")
    if not (math.isfinite(grid_max) and grid_max >= 0):
        raise ValueError(f"grid max must be nonnegative and finite, got {grid_max!r}")
    n, m = profile.num_agents, profile.num_alternatives
    if n * m > 9:
        raise ValueError(f"grid oracle requires N*M <= 9, got {n * m}")
    weights = _outcome_weights(winner_or_x, m)
    if m == 1:
        return 1.0
    span = (grid_max + grid_step / 2) / grid_step  # len(values), before building
    r = math.comb(math.ceil(span) + m - 1, m) if math.isfinite(span) else math.inf
    if r**n > GRID_BUDGET:
        raise BudgetExceededError(
            f"grid enumeration needs {r}^{n} row combinations, budget {GRID_BUDGET}"
        )
    values = np.arange(0.0, grid_max + grid_step / 2, grid_step)

    # Per agent, only rows already consistent with the ranking can appear:
    # assign a non-decreasing tuple of grid values along the ranking.
    agent_rows = []
    for ranking in profile.rankings:
        rows = []
        for combo in itertools.combinations_with_replacement(values, m):
            row = np.empty(m)
            row[list(ranking)] = combo
            rows.append(row)
        agent_rows.append(np.array(rows))

    # The quadrilateral inequalities couple agents only pairwise, so
    # compatibility between two agents' rows can be tabulated up front.
    diff = [r[:, :, None] - r[:, None, :] for r in agent_rows]  # d(c) - d(c')
    tot = [r[:, :, None] + r[:, None, :] for r in agent_rows]  # d(c) + d(c')
    compat = {}
    for a in range(n):
        for b in range(a + 1, n):
            da = diff[a].reshape(len(agent_rows[a]), 1, -1)
            db = diff[b].reshape(1, len(agent_rows[b]), -1)
            sa = tot[a].reshape(len(agent_rows[a]), 1, -1)
            sb = tot[b].reshape(1, len(agent_rows[b]), -1)
            compat[a, b] = ((da <= sb + 1e-12) & (db <= sa + 1e-12)).all(axis=2)

    best = 0.0

    def descend(agent, partial_sum, masks):
        nonlocal best
        if agent == n - 1:
            ok = masks[agent] if n > 1 else np.ones(len(agent_rows[agent]), bool)
            rows = agent_rows[agent][ok]
            if rows.size == 0:
                return
            sums = partial_sum[None, :] + rows
            denominators = sums.min(axis=1)
            keep = denominators > 0
            if keep.any():
                ratios = (sums[keep] @ weights) / denominators[keep]
                best = max(best, float(ratios.max()))
            return
        candidates = (
            np.flatnonzero(masks[agent]) if n > 1 else range(len(agent_rows[agent]))
        )
        for i in candidates:
            new_masks = dict(masks)
            for later in range(agent + 1, n):
                new_masks[later] = masks[later] & compat[agent, later][i]
            descend(agent + 1, partial_sum + agent_rows[agent][i], new_masks)

    initial = {a: np.ones(len(agent_rows[a]), dtype=bool) for a in range(n)}
    descend(0, np.zeros(m), initial)
    return best


def _outcome_weights(winner_or_x, m):
    if np.isscalar(winner_or_x) or isinstance(winner_or_x, (int, np.integer)):
        weights = np.zeros(m)
        weights[_validated_alternative(winner_or_x, m)] = 1.0
        return weights
    return _validated_distribution(winner_or_x, m)
