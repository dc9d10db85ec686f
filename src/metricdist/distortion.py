"""Worst-case cost ratios over ranking-consistent metrics, certified by LP.

The admissible cost matrices consistent with a profile form a polyhedral
cone; bounding an opponent's total cost by 1 turns each worst-case ratio
into a dense LP, since objectives are nonnegative and any optimum scales
onto that bound (the Charnes-Cooper normalization). Quadrilateral rows are
generated lazily: solve a relaxation, add the rows it violates, repeat. A
run only terminates once the incumbent satisfies the complete inequality
family, so reported optima are exact up to solver tolerances, and every
report carries a feasibility-checked witness.

The solver's variables are increments, not costs: ``delta(v, t) >= 0`` is
the step of agent v's cost at position t of its ranking, so
``d(v, ranking_v[j])`` is the sum of ``delta(v, t)`` over ``t <= j``. That
is ``d = L delta`` with L the per-agent prefix-sum matrix
(:attr:`MetricPolytope.prefix`), and every nonnegative delta is consistent
with the rankings by construction: no tableau holds a consistency row.
Rows and objectives are written over the costs and enter a tableau as
``row @ L``; an optimum is read back as costs by one cumulative sum per
agent. A sum of nonnegative floats never decreases, so every witness is
consistent exactly. :func:`build_full_lp` alone stays over the costs, with
its consistency rows, as the reference the solver is checked against.

Every normalization bounds the sum of the opponent's k largest costs by 1,
with distortion at k = N, in fixed rows (:func:`_normalization`): at k = N
one ``<=`` row with rhs 1, below it N + 1 rows over N + 1 more columns.
Every row but the first is homogeneous, so a cold build starts from the
slack basis, and separation generates quadrilaterals alone. Each opponent
keeps one live simplex tableau, for one k. Generated rows enter it and are
re-optimized by the dual simplex, and the next objective at that opponent
and k (another candidate, subset or lottery) resumes from the last optimal
basis; if that basis is already optimal for the objective, the optimum
the tableau holds answers with no re-solve and no separation round. A
smaller k below N at the same opponent, the next step of a fairness
sweep, keeps the tableau too: k is tau's coefficient in the rhs-1 row, the
one entry that changes, and it enters by one rank-one update in the
tableau's basis, which stays primal feasible
(:meth:`_PolytopeSolver._lower_k`). A new opponent, k = N to N - 1 (a
wider tableau) or a larger k takes a new tableau, built cold over the
normalization, the objective's chain rows (below) and the quadrilateral
rows tight at the optimum of the last tableau: the opponent's own on a
change of k, else the most recently used. Rows that bind at one optimum
mostly bind near the next, so that seed spares most of the separation
rounds.

A quadrilateral (v, v', c, c') is named by its id ``((v N + v') M + c) M + c'``,
its flat index into the gaps of :func:`metricspace._quad_gaps`. Separation
returns ids, and each live tableau labels its constraints with one int
array, a quadrilateral row by its id and a normalization row by a negative
code, and marks the ids it holds in a mask over all N^2 M^2 ids
(:class:`_LiveLp`).
An opponent's quadrilateral rows are exactly those of its live tableau.
What depends only on the profile is built once per :class:`MetricPolytope`:
each id's four cost columns, from which a batch of rows is one gather and
one scatter, and each pair's first chain step, from which a chain's steps
and rows follow without a numpy call per step. A distortion report
validates its outcome once, builds the objective and the reachable
opponents once, then calls the solver once per opponent.

Every LP entry point here and in :mod:`metricdist.instanceopt` takes its
solver from :func:`_solver_for`, which holds one solver, for the most
recently solved profile; solving another profile releases it. A profile
therefore keeps its tableaux across calls until another takes the slot,
and the rule is: *the same calls in the same order on a profile, from the
point it takes the slot, give the same bits, for a fixed BLAS thread
count*. The tableau's matrix products go through BLAS, whose summation
order can change with its thread count, and with it the pivots and rounds
a solve takes. Which optimal vertex an LP returns can depend on earlier
calls on that profile, so results that depend on the vertex, not just the
optimal value, can too: the lower bounds of :func:`fairness_rand` outside
its exact mode are one. The solver keeps every k = N optimum it solves
(distortion's normalization), and a repeated k = N query, the same
objective against the same opponent, returns its first solve's bits with
no tableau work. :func:`metricdist.instanceopt.opt_rand` starts its
cutting plane from those optima, so its lottery and iteration count depend
on the k = N LPs solved earlier on the profile; its certified value does
not.

A ratio is infinite exactly when some positively weighted alternative has no
chain of single-agent preferences leading to the normalized opponent; that
reachability test decides unboundedness before any LP is solved. Along a
step a -> b of such a chain, where agent u ranks a over b, consistency gives
d(u,a) <= d(u,b) and the quadrilaterals (v, u, a, b) give
d(v,a) <= d(v,b) + 2 d(u,b); summed over v, col(a) <= 2N col(b). So every
relaxation is seeded with the rows (v, v', a, b), v != v', of each step of a
shortest chain from each positively weighted column to the opponent: with
the normalization, which bounds the opponent's total cost (by N/k + 1 at
k < N), they alone bound every relaxation. The rows (v, u, a, b) of one
such u per step, N - 1 of them, would bound it too, but the other rows
bind often enough to save separation rounds: seeding only those of the
first agent u that ranks a over b raised the rounds per request of the
benchmark's seed-1 ``certify`` from 12.85 to 17.41, its dual pivots from
7.35 to 33.18 and its time by half, and the rounds of ``optimize`` from
50.8 to 54.2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from metricdist.linprog import (
    DEFAULT_FEAS_TOL,
    DEFAULT_PIVOT_TOL,
    TABLEAU_STATS,
    LinearProgram,
    LpStatus,
    SolverFailure,
    Tableau,
)
from metricdist.metricspace import CostMatrix, is_q_metric
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

# A row enters the relaxation once the optimum violates it by more.
_SEP_TOL = 1e-9
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
    "objectives",  # maximize calls that solved an LP to an optimum
    "cold_builds",  # tableaux built from scratch
    "warm_solves",  # re-optimizations of a live tableau
    "k_switches",  # k lowered in place on a live tableau, by a rank-one update
    # Pivots, refactors and Bland switches, counted by the tableaux
    *TABLEAU_STATS,
    "rebuilds",  # cold rebuilds after a failed warm re-optimization
    "retries",  # cold solves repeated with a tighter pivot tolerance
    "separation_rounds",  # searches for violated rows
    "seeded_rows",  # quadrilateral rows a cold build took from the last tableau
    "reused",  # k = N queries answered from a stored optimum, with no LP
    "held",  # LPs answered from their tableau's held optimum, with no re-solve
    # A level, not a count: quadrilateral rows held across the live
    # tableaux when the call returns.
    "pool_rows",
)
_COUNTERS = SOLVER_STATS[:-1]
# Labels of a live tableau's normalization rows (_normalization).
_FIXED = -1  # the rhs-1 row, always the first
_TOP_K = -2  # d(v, z) - tau - u_v <= 0, one per agent, at k < N
_NO_IDS = np.zeros(0, dtype=np.intp)
_NO_IDS.setflags(write=False)
# Coefficients of a quadrilateral row at its MetricPolytope.quad_columns.
_QUAD_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


class BudgetExceededError(ValueError):
    """Requested enumeration exceeds the stated budget; message names the need."""


class MetricPolytope:
    """Linear description of the admissible metrics consistent with a profile.

    Rows are written over the ``N * M`` costs ``d(v, c)`` in row-major order,
    all nonnegative: the per-agent consistency chain (adjacent ranking
    positions suffice) and the quadrilateral inequalities, each named by its
    id ``((v N + v') M + c) M + c'`` in ``[0, N^2 M^2)``. The solver's
    variables are the increments ``delta(v, t)`` at the same indices, t a
    ranking position, with ``d = prefix @ delta`` (:attr:`prefix`); they
    need no consistency rows. No normalization is part of the polytope:
    :func:`_normalization` writes it per opponent and k.

    The tables that depend only on the profile are built once, on first
    use, as cached properties: ``prefix``, the reachability of :attr:`reach`
    with each pair's first chain step, ``proper``, the four cost columns of
    every id (:attr:`quad_columns`), those of the proper ids that
    separation reads (:meth:`violated_quadruples`) and ``ranking_groups``;
    each pair's chain rows are memoized by :meth:`chain_quadruples`.
    """

    def __init__(self, profile):
        self.profile = profile
        self.num_agents = profile.num_agents
        self.num_alternatives = profile.num_alternatives
        self.num_metric_vars = self.num_agents * self.num_alternatives
        self.num_quad_ids = self.num_metric_vars**2
        # edges[a, b]: some agent prefers a over b (the tournament's support)
        self.edges = build_weighted(profile).weights > 0
        # d(v, c) is entry v M + positions[v, c] of the per-agent prefix sums
        agents = np.arange(self.num_agents)[:, None]
        self._ranked = (agents * self.num_alternatives + profile.positions).ravel()
        self._chains = {}  # (a, b) -> chain_quadruples(a, b)
        # The id of (v, v', 0, 0) for every pair of agents v != v'
        pairs = np.flatnonzero(~np.eye(self.num_agents, dtype=bool))
        self._pair_ids = pairs * self.num_alternatives**2

    def var(self, v: int, c: int) -> int:
        return v * self.num_alternatives + c

    @functools.cached_property
    def reach(self) -> np.ndarray:
        """``reach[a, b]``: a chain of ``edges`` leads from a to b; diagonal True.

        Also sets ``_first``, nested lists: the first step of chain(a, b).
        """
        # Breadth-first from every alternative at once: ``wider & ~near``
        # are the pairs whose shortest chain has k steps.
        m = self.num_alternatives
        edges = self.edges
        near = np.eye(m, dtype=bool)
        length = np.where(near, 0, m)  # steps of a shortest chain, m if none
        for k in range(1, m):
            wider = near | (near @ edges)
            if (wider == near).all():
                break
            length[wider & ~near] = k
            near = wider
        # The first step from a toward b: the smallest y with an edge
        # a -> y and a shortest chain from y one step shorter. Entries of
        # unreachable and diagonal pairs are never read.
        closer = edges[:, :, None] & (length[None] == length[:, None] - 1)
        self._first = closer.argmax(axis=1).tolist()
        return near

    def chain(self, a, b):
        """Steps ``(x, y)`` of a shortest chain of ``edges`` from a to b.

        Each step goes to the smallest alternative on a shortest chain, read
        from the table of first steps that :attr:`reach` builds. Empty when
        ``a == b`` or when no chain exists.
        """
        steps = []
        if not self.reach[a, b]:
            return steps
        first = self._first
        while a != b:
            step = first[a][b]
            steps.append((a, step))
            a = step
        return steps

    def unreached(self, support, z) -> list:
        """The columns of ``support`` with no chain of ``edges`` to ``z``, in order.

        Nonempty exactly when a ratio against ``z`` of a distribution
        supported on ``support`` is infinite (see the module docstring).
        """
        support = np.asarray(support, dtype=np.intp)
        return support[~self.reach[support, z]].tolist()

    def consistency_rows(self) -> np.ndarray:
        n, m, nm = self.num_agents, self.num_alternatives, self.num_metric_vars
        rows = np.zeros((n * (m - 1), nm))
        r = 0
        for v, ranking in enumerate(self.profile.rankings):
            for t in range(m - 1):
                rows[r, self.var(v, ranking[t])] = 1.0
                rows[r, self.var(v, ranking[t + 1])] = -1.0
                r += 1
        return rows

    @functools.cached_property
    def prefix(self) -> np.ndarray:
        """L, the ``NM x NM`` map from increments to costs: ``d = L @ delta``.

        ``delta(v, t)``, at index ``v M + t``, is the step of agent v's cost
        at position t of its ranking, so ``L[v M + c, v M + t]`` is 1 when
        t is at most c's position, and every other entry is 0. A row or
        objective over the costs is ``row @ L`` over the increments.
        """
        n, m = self.num_agents, self.num_alternatives
        agents = np.arange(n)
        steps = self.profile.positions[:, :, None] >= np.arange(m)
        prefix = np.zeros((n, m, n, m))
        prefix[agents, :, agents, :] = steps
        return prefix.reshape(self.num_metric_vars, -1)

    def metric(self, increments) -> np.ndarray:
        """The ``N x M`` costs ``L @ increments``, one cumulative sum per agent.

        Nonnegative increments give costs that agree with every ranking
        exactly: a sum of nonnegative floats never decreases.
        """
        sums = increments.reshape(self.num_agents, -1).cumsum(axis=1)
        return sums.take(self._ranked).reshape(self.num_agents, -1)

    @functools.cached_property
    def proper(self) -> np.ndarray:
        """Mask over the quadrilateral ids: those with ``v != v'`` and ``c != c'``."""
        n, m = self.num_agents, self.num_alternatives
        agents, alternatives = ~np.eye(n, dtype=bool), ~np.eye(m, dtype=bool)
        return (agents[:, :, None, None] & alternatives).ravel()

    @functools.cached_property
    def quad_columns(self) -> np.ndarray:
        """The four cost columns of every quadrilateral id, one row per id.

        Row ``id`` holds ``(v M + c, v M + c', v' M + c', v' M + c)``, the
        entries that :meth:`quadruple_rows` writes with signs ``+1, -1, -1,
        -1``: ``4 N^2 M^2`` int32, built once per polytope.
        """
        n, m = self.num_agents, self.num_alternatives
        v, vp, c, cp = np.ogrid[:n, :n, :m, :m]
        entries = (v * m + c, v * m + cp, vp * m + cp, vp * m + c)
        columns = np.empty((n, n, m, m, 4), dtype=np.int32)
        for i, entry in enumerate(entries):
            columns[..., i] = entry
        return columns.reshape(-1, 4)

    def quadruple_rows(self, ids) -> np.ndarray:
        """Rows of ``d(v,c) - d(v,c') - d(v',c') - d(v',c) <= 0``, one per id.

        Each id's quadruple ``(v, v', c, c')`` has ``v != v'`` and
        ``c != c'``, so its four entries (:attr:`quad_columns`) are distinct.
        """
        nm = self.num_metric_vars
        flat = self.quad_columns.take(ids, axis=0)
        flat += np.arange(0, len(flat) * nm, nm)[:, None]  # row r starts at r NM
        rows = np.zeros((len(flat), nm))
        rows.put(flat, _QUAD_SIGNS)  # the four signs repeat along every row
        return rows

    def all_quadruples(self) -> np.ndarray:
        """Every proper quadrilateral id, ascending: lexicographic in (v, v', c, c')."""
        return self.proper.nonzero()[0]

    def chain_quadruples(self, a, b) -> np.ndarray:
        """Ids of the rows ``(v, v', x, y)``, ``v != v'``, of the steps of a chain.

        Step by step along ``chain(a, b)``, and per step in lexicographic
        order of ``(v, v')``. Built once per pair; the array is read-only.
        All N (N - 1) pairs of a step, not the N - 1 rows of one agent that
        ranks x over y, which would bound the relaxation as well: the other
        rows bind often enough to save separation rounds (see the module
        docstring).
        """
        ids = self._chains.get((a, b))
        if ids is None:
            m = self.num_alternatives
            steps = np.array([x * m + y for x, y in self.chain(a, b)], dtype=np.intp)
            ids = (steps[:, None] + self._pair_ids).ravel()
            ids.setflags(write=False)
            self._chains[a, b] = ids
        return ids

    def violated_quadruples(self, values, tol, exclude, limit) -> np.ndarray:
        """Ids of the most-violated quadrilateral inequalities at ``values``.

        Worst first, at most ``limit``, skipping the ids that the boolean mask
        ``exclude`` holds; only proper quadruples (``v != v'``, ``c != c'``)
        count. Their gaps are one gather from the table of their cost columns
        (:attr:`quad_columns`), built once per polytope, and subtracted in the
        order of :func:`metricspace._quad_gaps`, so they are its bits. With
        N = 1 or M = 1 no quadruple is proper, and none is returned.
        """
        ids, columns, entries, gaps = self._separation
        if not ids.size:
            return _NO_IDS
        # Every index is in range; "clip" writes to ``out`` unbuffered.
        values.ravel().take(columns, out=entries, mode="clip")
        np.subtract(entries[0], entries[1], out=gaps)
        gaps -= entries[2]
        gaps -= entries[3]
        if np.maximum.reduce(gaps) <= tol:
            return _NO_IDS
        violated = (gaps > tol).nonzero()[0]
        ids = ids[violated[np.argsort(-gaps[violated])]]
        return ids[~exclude[ids]][:limit]

    @functools.cached_property
    def _separation(self):
        """The proper ids, their cost columns by row, and separation's buffers.

        The columns are C-ordered intp, as take wants: it copies an int32 or
        strided index on every call. Each round writes the gathered entries
        and the gaps into the buffers: allocating them anew per round
        fragmented the heap at large M.
        """
        ids = self.all_quadruples()
        columns = np.ascontiguousarray(self.quad_columns[ids].T, dtype=np.intp)
        return ids, columns, np.empty(columns.shape), np.empty(ids.size)

    @functools.cached_property
    def ranking_groups(self):
        """Agents that share a ranking, one list per ranking, by first agent."""
        groups = {}
        for v, ranking in enumerate(self.profile.rankings.tolist()):
            groups.setdefault(tuple(ranking), []).append(v)
        return list(groups.values())

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


@dataclass(slots=True, eq=False)
class _LiveLp:
    """One live tableau, with what each of its constraints is.

    ``labels`` is an int array parallel to the tableau's constraints: a
    quadrilateral row holds its id (>= 0); ``_FIXED`` marks the rhs-1 row,
    the first, and ``_TOP_K`` the N agent rows after it at k < N. Every row
    is over the increments (:attr:`MetricPolytope.prefix`), and tau and u at
    k < N (:func:`_normalization`), so none is a consistency row.
    ``in_tableau`` is a mask over every quadrilateral id, True on the rows
    held; ``chained`` a mask over the columns, True on those whose chain
    rows to ``opponent`` are held (see the module docstring). ``opponent``
    and the int ``k`` are the normalization held; below N, ``k`` is tau's
    coefficient in the rhs-1 row, and lowering it changes that entry alone,
    by a rank-one update (:meth:`_PolytopeSolver._lower_k`), so the rows and
    labels stay. ``held`` is ``(assignment, metric)`` of the current basis
    once a separation round there found nothing, and None after anything
    that changes the tableau: rows added, k lowered, a re-optimization.
    """

    tableau: Tableau
    labels: np.ndarray
    in_tableau: np.ndarray
    chained: np.ndarray
    opponent: int
    k: int
    held: tuple | None = None


class _PolytopeSolver:
    """Row-generating maximizer over one profile's metric polytope.

    Every LP here normalizes one opponent column, and each opponent keeps
    one live tableau across calls, for the k it was last asked: generated
    quadrilateral rows are valid for every LP over the polytope, but those
    that bind under one opponent's normalization are mostly slack under
    another's. A tableau holds its normalization rows (:func:`_normalization`)
    and the chain rows of every column an objective weights (see the module
    docstring); its rows only grow, and separation adds quadrilaterals
    alone.

    New rows enter a tableau and are re-optimized by the dual simplex; a
    new objective at the same opponent and k (:meth:`_retarget`) takes in
    the chain rows the tableau lacks and resumes the simplex from the last
    optimal basis, or answers from the optimum it holds if that basis needs
    no pivot. A smaller k below N at the same opponent is first set in
    place on its tableau, by a rank-one update in the same basis
    (:meth:`_lower_k`), then retargeted. Another opponent, k = N to N - 1,
    or a larger k builds a tableau cold (:meth:`_start`), seeded with the
    rows tight at the last tableau's optimum. Which rows a tableau lacks
    and which it passes on are mask operations on its labels, taken in
    label order.

    ``optima`` keeps every k = N optimum solved, keyed by the opponent and
    the objective's bytes, as ``(value, metric)`` with the metric read-only;
    :meth:`maximize` answers a repeated k = N query from it. Only k = N is
    kept, so a fairness sweep adds nothing, and the table goes with
    the solver when another profile takes the slot. Each stored metric is
    consistent and costs its opponent 1, which makes it a cut for
    :func:`metricdist.instanceopt.opt_rand`.

    Every round's assignment is verified against every row; a warm
    re-optimization that fails is rebuilt cold, and a failing cold solve is
    retried once with a tighter pivot tolerance. ``stats`` counts all of it
    since the solver was built (every name of ``SOLVER_STATS`` but the level
    ``pool_rows``): every tableau is built on it and counts its own pivots,
    refactors and Bland switches there as they happen, and the solver
    counts the rest. :meth:`stats_since` gives one call's share.

    Entry points share one solver through :func:`_solver_for`; the module
    docstring says what an earlier call on the profile can change.
    """

    def __init__(self, polytope):
        self.polytope = polytope
        # opponent -> _LiveLp, in the order they were last used
        self.live = {}
        # (opponent, objective bytes) -> (value, metric), at k = N alone
        self.optima = {}
        self.stats = dict.fromkeys(_COUNTERS, 0)

    def stats_since(self, before):
        """``SOLVER_STATS`` of the work done since ``before``, a copy of ``stats``."""
        out = {name: self.stats[name] - before[name] for name in _COUNTERS}
        tableaux = self.live.values()
        out["pool_rows"] = sum(int(np.count_nonzero(t.labels >= 0)) for t in tableaux)
        return out

    def maximize(self, objective, *, opponent, k, support):
        """Maximize over the polytope, ``opponent`` normalized; ``(value, metric)``.

        ``objective`` is nonnegative, one entry per cost ``d(v, c)``, and
        ``support`` lists, ascending, the columns it weights: those with a
        positive entry. The normalization bounds the sum of the opponent's
        k largest entries by 1, for an int k in 1..N (see
        :func:`_normalization` for its rows); k = N bounds its total cost,
        distortion's normalization. The bound binds at any optimum, so the
        value is the normalized ratio. Row generation runs on the
        opponent's live tableau, over the increments; ``metric`` is the
        ``N x M`` costs of the optimum, read-only. A k = N query already
        solved returns the stored optimum (``optima``), with no tableau work.
        The opponent's tableau serves the same k warm, from the optimum it
        holds if its basis needs no pivot, and a smaller k below N once
        lowered in place; any other k, or an opponent without a
        tableau, takes a seeded cold build.

        Raises:
            SolverFailure: the solve failed warm and cold, or a relaxation
                is unbounded (a weighted column has no chain to ``opponent``).
        """
        stored = k == self.polytope.num_agents
        if stored:
            key = opponent, objective.tobytes()
            optimum = self.optima.get(key)
            if optimum is not None:
                self.stats["reused"] += 1
                return optimum
        poly = self.polytope
        # The objective over the LP's variables: the increments, then tau
        # and u at 0 below N.
        nm = poly.num_metric_vars
        cost = np.zeros(nm if stored else nm + poly.num_agents + 1)
        np.matmul(objective, poly.prefix, out=cost[:nm])
        # Popped while in use, so a call that raises leaves no tableau behind.
        live = self.live.pop(opponent, None)
        if live is not None and k < live.k < self.polytope.num_agents:
            self._lower_k(live, k)
        if live is not None and live.k == k:
            value, metric = self._retarget(live, cost, support)
        else:
            # Seeded by the opponent's own tableau on a change of k, else by
            # the most recently used one.
            donor = live or next(reversed(self.live.values()), None)
            live, status, out = self._start(cost, opponent, k, support, donor)
            value, metric = self._generate_rows(live, status, out)
        self.live[opponent] = live
        self.stats["objectives"] += 1
        metric.setflags(write=False)
        if stored:
            self.optima[key] = value, metric
        return value, metric

    def _chain_rows(self, support, opponent, chained):
        """Ids of the chain rows to ``opponent`` of the columns of ``support``
        that the column mask ``chained`` lacks, which it then marks.

        Columns ascending, each id at its first occurrence; one column's
        are its memoized :meth:`MetricPolytope.chain_quadruples`, read-only.
        With the normalization rows, a weighted column's chain rows bound
        the relaxation (see the module docstring).
        """
        support = np.asarray(support, dtype=np.intp)
        columns = support[~chained[support]]
        if not columns.size:
            return _NO_IDS
        chained[columns] = True
        chains = [self.polytope.chain_quadruples(c, opponent) for c in columns]
        if len(chains) == 1:
            return chains[0]
        ids = np.concatenate(chains)
        _, first = np.unique(ids, return_index=True)
        return ids[np.sort(first)]

    def _start(self, cost, opponent, k, support, donor=None):
        """Cold-build the opponent's tableau from the slack basis; ``cost``
        is the objective over the LP's variables.

        The normalization comes first, then the chain rows of ``support``,
        then the quadrilateral rows tight at the optimum of the live tableau
        ``donor`` (their slack is nonbasic), if one is given: rows that bound
        one optimum mostly bind near the next, so separation starts close to
        its end. Those rows are the first NM entries of the donor's, which
        are over the increments already and 0 on tau and u. The rows, their
        labels and the rhs are written in one pass into arrays of their
        final size.
        """
        poly = self.polytope
        nm = poly.num_metric_vars
        chained = np.zeros(poly.num_alternatives, dtype=bool)
        ids = self._chain_rows(support, opponent, chained)
        in_tableau = np.zeros(poly.num_quad_ids, dtype=bool)
        in_tableau[ids] = True
        seeded = _NO_IDS
        if donor is not None:
            tight = (donor.labels >= 0) & ~donor.tableau.basic_slacks()
            tight[tight] = ~in_tableau[donor.labels[tight]]  # not a chain row
            seeded = donor.labels[tight]
            in_tableau[seeded] = True
            self.stats["seeded_rows"] += seeded.size
        top = 1 if k == poly.num_agents else poly.num_agents + 1
        chain_end = top + ids.size
        rows = np.zeros((chain_end + seeded.size, cost.size))
        labels = np.full(len(rows), _TOP_K)
        labels[0] = _FIXED
        labels[top:chain_end] = ids
        labels[chain_end:] = seeded
        _normalization(poly, opponent, k, rows[:top])
        np.matmul(poly.quadruple_rows(ids), poly.prefix, out=rows[top:chain_end, :nm])
        if donor is not None:
            rows[chain_end:, :nm] = donor.tableau.rows[tight, :nm]
        rhs = np.zeros(len(rows))
        rhs[0] = 1.0
        tableau, status, out = self._cold(LinearProgram(cost, rows, rhs), opponent, k)
        live = _LiveLp(tableau, labels, in_tableau, chained, opponent, k)
        return live, status, out

    def _retarget(self, live, cost, support):
        """Move a live tableau to the objective ``cost`` (over the LP's
        variables) at the same opponent and k; ``(value, metric)``.

        The objective's chain rows the tableau lacks enter first (any row
        clears the held optimum), then the objective. If the tableau still
        holds an optimum and its basis needs no pivot
        (:meth:`Tableau.at_optimum`), that optimum answers: its assignment
        passed verification against every row held and separation found
        nothing, and a re-solve would compute the same bits. Else the new
        objective resumes the simplex from the last optimal basis in one
        warm re-optimization, then separation runs. Chain rows are
        quadrilateral rows, which the last optimum passed separation on
        within ``_SEP_TOL``, so they enter with slack ``-_SEP_TOL`` or
        above, well inside the drift that :meth:`Tableau.optimize` leaves to
        the primal simplex.
        """
        chain = self._chain_rows(support, live.opponent, live.chained)
        missing = chain[~live.in_tableau[chain]]
        if missing.size:
            self._add_quads(live, missing)
        tableau = live.tableau
        tableau.set_objective(cost)
        if live.held is not None and tableau.at_optimum():
            self.stats["held"] += 1
            x, metric = live.held
            return float(tableau.objective @ x), metric
        return self._generate_rows(live, *self._reoptimize(live))

    def _lower_k(self, live, k):
        """Lower a live tableau's k in place: tau's coefficient in the
        rhs-1 row becomes ``k``, by one rank-one update in its basis
        (:meth:`Tableau.update_coefficient`).

        The basis stays primal feasible and nonsingular. A live tableau
        sits at its last optimum x* (a call that raises leaves none), the
        basic solution of ``B x = e_0``: the rhs-1 row is the only one with
        a nonzero rhs, and it reads ``k_old tau + sum_v u_v + slack = 1``,
        so ``k_old tau* <= 1``. If tau is nonbasic, B does not change. Else
        B loses ``(k_old - k) e_0`` in tau's column, and ``x* / a``, with
        ``a = 1 - (k_old - k) tau* >= k / k_old``, still solves every
        homogeneous row and makes the changed rhs-1 row read 1 again: it is
        the new basic solution, and nonnegative. B's determinant is
        multiplied by ``a`` (the matrix determinant lemma). Round-off is
        left to the warm solve's verification and drift refactor, and to
        :meth:`_reoptimize`'s cold rebuild, whose program holds the new k.
        """
        self.stats["k_switches"] += 1
        live.k = k
        live.held = None
        live.tableau.update_coefficient(0, self.polytope.num_metric_vars, k)

    def _generate_rows(self, live, status, out):
        """Separation rounds until the optimum violates no quadrilateral;
        ``(value, metric)``, the optimum's costs.

        Each round reads the costs of the optimum's increments, its first NM
        entries (:meth:`MetricPolytope.metric`).
        """
        poly = self.polytope
        for _ in range(_MAX_ROUNDS):
            if status is LpStatus.UNBOUNDED:
                raise self._failure(
                    "relaxation unbounded: chain rows missing",
                    live.tableau.program(),
                    live.opponent,
                    live.k,
                )

            metric = poly.metric(out.assignment[: poly.num_metric_vars])
            self.stats["separation_rounds"] += 1
            new = poly.violated_quadruples(
                metric, _SEP_TOL, live.in_tableau, _SEPARATION_BATCH
            )
            if not new.size:
                live.held = out.assignment, metric
                return out.value, metric

            self._add_quads(live, new)
            status, out = self._reoptimize(live)
        message = "row generation did not converge"
        raise self._failure(message, live.tableau.program(), live.opponent, live.k)

    def _add_quads(self, live, ids):
        poly = self.polytope
        rows = np.zeros((len(ids), live.tableau.objective.size))
        quads = poly.quadruple_rows(ids)
        np.matmul(quads, poly.prefix, out=rows[:, : poly.num_metric_vars])
        live.tableau.add_rows(rows, np.zeros(len(ids)))
        live.labels = np.concatenate([live.labels, ids])
        live.in_tableau[ids] = True
        live.held = None

    def _run(self, tableau):
        """Optimize ``tableau``; the outcome is verified."""
        status = tableau.optimize()
        return status, tableau.outcome() if status is LpStatus.OPTIMAL else None

    def _reoptimize(self, live):
        """Warm re-optimization, rebuilt cold if it fails."""
        self.stats["warm_solves"] += 1
        live.held = None
        tableau = live.tableau
        try:
            return self._run(tableau)
        except SolverFailure:
            self.stats["rebuilds"] += 1
        live.tableau, status, out = self._cold(tableau.program(), live.opponent, live.k)
        return status, out

    def _cold(self, lp, opponent, k):
        """Cold solve of ``lp``, the LP of ``opponent`` at ``k``, retried once
        with a tighter pivot tolerance."""
        self.stats["cold_builds"] += 1
        for pivot_tol in (DEFAULT_PIVOT_TOL, _RETRY_PIVOT_TOL):
            try:
                tableau = Tableau(lp, pivot_tol=pivot_tol, stats=self.stats)
                return (tableau, *self._run(tableau))
            except SolverFailure as exc:
                failure = exc
                if pivot_tol == DEFAULT_PIVOT_TOL:
                    self.stats["retries"] += 1
        raise self._failure(
            f"cold solve failed at every pivot tolerance: {failure}",
            lp,
            opponent,
            k,
        ) from failure

    def _failure(self, message, program, opponent, k):
        """A failure of the LP of ``opponent`` at ``k`` that carries
        ``program`` and the profile to reproduce it."""
        return SolverFailure(
            f"opponent {opponent} (0-based), k = {k}: {message} "
            "(lp_text's variables are the increments delta(v, t) "
            "in each agent's ranking order, at index v M + t: d(v, ranking_v[j]) "
            "is the sum of delta(v, t) over t <= j; for k < N, column NM is tau "
            "and column NM + 1 + v is u_v of the top-k bound)",
            lp_text=program.dump_text(),
            profile_text=serialize_profile(self.polytope.profile),
        )


_live_solver = None


def _solver_for(profile):
    """The solver of ``profile``: the live one, or a new one that replaces it.

    Only one solver is held, so memory stays at one profile's tableaux, one
    per opponent, however many profiles a caller keeps. Profiles never
    change, which makes identity the right test. The slot is shared by the
    whole process, so calls from several threads must not overlap.
    """
    global _live_solver
    if _live_solver is None or _live_solver.polytope.profile is not profile:
        _live_solver = None  # release the old tableaux before building anew
        _live_solver = _PolytopeSolver(MetricPolytope(profile))
    return _live_solver


def _normalization(poly, opponent, k, out):
    """Write into the zero rows ``out`` the rows that bound the sum of the
    opponent's k largest costs by 1, the first with rhs 1, the rest with
    rhs 0.

    At k = N, one row over the increments: the opponent's total cost, the
    sum of L's rows of its column. For k < N, N + 1 rows over N + 1 more
    columns, tau at NM and u_v at NM + 1 + v: ``k tau + sum_v u_v <= 1``,
    then ``d(v, z) - tau - u_v <= 0`` per agent v. Nonnegative costs satisfy
    the bound iff some tau, u >= 0 satisfy these, tau at the k-th largest
    cost (Ogryczak and Tamir, IPL 2003).
    """
    n, nm = poly.num_agents, poly.num_metric_vars
    # Column c of the costs holds the entries v * M + c, one per agent v.
    column = poly.prefix[opponent :: poly.num_alternatives]
    if k == n:
        out[0] = column.sum(axis=0)
        return
    out[0, nm] = k
    out[0, nm + 1 :] = 1.0
    out[1:, :nm] = column
    out[1:, nm] = -1.0
    out[1:, nm + 1 :] = -np.eye(n)


@dataclass
class DistortionReport:
    """Worst-case ratio for one outcome, with a feasibility-checked witness."""

    value: float
    winner: int | None = None
    distribution: np.ndarray | None = None
    opponent: int | None = None
    witness: CostMatrix | None = None
    per_opponent: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
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
    at small sizes. Its variables are the costs, row-major, not the solver's
    increments: rows are the consistency chain, the normalization (the
    opponent's total cost ``<= 1``, as in every tableau) and every
    quadrilateral, in that order.
    """
    m = profile.num_alternatives
    weights = _outcome_weights(winner_or_x, m)
    opponent = _validated_alternative(opponent, m)
    poly = MetricPolytope(profile)
    consistency = poly.consistency_rows()
    bound = np.zeros(poly.num_metric_vars)
    bound[opponent::m] = 1.0
    A_ub = np.vstack([consistency, bound, poly.quadruple_rows(poly.all_quadruples())])
    b_ub = np.zeros(len(A_ub))
    b_ub[len(consistency)] = 1.0
    return LinearProgram(np.tile(weights, profile.num_agents), A_ub, b_ub)


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
    if poly.unreached(support, opponent):
        return math.inf, None
    objective = np.tile(x, poly.num_agents)  # x[c] on every entry of column c
    value, metric = solver.maximize(
        objective, opponent=opponent, k=poly.num_agents, support=support
    )
    return value, CostMatrix(metric)


def _validated_distribution(x, m):
    x = np.asarray(x, dtype=float)
    finite = x.shape == (m,) and np.isfinite(x).all()
    if not finite or (x < 0).any() or abs(x.sum() - 1.0) > 1e-9:
        raise ValueError("x must be a probability vector over the alternatives")
    return x


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _validated_alternative(c, m, name="alternative"):
    """``c`` as an int; NumPy would wrap a negative index to another alternative."""
    if not (_is_integer(c) and 0 <= c < m):
        raise ValueError(f"{name} must be an integer in 0..{m - 1}, got {c!r}")
    return int(c)


def dist_det(winner, profile):
    """Worst-case distortion of picking ``winner``: max over opponents of a_det."""
    return _distortion_report(
        profile,
        winner=_validated_alternative(winner, profile.num_alternatives, "winner"),
        distribution=None,
    )


def dist_rand(x, profile):
    """Worst-case expected distortion of distribution ``x``."""
    x = _validated_distribution(x, profile.num_alternatives)
    return _distortion_report(profile, winner=None, distribution=x)


def _distortion_report(profile, *, winner, distribution):
    """The worst ratio over the opponents, each solved in ascending order.

    The outcome is validated by the caller; the objective, its support and
    the reachable opponents are built once, then the solver runs once per
    reachable opponent, as :func:`a_rand` would, and only the reported
    witness becomes a :class:`CostMatrix`.
    """
    m = profile.num_alternatives
    opponents = [c for c in range(m) if c != winner]
    tolerances = {"feas_tol": DEFAULT_FEAS_TOL, "witness_tol": WITNESS_TOL}
    if not opponents:
        return DistortionReport(
            value=1.0,
            winner=winner,
            distribution=distribution,
            tolerances=tolerances,
        )

    solver = _solver_for(profile)
    poly = solver.polytope
    before = dict(solver.stats)
    x = _outcome_weights(winner, m) if distribution is None else distribution
    support = np.flatnonzero(x > 0)
    objective = np.tile(x, poly.num_agents)  # x[c] on every entry of column c
    reached = poly.reach[support].all(axis=0).tolist()
    per_opponent, metrics = {}, {}
    for z in opponents:
        if reached[z]:
            per_opponent[z], metrics[z] = solver.maximize(
                objective, opponent=z, k=poly.num_agents, support=support
            )
        else:
            per_opponent[z] = math.inf
    # Fixed reduction order: first opponent attaining the max wins ties.
    best = max(per_opponent, key=per_opponent.get)
    finite = math.isfinite(per_opponent[best])
    return DistortionReport(
        value=per_opponent[best],
        winner=winner,
        distribution=distribution,
        opponent=best if finite else None,
        witness=CostMatrix(metrics[best]) if finite else None,
        per_opponent=per_opponent,
        tolerances=tolerances,
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

    Runs k descending, then opponents ascending but for a point mass's own,
    worth exactly 1 (every value starts there), then ``tuples[k]``
    (:func:`_solve_tuple`).
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
    blocked = next((z for z in opponents if poly.unreached(support, z)), None)
    return opponents, blocked


def _solve_tuple(solver, x, support, subsets, opponent, k):
    """The top-k LP whose objective is ``x[c]`` on c's entries of c's subset."""
    m = len(x)
    objective = np.zeros(solver.polytope.num_agents * m)
    for c, subset in zip(support, subsets):
        for v in subset:
            objective[v * m + c] = x[c]
    return solver.maximize(objective, opponent=opponent, k=k, support=support)


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
