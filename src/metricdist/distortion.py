"""Worst-case cost ratios over ranking-consistent metrics, certified by LP.

The admissible cost matrices consistent with a profile form a polyhedral
cone; fixing an opponent's total cost to 1 turns each worst-case ratio into
a dense LP. Quadrilateral rows are generated lazily: solve a relaxation,
add the rows it violates, repeat. A run only terminates once the incumbent
satisfies the complete inequality family, so reported optima are exact up to
solver tolerances, and every report carries a feasibility-checked witness.

The relaxations are not solved from scratch. Each normalized opponent keeps
one live simplex tableau: generated rows enter it and are re-optimized by
the dual simplex, and the next objective over the same rows (another
candidate, subset or lottery) resumes from its last optimal basis.

A ratio is infinite exactly when some positively weighted alternative has no
chain of single-agent preferences leading to the normalized opponent; that
reachability test decides unboundedness before any LP is solved. Along a
step a -> b of such a chain, where agent u ranks a over b, consistency gives
d(u,a) <= d(u,b) and the quadrilaterals (v, u, a, b) give
d(v,a) <= d(v,b) + 2 d(u,b); summed over v, col(a) <= 2N col(b). So every
relaxation is seeded with the rows (v, v', a, b), v != v', of each step of a
shortest chain from each positively weighted column to the opponent, and
these rows are never dropped: they alone bound every relaxation, under each
normalization of the opponent: its total cost ``=`` 1, also the cheapest,
or the sum of its k largest entries at most 1.
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
_DROP_THRESHOLD = 400
_DROP_SLACK = 1e-5
# Pivot tolerance of the second cold solve after numerical drift.
_RETRY_PIVOT_TOL = 1e-11
SOLVER_STATS = (
    "cold_builds",  # tableaux built by the two-phase method
    "warm_solves",  # re-optimizations of a live tableau
    "primal_pivots",
    "dual_pivots",
    "refactors",  # tableaux recomputed from their rows to shed round-off
    "rebuilds",  # cold rebuilds after a failed warm re-optimization
    "retries",  # cold solves repeated with a tighter pivot tolerance
    "bland_switches",  # pivot loops that stalled and switched to Bland's rule
    "separation_rounds",  # searches for violated quadrilaterals
)


class BudgetExceededError(ValueError):
    """Requested enumeration exceeds the stated budget; message names the need."""


class MetricPolytope:
    """Linear description of the admissible metrics consistent with a profile.

    Variables are the ``N * M`` entries ``d(v, c)`` in row-major order, all
    nonnegative. Rows are the per-agent consistency chain (adjacent ranking
    positions suffice) and the quadrilateral inequalities.
    """

    def __init__(self, profile):
        self.profile = profile
        self.num_agents = profile.num_agents
        self.num_alternatives = profile.num_alternatives
        self.num_metric_vars = self.num_agents * self.num_alternatives
        self._reach = None
        self._length = None  # steps of a shortest chain from a to b, m if none
        self._consistency = None

    def var(self, v: int, c: int) -> int:
        return v * self.num_alternatives + c

    @property
    def edges(self) -> np.ndarray:
        """``edges[a, b]``: some agent prefers a over b (the tournament's support)."""
        return build_weighted(self.profile).weights > 0

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
        while self.reach[a, b] and a != b:
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

    def quadruple_rows(self, quads, width=None) -> np.ndarray:
        """Rows of ``d(v,c) - d(v,c') - d(v',c') - d(v',c) <= 0``, one per quadruple.

        Each quadruple ``(v, v', c, c')`` has ``v != v'`` and ``c != c'``, so
        its four entries are distinct. Rows are zero-padded to ``width``.
        """
        q = np.asarray(quads, dtype=int).reshape(-1, 4)
        v, vp, c, cp = q.T
        m = self.num_alternatives
        rows = np.zeros((len(q), width or self.num_metric_vars))
        r = np.arange(len(q))
        rows[r, v * m + c] = 1.0
        rows[r, v * m + cp] = -1.0
        rows[r, vp * m + cp] = -1.0
        rows[r, vp * m + c] = -1.0
        return rows

    def all_quadruples(self):
        n, m = self.num_agents, self.num_alternatives
        return [
            (v, vp, c, cp)
            for v in range(n)
            for vp in range(n)
            if v != vp
            for c in range(m)
            for cp in range(m)
            if c != cp
        ]

    def violated_quadruples(self, values, tol, exclude, limit):
        """Most-violated quadrilateral inequalities at ``values``, worst first."""
        gaps = _quad_gaps(values)
        n, m = values.shape
        gaps[np.arange(n), np.arange(n), :, :] = -np.inf
        gaps[:, :, np.arange(m), np.arange(m)] = -np.inf
        idx = np.argwhere(gaps > tol)
        if idx.size == 0:
            return []
        order = np.argsort(-gaps[tuple(idx.T)])
        out = []
        for k in order:
            quad = tuple(int(x) for x in idx[k])
            if quad not in exclude:
                out.append(quad)
                if len(out) >= limit:
                    break
        return out

    def satisfies(self, d, tol=DEFAULT_FEAS_TOL) -> bool:
        return is_q_metric(d, tol)[0] and is_consistent(d, self.profile, tol)[0]


class _LiveLp:
    """One live tableau, with what each of its constraints is.

    ``labels`` runs parallel to the tableau's constraints: ``None`` for a
    normalization or consistency row, a quadruple for a quadrilateral row.
    """

    __slots__ = ("tableau", "labels", "quads")

    def __init__(self, tableau, labels):
        self.tableau = tableau
        self.labels = labels
        self.quads = {q for q in labels if isinstance(q, tuple)}


class _PolytopeSolver:
    """Row-generating maximizer over one profile's metric polytope.

    Every LP here normalizes one opponent column, and generated
    quadrilateral rows are pooled per normalized opponent: the rows are
    valid for every LP over the polytope, but those that bind under one
    opponent's normalization are mostly slack under another's. Each pool
    starts with the chain rows of every column an objective weights (see the
    module docstring); they bound every relaxation and are never pruned.

    Each ``(opponent, norm)`` key keeps one live tableau across calls; the
    key names the rows that normalize the opponent (see :meth:`maximize`). New
    quadrilateral rows enter it and are re-optimized by the dual simplex; a
    new objective first takes in the pool rows the tableau lacks, then
    resumes the primal simplex from the last optimal basis. Every round's
    assignment is verified against every row; a warm re-optimization that
    fails is rebuilt cold, and a failing cold solve is retried once with a
    tighter pivot tolerance. ``stats`` counts all of it (``SOLVER_STATS``).
    """

    def __init__(self, polytope, feas_tol=DEFAULT_FEAS_TOL, sep_tol=DEFAULT_SEP_TOL):
        self.polytope = polytope
        self.feas_tol = feas_tol
        self.sep_tol = sep_tol
        # opponent -> quadruples in insertion order (a dict as ordered set);
        # seeded chain rows map to True, generated rows to None
        self.pools = {}
        # (column, opponent) pairs whose chain rows are in the pool
        self.seeded = set()
        # (opponent, norm) -> _LiveLp
        self.live = {}
        self.stats = dict.fromkeys(SOLVER_STATS, 0)
        self._consistency = {}  # width -> padded consistency rows

    def maximize(self, metric_objective, *, opponent, norm):
        """Maximize over the polytope, ``opponent`` normalized; ``(value, metric)``.

        ``norm`` picks the normalization: ``"="`` fixes the opponent's total
        cost to 1; ``"cheapest"`` also makes every other column cost at
        least 1; an integer k bounds the sum of the opponent's k largest
        entries by 1 (see :func:`_top_k_block`). Row generation runs over
        the opponent's pool and the live tableau of ``(opponent, norm)``.

        Raises:
            SolverFailure: the solve failed warm and cold, or a relaxation
                is unbounded (a weighted column has no chain to ``opponent``).
        """
        poly = self.polytope
        nm = poly.num_metric_vars
        key = (opponent, norm)
        pool = self.pools.setdefault(opponent, {})
        # The chain rows of every weighted column bound the relaxation.
        weighted = np.flatnonzero(metric_objective > 0) % poly.num_alternatives
        for c in set(weighted.tolist()):
            if (c, opponent) not in self.seeded:
                self.seeded.add((c, opponent))
                for a, b in poly.chain(c, opponent):
                    agent_pairs = itertools.permutations(range(poly.num_agents), 2)
                    pool.update(((v, vp, a, b), True) for v, vp in agent_pairs)
        # Popped while in use, so a call that raises leaves no tableau behind.
        live = self.live.pop(key, None)
        if live is None:
            live, status, out = self._start(metric_objective, opponent, norm, pool)
        else:
            status, out = self._resume(live, metric_objective, pool)
        value, x = self._generate_rows(live, pool, status, out)
        self.live[key] = live
        return value, x[:nm].reshape(poly.num_agents, -1)

    def _start(self, metric_objective, opponent, norm, pool):
        """Cold-build the tableau of a new key over its pool."""
        poly = self.polytope
        A_eq, b_eq, A_norm, b_norm = _normalization(poly, opponent, norm)
        width = A_eq.shape[1]
        objective = np.zeros(width)
        objective[: poly.num_metric_vars] = metric_objective
        consistency = self._consistency.get(width)
        if consistency is None:
            rows = poly.consistency_rows()
            consistency = np.zeros((len(rows), width))
            consistency[:, : rows.shape[1]] = rows
            self._consistency[width] = consistency
        quads = list(pool)
        A_ub = np.vstack([consistency, A_norm, poly.quadruple_rows(quads, width)])
        b_ub = np.zeros(len(A_ub))
        b_ub[len(consistency) : len(consistency) + len(b_norm)] = b_norm
        labels = [None] * (len(b_eq) + len(consistency) + len(b_norm)) + quads
        lp = LinearProgram("max", objective, A_ub, b_ub, A_eq, b_eq)
        tableau, status, out = self._cold(lp)
        return _LiveLp(tableau, labels), status, out

    def _resume(self, live, metric_objective, pool):
        """Switch a live tableau to ``metric_objective`` and re-optimize it."""
        missing = [q for q in pool if q not in live.quads]
        if missing:
            # Enter under the old objective, whose basis stays dual feasible.
            self._add_quads(live, missing)
            status, _ = self._reoptimize(live)
            if status is not LpStatus.OPTIMAL:
                raise self._failure(
                    f"unexpected LP status {status}", live.tableau.program()
                )
        objective = np.zeros(live.tableau.objective.size)
        objective[: metric_objective.size] = metric_objective
        live.tableau.set_objective(objective)
        return self._reoptimize(live)

    def _generate_rows(self, live, pool, status, out):
        """Separation rounds until the optimum satisfies every quadrilateral."""
        poly = self.polytope
        fresh = set()
        for _ in range(_MAX_ROUNDS):
            if status is LpStatus.UNBOUNDED:
                raise self._failure(
                    "relaxation unbounded: chain rows missing", live.tableau.program()
                )
            if status is not LpStatus.OPTIMAL:
                raise self._failure(
                    f"unexpected LP status {status}", live.tableau.program()
                )

            x = out.assignment
            metric = x[: poly.num_metric_vars].reshape(poly.num_agents, -1)
            self.stats["separation_rounds"] += 1
            new = poly.violated_quadruples(
                metric, self.sep_tol, live.quads, _SEPARATION_BATCH
            )
            if not new:
                return out.value, x

            # Keep the working set lean: drop rows far from binding, but
            # never seeded ones or ones added in the previous round.
            if len(live.quads) > _DROP_THRESHOLD:
                old = [
                    i
                    for i, label in enumerate(live.labels)
                    if isinstance(label, tuple)
                    and label not in fresh
                    and not pool.get(label)
                ]
                slack = -(live.tableau.rows[old] @ x)
                far = [i for i, s in zip(old, slack) if s >= _DROP_SLACK]
                for quad in self._remove(live, far):
                    pool.pop(quad, None)

            fresh = set(new)
            pool.update(dict.fromkeys(new))
            self._add_quads(live, new)
            status, out = self._reoptimize(live)
        raise self._failure(
            "quadrilateral row generation did not converge", live.tableau.program()
        )

    def _add_quads(self, live, quads):
        width = live.tableau.objective.size
        live.tableau.add_rows(
            self.polytope.quadruple_rows(quads, width), np.zeros(len(quads))
        )
        live.labels.extend(quads)
        live.quads.update(quads)

    def _remove(self, live, indices):
        """Remove those constraints ``indices`` whose slack is basic.

        Returns the labels of the removed constraints.
        """
        removed = live.tableau.remove_rows(indices)
        gone = {i for i, r in zip(indices, removed) if r}
        labels = [live.labels[i] for i in sorted(gone)]
        live.labels = [label for i, label in enumerate(live.labels) if i not in gone]
        live.quads.difference_update(labels)
        return labels

    def _run(self, tableau):
        """Optimize ``tableau``; the outcome is verified, pivots counted."""
        counts = ("primal_pivots", "dual_pivots", "refactors", "bland_switches")
        before = [getattr(tableau, name) for name in counts]
        try:
            status = tableau.optimize()
            return status, tableau.outcome() if status is LpStatus.OPTIMAL else None
        finally:
            for name, old in zip(counts, before):
                self.stats[name] += getattr(tableau, name) - old

    def _reoptimize(self, live):
        """Warm re-optimization, rebuilt cold if it fails."""
        self.stats["warm_solves"] += 1
        tableau = live.tableau
        try:
            status, out = self._run(tableau)
            if status is LpStatus.INFEASIBLE:
                raise SolverFailure("warm re-optimization reported infeasible")
            return status, out
        except SolverFailure:
            self.stats["rebuilds"] += 1
        live.tableau, status, out = self._cold(tableau.program())
        return status, out

    def _cold(self, lp):
        """Two-phase solve of ``lp``, retried once with a tighter pivot tolerance."""
        self.stats["cold_builds"] += 1
        for pivot_tol in (DEFAULT_PIVOT_TOL, _RETRY_PIVOT_TOL):
            try:
                tableau = Tableau(lp, pivot_tol=pivot_tol, feas_tol=self.feas_tol)
                self.stats["primal_pivots"] += tableau.primal_pivots
                self.stats["bland_switches"] += tableau.bland_switches
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


def _normalization(poly, opponent, norm):
    """Rows ``(A_eq, b_eq, A_ub, b_ub)`` that normalize ``opponent`` by ``norm``.

    See :meth:`_PolytopeSolver.maximize` for the three normalizations.
    """
    if norm not in ("=", "cheapest"):
        A_ub, b_ub = _top_k_block(poly, opponent, norm)
        return np.zeros((0, A_ub.shape[1])), np.zeros(0), A_ub, b_ub
    # Row c sums column c of the metric: entries v * M + c for every agent v.
    m = poly.num_alternatives
    sums = np.arange(poly.num_metric_vars) % m == np.arange(m)[:, None]
    # "cheapest": every other column costs at least 1, negated into <= -1
    others = sums[np.arange(m) != opponent] if norm == "cheapest" else sums[:0]
    return sums[[opponent]], np.ones(1), -1.0 * others, -np.ones(len(others))


def _top_k_block(poly, z, k):
    """Rows ``(A_ub, b_ub)``: 'sum of the k largest entries of column z is at most 1'.

    Aux variables follow the metric ones: a threshold ``t`` and per-agent
    overflows ``u_v``; the bound is exactly ``k*t + sum_v u_v <= 1`` with
    ``u_v >= d(v,z) - t``.
    """
    nm, n = poly.num_metric_vars, poly.num_agents
    v = np.arange(n)
    A = np.zeros((n + 1, nm + 1 + n))
    A[v, v * poly.num_alternatives + z] = 1.0
    A[v, nm] = -1.0
    A[v, nm + 1 + v] = -1.0
    A[n, nm] = float(k)
    A[n, nm + 1 :] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    return A, b


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
    at small sizes.
    """
    poly = MetricPolytope(profile)
    weights = _outcome_weights(winner_or_x, profile.num_alternatives)
    A_eq, b_eq, _, _ = _normalization(poly, opponent, "=")
    A_ub = np.vstack(
        [poly.consistency_rows(), poly.quadruple_rows(poly.all_quadruples())]
    )
    objective = np.tile(weights, profile.num_agents)
    return LinearProgram("max", objective, A_ub, np.zeros(len(A_ub)), A_eq, b_eq)


def a_det(c, opponent, profile, *, solver=None):
    """Worst total-cost of ``c`` against ``opponent`` normalized to cost 1.

    Returns ``(value, witness)``; the value is ``inf`` with no witness when
    the ratio is unbounded (no preference chain from ``c`` to ``opponent``).
    """
    return a_rand(
        _outcome_weights(c, profile.num_alternatives), opponent, profile, solver=solver
    )


def a_rand(x, opponent, profile, *, solver=None):
    """Worst expected cost of distribution ``x`` against a normalized opponent."""
    x = _validated_distribution(x, profile.num_alternatives)
    if solver is None:
        solver = _PolytopeSolver(MetricPolytope(profile))
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


def dist_det(winner, profile, *, rule="", tie_break=None, seed=None):
    """Worst-case distortion of picking ``winner``: max over opponents of a_det."""
    return _distortion_report(
        profile,
        winner=winner,
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

    solver = _PolytopeSolver(MetricPolytope(profile))
    if distribution is None:
        results = [a_det(winner, opp, profile, solver=solver) for opp in opponents]
    else:
        results = [
            a_rand(distribution, opp, profile, solver=solver) for opp in opponents
        ]

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
        solver_stats=dict(solver.stats),
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

    @property
    def exact_value(self):
        lo, hi = self.value_bounds
        return lo if all(self.exact_k.values()) else None


def fairness_det(winner, profile, k_set=None, budget=10):
    """Worst-case top-k cost ratio of ``winner`` against every opponent.

    For each opponent the k-largest bound is linearized exactly; the convex
    objective side is enumerated over all agent subsets of size k, which is
    why ``budget`` caps the number of agents.
    """
    n = profile.num_agents
    if n > budget:
        raise BudgetExceededError(
            f"subset enumeration needs budget >= {n}, got {budget}"
        )
    k_set = _validated_k_set(k_set, n)
    poly = MetricPolytope(profile)
    solver = _PolytopeSolver(poly)
    nm = poly.num_metric_vars

    per_k = {}
    best = (0.0, None, None)
    for k in k_set:
        k_best = 0.0
        for z in range(profile.num_alternatives):
            if z == winner:
                continue
            if not poly.reach[winner, z]:
                k_best = math.inf
                per_k[k] = math.inf
                best = (math.inf, (k, z, None), None)
                break
            for subset in itertools.combinations(range(n), k):
                objective = np.zeros(nm)
                for v in subset:
                    objective[poly.var(v, winner)] = 1.0
                value, metric = solver.maximize(objective, opponent=z, norm=k)
                k_best = max(k_best, value)
                if value > best[0]:
                    best = (value, (k, z, subset), CostMatrix(metric))
        per_k[k] = k_best
    value = max(per_k.values())
    return FairnessReport(
        winner=winner,
        per_k=per_k,
        value=value,
        argmax=best[1],
        witness=best[2],
        solver_stats=dict(solver.stats),
    )


def _validated_k_set(k_set, n):
    if k_set is None:
        return list(range(1, n + 1))
    k_set = sorted(set(int(k) for k in k_set))
    if not k_set or k_set[0] < 1 or k_set[-1] > n:
        raise ValueError(f"k values must lie in 1..{n}")
    return k_set


def fairness_rand(x, profile, k_set=None, budget=20_000):
    """Expected top-k cost ratio bounds for distribution ``x``.

    Exact per k when the joint enumeration of per-candidate subset tuples
    fits in ``budget``; otherwise returns (lower, upper) where the lower
    bound is a coordinate-ascent fixpoint over subset tuples and the upper
    bound relaxes the shared metric to one optimum per candidate.
    """
    x = _validated_distribution(x, profile.num_alternatives)
    n = profile.num_agents
    k_set = _validated_k_set(k_set, n)
    support = [int(c) for c in np.flatnonzero(x > 0)]
    poly = MetricPolytope(profile)
    solver = _PolytopeSolver(poly)
    nm = poly.num_metric_vars

    per_k, exact_k = {}, {}
    for k in k_set:
        subsets = list(itertools.combinations(range(n), k))
        if len(subsets) * len(support) > budget:
            raise BudgetExceededError(
                f"per-candidate enumeration needs budget >= "
                f"{len(subsets) * len(support)}, got {budget}"
            )
        exact = len(subsets) ** len(support) <= budget
        exact_k[k] = exact
        lo_k, hi_k = 0.0, 0.0
        for z in range(profile.num_alternatives):
            if not all(poly.reach[c, z] for c in support):
                lo_k = hi_k = math.inf
                break

            def tuple_value(subset_by_candidate):
                objective = np.zeros(nm)
                for c, subset in zip(support, subset_by_candidate):
                    for v in subset:
                        objective[poly.var(v, c)] += x[c]
                return solver.maximize(objective, opponent=z, norm=k)

            if exact:
                value = max(
                    tuple_value(combo)[0]
                    for combo in itertools.product(subsets, repeat=len(support))
                )
                lo_k, hi_k = max(lo_k, value), max(hi_k, value)
                continue

            # Upper bound: per-candidate suprema under the shared
            # normalization, summed with weights x.
            upper = 0.0
            start_tuple = []
            for c in support:
                best_c, best_subset = 0.0, subsets[0]
                for subset in subsets:
                    objective = np.zeros(nm)
                    for v in subset:
                        objective[poly.var(v, c)] = 1.0
                    value, _ = solver.maximize(objective, opponent=z, norm=k)
                    if value > best_c:
                        best_c, best_subset = value, subset
                upper += float(x[c]) * best_c
                start_tuple.append(best_subset)

            # Lower bound: coordinate ascent on the subset tuple.
            current = tuple(start_tuple)
            value, metric = tuple_value(current)
            for _ in range(100):
                refreshed = tuple(
                    tuple(sorted(np.argsort(-metric[:, c], kind="stable")[:k]))
                    for c in support
                )
                if refreshed == current:
                    break
                new_value, new_metric = tuple_value(refreshed)
                if new_value <= value + 1e-12:
                    break
                current, value, metric = refreshed, new_value, new_metric
            lo_k = max(lo_k, value)
            hi_k = max(hi_k, upper)
        per_k[k] = (lo_k, hi_k)

    bounds = (max(lo for lo, _ in per_k.values()), max(hi for _, hi in per_k.values()))
    return FairnessRandReport(
        distribution=x,
        per_k=per_k,
        exact_k=exact_k,
        value_bounds=bounds,
        solver_stats=dict(solver.stats),
    )


# ---------------------------------------------------------------------------
# Independent grid-search oracle


def grid_oracle(winner_or_x, profile, grid_step=0.5, grid_max=3.0):
    """Lower bound on distortion by exhausting a finite cost grid.

    Enumerates every admissible consistent matrix with entries in
    ``{0, grid_step, ..., grid_max}`` and returns the largest cost ratio,
    skipping zero-denominator grids. Limited to ``N * M <= 9``.
    """
    n, m = profile.num_agents, profile.num_alternatives
    if n * m > 9:
        raise ValueError(f"grid oracle requires N*M <= 9, got {n * m}")
    weights = _outcome_weights(winner_or_x, m)
    if m == 1:
        return 1.0
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
        weights[int(winner_or_x)] = 1.0
        return weights
    return _validated_distribution(winner_or_x, m)
