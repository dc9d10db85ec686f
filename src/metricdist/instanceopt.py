"""Instance-optimal outcomes: best single winner, best lottery, and the
pairwise-response game value.

All three read :mod:`metricdist.distortion`'s reports. The best winner's
worst-ratio table takes row c from ``dist_det(c)``. The best lottery is a
minimax problem over the uncountable set of cost-1-normalized consistent
metrics, solved by cutting planes: a master game over the stored cuts
proposes a lottery and a budget, and the separation oracle, which reads
``dist_rand`` of that lottery, certifies it or returns its witness as the
next cut. The master weighs only the columns with a preference chain to
every alternative, found before the first iteration, so the oracle always
has a witness. The first cuts are the uniform metric and every k = N
optimum the profile's solver has kept (``_PolytopeSolver.optima``). The
master and the pairwise-response value are one lottery game with
nonnegative payoffs, solved as ``max 1·u`` over ``A u <= 1``
(:func:`_lottery_game`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from metricdist.distortion import (
    SOLVER_STATS,
    TIE_TOL,
    _solver_for,
    dist_det,
    dist_rand,
)
from metricdist.linprog import (
    DEFAULT_PIVOT_TOL,
    LinearProgram,
    LpStatus,
    SolverFailure,
    solve,
)
from metricdist.metricspace import CostMatrix

__all__ = [
    "ConvergenceError",
    "CuttingPlaneState",
    "OptDetResult",
    "OptRandResult",
    "OracleVerdict",
    "candidate_response_value",
    "opt_det",
    "opt_rand",
    "separation_oracle",
]

DEFAULT_EPS = 1e-4
_MAX_CUTS = 500  # cutting-plane iterations before opt_rand gives up


class ConvergenceError(RuntimeError):
    """Cutting-plane loop hit its cut cap or stalled; carries the state."""

    def __init__(self, message, state):
        super().__init__(f"{message}\n{state.summary()}")
        self.state = state


@dataclass
class OptDetResult:
    winner: int
    value: float
    matrix: np.ndarray  # worst-ratio table, entry [c, opponent]; diagonal 1
    # How the LPs were solved: counts keyed by SOLVER_STATS.
    solver_stats: dict = field(default_factory=lambda: dict.fromkeys(SOLVER_STATS, 0))


@dataclass
class OracleVerdict:
    """Outcome of one separation call at a candidate ``(x, gamma)``."""

    feasible: bool
    value: float
    opponent: int | None = None
    witness: CostMatrix | None = None
    per_opponent: dict = field(default_factory=dict)
    blocked: tuple = ()  # support columns with no preference chain to `opponent`


@dataclass
class CuttingPlaneState:
    """The cutting-plane loop so far; ``iterations == 0`` marks one alternative.

    ``cuts`` starts with the uniform metric, then the ``seeded`` stored
    optima of the profile's solver, each at violation 0; the oracle's cuts
    follow.
    """

    eps: float
    cuts: list = field(default_factory=list)  # (column_sums, witness, violation)
    master_values: list = field(default_factory=list)
    iterations: int = 0
    seeded: int = 0

    def summary(self) -> str:
        return (
            f"iterations={self.iterations} cuts={len(self.cuts)} "
            f"seeded={self.seeded} "
            f"master_values={[round(float(v), 6) for v in self.master_values[-8:]]}"
        )


@dataclass
class OptRandResult:
    x: np.ndarray
    value: float
    state: CuttingPlaneState
    # How the LPs were solved: counts keyed by SOLVER_STATS.
    solver_stats: dict = field(default_factory=lambda: dict.fromkeys(SOLVER_STATS, 0))


def opt_det(profile) -> OptDetResult:
    """Winner minimizing the worst ratio against any opponent.

    Row c of the table is ``dist_det(c)``'s per-opponent values;
    unreachable opponents yield infinite entries, which simply disqualify
    that row from the argmin. Row maxima within ``TIE_TOL`` (relative) of
    the minimum tie, and ties break toward the smallest index, so LP
    rounding never picks the winner.
    """
    m = profile.num_alternatives
    matrix = np.ones((m, m))
    solver = _solver_for(profile)
    before = dict(solver.stats)
    for c in range(m):
        per_opponent = dist_det(c, profile).per_opponent
        matrix[c, list(per_opponent)] = list(per_opponent.values())

    row_max = matrix.max(axis=1)
    best = row_max.min()
    winner = int(np.argmax(row_max <= best + TIE_TOL * max(1.0, abs(best))))
    return OptDetResult(
        winner=winner,
        value=float(row_max[winner]),
        matrix=matrix,
        solver_stats=solver.stats_since(before),
    )


def separation_oracle(x, gamma, profile, *, viol_tol=DEFAULT_EPS / 2):
    """Either certify that ``x`` stays within budget ``gamma`` or produce a cut.

    The oracle's value is ``dist_rand(x)``: per opponent, the expected cost
    of ``x`` maximized over consistent metrics where that opponent has total
    cost at most 1 (which binds at the optimum). Its witness has the worst
    opponent as its cheapest column, since a cheaper column would give a
    larger ratio against it. A value above ``gamma + viol_tol`` yields that
    metric as a cutting plane. Support columns with no preference chain to
    some opponent make the value infinite; these come back in ``blocked``
    instead of a witness.

    Raises:
        ValueError: ``x`` is not a probability vector, ``gamma`` is NaN, or
            ``viol_tol`` is not nonnegative and finite.
    """
    if math.isnan(gamma):
        raise ValueError("gamma must not be NaN")
    if not (math.isfinite(viol_tol) and viol_tol >= 0):
        raise ValueError(f"viol_tol must be nonnegative and finite, got {viol_tol!r}")
    report = dist_rand(x, profile)
    per_opponent = report.per_opponent
    poly = _solver_for(profile).polytope
    support = np.flatnonzero(report.distribution > 0)
    blocked = tuple(
        (c, z)
        for z, value in per_opponent.items()
        if math.isinf(value)
        for c in poly.unreached(support, z)
    )
    if blocked:
        return OracleVerdict(
            feasible=False, value=math.inf, per_opponent=per_opponent, blocked=blocked
        )
    if report.value > gamma + viol_tol:
        return OracleVerdict(
            feasible=False,
            value=report.value,
            opponent=report.opponent,
            witness=report.witness,
            per_opponent=per_opponent,
        )
    return OracleVerdict(feasible=True, value=report.value, per_opponent=per_opponent)


def opt_rand(profile, eps: float = DEFAULT_EPS) -> OptRandResult:
    """Lottery minimizing the worst-case expected cost ratio, within ``eps``.

    Each iteration takes the lottery and budget from the master game over
    the stored cuts and the usable columns, and adds the oracle's witness
    as a cut while it violates the budget. The usable columns are those
    with a preference chain to every alternative (``MetricPolytope.reach``),
    taken before the loop: any other column makes the worst ratio infinite.
    Some column is usable: every agent orders every pair, so the support
    graph is semicomplete, and its Hamiltonian path's first vertex reaches
    every alternative. The oracle violation threshold is ``eps / 2`` to
    keep boundary cuts from cycling. The first cuts are the uniform metric
    and the k = N optima the profile's solver already holds (``opt_det``'s
    table, distortion reports, earlier oracle calls): each is consistent
    and costs its opponent 1, so for every lottery its cut is at most the
    lottery's worst ratio, and the master stays a relaxation.

    The value is certified from both sides. The master game relaxes the
    problem, so its last value ``state.master_values[-1]`` is a lower
    bound; the separation oracle found no metric that beats that bound by
    more than ``eps / 2``, and ``value`` is the lottery's worst ratio. The
    lottery ``x`` is one optimal lottery among possibly several, with no
    tie rule: which one comes back depends on the optimal vertices the
    oracle's LPs return and on the stored optima it starts from, so it and
    ``state.iterations`` can move with earlier calls on the profile and
    with solver changes that leave the value fixed.

    Raises:
        ValueError: ``eps`` is not positive and finite.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    m = profile.num_alternatives
    if m == 1:
        state = CuttingPlaneState(eps=eps, master_values=[1.0])
        return OptRandResult(x=np.ones(1), value=1.0, state=state)

    solver = _solver_for(profile)
    before = dict(solver.stats)
    state = CuttingPlaneState(eps=eps)
    # The uniform matrix scaled to column sums one is always a valid
    # normalized consistent metric; seeding it enforces budget >= 1.
    n = profile.num_agents
    uniform = CostMatrix(np.full((n, m), 1.0 / n))
    state.cuts.append((np.ones(m), uniform, 0.0))
    for _, metric in solver.optima.values():
        state.cuts.append((metric.sum(axis=0), CostMatrix(metric), 0.0))
    state.seeded = len(solver.optima)
    usable = np.flatnonzero(solver.polytope.reach.all(axis=1))
    while state.iterations < _MAX_CUTS:
        state.iterations += 1
        sums = np.array([cut_sums for cut_sums, _, _ in state.cuts])
        x, gamma = _lottery_game(sums, usable)
        state.master_values.append(gamma)

        verdict = separation_oracle(x, gamma, profile, viol_tol=eps / 2)
        if verdict.feasible:
            stats = solver.stats_since(before)
            return OptRandResult(x, verdict.value, state, solver_stats=stats)
        witness = verdict.witness
        cut = (witness.values.sum(axis=0), witness, verdict.value - gamma)
        state.cuts.append(cut)
    raise ConvergenceError("cut cap exceeded", state)


def _lottery_game(payoffs, columns):
    """``(x, value)``: the lottery over ``columns`` whose worst row of
    ``payoffs @ x`` is least, exactly 0 off ``columns``, and that row.

    With nonnegative payoffs and a row that is at least 1 on every column,
    the value is at least 1 and ``u = x / value`` turns the game into
    ``max 1·u`` over ``payoffs[:, columns] @ u <= 1``: every rhs is 1, so
    the slack basis starts it, that row keeps it bounded, and
    ``1·u = 1 / value`` at the optimum. :func:`opt_rand`'s cuts are column
    sums of nonnegative metrics, and the first, the uniform metric's, is 1
    on every column; a worst-ratio table is >= 1 throughout.

    x is exactly 0 where u is at most ``DEFAULT_PIVOT_TOL``, pivot
    round-off; ``value`` stays ``1 / (1·u)``, a master's lower bound.

    Raises:
        SolverFailure: the LP failed or was not optimal; it carries the LP
            (``lp_text``).
    """
    A_ub = payoffs[:, columns]
    lp = LinearProgram(np.ones(len(columns)), A_ub, np.ones(len(A_ub)))
    try:
        out = solve(lp)
        if out.status is not LpStatus.OPTIMAL:
            raise SolverFailure(f"status {out.status}")
    except SolverFailure as exc:
        raise SolverFailure(
            f"lottery-game LP failed: {exc}", lp_text=lp.dump_text()
        ) from exc
    u = out.assignment
    total = u.sum()
    weights = np.where(u > DEFAULT_PIVOT_TOL, u, 0.0)
    x = np.zeros(payoffs.shape[1])
    x[columns] = weights / weights.sum()
    return x, 1.0 / total


def candidate_response_value(profile, *, matrix=None):
    """Best lottery when the adversary picks one opponent and a metric per draw.

    Minimizes the worst column of ``x @ A`` over the simplex, where ``A`` is
    the pairwise worst-ratio table. Candidates with any infinite row entry
    are forced out of the support.

    Returns:
        ``(x, value)``.

    Raises:
        ValueError: ``matrix`` is not M x M, or holds a NaN or an entry
            <= 0 (``+inf`` marks an unusable row).
    """
    m = profile.num_alternatives
    if matrix is not None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (m, m):
            raise ValueError(f"matrix must be {m} x {m}, got shape {matrix.shape}")
        if not (matrix > 0).all():
            raise ValueError("matrix entries must be positive, not NaN or <= 0")
    if m == 1:
        return np.ones(1), 1.0
    if matrix is None:
        matrix = opt_det(profile).matrix
    usable = [c for c in range(m) if np.isfinite(matrix[c]).all()]
    if not usable:
        raise AssertionError("no candidate has an all-finite ratio row")
    # One row per opponent: the ratio each usable candidate pays against it.
    return _lottery_game(matrix.T, usable)
