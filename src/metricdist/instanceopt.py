"""Instance-optimal outcomes: best single winner, best lottery, and the
pairwise-response game value.

The best deterministic winner needs one worst-case LP per ordered pair of
alternatives. The best lottery is a minimax problem over the uncountable set
of cost-1-normalized consistent metrics; it is solved by cutting planes with
a separation oracle, or by the equivalent bisection-over-budgets reduction,
and the two modes cross-check each other. Their master and the
pairwise-response value are one lottery game with positive payoffs, solved
as ``max 1·u`` over ``A u <= 1`` (:func:`_lottery_game`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from metricdist.distortion import (
    SOLVER_STATS,
    TIE_TOL,
    _solver_for,
    _validated_distribution,
    a_det,
)
from metricdist.linprog import LinearProgram, LpStatus, SolverFailure, solve
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
DEFAULT_MAX_CUTS = 500


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
    eps: float
    mode: str
    cuts: list = field(default_factory=list)  # (column_sums, witness, violation)
    master_values: list = field(default_factory=list)
    blocked_columns: set = field(default_factory=set)
    iterations: int = 0

    def summary(self) -> str:
        return (
            f"mode={self.mode} iterations={self.iterations} "
            f"cuts={len(self.cuts)} blocked={sorted(self.blocked_columns)} "
            f"master_values={[round(v, 6) for v in self.master_values[-8:]]}"
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

    Solves one LP per ordered pair; unreachable opponents yield infinite
    entries, which simply disqualify that row from the argmin. Row maxima
    within ``TIE_TOL`` (relative) of the minimum tie, and ties break toward
    the smallest index, so LP rounding never picks the winner.
    """
    m = profile.num_alternatives
    matrix = np.ones((m, m))
    solver = _solver_for(profile)
    before = dict(solver.stats)
    for c in range(m):
        for cp in range(m):
            if c == cp:
                continue
            try:
                matrix[c, cp] = a_det(c, cp, profile)[0]
            except SolverFailure as exc:
                raise SolverFailure(
                    f"pair {(c, cp)}: {exc}",
                    lp_text=exc.lp_text,
                    profile_text=exc.profile_text,
                ) from exc

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

    For every opponent the oracle maximizes the expected cost of ``x`` over
    consistent metrics where that opponent has total cost at most 1 (which
    binds at the optimum) and is the cheapest alternative.
    A value above ``gamma + viol_tol`` yields the most violating metric as a
    cutting plane. Support columns with no preference chain to some opponent
    make the value infinite; these come back in ``blocked`` instead of a
    witness.
    """
    x = _validated_distribution(x, profile.num_alternatives)
    solver = _solver_for(profile)
    poly = solver.polytope
    m = poly.num_alternatives
    support = [int(c) for c in np.flatnonzero(x > 0)]
    objective = np.tile(x, poly.num_agents)  # x[c] on every entry of column c

    best = (-math.inf, None, None)  # value, opponent, witness
    blocked = []
    per_opponent = {}
    for opponent in range(m):
        bad = [c for c in support if not poly.reach[c, opponent]]
        if bad:
            per_opponent[opponent] = math.inf
            blocked.extend((c, opponent) for c in bad)
            continue
        value, metric = solver.maximize(objective, opponent=opponent, norm="cheapest")
        per_opponent[opponent] = value
        if value > best[0]:
            best = (value, opponent, CostMatrix(metric))

    if blocked:
        return OracleVerdict(
            feasible=False,
            value=math.inf,
            per_opponent=per_opponent,
            blocked=tuple(blocked),
        )
    value, opponent, witness = best
    if value > gamma + viol_tol:
        return OracleVerdict(
            feasible=False,
            value=value,
            opponent=opponent,
            witness=witness,
            per_opponent=per_opponent,
        )
    return OracleVerdict(feasible=True, value=value, per_opponent=per_opponent)


def opt_rand(
    profile,
    eps: float = DEFAULT_EPS,
    *,
    binary_search: bool = False,
    max_cuts: int = DEFAULT_MAX_CUTS,
) -> OptRandResult:
    """Lottery minimizing the worst-case expected cost ratio, within ``eps``.

    Default mode takes the budget from the master game over the stored cuts
    and adds one cut per violating metric; ``binary_search`` reproduces the
    reduction to feasibility checks over budgets in [1, 3] and must agree
    within ``2 * eps``. The oracle violation threshold is ``eps / 2`` to
    keep boundary cuts from cycling.

    The value is certified: the separation oracle found no metric that
    beats it by more than ``eps / 2``. The lottery ``x`` is one optimal
    lottery among possibly several, with no tie rule: which one comes back
    depends on the optimal vertices the oracle's LPs return, so it can move
    with solver changes that leave the value fixed.

    Raises:
        ValueError: ``eps`` is not positive and finite.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    m = profile.num_alternatives
    if m == 1:
        state = CuttingPlaneState(eps=eps, mode="trivial")
        return OptRandResult(x=np.ones(1), value=1.0, state=state)

    solver = _solver_for(profile)
    before = dict(solver.stats)
    mode = "binary-search" if binary_search else "master"
    state = CuttingPlaneState(eps=eps, mode=mode)
    # The uniform matrix scaled to column sums one is always a valid
    # normalized consistent metric; seeding it enforces budget >= 1.
    n = profile.num_agents
    uniform = CostMatrix(np.full((n, m), 1.0 / n))
    state.cuts.append((np.ones(m), uniform, 0.0))

    run = _opt_rand_bisect if binary_search else _opt_rand_master
    result = run(profile, state, eps, max_cuts)
    result.solver_stats = solver.stats_since(before)
    return result


def _lottery_game(payoffs, columns):
    """``(x, value)``: the lottery over ``columns`` whose worst row of
    ``payoffs @ x`` is least, exactly 0 off ``columns``, and that row.

    With positive payoffs, ``u = x / value`` turns the game into ``max 1·u``
    over ``payoffs[:, columns] @ u <= 1``: every rhs is 1, so the slack
    basis starts it, and ``1·u = 1 / value`` at the optimum. The payoffs
    are positive: a cut's sums are the column sums of the uniform metric or
    of a ``"cheapest"``-normalized witness (the opponent's column costs 1,
    every other at least as much), so they are >= 1 up to ``feas_tol``;
    a worst-ratio table is >= 1.
    """
    A_ub = payoffs[:, columns]
    lp = LinearProgram(np.ones(len(columns)), A_ub, np.ones(len(A_ub)))
    out = solve(lp)
    if out.status is not LpStatus.OPTIMAL:
        raise SolverFailure(f"lottery-game LP returned {out.status}")
    total = out.assignment.sum()
    x = np.zeros(payoffs.shape[1])
    x[columns] = out.assignment / total
    return x, 1.0 / total


def _register_cut(state, verdict, gamma):
    if verdict.blocked:
        columns = {c for c, _ in verdict.blocked}
        if columns <= state.blocked_columns:
            raise ConvergenceError("oracle verdict adds no cut", state)
        state.blocked_columns |= columns
        return
    sums = verdict.witness.values.sum(axis=0)
    state.cuts.append((sums, verdict.witness, verdict.value - gamma))


def _master_game(state):
    """The lottery game over the stored cuts and the unblocked columns."""
    sums = np.array([cut_sums for cut_sums, _, _ in state.cuts])
    unblocked = [c for c in range(sums.shape[1]) if c not in state.blocked_columns]
    return _lottery_game(sums, unblocked)


def _opt_rand_master(profile, state, eps, max_cuts):
    while state.iterations < max_cuts:
        state.iterations += 1
        x_hat, gamma_hat = _master_game(state)
        state.master_values.append(gamma_hat)

        verdict = separation_oracle(x_hat, gamma_hat, profile, viol_tol=eps / 2)
        if verdict.feasible:
            return OptRandResult(x=x_hat, value=verdict.value, state=state)
        _register_cut(state, verdict, gamma_hat)
    raise ConvergenceError("cut cap exceeded in master mode", state)


def _opt_rand_bisect(profile, state, eps, max_cuts):
    def feasibility(gamma):
        """Find x within budget gamma, or certify none exists."""
        while state.iterations < max_cuts:
            state.iterations += 1
            # The game value's excess over gamma: the least worst violation
            # of the stored cuts over the simplex.
            x_hat, value = _master_game(state)
            if value - gamma > eps / 2:
                return None  # even the finite cut subsystem is violated
            verdict = separation_oracle(x_hat, gamma, profile, viol_tol=eps / 2)
            if verdict.feasible:
                return x_hat, verdict.value
            _register_cut(state, verdict, gamma)
        raise ConvergenceError(f"cut cap exceeded at budget {gamma}", state)

    hi = 3.0
    feasible_hi = feasibility(hi)
    if feasible_hi is None:
        raise ConvergenceError(
            "no lottery within budget 3; the normalized-opponent reading "
            "of the oracle is falsified",
            state,
        )
    lo = 1.0
    at_lo = feasibility(lo)
    if at_lo is not None:
        state.master_values.append(lo)
        return OptRandResult(x=at_lo[0], value=at_lo[1], state=state)
    while hi - lo > eps / 2:
        mid = 0.5 * (lo + hi)
        result = feasibility(mid)
        state.master_values.append(mid)
        if result is None:
            lo = mid
        else:
            hi = mid
            feasible_hi = result
    return OptRandResult(x=feasible_hi[0], value=feasible_hi[1], state=state)


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
