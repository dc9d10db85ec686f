import itertools
import math

import numpy as np
import pytest

from metricdist import linprog
from metricdist.distortion import (
    SOLVER_STATS,
    BudgetExceededError,
    MetricPolytope,
    _PolytopeSolver,
    _top_k_rows,
    a_det,
    a_rand,
    dist_det,
    dist_rand,
    fairness_det,
    fairness_rand,
    grid_oracle,
)
from metricdist.instanceopt import opt_det, opt_rand
from metricdist.linprog import SolverFailure
from metricdist.metricspace import CostMatrix, social_cost, top_k_cost
from metricdist.profiles import (
    PreferenceProfile,
    coupling_instance,
    random_profile,
    ranked_pairs_hard_instance,
    serialize_profile,
    symmetric_tournament_instance,
    warmup_instance,
)
from metricdist.rules import copeland, randomized_dictatorship

from oracles import naive_grid_search

UNIFORM3 = np.full(3, 1 / 3)


def test_a_det_warmup_value_3():
    value, witness = a_det(0, 2, warmup_instance().profile)
    assert value == pytest.approx(3.0, abs=1e-7)
    # witness is normalized: opponent column sums to 1
    assert social_cost(witness, 2) == pytest.approx(1.0, abs=1e-7)
    assert social_cost(witness, 0) == pytest.approx(3.0, abs=1e-6)


def test_a_det_self_is_one():
    rng = np.random.default_rng(3)
    profile = warmup_instance().profile
    for c in range(3):
        value, _ = a_det(c, c, profile)
        assert value == pytest.approx(1.0, abs=1e-7)
    for _ in range(5):
        profile = random_profile(int(rng.integers(1, 5)), int(rng.integers(2, 5)), rng)
        c = int(rng.integers(profile.num_alternatives))
        assert a_det(c, c, profile)[0] == pytest.approx(1.0, abs=1e-7)


def test_a_det_hard_instance_lower_bound():
    inst = ranked_pairs_hard_instance(2)
    value, _ = a_det(0, 4, inst.profile)
    assert value >= 14 / 6 - 1e-6


def test_a_det_unbounded_when_opponent_unanimously_preferred():
    profile = PreferenceProfile([[0, 1], [0, 1], [0, 1]])
    value, witness = a_det(1, 0, profile)
    assert value == math.inf and witness is None
    # and the reverse direction is finite
    assert a_det(0, 1, profile)[0] == pytest.approx(1.0, abs=1e-7)


def test_dist_det_warmup():
    report = dist_det(0, warmup_instance().profile)
    assert report.value == pytest.approx(3.0, abs=1e-6)
    assert report.opponent == 2
    assert set(report.per_opponent) == {1, 2}


def test_dist_det_unanimous_top_is_one():
    profile = PreferenceProfile([[1, 0, 2]] * 3)
    report = dist_det(1, profile)
    assert report.value == pytest.approx(1.0, abs=1e-6)


def test_dist_det_single_alternative():
    report = dist_det(0, PreferenceProfile([[0], [0]]))
    assert report.value == 1.0


def test_a_rand_warmup_uniform_value_2():
    profile = warmup_instance().profile
    report = dist_rand(UNIFORM3, profile)
    assert report.value == pytest.approx(2.0, abs=1e-6)


def test_a_rand_point_mass_degenerates_to_a_det():
    profile = warmup_instance().profile
    point = np.array([0.0, 0.0, 1.0])
    for opponent in (0, 1):
        det_value, _ = a_det(2, opponent, profile)
        rand_value, _ = a_rand(point, opponent, profile)
        assert rand_value == pytest.approx(det_value, abs=1e-7)


def test_a_rand_symmetric_tournament_value():
    m = 3
    inst = symmetric_tournament_instance(m)
    uniform = np.full(m + 1, 1 / (m + 1))
    value, _ = a_rand(uniform, 0, inst.profile)
    expected = 3 - 2 / (m + 1)
    assert value >= expected - 1e-6
    # the constructed metric, normalized by the opponent column, attains it
    scaled = inst.metric.scaled(1.0 / social_cost(inst.metric, 0))
    sums = scaled.values.sum(axis=0)
    assert float(uniform @ sums) == pytest.approx(expected)


def test_distortion_invariant_under_relabeling_and_agent_order():
    rng = np.random.default_rng(5)
    profile = random_profile(4, 3, rng)
    base = dist_det(1, profile).value

    perm = rng.permutation(3)  # alternative relabeling
    relabeled = PreferenceProfile([[int(perm[c]) for c in row] for row in profile.rankings])
    assert dist_det(int(perm[1]), relabeled).value == pytest.approx(base, abs=1e-6)

    shuffled = profile.with_agents_permuted(rng.permutation(4))
    assert dist_det(1, shuffled).value == pytest.approx(base, abs=1e-6)

    x = np.array([0.5, 0.3, 0.2])
    base_rand = dist_rand(x, profile).value
    x_relabeled = np.empty(3)
    x_relabeled[perm] = x
    assert dist_rand(x_relabeled, relabeled).value == pytest.approx(base_rand, abs=1e-6)
    assert dist_rand(x, shuffled).value == pytest.approx(base_rand, abs=1e-6)


def test_feasibility_sandwich_on_generator_witnesses():
    # Each family's constructed metric is feasible for its LP, so the LP
    # optimum is at least the closed-form ratio.
    inst = coupling_instance(3)
    value, _ = a_det(0, 4, inst.profile)
    assert value >= 35 / 11 - 1e-6

    inst = ranked_pairs_hard_instance(3)
    value, _ = a_det(0, 6, inst.profile)
    assert value >= 19 / 7 - 1e-6

    inst = symmetric_tournament_instance(2)
    uniform = np.full(3, 1 / 3)
    value, _ = a_rand(uniform, 0, inst.profile)
    assert value >= 3 - 2 / 3 - 1e-6


def test_full_lp_materialization_solves_to_3():
    # The complete warm-up program, every quadrilateral row present, handed
    # straight to the simplex with no row generation.
    from metricdist.distortion import build_full_lp
    from metricdist.linprog import LpStatus, solve

    lp = build_full_lp(0, 2, warmup_instance().profile)
    assert lp.num_constraints == 1 + 3 * 2 + 3 * 2 * 3 * 2
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(3.0, abs=1e-7)


def test_metric_polytope_rows_match_direct_checks():
    rng = np.random.default_rng(11)
    profile = random_profile(3, 3, rng)
    poly = MetricPolytope(profile)
    rows = [(row, 0.0) for row in poly.consistency_rows()]
    rows += [(row, 0.0) for row in poly.quadruple_rows(poly.all_quadruples())]
    for _ in range(40):
        d = rng.uniform(0, 2, size=(3, 3))
        by_rows = all(row @ d.ravel() <= rhs + 1e-12 for row, rhs in rows)
        assert by_rows == poly.satisfies(CostMatrix(d), tol=1e-12)


def test_fixed_metric_fairness_ratios_warmup():
    inst = warmup_instance()
    ratios = []
    for k in (1, 2, 3):
        num = top_k_cost(inst.metric, 0, k)
        denom = min(top_k_cost(inst.metric, c, k) for c in range(3))
        ratios.append(num / denom)
    assert ratios == [3.0, 2.5, 3.0]
    assert max(ratios) == 3.0


def test_fairness_det_warmup_at_least_fixture():
    report = fairness_det(0, warmup_instance().profile)
    assert report.value >= 3.0 - 1e-6
    assert set(report.per_k) == {1, 2, 3}


def test_fairness_det_budget_refusal():
    rng = np.random.default_rng(2)
    profile = random_profile(5, 2, rng)
    with pytest.raises(BudgetExceededError, match="budget >= 5"):
        fairness_det(0, profile, budget=4)


def test_fairness_single_agent_equals_distortion():
    rng = np.random.default_rng(8)
    profile = random_profile(1, 3, rng)
    winner = copeland(profile).winner
    report = fairness_det(winner, profile)
    base = dist_det(winner, profile)
    assert report.value == pytest.approx(base.value, abs=1e-6)


def test_fairness_rand_point_mass_collapses_to_det():
    profile = warmup_instance().profile
    point = np.array([1.0, 0.0, 0.0])
    det = fairness_det(0, profile)
    # force bounds mode with a budget too small for joint enumeration but
    # large enough for the per-candidate sweeps
    rand_bounds = fairness_rand(point, profile, budget=4)
    rand_exact = fairness_rand(point, profile)
    assert all(rand_exact.exact_k.values())
    assert rand_exact.value_bounds[0] == pytest.approx(det.value, abs=1e-6)
    lo, hi = rand_bounds.value_bounds
    assert lo == pytest.approx(det.value, abs=1e-6)
    assert hi == pytest.approx(det.value, abs=1e-6)


def test_fairness_rand_single_agent_equals_dist_rand():
    rng = np.random.default_rng(13)
    profile = random_profile(1, 3, rng)
    x = randomized_dictatorship(profile).distribution
    report = fairness_rand(x, profile)
    assert all(report.exact_k.values())
    assert report.value_bounds[0] == pytest.approx(dist_rand(x, profile).value, abs=1e-6)


def test_fairness_rand_budget_refusal():
    rng = np.random.default_rng(21)
    profile = random_profile(6, 3, rng)
    with pytest.raises(BudgetExceededError):
        fairness_rand(np.full(3, 1 / 3), profile, budget=10)


def test_fairness_rand_bounds_bracket_exact():
    rng = np.random.default_rng(31)
    for _ in range(3):
        profile = random_profile(3, 3, rng)
        x = randomized_dictatorship(profile).distribution
        exact = fairness_rand(x, profile)
        assert all(exact.exact_k.values())
        bounded = fairness_rand(x, profile, budget=len(list(np.flatnonzero(x))) * 3 + 1)
        for k in exact.per_k:
            lo, hi = bounded.per_k[k]
            target = exact.per_k[k][0]
            assert lo <= target + 1e-6
            assert hi >= target - 1e-6


def test_grid_oracle_warmup_reaches_fixture_values():
    profile = warmup_instance().profile
    assert grid_oracle(0, profile) >= 3.0 - 1e-9
    assert grid_oracle(UNIFORM3, profile) >= 2.0 - 1e-9


def test_grid_oracle_unanimous():
    profile = PreferenceProfile([[0, 1]] * 2)
    assert grid_oracle(0, profile) == pytest.approx(1.0)


def test_grid_oracle_refuses_large_instances():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        grid_oracle(0, random_profile(5, 2, rng))


def test_grid_oracle_matches_naive_enumeration():
    rng = np.random.default_rng(17)
    for n, m, values in [(2, 2, (0.0, 0.5, 1.0)), (3, 2, (0.0, 1.0)), (2, 3, (0.0, 1.0))]:
        profile = random_profile(n, m, rng)
        fast = grid_oracle(0, profile, grid_step=values[1] - values[0], grid_max=values[-1])
        naive = naive_grid_search(profile, _point_mass(0, m), values)
        assert fast == pytest.approx(naive, abs=1e-12)


def test_grid_oracle_below_lp_value():
    rng = np.random.default_rng(19)
    for _ in range(4):
        profile = random_profile(3, 3, rng)
        winner = copeland(profile).winner
        lp_value = dist_det(winner, profile).value
        assert grid_oracle(winner, profile) <= lp_value + 1e-6


def _point_mass(c, m):
    w = np.zeros(m)
    w[c] = 1.0
    return w


# ---------------------------------------------------------------------------
# Warm-started row generation: a shared solver must agree with fresh ones


def _fresh_fairness_per_k(winner, profile):
    """fairness_det's enumeration with a fresh, unseeded solver for every LP.

    Returns the ratios by k and the number of cap rows the solvers added.
    """
    poly = MetricPolytope(profile)
    n, m = profile.num_agents, profile.num_alternatives
    width = poly.num_metric_vars + 1 + n
    per_k = {}
    cap_rows = 0
    for k in range(1, n + 1):
        best = 0.0
        for z in range(m):
            if z == winner:
                continue
            if not poly.reach[winner, z]:
                best = math.inf
                break
            rows = _top_k_rows(poly, z, k, width)
            for subset in itertools.combinations(range(n), k):
                objective = np.zeros(poly.num_metric_vars)
                for v in subset:
                    objective[poly.var(v, winner)] = 1.0
                solver = _PolytopeSolver(poly)
                value, _ = solver.maximize(objective, rows, aux_count=1 + n, opponent=z)
                cap_rows += solver.stats["cap_rows"]
                best = max(best, value)
        per_k[k] = best
    return per_k, cap_rows


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_shared_solver_matches_fresh_solvers():
    rng = np.random.default_rng(53)
    cap_rows = 0
    for trial in range(10):
        profile = random_profile(3 + trial % 2, 3 + trial % 3, rng)
        m = profile.num_alternatives
        shared = opt_det(profile)
        for c in range(m):
            for cp in range(m):
                if c != cp:
                    fresh, _ = a_det(c, cp, profile)
                    assert _close(shared.matrix[c, cp], fresh), (trial, c, cp)
        report = fairness_det(shared.winner, profile)
        fresh_per_k, fresh_cap_rows = _fresh_fairness_per_k(shared.winner, profile)
        for k, value in fresh_per_k.items():
            assert _close(report.per_k[k], value), (trial, k)
        cap_rows += fresh_cap_rows
    # Without seeded rows some first relaxations are unbounded and go
    # through the cap row.
    assert cap_rows > 0


def test_seeded_fairness_needs_no_cap_rows():
    # Profiles of the benchmark's optimize size: N in 3..5, M in 3..4.
    rng = np.random.default_rng(61)
    for trial in range(12):
        profile = random_profile(3 + trial % 3, 3 + trial // 3 % 2, rng)
        winner = opt_det(profile).winner
        report = fairness_det(winner, profile)
        assert report.solver_stats["cap_rows"] == 0, trial
        fresh_per_k, _ = _fresh_fairness_per_k(winner, profile)
        for k, value in fresh_per_k.items():
            assert _close(report.per_k[k], value), (trial, k)


def test_single_a_det_builds_one_tableau():
    profile = ranked_pairs_hard_instance(6).profile
    solver = _PolytopeSolver(MetricPolytope(profile))
    m = profile.num_alternatives
    value, _ = a_det(0, m - 1, profile, solver=solver)
    assert value == pytest.approx((5 * 6 + 3) / (6 + 3), rel=1e-9)
    stats = solver.stats
    assert stats["cold_builds"] == 1
    assert stats["warm_solves"] >= 1 and stats["dual_pivots"] > 0
    assert stats["rebuilds"] == stats["retries"] == 0


def test_opt_det_builds_at_most_one_tableau_per_opponent():
    profile = random_profile(4, 4, np.random.default_rng(59))
    result = opt_det(profile)
    assert result.solver_stats["cold_builds"] <= profile.num_alternatives
    assert result.solver_stats["warm_solves"] > 0


def test_reports_carry_solver_stats():
    profile = warmup_instance().profile
    report = dist_det(0, profile)
    assert report.solver_stats["cold_builds"] == 2  # one per opponent
    assert report.solver_stats["primal_pivots"] > 0
    for stats in (
        report.solver_stats,
        fairness_det(0, profile).solver_stats,
        opt_det(profile).solver_stats,
        opt_rand(profile).solver_stats,
    ):
        assert set(stats) == set(SOLVER_STATS)
        assert stats["separation_rounds"] > 0
        assert stats["bland_switches"] == 0


def test_failure_after_warm_and_cold_attempts_carries_reproduction(monkeypatch):
    profile = ranked_pairs_hard_instance(3).profile
    m = profile.num_alternatives
    solver = _PolytopeSolver(MetricPolytope(profile))
    a_det(0, m - 1, profile, solver=solver)  # leaves a live tableau

    def broken(*args, **kwargs):
        raise SolverFailure("pivot loop broken on purpose")

    monkeypatch.setattr(linprog, "_pivot_loop", broken)
    with pytest.raises(SolverFailure) as info:
        a_det(1, m - 1, profile, solver=solver)  # same opponent: warm path
    assert solver.stats["rebuilds"] == 1
    assert solver.stats["retries"] == 1
    failure = info.value
    assert failure.profile_text == serialize_profile(profile)
    lines = failure.lp_text.splitlines()
    assert lines[0].startswith("max ")
    assert any(line.endswith(" = 1.0") for line in lines[1:])  # normalization
    assert not solver.live  # the failed tableau is not kept
