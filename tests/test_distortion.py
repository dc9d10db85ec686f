import itertools
import math
import re
import weakref

import numpy as np
import pytest

from metricdist import linprog
from metricdist.distortion import (
    _FIXED,
    _TOP_K,
    GRID_BUDGET,
    SOLVER_STATS,
    BudgetExceededError,
    MetricPolytope,
    _first_within_tie,
    _PolytopeSolver,
    _solver_for,
    a_det,
    a_rand,
    build_full_lp,
    dist_det,
    dist_rand,
    fairness_det,
    fairness_rand,
    grid_oracle,
)
from metricdist.instanceopt import opt_det, opt_rand, separation_oracle
from metricdist.linprog import SolverFailure
from metricdist.metricspace import (
    _quad_gaps,
    is_consistent,
    is_q_metric,
    social_cost,
    top_k_cost,
)
from metricdist.profiles import (
    PreferenceProfile,
    coupling_instance,
    random_profile,
    ranked_pairs_hard_instance,
    serialize_profile,
    symmetric_tournament_instance,
    warmup_instance,
)
from metricdist.rules import copeland, randomized_dictatorship, ranked_pairs, schulze

from oracles import (
    naive_chain,
    naive_chain_ids,
    naive_grid_search,
    naive_orbits,
    naive_quadruple_rows,
    naive_quadruples,
    plurality_veto,
    top_k_lp_by_definition,
)

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
    assert lp.A_ub.shape == (1 + 3 * 2 + 3 * 2 * 3 * 2, 9)
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
        by_checks = is_q_metric(d, 1e-12)[0] and is_consistent(d, profile, 1e-12)[0]
        assert by_rows == by_checks


def _quad_id(quad, n, m):
    v, vp, c, cp = quad
    return ((v * n + vp) * m + c) * m + cp


def test_quadrilateral_ids_round_trip_every_quadruple():
    rng = np.random.default_rng(13)
    polytopes = [
        MetricPolytope(random_profile(n, m, rng))
        for n, m in itertools.product(range(2, 8), repeat=2)
    ]
    polytopes.append(MetricPolytope(ranked_pairs_hard_instance(4).profile))
    for poly in polytopes:
        n, m = poly.num_agents, poly.num_alternatives
        quads = naive_quadruples(n, m)
        ids = poly.all_quadruples()
        assert ids.tolist() == [_quad_id(q, n, m) for q in quads]
        # The id is the flat C-order index into the (N, N, M, M) gaps.
        assert list(zip(*np.unravel_index(ids, (n, n, m, m)))) == quads
        assert poly.num_quad_ids == n * n * m * m
        assert poly.proper.sum() == len(quads) and poly.proper[ids].all()
        reference = naive_quadruple_rows(quads, n, m)
        assert np.array_equal(poly.quadruple_rows(ids), reference)
        # Random id sets, in random order, the empty one included.
        for size in (0, 1, 75, len(ids)):
            order = rng.permutation(len(ids))[:size]
            assert np.array_equal(
                poly.quadruple_rows(ids[order]),
                naive_quadruple_rows([quads[i] for i in order], n, m),
            ), (n, m, size)


def test_chains_match_the_stepwise_rule_for_every_pair():
    rng = np.random.default_rng(19)
    empty = unreachable = 0
    for trial in range(30):
        n, m = 2 + trial % 4, 1 + trial % 6
        profile = random_profile(n, m, rng)
        poly = MetricPolytope(profile)
        rankings = profile.rankings.tolist()
        for a, b in itertools.product(range(m), repeat=2):
            steps = naive_chain(rankings, a, b)
            assert poly.chain(a, b) == steps, (trial, a, b)
            ids = poly.chain_quadruples(a, b)
            assert ids.tolist() == naive_chain_ids(steps, n, m), (trial, a, b)
            assert not ids.flags.writeable
            assert ids.dtype == np.intp
            empty += not steps
            unreachable += a != b and not poly.reach[a, b]
    assert empty > 0 and unreachable > 0


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


def test_fairness_rand_bounds_are_plain_floats():
    profile = random_profile(5, 5, np.random.default_rng(3))
    report = fairness_rand((0.2, 0.2, 0.0, 0.0, 0.6), profile, budget=200)
    assert not all(report.exact_k.values())  # the bounding mode runs too
    bounds = [v for pair in report.per_k.values() for v in pair]
    for v in bounds + list(report.value_bounds):
        assert type(v) is float, repr(v)


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
    # With k = N the top-k sum is the total cost, so per_k[N] is the
    # distortion whatever N is.
    for n in (2, 3, 4, 5):
        profile = random_profile(n, int(rng.integers(3, 5)), rng)
        winner = int(rng.integers(profile.num_alternatives))
        top = fairness_det(winner, profile, k_set=[n]).per_k[n]
        base = dist_det(winner, profile).value
        assert top == pytest.approx(base, rel=1e-12), n


def test_fairness_rand_point_mass_collapses_to_det():
    profile = warmup_instance().profile
    point = np.array([1.0, 0.0, 0.0])
    det = fairness_det(0, profile)
    # On an equal profile, with a solver of its own, the point mass runs the
    # same LPs in the same order as fairness_det: the same bits.
    rand_exact = fairness_rand(point, PreferenceProfile(profile.rankings))
    assert all(rand_exact.exact_k.values())
    assert rand_exact.per_k == {k: (value, value) for k, value in det.per_k.items()}
    assert rand_exact.solver_stats == det.solver_stats
    # A point mass's orbits are its subset classes, so a budget that does
    # not refuse it is exact too.
    rand_bounds = fairness_rand(point, profile, budget=4)
    assert all(rand_bounds.exact_k.values())
    assert rand_exact.value_bounds[0] == pytest.approx(det.value, abs=1e-6)
    lo, hi = rand_bounds.value_bounds
    assert lo == pytest.approx(det.value, abs=1e-6)
    assert hi == pytest.approx(det.value, abs=1e-6)


def test_one_alternative_fairness_is_one():
    profile = PreferenceProfile([[0], [0]])
    assert dist_det(0, profile).value == 1.0
    det = fairness_det(0, profile)
    assert det.per_k == {1: 1.0, 2: 1.0} and det.value == 1.0
    assert det.argmax is None and det.witness is None
    assert fairness_rand([1.0], profile).per_k == {1: (1.0, 1.0), 2: (1.0, 1.0)}


def test_an_unreachable_opponent_runs_no_lp():
    # Every agent ranks 2 first, so no chain leads to 2; none leads from 3 to 1.
    profile = PreferenceProfile([[2, 1, 0, 3], [2, 0, 1, 3], [2, 1, 3, 0]])
    det = fairness_det(1, profile)
    assert det.solver_stats["objectives"] == 0
    assert det.per_k == dict.fromkeys((1, 2, 3), math.inf)
    assert det.argmax == (3, 2, None) == _fresh_fairness(1, profile)[1]
    x = [0.0, 0.5, 0.0, 0.5]
    # Reachability is decided before the budget: at budget 7 the orbits of
    # k = 1 and 2 (9 each) would not fit, and at 5 neither would the bounds
    # (6 LPs), yet every k is exactly infinite without an LP.
    for budget in (20_000, 7, 5, 1):
        rand = fairness_rand(x, profile, budget=budget)
        assert rand.solver_stats["objectives"] == 0, budget
        assert rand.per_k == dict.fromkeys((1, 2, 3), (math.inf, math.inf)), budget
        assert rand.exact_k == dict.fromkeys((1, 2, 3), True), budget
        assert rand.value_bounds == (math.inf, math.inf), budget


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


@pytest.mark.parametrize(
    "step, top",
    [
        (0.0, 3.0),
        (-0.5, 3.0),
        (math.nan, 3.0),
        (math.inf, 3.0),
        (0.5, -1.0),
        (0.5, math.inf),
    ],
)
def test_grid_oracle_rejects_a_grid_that_is_not_finite_and_positive(step, top):
    profile = warmup_instance().profile
    with pytest.raises(ValueError, match="grid"):
        grid_oracle(0, profile, grid_step=step, grid_max=top)


@pytest.mark.parametrize("bad", [-1, 3, 1.0, True, "1"])
def test_alternative_indices_outside_the_profile_raise(bad):
    profile = warmup_instance().profile  # 3 alternatives
    calls = [
        lambda: dist_det(bad, profile),
        lambda: a_det(bad, 1, profile),
        lambda: a_det(0, bad, profile),
        lambda: a_rand(UNIFORM3, bad, profile),
        lambda: fairness_det(bad, profile),
        lambda: build_full_lp(0, bad, profile),
        lambda: grid_oracle(bad, profile),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"integer in 0\.\.2"):
            call()


def test_non_integral_k_raises():
    profile = warmup_instance().profile
    for k_set in ([1.5], [1, 2.0], [0], [4], []):
        with pytest.raises(ValueError, match=r"integers in 1\.\.3"):
            fairness_det(0, profile, k_set=k_set)
        with pytest.raises(ValueError, match=r"integers in 1\.\.3"):
            fairness_rand(UNIFORM3, profile, k_set=k_set)
    assert set(fairness_det(0, profile, k_set=[np.int64(2), 1]).per_k) == {1, 2}


def test_grid_oracle_refuses_a_grid_over_budget():
    profile = warmup_instance().profile
    # 31 values at step 0.1: C(31 + 2, 3) = 5456 rows per agent, 5456^3 > 10^8
    with pytest.raises(BudgetExceededError, match=r"5456\^3 row combinations"):
        grid_oracle(0, profile, grid_step=0.1)
    # a step so small that the value count overflows to inf
    with pytest.raises(BudgetExceededError, match=f"budget {GRID_BUDGET}"):
        grid_oracle(0, profile, grid_step=5e-324)


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


def _fresh_fairness(winner, profile, k_set=None):
    """fairness_det's ``(per_k, argmax)``, with a fresh solver for every LP.

    Every agent subset of each size in ``k_set`` (default all) is solved.
    The argmax is the first ``(k, z, subset)`` in ascending order whose value
    is within 1e-9 (relative) of the largest.
    """
    poly = MetricPolytope(profile)
    n, m = profile.num_agents, profile.num_alternatives
    k_set = range(1, n + 1) if k_set is None else sorted(k_set)
    per_k, values = {}, {}
    for k in k_set:
        best = 0.0
        for z in range(m):
            if z == winner:
                continue
            if not poly.reach[winner, z]:
                best, blocked = math.inf, (k_set[-1], z, None)
                break
            for subset in itertools.combinations(range(n), k):
                objective = np.zeros(poly.num_metric_vars)
                for v in subset:
                    objective[poly.var(v, winner)] = 1.0
                solver = _PolytopeSolver(poly)
                values[k, z, subset], _ = solver.maximize(
                    objective, opponent=z, k=k, support=[winner]
                )
                best = max(best, values[k, z, subset])
        per_k[k] = best
    top = max(per_k.values())
    if math.isinf(top):
        return per_k, blocked
    return per_k, next(key for key, v in values.items() if v >= top * (1 - 1e-9))


def test_top_k_bound_matches_the_lp_over_every_k_subset():
    # The N + 1 rows of the top-k bound against the LP that states it by
    # definition over the costs, one rhs-1 row per k-agent subset, solved
    # cold. One solver serves every k of a profile, so tableaux seed others.
    rng = np.random.default_rng(211)
    checked = 0
    for trial in range(24):
        n, m = 3 + trial % 4, 3 + trial // 4 % 2
        profile = random_profile(n, m, rng)
        poly = MetricPolytope(profile)
        solver = _PolytopeSolver(poly)
        for k in range(1, n):
            z = int(rng.choice(np.flatnonzero(poly.edges.any(axis=0))))
            weights = np.zeros((n, m))
            sources = poly.reach[:, z] & (np.arange(m) != z)
            weights[:, sources] = rng.random((n, sources.sum()))
            weights *= rng.random((n, m)) < 0.6
            support = np.flatnonzero(weights.sum(axis=0) > 0)
            if not support.size:
                continue
            objective = weights.ravel()
            value, metric = solver.maximize(
                objective, opponent=z, k=k, support=support
            )
            lp = top_k_lp_by_definition(profile.rankings, objective, z, k)
            out = linprog.solve(linprog.LinearProgram(*lp))
            assert out.status is linprog.LpStatus.OPTIMAL
            assert value == pytest.approx(out.value, rel=1e-9), (trial, k)
            assert objective @ metric.ravel() == pytest.approx(value, rel=1e-9)
            assert top_k_cost(metric, z, k) <= 1 + 1e-9
            checked += 1
    assert checked >= 60


def test_top_k_at_twenty_agents_holds_n_plus_one_normalization_rows():
    # C(20, 10) = 184 756 subsets of ten agents; the bound is 21 rows.
    profile = PreferenceProfile([[0, 1, 2, 3]] * 10 + [[3, 2, 1, 0]] * 10)
    report = fairness_rand(np.eye(4)[0], profile, k_set=[10])
    assert report.per_k[10] == pytest.approx((3.0, 3.0), abs=1e-9)
    assert report.solver_stats["objectives"] == 33
    live = _solver_for(profile).live.values()
    n = profile.num_agents
    assert live and all((t.labels < 0).sum() <= n + 1 for t in live)


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return a == pytest.approx(b, rel=1e-9, abs=1e-12)


def _shared_solver_profiles():
    rng = np.random.default_rng(53)
    for trial in range(10):
        yield random_profile(3 + trial % 2, 3 + trial % 3, rng)
    # Profiles of the benchmark's optimize size: N in 3..5, M in 3..4.
    rng = np.random.default_rng(61)
    for trial in range(12):
        yield random_profile(3 + trial % 3, 3 + trial // 3 % 2, rng)


def test_shared_solver_matches_fresh_solvers():
    for trial, profile in enumerate(_shared_solver_profiles()):
        m = profile.num_alternatives
        shared = opt_det(profile)
        for c in range(m):
            for cp in range(m):
                if c != cp:
                    fresh, _ = a_det(c, cp, PreferenceProfile(profile.rankings))
                    assert _close(shared.matrix[c, cp], fresh), (trial, c, cp)
        report = fairness_det(shared.winner, profile)
        per_k, argmax = _fresh_fairness(shared.winner, profile)
        for k, value in per_k.items():
            assert _close(report.per_k[k], value), (trial, k)
        assert report.argmax == argmax, trial


def _class_firsts(profile, k):
    """The first k-agent subset of each class, a class being a multiset of rankings."""
    rankings = [tuple(r) for r in profile.rankings.tolist()]
    firsts = {}
    for subset in itertools.combinations(range(profile.num_agents), k):
        firsts.setdefault(tuple(sorted(rankings[v] for v in subset)), subset)
    return sorted(firsts.values())


@pytest.mark.parametrize(
    "rankings, winner",
    [
        # ranking groups of sizes (2, 2, 1), agents of a group not adjacent
        ([[0, 1, 2], [1, 2, 0], [0, 1, 2], [2, 0, 1], [1, 2, 0]], 0),
        # one group of four; the top alternative reaches every opponent
        ([[1, 0, 2, 3]] * 4, 1),
        # no repeated ranking
        ([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]], 1),
    ],
)
@pytest.mark.parametrize("k_set", [None, [2], "ends"])
def test_one_lp_per_subset_class_matches_every_subset(rankings, winner, k_set):
    profile = PreferenceProfile(rankings)
    n, m = profile.num_agents, profile.num_alternatives
    if k_set == "ends":
        k_set = [1, n]
    report = fairness_det(winner, profile, k_set=k_set)
    per_k, argmax = _fresh_fairness(winner, profile, k_set)
    assert report.per_k.keys() == per_k.keys()
    for k, value in per_k.items():
        assert _close(report.per_k[k], value), k
    assert report.argmax == argmax
    poly = MetricPolytope(profile)
    assert all(poly.reach[winner, z] for z in range(m))
    sizes = range(1, n + 1) if k_set is None else k_set
    classes = sum(len(_class_firsts(profile, k)) for k in sizes)
    assert report.solver_stats["objectives"] == (m - 1) * classes
    if [len(group) for group in poly.ranking_groups] == [2, 2, 1] and k_set is None:
        assert classes == 17  # against 31 subsets


def _fresh_fairness_rand(x, profile):
    """fairness_rand's exact ``per_k``, over every tuple of k-agent subsets.

    A tuple holds one subset per supported alternative c, and its objective
    puts ``x[c]`` on c's entries of that subset's agents. Every opponent
    and every tuple is solved, each by a fresh solver.
    """
    poly = MetricPolytope(profile)
    n, m = profile.num_agents, profile.num_alternatives
    support = np.flatnonzero(x)
    per_k = {}
    for k in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        best = 0.0
        for z in range(m):
            for combo in itertools.product(subsets, repeat=len(support)):
                objective = np.zeros((n, m))
                for c, subset in zip(support, combo):
                    objective[list(subset), c] = x[c]
                solver = _PolytopeSolver(poly)
                value, _ = solver.maximize(
                    objective.ravel(), opponent=z, k=k, support=support
                )
                best = max(best, value)
        per_k[k] = (best, best)
    return per_k


def _tuple_orbit_firsts(profile, k, s):
    """The first s-tuple of k-agent subsets of each orbit, by brute force.

    The orbit of a tuple is its images under every permutation of agents
    that maps each agent onto one of equal ranking, applied to all of its
    subsets at once.
    """
    rankings = [tuple(r) for r in profile.rankings.tolist()]
    n = profile.num_agents
    perms = [
        p
        for p in itertools.permutations(range(n))
        if all(rankings[p[v]] == rankings[v] for v in range(n))
    ]
    subsets = itertools.combinations(range(n), k)
    return sorted(
        {
            min(tuple(tuple(sorted(p[v] for v in T)) for T in combo) for p in perms)
            for combo in itertools.product(subsets, repeat=s)
        }
    )


@pytest.mark.parametrize(
    "rankings",
    [
        [[0, 1, 2], [1, 2, 0], [0, 1, 2], [2, 0, 1], [1, 2, 0]],  # groups 2, 2, 1
        [[1, 0, 2, 3]] * 4,  # one group of four
        [[0, 1, 2], [2, 1, 0], [2, 1, 0], [0, 1, 2], [2, 1, 0]],  # groups 2, 3
    ],
)
def test_subset_tuples_hit_every_orbit_once(rankings):
    profile = PreferenceProfile(rankings)
    poly = MetricPolytope(profile)
    for s in (2, 3):
        for k in range(1, profile.num_agents + 1):
            assert poly.subset_tuples(k, s) == _tuple_orbit_firsts(profile, k, s), (s, k)


@pytest.mark.parametrize(
    "rankings, x",
    [
        ([[0, 1, 2], [0, 1, 2], [1, 2, 0], [2, 0, 1]], [0.5, 0.5, 0.0]),
        ([[0, 1, 2], [0, 1, 2], [2, 0, 1]], [0.5, 0.25, 0.25]),
    ],
)
def test_fairness_rand_exact_mode_matches_every_tuple(rankings, x):
    profile = PreferenceProfile(rankings)
    x = np.array(x)
    report = fairness_rand(x, profile)
    assert all(report.exact_k.values())
    reference = _fresh_fairness_rand(x, profile)
    assert report.per_k.keys() == reference.keys()
    for k, (value, _) in reference.items():
        assert _close(report.per_k[k][0], value), k
        assert report.per_k[k][0] == report.per_k[k][1]
    n, m, s = profile.num_agents, profile.num_alternatives, len(np.flatnonzero(x))
    orbits = sum(len(_tuple_orbit_firsts(profile, k, s)) for k in range(1, n + 1))
    assert report.solver_stats["objectives"] == m * orbits
    assert orbits < sum(math.comb(n, k) ** s for k in range(1, n + 1))


def test_orbits_follow_the_product_and_filter_order():
    rng = np.random.default_rng(107)
    for trial in range(12):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        # Few distinct rankings, so that groups repeat.
        distinct = [rng.permutation(m) for _ in range(int(rng.integers(1, 4)))]
        rankings = [distinct[int(rng.integers(len(distinct)))] for _ in range(n)]
        poly = MetricPolytope(PreferenceProfile(rankings))
        for s in (1, 2, 3):
            for k in range(1, n + 1):
                expected = list(naive_orbits(poly.ranking_groups, k, s))
                assert list(poly._orbits(k, s)) == expected, (trial, k, s)


def test_orbits_of_distinct_rankings_count_every_tuple():
    # 16 agents, each ranking its own: the orbits of pairs of singletons
    # are all 16 * 16 ordered pairs.
    rankings = [
        list(p) for p in itertools.islice(itertools.permutations(range(4)), 16)
    ]
    poly = MetricPolytope(PreferenceProfile(rankings))
    assert len(poly.ranking_groups) == 16
    assert sum(1 for _ in poly._orbits(1, 2)) == 256


def test_subset_classes_start_their_class():
    profile = PreferenceProfile([[0, 1, 2], [1, 2, 0], [0, 1, 2], [2, 0, 1], [1, 2, 0]])
    poly = MetricPolytope(profile)
    assert poly.ranking_groups == [[0, 2], [1, 4], [3]]
    for k in range(1, 6):
        assert poly.subset_tuples(k, 1) == [(S,) for S in _class_firsts(profile, k)], k


def test_fairness_argmax_is_the_first_within_tie_tolerance():
    a = 2.5
    values = {
        (1, 1, (0,)): a,
        (1, 1, (1,)): a * (1 + 0.6e-9),
        (1, 2, (0,)): a * (1 + 1.2e-9),
    }
    # Each step is below TIE_TOL, but the first value is not within it of
    # the last: the second key is the first within tolerance of the best.
    assert _first_within_tie(values) == (1, 1, (1,))
    assert _first_within_tie(dict(reversed(values.items()))) == (1, 1, (1,))
    # Ascending key order, not insertion order, breaks an exact tie.
    tied = {(3, 1, (0, 1, 2)): 1.0, (2, 2, (0, 1)): 1.0}
    assert _first_within_tie(tied) == (2, 2, (0, 1))


def test_fairness_argmax_of_an_unreachable_opponent():
    # Every agent ranks 0 first: 1 and 2 have no chain to 0.
    profile = PreferenceProfile([[0, 1, 2], [0, 2, 1], [0, 1, 2]])
    report = fairness_det(2, profile, k_set=[1, 2])
    assert report.per_k == {1: math.inf, 2: math.inf}
    assert report.value == math.inf
    assert report.argmax == (2, 0, None)
    assert report.witness is None
    assert _fresh_fairness(2, profile, [1, 2])[1] == report.argmax


def _full_scan(values, tol, exclude, limit):
    """``violated_quadruples`` without its early exit: mask, then scan."""
    gaps = _quad_gaps(values)
    n, m = values.shape
    gaps[np.arange(n), np.arange(n), :, :] = -np.inf
    gaps[:, :, np.arange(m), np.arange(m)] = -np.inf
    idx = np.argwhere(gaps > tol)
    order = np.argsort(-gaps[tuple(idx.T)])
    out = [tuple(int(x) for x in idx[k]) for k in order]
    return [q for q in out if q not in exclude][:limit]


def test_separation_early_exit_returns_the_full_scan():
    # _full_scan's tuples, mapped to ids, are the reference.
    rng = np.random.default_rng(101)
    exits = violated = barely = 0
    for trial in range(80):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        poly = MetricPolytope(random_profile(n, m, rng))
        kind = trial % 4
        line = np.abs(rng.random(n)[:, None] - rng.random(m)[None, :])
        if kind == 0:  # nonnegative, sparse like LP vertices
            values = rng.random((n, m)) * (rng.random((n, m)) < 0.6)
        elif kind == 1:  # a line metric: no quadrilateral is violated
            values = line
        elif kind == 2:  # a line metric, perturbed: violations just above tol
            values = line + rng.uniform(0, 1e-7, size=(n, m))
        else:  # negative entries: degenerate gaps can be positive
            values = rng.uniform(-1, 1, size=(n, m))
        tol = 1e-9
        everything = _full_scan(values, tol, set(), 10**6)
        exclude = set(everything[::3])
        mask = np.zeros(n * n * m * m, dtype=bool)
        mask[[_quad_id(q, n, m) for q in exclude]] = True
        for limit in (1, 5, 10**6):
            found = poly.violated_quadruples(values.copy(), tol, mask, limit)
            assert isinstance(found, np.ndarray) and found.dtype.kind == "i"
            expected = _full_scan(values, tol, exclude, limit)
            assert found.tolist() == [_quad_id(q, n, m) for q in expected], trial
            v, vp, c, cp = np.unravel_index(found, (n, n, m, m))
            assert (v != vp).all() and (c != cp).all()
        exits += _quad_gaps(values).max() <= tol
        violated += bool(everything)
        barely += 0 < len(everything) and _quad_gaps(values).max() < 1e-6
    assert exits and violated and barely


def _chain_only_pairs(profile):
    """Pairs (c, opponent) that a chain joins but no agent ranks c above opponent."""
    poly = MetricPolytope(profile)
    m = profile.num_alternatives
    return [
        (c, z)
        for c in range(m)
        for z in range(m)
        if c != z and poly.reach[c, z] and not poly.edges[c, z]
    ]


def test_chain_only_pairs_match_full_lp_without_refactors():
    from metricdist.distortion import build_full_lp
    from metricdist.linprog import LpStatus, solve

    rng = np.random.default_rng(67)
    checked = 0
    while checked < 12:
        profile = random_profile(int(rng.integers(3, 5)), int(rng.integers(3, 6)), rng)
        for c, z in _chain_only_pairs(profile)[:2]:
            fresh = PreferenceProfile(profile.rankings)
            value, _ = a_det(c, z, fresh)
            out = solve(build_full_lp(c, z, profile))
            assert out.status is LpStatus.OPTIMAL
            assert value == pytest.approx(out.value, rel=1e-9), (c, z)
            assert _solver_for(fresh).stats["refactors"] == 0
            checked += 1


def test_missing_chain_rows_raise_named_unbounded_failure(monkeypatch):
    profile = warmup_instance().profile
    solver = _PolytopeSolver(MetricPolytope(profile))
    nm = solver.polytope.num_metric_vars
    objective = np.zeros(nm)
    objective[solver.polytope.var(1, 0)] = 1.0  # agent 1 ranks 0 below 2
    # Every chain comes back without rows, so nothing bounds the relaxation.
    no_rows = np.zeros(0, dtype=np.intp)
    monkeypatch.setattr(MetricPolytope, "chain_quadruples", lambda self, a, b: no_rows)
    with pytest.raises(SolverFailure, match="relaxation unbounded: chain rows missing") as info:
        solver.maximize(objective, opponent=2, k=profile.num_agents, support=[0])
    assert info.value.profile_text == serialize_profile(profile)
    assert info.value.lp_text.splitlines()[0].startswith("max ")


def test_seeded_chain_rows_lead_the_tableau():
    n = 10
    profile = ranked_pairs_hard_instance(n).profile
    m = profile.num_alternatives
    solver = _solver_for(profile)
    value, _ = a_det(0, m - 1, profile)
    assert value == pytest.approx((5 * n + 3) / (n + 3), rel=1e-9)
    seeded = [
        _quad_id((v, vp, a, b), profile.num_agents, m)
        for a, b in solver.polytope.chain(0, m - 1)
        for v, vp in itertools.permutations(range(profile.num_agents), 2)
    ]
    assert seeded
    (live,) = solver.live.values()
    quads = live.labels[live.labels >= 0]
    # The chain rows are the tableau's first quadrilateral rows, in chain order.
    assert quads[: len(seeded)].tolist() == seeded
    # The masks agree with the labels they stand for: column 0 alone is
    # weighted, so its chain alone is held.
    assert np.flatnonzero(live.in_tableau).tolist() == sorted(quads.tolist())
    assert np.flatnonzero(live.chained).tolist() == [0]


def test_single_a_det_builds_one_tableau():
    profile = ranked_pairs_hard_instance(6).profile
    m = profile.num_alternatives
    value, _ = a_det(0, m - 1, profile)
    assert value == pytest.approx((5 * 6 + 3) / (6 + 3), rel=1e-9)
    stats = _solver_for(profile).stats
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
    # each opponent with a finite ratio builds its tableau cold; the second
    # is seeded with the rows tight at the first one's optimum
    finite = sum(math.isfinite(v) for v in report.per_opponent.values())
    assert report.solver_stats["cold_builds"] == finite
    assert report.solver_stats["seeded_rows"] > 0
    assert report.solver_stats["primal_pivots"] > 0
    for stats in (
        report.solver_stats,
        fairness_det(0, profile).solver_stats,
        opt_det(profile).solver_stats,
        opt_rand(profile).solver_stats,
        fairness_rand(UNIFORM3, profile).solver_stats,
    ):
        assert set(stats) == set(SOLVER_STATS)
        assert all(type(value) is int for value in stats.values())
        assert stats["separation_rounds"] > 0
        assert stats["bland_switches"] == 0
        assert stats["pool_rows"] > 0
    # pool_rows is the level of the quadrilateral rows the live tableaux
    # hold, not a per-call count
    tableaux = _solver_for(profile).live.values()
    assert stats["pool_rows"] == sum((live.labels >= 0).sum() for live in tableaux)
    assert stats["pool_rows"] == sum(live.in_tableau.sum() for live in tableaux)


def test_per_call_solver_stats_sum_to_solver_totals():
    profile = warmup_instance().profile
    reports = [
        dist_det(0, profile),
        dist_rand(UNIFORM3, profile),
        opt_det(profile),
    ]
    totals = _solver_for(profile).stats
    for name in totals:
        assert sum(r.solver_stats[name] for r in reports) == totals[name], name
    # dist_rand finds dist_det's tableaux of opponents 1 and 2 live, and
    # builds opponent 0's alone, seeded from the last of them
    assert reports[1].solver_stats["cold_builds"] == 1
    assert reports[1].solver_stats["seeded_rows"] > 0


def test_failure_after_warm_and_cold_attempts_carries_reproduction(monkeypatch):
    profile = ranked_pairs_hard_instance(3).profile
    m = profile.num_alternatives
    a_det(0, m - 1, profile)  # leaves a live tableau
    solver = _solver_for(profile)

    def broken(*args, **kwargs):
        raise SolverFailure("pivot loop broken on purpose")

    monkeypatch.setattr(linprog, "_pivot_loop", broken)
    with pytest.raises(SolverFailure) as info:
        a_det(1, m - 1, profile)  # same opponent: warm path
    assert solver.stats["rebuilds"] == 1
    assert solver.stats["retries"] == 1
    failure = info.value
    assert failure.profile_text == serialize_profile(profile)
    lines = failure.lp_text.splitlines()
    assert lines[0].startswith("max ")
    assert any(line.endswith(" <= 1.0") for line in lines[1:])  # normalization
    assert not solver.live  # the failed tableau is not kept

    # The solver stays usable: the next call builds the opponent's tableau
    # anew and agrees with a fresh solver.
    monkeypatch.undo()
    value, _ = a_det(1, m - 1, profile)
    fresh, _ = a_det(1, m - 1, PreferenceProfile(profile.rankings))
    assert value == pytest.approx(fresh, rel=1e-9)


def _parse_lp_text(text):
    """The :class:`LinearProgram` a ``dump_text`` wrote."""
    lines = text.splitlines()
    objective = [float(c) for c in lines[0].split()[1:]]
    rows, rhs = [], []
    for line in lines[1:]:
        coeffs, b = line.split(" <= ")
        rows.append([float(c) for c in coeffs.split()])
        rhs.append(float(b))
    return linprog.LinearProgram(objective, rows, rhs)


def test_failure_reproduces_over_the_increments_it_names(monkeypatch):
    # The failing program is over the increments delta(v, t) the message
    # names: solved again, its optimum maps through the prefix sums to costs
    # that keep every ranking, and its value is that of the costs.
    profile = ranked_pairs_hard_instance(3).profile
    m = profile.num_alternatives
    a_det(0, m - 1, profile)

    def broken(*args, **kwargs):
        raise SolverFailure("pivot loop broken on purpose")

    monkeypatch.setattr(linprog, "_pivot_loop", broken)
    with pytest.raises(SolverFailure, match="increments delta") as info:
        a_det(1, m - 1, profile)
    monkeypatch.undo()
    lp = _parse_lp_text(info.value.lp_text)
    out = linprog.solve(lp)
    assert out.status is linprog.LpStatus.OPTIMAL
    poly = MetricPolytope(profile)
    costs = poly.metric(out.assignment)
    assert is_consistent(costs, profile, tol=0.0)[0]
    assert out.value == pytest.approx(costs[:, 1].sum(), rel=1e-12)
    weights = np.tile(np.eye(m)[1], profile.num_agents)  # over the costs
    assert np.array_equal(lp.objective, weights @ poly.prefix)
    # A relaxation: at least the full program's optimum.
    assert out.value >= a_det(1, m - 1, PreferenceProfile(profile.rankings))[0] - 1e-9

    # A top-1 failure: its program has tau at column NM and u_v at NM + 1 + v,
    # and the costs are its first NM entries.
    monkeypatch.setattr(linprog, "_pivot_loop", broken)
    with pytest.raises(SolverFailure, match="column NM is tau") as info:
        fairness_det(0, profile, k_set=[1])
    monkeypatch.undo()
    z = int(re.search(r"opponent (\d+)", str(info.value)).group(1))
    assert "k = 1:" in str(info.value)
    lp = _parse_lp_text(info.value.lp_text)
    nm, n = poly.num_metric_vars, profile.num_agents
    assert lp.num_vars == nm + n + 1 and not lp.objective[nm:].any()
    out = linprog.solve(lp)
    assert out.status is linprog.LpStatus.OPTIMAL
    costs = poly.metric(out.assignment[:nm])
    assert is_consistent(costs, profile, tol=0.0)[0]
    assert costs[:, z].max() <= 1 + 1e-9  # the top-1 bound
    weights = np.linalg.solve(poly.prefix.T, lp.objective[:nm])  # over the costs
    assert out.value == pytest.approx(weights @ costs.ravel(), rel=1e-12)


def _assert_tableaux_hold_their_rows(solver):
    """Each live tableau holds a quadrilateral id at most once, its masks
    agree with its labels, and it holds the chain rows of every column its
    ``chained`` mask marks."""
    poly = solver.polytope
    for z, live in solver.live.items():
        assert live.opponent == z
        quads = live.labels[live.labels >= 0]
        assert np.unique(quads).size == quads.size
        assert np.flatnonzero(live.in_tableau).tolist() == sorted(quads.tolist())
        for c in np.flatnonzero(live.chained):
            assert live.in_tableau[poly.chain_quadruples(c, z)].all(), (z, c)


def test_mixed_calls_keep_each_tableau_consistent_with_its_rows():
    rng = np.random.default_rng(109)
    for trial in range(4):
        profile = random_profile(3 + trial % 2, 3 + trial % 2, rng)
        m = profile.num_alternatives
        solver = _solver_for(profile)
        winner = int(rng.integers(m))
        calls = [
            lambda: dist_det(winner, profile),
            lambda: dist_rand(randomized_dictatorship(profile).distribution, profile),
            lambda: fairness_det(winner, profile),
            lambda: opt_det(profile),
            lambda: opt_rand(profile),
            lambda: separation_oracle(np.full(m, 1 / m), 2.0, profile),
        ]
        for i in rng.permutation(len(calls)):
            calls[i]()
            _assert_tableaux_hold_their_rows(solver)
        assert solver.live


@pytest.mark.parametrize("x", [[0.5, 0.5, math.nan], [math.nan] * 3])
def test_non_finite_lottery_entries_are_refused_before_any_lp(x):
    profile = warmup_instance().profile
    a_det(0, 2, profile)  # a warm solver
    solver = _solver_for(profile)
    before, tableaux = dict(solver.stats), list(solver.live)
    calls = [
        lambda: a_rand(x, 1, profile),
        lambda: dist_rand(x, profile),
        lambda: fairness_rand(x, profile),
        lambda: separation_oracle(x, 2.0, profile),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="probability vector"):
            call()
    assert _solver_for(profile) is solver
    assert solver.stats == before and list(solver.live) == tableaux


def test_unreached_lists_the_supported_columns_without_a_chain():
    rng = np.random.default_rng(113)
    for _ in range(10):
        poly = MetricPolytope(random_profile(3, 5, rng))
        support = np.flatnonzero(rng.random(5) < 0.6)
        for z in range(5):
            want = [int(c) for c in support if not poly.reach[c, z]]
            assert poly.unreached(support, z) == want


def test_reported_witnesses_keep_every_ranking_exactly():
    # Costs are prefix sums of nonnegative increments, so no witness breaks
    # a ranking by any amount, not even by round-off.
    rng = np.random.default_rng(167)
    witnesses = 0
    for _ in range(30):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        profile = random_profile(n, m, rng)
        winner = int(rng.integers(m))
        reports = [
            dist_det(winner, profile),
            dist_rand(rng.dirichlet(np.ones(m)), profile),
            fairness_det(winner, profile, k_set=[1, n]),
        ]
        for report in reports:
            if report.witness is not None:
                assert is_consistent(report.witness, profile, tol=0.0)[0]
                witnesses += 1
    assert witnesses > 60


def test_plurality_veto_winner_has_distortion_at_most_3():
    rng = np.random.default_rng(127)
    for _ in range(60):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        profile = random_profile(n, m, rng)
        value = dist_det(plurality_veto(profile), profile).value
        assert value <= 3 * (1 + 1e-9), (profile.rankings.tolist(), value)


def test_instance_optimal_winner_has_distortion_at_most_3():
    # Plurality Veto's winner has distortion at most 3, so the best does.
    rng = np.random.default_rng(131)
    for _ in range(30):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        profile = random_profile(n, m, rng)
        value = opt_det(profile).value
        veto = dist_det(plurality_veto(profile), profile).value
        assert value <= 3 * (1 + 1e-9), profile.rankings.tolist()
        assert value <= veto * (1 + 1e-9), profile.rankings.tolist()


# ---------------------------------------------------------------------------
# One live solver, for the most recently solved profile

_LP_CALLS = {
    "a_det": lambda p: a_det(0, 2, p),
    "a_rand": lambda p: a_rand(UNIFORM3, 1, p),
    "dist_det": lambda p: dist_det(0, p),
    "dist_rand": lambda p: dist_rand(UNIFORM3, p),
    "fairness_det": lambda p: fairness_det(0, p, k_set=[1]),
    "fairness_rand": lambda p: fairness_rand(UNIFORM3, p, k_set=[1]),
    "opt_det": opt_det,
    "opt_rand": opt_rand,
    "separation_oracle": lambda p: separation_oracle(UNIFORM3, 2.0, p),
}


@pytest.mark.parametrize("call", sorted(_LP_CALLS))
def test_solving_another_profile_releases_the_old_solver(call):
    first, second = warmup_instance().profile, warmup_instance().profile
    _LP_CALLS[call](first)
    old = weakref.ref(_solver_for(first))
    _LP_CALLS[call](second)
    assert old() is None
    assert _solver_for(second).polytope.profile is second


def test_same_calls_on_equal_profiles_give_the_same_bits():
    rankings = random_profile(4, 4, np.random.default_rng(71)).rankings
    x = np.array([0.5, 0.25, 0.0, 0.25])

    def run(profile):
        return (
            dist_det(1, profile),
            dist_rand(x, profile),
            fairness_det(1, profile, k_set=[1, 3]),
            fairness_rand(x, profile, k_set=[2]),
            opt_det(profile),
            opt_rand(profile),
        )

    first, second = run(PreferenceProfile(rankings)), run(PreferenceProfile(rankings))
    for a, b in zip(first[:2], second[:2]):
        assert a.per_opponent == b.per_opponent
        assert np.array_equal(a.witness.values, b.witness.values)
    for a, b in zip(first[2:4], second[2:4]):
        assert a.per_k == b.per_k
    assert np.array_equal(first[2].witness.values, second[2].witness.values)
    assert np.array_equal(first[4].matrix, second[4].matrix)
    assert np.array_equal(first[5].x, second[5].x) and first[5].value == second[5].value
    assert [r.solver_stats for r in first] == [r.solver_stats for r in second]


def test_certify_sequence_matches_a_fresh_profile_per_call():
    # A fresh profile per (outcome, opponent) solves one LP cold, with no
    # tableau to seed it; the shared solver seeds most opponents' tableaux
    # with the rows tight at another opponent's optimum.
    rng = np.random.default_rng(73)
    seeded = 0
    for trial in range(30):
        profile = random_profile(
            int(rng.integers(3, 7)), int(rng.integers(3, 6)), rng
        )
        m = profile.num_alternatives
        winners = {rule(profile).winner for rule in (copeland, ranked_pairs, schulze)}
        lottery = randomized_dictatorship(profile).distribution
        # the whole sequence on one profile first, so that it shares a solver
        reports = [dist_det(w, profile) for w in sorted(winners)]
        reports.append(dist_rand(lottery, profile))
        det = opt_det(profile)
        solver = _solver_for(profile)
        assert len(solver.live) <= m
        seeded += solver.stats["seeded_rows"]
        for report in reports:
            x = report.distribution
            if x is None:
                x = np.eye(m)[report.winner]
            for z, value in report.per_opponent.items():
                fresh, _ = a_rand(x, z, PreferenceProfile(profile.rankings))
                assert _close(value, fresh), (trial, z)
        for c, z in itertools.permutations(range(m), 2):
            fresh, _ = a_det(c, z, PreferenceProfile(profile.rankings))
            assert _close(det.matrix[c, z], fresh), (trial, c, z)
    assert seeded > 0


def _per_opponent_reference(solve, outcome, opponents, profile):
    """``(value, opponent, per_opponent, witness, stats)`` from one single-LP
    call per opponent, ascending, keeping the first maximum."""
    if not opponents:
        return 1.0, None, {}, None, dict.fromkeys(SOLVER_STATS, 0)
    solver = _solver_for(profile)
    before = dict(solver.stats)
    per_opponent, best = {}, None
    for z in opponents:
        value, witness = solve(outcome, z, profile)
        per_opponent[z] = value
        if best is None or value > best[0]:
            best = value, z, witness
    value, z, witness = best
    if math.isinf(value):
        z = witness = None
    witness = None if witness is None else witness.values
    return value, z, per_opponent, witness, solver.stats_since(before)


def test_reports_match_the_single_lp_calls_bit_for_bit():
    rng = np.random.default_rng(127)
    # Everyone ranks 0 first, so no chain leads into 0.
    profiles = [PreferenceProfile([[0, 1, 2], [0, 2, 1]])]
    profiles.append(random_profile(3, 1, rng))
    profiles += [
        random_profile(int(rng.integers(2, 7)), int(rng.integers(1, 7)), rng)
        for _ in range(22)
    ]
    infinite = 0
    for trial, profile in enumerate(profiles):
        m = profile.num_alternatives
        winner = int(rng.integers(m)) if trial else 1
        x = rng.random(m) * (rng.random(m) < 0.7)
        x[rng.integers(m)] += 0.5
        x /= x.sum()
        fresh = PreferenceProfile(profile.rankings)
        reports = [dist_det(winner, profile), dist_rand(x, profile)]
        references = [
            _per_opponent_reference(
                a_det, winner, [z for z in range(m) if z != winner], fresh
            ),
            _per_opponent_reference(a_rand, x, list(range(m)), fresh),
        ]
        for report, (value, z, per_opponent, witness, stats) in zip(
            reports, references
        ):
            assert report.value == value, trial
            assert report.opponent == z, trial
            assert report.per_opponent == per_opponent, trial
            assert list(report.per_opponent) == list(per_opponent), trial
            if witness is None:
                assert report.witness is None, trial
            else:
                assert np.array_equal(report.witness.values, witness), trial
            assert report.solver_stats == stats, trial
            infinite += math.isinf(value)
    assert infinite > 0


def test_failed_opponent_swap_builds_cold_with_the_same_values(monkeypatch):
    rng = np.random.default_rng(101)
    profiles = [random_profile(4, 4, rng) for _ in range(6)]
    swapped = [(dist_det(0, p), opt_det(p)) for p in profiles]

    def every_slack_basic(self):
        return np.ones(self.rhs.size, dtype=bool)

    # No row binds in any tableau, so no build is seeded.
    monkeypatch.setattr(linprog.Tableau, "basic_slacks", every_slack_basic)
    for profile, (report, det) in zip(profiles, swapped):
        profile = PreferenceProfile(profile.rankings)
        cold = dist_det(0, profile)
        assert cold.solver_stats["seeded_rows"] == 0
        assert report.solver_stats["seeded_rows"] > 0
        finite = sum(math.isfinite(v) for v in cold.per_opponent.values())
        assert cold.solver_stats["cold_builds"] == finite
        for z, value in report.per_opponent.items():
            assert _close(value, cold.per_opponent[z]), z
        cold_det = opt_det(profile)
        assert cold_det.solver_stats["seeded_rows"] == 0
        assert cold_det.winner == det.winner
        for c, z in itertools.permutations(range(4), 2):
            assert _close(det.matrix[c, z], cold_det.matrix[c, z]), (c, z)
        assert len(_solver_for(profile).live) <= profile.num_alternatives


def test_opponent_swap_then_top_k_ignores_the_donor_objective():
    # Everyone ranks 0 first, so no chain leads into 0: the donor's objective,
    # on column 1, is unbounded once opponent 0 is normalized.
    profile = PreferenceProfile([[0, 1, 2], [0, 2, 1], [0, 1, 2]])
    poly = MetricPolytope(profile)
    solver = _PolytopeSolver(poly)
    solver.maximize(np.tile([0.0, 1.0, 0.0], 3), opponent=2, k=3, support=[1])
    objective = np.tile([1.0, 0.0, 0.0], 3)
    value, _ = solver.maximize(objective, opponent=0, k=1, support=[0])
    assert solver.stats["cold_builds"] == 2
    fresh, _ = _PolytopeSolver(poly).maximize(objective, opponent=0, k=1, support=[0])
    assert value == pytest.approx(fresh, rel=1e-9)


def _assert_normalization_block(live, n, nm):
    """``live`` leads with its normalization and holds no other row with a
    negative label: the rhs-1 row alone over the NM increments at k = N,
    that row and the N agent rows over N + 1 more columns at k < N."""
    top_k = n if live.k < n else 0
    labels = live.labels.tolist()
    assert labels[: 1 + top_k] == [_FIXED] + [_TOP_K] * top_k
    assert (live.labels < 0).sum() == 1 + top_k
    assert live.tableau.objective.size == nm + (top_k and n + 1)


def test_retarget_from_a_top_k_donor_to_distortion_on_a_new_opponent():
    # The donor holds the top-k normalization rows, one with rhs 1 like the
    # bound: the new opponent's tableau must not take them.
    profile = random_profile(5, 4, np.random.default_rng(103))
    poly = MetricPolytope(profile)
    solver = _PolytopeSolver(poly)
    m, n, nm = poly.num_alternatives, poly.num_agents, poly.num_metric_vars
    z, c = next(
        (z, c) for z in range(m) for c in range(m) if c != z and poly.reach[c, z]
    )
    objective = np.zeros(poly.num_metric_vars)
    for v in range(3):
        objective[poly.var(v, c)] = 1.0
    solver.maximize(objective, opponent=z, k=3, support=[c])
    _assert_normalization_block(solver.live[z], n, nm)

    new = next(o for o in range(m) if o != z and poly.reach[:, o].all())
    lottery = np.tile(np.full(m, 1 / m), poly.num_agents)
    before = dict(solver.stats)
    value, _ = solver.maximize(lottery, opponent=new, k=n, support=range(m))
    stats = solver.stats_since(before)
    assert stats["cold_builds"] == 1 and stats["rebuilds"] == 0
    _assert_normalization_block(solver.live[new], n, nm)
    fresh, _ = _PolytopeSolver(poly).maximize(
        lottery, opponent=new, k=n, support=range(m)
    )
    assert value == pytest.approx(fresh, rel=1e-9)


# ---------------------------------------------------------------------------
# Normalization changes: one live tableau per opponent, for one k


def _assert_no_phase_one(solver):
    """Every live tableau has rhs >= 0, so each cold build starts from the slack
    basis; rhs 1 sits on the normalization's rhs-1 row alone, the first, and
    the normalization is the only block of rows with negative labels."""
    poly = solver.polytope
    for live in solver.live.values():
        rhs = live.tableau.rhs
        assert (rhs >= 0).all()
        assert live.labels.size == rhs.size
        assert np.flatnonzero(rhs).tolist() == [0]
        _assert_normalization_block(live, poly.num_agents, poly.num_metric_vars)


def _norm_calls(poly, rng):
    """``(opponent, k, objective, support)`` over every k, there and back.

    Objectives weight only columns with a chain to the opponent, so every
    relaxation is bounded. At k = N the objective is a lottery, as in
    :func:`a_rand`; below, one column's entries of k agents.
    """
    n, m = poly.num_agents, poly.num_alternatives
    ks = list(range(1, n + 1))
    calls = []
    for k in ks + ks[::-1] + ks[1::2] + ks[::2]:
        z = int(rng.integers(m))
        sources = np.flatnonzero(poly.reach[:, z] & (np.arange(m) != z))
        if sources.size == 0:
            continue
        objective = np.zeros(poly.num_metric_vars)
        if k == n:
            x = np.zeros(m)
            x[sources] = rng.random(sources.size) + 0.1
            objective[:] = np.tile(x / x.sum(), n)
            support = sources
        else:
            c = int(rng.choice(sources))
            for v in rng.choice(n, size=k, replace=False):
                objective[poly.var(int(v), c)] = 1.0
            support = [c]
        calls.append((z, k, objective, support))
    return calls


def test_interleaved_norms_match_fresh_solvers():
    rng = np.random.default_rng(79)
    seeded = 0
    for trial in range(8):
        profile = random_profile(3 + trial % 3, 3 + trial % 2, rng)
        poly = MetricPolytope(profile)
        solver = _PolytopeSolver(poly)
        for z, k, objective, support in _norm_calls(poly, rng):
            value, _ = solver.maximize(objective, opponent=z, k=k, support=support)
            fresh, _ = _PolytopeSolver(poly).maximize(
                objective, opponent=z, k=k, support=support
            )
            assert value == pytest.approx(fresh, rel=1e-9), (trial, z, k)
            assert len(solver.live) <= poly.num_alternatives
            _assert_no_phase_one(solver)
        seeded += solver.stats["seeded_rows"]
    assert seeded > 0


def test_optimize_sequence_builds_one_tableau_per_opponent():
    # opt_det builds each opponent's k = N tableau once; opt_rand reuses
    # them as they are (distortion is k = N), and fairness_det builds one
    # per opponent at k = N - 1, seeded from its k = N tableau, then lowers
    # k in place on it down to 1.
    for seed in (83, 89, 97):
        profile = random_profile(4, 4, np.random.default_rng(seed))
        solver = _solver_for(profile)
        det = opt_det(profile)
        reports = [det, opt_rand(profile), fairness_det(det.winner, profile)]
        m, n = profile.num_alternatives, profile.num_agents
        assert reports[0].solver_stats["cold_builds"] <= m, seed
        assert reports[1].solver_stats["cold_builds"] == 0, seed
        fairness = reports[2].solver_stats
        assert math.isfinite(reports[2].value), seed
        assert fairness["cold_builds"] == m - 1, seed
        assert fairness["k_switches"] == (n - 2) * (m - 1), seed
        assert fairness["rebuilds"] == 0, seed
        assert fairness["seeded_rows"] > 0, seed
        assert len(solver.live) <= profile.num_alternatives
        _assert_no_phase_one(solver)


def test_k_change_builds_without_the_old_normalization_rows():
    profile = warmup_instance().profile
    solver = _solver_for(profile)
    fairness_det(0, profile, k_set=[1])  # top-1 tableaux, opponent 2 last
    n, nm = profile.num_agents, solver.polytope.num_metric_vars
    _assert_normalization_block(solver.live[2], n, nm)  # rows that must not stay
    assert solver.live[2].k == 1
    builds = solver.stats["cold_builds"]
    value, _ = a_det(0, 2, profile)  # k = N on opponent 2 builds anew
    assert solver.stats["rebuilds"] == 0
    assert solver.stats["cold_builds"] == builds + 1
    assert solver.live[2].k == n
    _assert_normalization_block(solver.live[2], n, nm)
    fresh, _ = a_det(0, 2, PreferenceProfile(profile.rankings))
    assert value == pytest.approx(fresh, rel=1e-9)


def _same_ratio(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return a == pytest.approx(b, rel=1e-12, abs=0.0)


def _assert_fairness_witness(report, profile):
    """The witness of ``report`` is a metric, consistent exactly, whose
    top-k bound on the opponent holds and whose subset attains the value."""
    if report.witness is None:
        assert math.isinf(report.value) or report.argmax is None
        return
    k, z, subset = report.argmax
    w = report.witness
    assert is_q_metric(w, 1e-6)[0]
    assert is_consistent(w, profile, tol=0.0)[0]
    assert top_k_cost(w, z, k) <= 1 + 1e-9
    assert w.values[list(subset), report.winner].sum() == pytest.approx(
        report.value, rel=1e-9
    )
    ratio = top_k_cost(w, report.winner, k) / top_k_cost(w, z, k)
    assert ratio == pytest.approx(report.value, rel=1e-9)


def test_lowering_k_in_place_matches_a_fresh_solver_per_k():
    # fairness_det and fairness_rand sweep k from N down on one live solver,
    # so every k below N - 1 is lowered in place on the opponent's tableau;
    # a fresh solver per k (k_set=[k]) builds each tableau cold instead.
    rng = np.random.default_rng(229)
    switches = 0
    for trial in range(30):
        n, m = 3 + trial % 4, 3 + trial // 4 % 3
        rankings = random_profile(n, m, rng).rankings
        winner = int(rng.integers(m))
        x = np.zeros(m)
        x[[winner, (winner + 1) % m]] = 0.25, 0.75
        profile = PreferenceProfile(rankings)
        det = fairness_det(winner, profile)
        # Every orbit of subset pairs is one LP: exact, and cheap at N <= 4.
        rand = fairness_rand(x, profile) if n <= 4 else None
        switches += det.solver_stats["k_switches"]
        _assert_fairness_witness(det, profile)
        for k in det.per_k:
            alone = PreferenceProfile(rankings)
            fresh = fairness_det(winner, alone, k_set=[k])
            assert _same_ratio(det.per_k[k], fresh.per_k[k]), (trial, k)
            _assert_fairness_witness(fresh, alone)
        if rand is None:
            continue
        assert all(rand.exact_k.values()), trial
        switches += rand.solver_stats["k_switches"]
        for k in rand.per_k:
            fresh = fairness_rand(x, PreferenceProfile(rankings), k_set=[k])
            for a, b in zip(rand.per_k[k], fresh.per_k[k]):
                assert _same_ratio(a, b), (trial, k)
    assert switches > 100


def _top_k_case():
    """A 5 x 4 profile's solver, an opponent z, and a column c with a chain
    to z; ``objective(k)`` weights c's entries of the first k agents."""
    poly = MetricPolytope(random_profile(5, 4, np.random.default_rng(233)))
    m = poly.num_alternatives
    z, c = next(
        (z, c) for z in range(m) for c in range(m) if c != z and poly.reach[c, z]
    )

    def objective(k):
        out = np.zeros(poly.num_metric_vars)
        out[[poly.var(v, c) for v in range(k)]] = 1.0
        return out

    return _PolytopeSolver(poly), z, c, objective


def test_a_lowered_tableau_keeps_its_width_and_rows():
    solver, z, c, objective = _top_k_case()
    poly = solver.polytope
    n, nm = poly.num_agents, poly.num_metric_vars
    solver.maximize(objective(3), opponent=z, k=3, support=[c])
    live = solver.live[z]
    tableau, labels = live.tableau, live.labels.copy()
    width = tableau.objective.size
    for k in (2, 1):
        before = dict(solver.stats)
        value, _ = solver.maximize(objective(k), opponent=z, k=k, support=[c])
        stats = solver.stats_since(before)
        assert stats["k_switches"] == 1 and stats["cold_builds"] == 0, k
        assert stats["refactors"] == stats["rebuilds"] == 0, k
        assert solver.live[z] is live and live.tableau is tableau, k
        assert live.k == k and tableau.objective.size == width == nm + n + 1
        assert tableau.rows[0, nm] == k
        assert live.labels[: labels.size].tolist() == labels.tolist(), k
        labels = live.labels.copy()
        _assert_no_phase_one(solver)
        fresh, _ = _PolytopeSolver(poly).maximize(
            objective(k), opponent=z, k=k, support=[c]
        )
        assert value == pytest.approx(fresh, rel=1e-12), k


def test_raising_k_builds_cold_seeded_by_the_opponents_own_tableau():
    solver, z, c, objective = _top_k_case()
    poly = solver.polytope
    solver.maximize(objective(2), opponent=z, k=2, support=[c])
    chain = poly.chain_quadruples(c, z)

    def donated(live):
        tight = live.labels[(live.labels >= 0) & ~live.tableau.basic_slacks()]
        return tight[~np.isin(tight, chain)]

    own = solver.live[z]
    expected = donated(own)
    assert expected.size > 0
    # Another opponent's tableau is the most recently used one.
    m = poly.num_alternatives
    other = next(o for o in range(m) if o not in (z, c) and poly.reach[c, o])
    point = np.tile(np.eye(m)[c], poly.num_agents)
    solver.maximize(point, opponent=other, k=poly.num_agents, support=[c])
    assert set(donated(solver.live[other])) != set(expected)
    before = dict(solver.stats)
    value, _ = solver.maximize(objective(3), opponent=z, k=3, support=[c])
    stats = solver.stats_since(before)
    assert stats["cold_builds"] == 1 and stats["k_switches"] == 0
    assert stats["seeded_rows"] == expected.size
    assert solver.live[z] is not own and solver.live[z].k == 3
    assert np.isin(expected, solver.live[z].labels).all()
    fresh, _ = _PolytopeSolver(poly).maximize(
        objective(3), opponent=z, k=3, support=[c]
    )
    assert value == pytest.approx(fresh, rel=1e-12)


def test_a_failed_refactor_lowers_k_by_a_cold_build(monkeypatch):
    rankings = random_profile(5, 4, np.random.default_rng(239)).rankings
    switched = fairness_det(0, PreferenceProfile(rankings))

    def singular(self, row, column, value):
        raise SolverFailure("basis matrix is singular")

    monkeypatch.setattr(linprog.Tableau, "set_coefficient", singular)
    cold = fairness_det(0, PreferenceProfile(rankings))
    stats = cold.solver_stats
    assert stats["k_switches"] == switched.solver_stats["k_switches"] > 0
    assert stats["rebuilds"] == stats["k_switches"]
    builds = switched.solver_stats["cold_builds"] + stats["rebuilds"]
    assert stats["cold_builds"] == builds
    for k, value in switched.per_k.items():
        assert _same_ratio(cold.per_k[k], value), k
    assert cold.argmax == switched.argmax


def test_seeded_builds_keep_the_separation_rounds_of_the_hard_family():
    # Each opponent's tableau is built cold, seeded with the rows tight at
    # the last one's optimum: 43 rounds here, where unseeded builds make 82.
    report = dist_det(0, ranked_pairs_hard_instance(8).profile)
    assert report.value == pytest.approx(43 / 11, rel=1e-9)
    assert report.solver_stats["separation_rounds"] <= 50


def test_a_new_tableau_holds_its_bound_its_chains_and_the_last_tight_rows(
    monkeypatch,
):
    profile = random_profile(5, 4, np.random.default_rng(103))
    poly = MetricPolytope(profile)
    solver = _PolytopeSolver(poly)
    n, m = poly.num_agents, poly.num_alternatives
    built = []
    start = _PolytopeSolver._start

    def spy(self, cost, opponent, k, support, donor=None):
        live, status, out = start(self, cost, opponent, k, support, donor)
        built.append(live.labels.copy())
        return live, status, out

    monkeypatch.setattr(_PolytopeSolver, "_start", spy)
    z, c = next(
        (z, c) for z in range(m) for c in range(m) if c != z and poly.reach[c, z]
    )
    objective = np.zeros(poly.num_metric_vars)
    objective[[poly.var(v, c) for v in range(2)]] = 1.0
    new = next(o for o in range(m) if o != z and poly.reach[:, o].all())
    lottery = np.tile(np.full(m, 1 / m), n)
    # A top-2 tableau on z, then k = N on a new opponent (the donor is the
    # most recently used tableau), then k = N on z (the donor is z's own).
    switches = [(objective, z, 2, [c]), (lottery, new, n, range(m))]
    switches.append((lottery, z, n, range(m)))
    total = 0
    for i, (weights, opponent, k, support) in enumerate(switches):
        donor = next(reversed(solver.live.values()), None)
        if opponent in solver.live:
            donor = solver.live[opponent]
        if donor is not None:
            _assert_normalization_block(donor, n, poly.num_metric_vars)
            binding = (donor.labels >= 0) & ~donor.tableau.basic_slacks()
            tight = donor.labels[binding].tolist()  # in the donor's order
        solver.maximize(weights, opponent=opponent, k=k, support=support)
        labels = built[i]
        block = n + 1 if k < n else 1
        assert labels[0] == _FIXED and (labels[1:block] == _TOP_K).all()
        assert (labels < 0).sum() == block  # no donor normalization row seeded
        chains = [poly.chain_quadruples(a, opponent).tolist() for a in support]
        chain = list(dict.fromkeys(itertools.chain(*chains)))
        assert labels[block : block + len(chain)].tolist() == chain
        seeded = labels[block + len(chain) :].tolist()
        if donor is None:
            assert not seeded
        else:
            assert seeded == [label for label in tight if label not in chain]
        total += len(seeded)
    assert solver.stats["cold_builds"] == len(switches)
    assert solver.stats["seeded_rows"] == total > 0


def test_swap_that_raises_leaves_no_tableau(monkeypatch):
    profile = warmup_instance().profile
    a_det(0, 2, profile)  # leaves the k = N tableau of opponent 2
    solver = _solver_for(profile)
    assert 2 in solver.live

    def broken(*args, **kwargs):
        raise SolverFailure("pivot loop broken on purpose")

    monkeypatch.setattr(linprog, "_pivot_loop", broken)
    objective = np.tile(UNIFORM3, profile.num_agents)
    with pytest.raises(SolverFailure):
        # another k: opponent 2's tableau seeds a new one and goes
        solver.maximize(objective, opponent=2, k=1, support=range(3))
    assert 2 not in solver.live
    monkeypatch.undo()
    value, _ = solver.maximize(objective, opponent=2, k=1, support=range(3))
    poly = MetricPolytope(profile)
    fresh, _ = _PolytopeSolver(poly).maximize(
        objective, opponent=2, k=1, support=range(3)
    )
    assert value == pytest.approx(fresh, rel=1e-9)


# ---------------------------------------------------------------------------
# Stored k = N optima: a repeated query is answered without an LP


def test_a_repeated_a_det_reads_its_first_solve():
    profile = random_profile(4, 4, np.random.default_rng(149))
    solver = _solver_for(profile)
    value, witness = a_det(1, 3, profile)
    before = dict(solver.stats)
    again, witness_again = a_det(1, 3, profile)
    assert again == value
    assert np.array_equal(witness_again.values, witness.values)
    changed = {k: solver.stats[k] - before[k] for k in before if solver.stats[k] != before[k]}
    assert changed == {"reused": 1}  # no LP, pivot, round or build
    # Another opponent, or the same one at another objective, is solved.
    a_det(1, 2, profile)
    a_det(0, 3, profile)
    assert solver.stats["reused"] == 1
    assert solver.stats["objectives"] == before["objectives"] + 2


def test_fairness_at_k_n_equals_distortion_exactly_in_either_order():
    rng = np.random.default_rng(151)
    finite = 0
    for trial in range(30):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        rankings = random_profile(n, m, rng).rankings
        winner = int(rng.integers(m))
        profile = PreferenceProfile(rankings)
        distortion = dist_det(winner, profile).value
        assert fairness_det(winner, profile).per_k[n] == distortion, trial
        profile = PreferenceProfile(rankings)
        top = fairness_det(winner, profile).per_k[n]
        assert dist_det(winner, profile).value == top, trial
        # Every k = N LP of the second call was read from the first's.
        assert _solver_for(profile).stats["reused"] == m - 1 or math.isinf(top), trial
        finite += math.isfinite(top)
    assert finite > 10


def _full_objective(solver, x):
    """The bytes of the k = N objective of ``x``: ``x[c]`` on all of column c."""
    return np.tile(np.asarray(x, dtype=float), solver.polytope.num_agents).tobytes()


def test_only_k_n_optima_are_stored_and_they_are_read_only():
    profile = random_profile(4, 3, np.random.default_rng(157))
    m = profile.num_alternatives
    solver = _solver_for(profile)
    assert solver.optima == {}
    fairness_det(0, profile)
    report = fairness_rand(UNIFORM3, profile, budget=20)
    assert report.exact_k == {1: False, 2: False, 3: False, 4: True}
    point = np.eye(m)[0]
    expected = {(z, _full_objective(solver, point)) for z in range(1, m)}
    expected |= {(z, _full_objective(solver, UNIFORM3)) for z in range(m)}
    assert set(solver.optima) == expected
    for (z, _), (_, metric) in solver.optima.items():
        assert not metric.flags.writeable
        assert metric[:, z].sum() == pytest.approx(1.0, rel=1e-9)  # its bound binds
    # A new profile, even an equal one, starts with an empty table.
    assert _solver_for(PreferenceProfile(profile.rankings)).optima == {}


def _retarget_case():
    """A profile, two winners c1, c2 and an opponent z where z's tableau
    after ``a_det(c1, z)`` lacks some of the chain rows of c2."""
    rng = np.random.default_rng(163)
    while True:
        profile = random_profile(int(rng.integers(3, 6)), int(rng.integers(3, 6)), rng)
        poly = MetricPolytope(profile)
        m = profile.num_alternatives
        for z, c1, c2 in itertools.permutations(range(m), 3):
            if poly.reach[c1, z] and poly.reach[c2, z]:
                solver = _PolytopeSolver(poly)
                solver.maximize(
                    np.tile(np.eye(m)[c1], poly.num_agents),
                    opponent=z,
                    k=poly.num_agents,
                    support=[c1],
                )
                chain = poly.chain_quadruples(c2, z)
                if not solver.live[z].in_tableau[chain].all():
                    return profile, c1, c2, z


def test_retarget_with_missing_chain_rows_makes_one_warm_solve():
    profile, c1, c2, z = _retarget_case()
    solver = _solver_for(profile)
    first, _ = a_det(c1, z, profile)
    before = dict(solver.stats)
    second, _ = a_det(c2, z, profile)
    stats = solver.stats_since(before)
    # The retarget's one re-optimization takes in the chain rows and the new
    # objective at once; then one per round that added rows, and the last
    # round adds none.
    assert stats["cold_builds"] == stats["rebuilds"] == 0
    assert stats["warm_solves"] == stats["separation_rounds"]
    for c, value in ((c1, first), (c2, second)):
        fresh, _ = a_det(c, z, PreferenceProfile(profile.rankings))
        assert value == pytest.approx(fresh, rel=1e-9), c


def test_violated_quadruples_match_the_gaps_reference_at_every_size():
    # The gaps of every quadruple (metricspace._quad_gaps), masked to the
    # proper ones, worst first: ids, order and degenerate sizes included.
    # Two points per polytope, so the second reads the buffers the first
    # wrote.
    rng = np.random.default_rng(167)
    for trial in range(40):
        n, m = 1 + trial % 4, 1 + trial // 4 % 5
        poly = MetricPolytope(random_profile(n, m, rng))
        for values in (rng.uniform(-1, 1, (n, m)), rng.random((n, m))):
            gaps = _quad_gaps(values).ravel()
            ids = ((gaps > 1e-9) & poly.proper).nonzero()[0]
            ids = ids[np.argsort(-gaps[ids])]
            exclude = np.zeros(poly.num_quad_ids, dtype=bool)
            exclude[ids[::2]] = True
            found = poly.violated_quadruples(values, 1e-9, exclude, 10**6)
            assert found.tolist() == ids[~exclude[ids]].tolist(), trial
            assert found.dtype == np.intp
            if n == 1 or m == 1:
                assert found.size == 0
