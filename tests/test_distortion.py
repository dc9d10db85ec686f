import itertools
import math
import weakref

import numpy as np
import pytest

from metricdist import linprog
from metricdist.distortion import (
    _SUBSET,
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
from metricdist.metricspace import CostMatrix, _quad_gaps, social_cost, top_k_cost
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
    naive_grid_search,
    naive_orbits,
    naive_quadruple_rows,
    naive_quadruples,
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
        assert by_rows == poly.satisfies(CostMatrix(d), tol=1e-12)


def _quad_id(quad, n, m):
    v, vp, c, cp = quad
    return ((v * n + vp) * m + c) * m + cp


def test_quadrilateral_ids_round_trip_every_quadruple():
    rng = np.random.default_rng(13)
    for n, m in [(2, 2), (2, 3), (3, 2), (3, 4), (5, 3)]:
        poly = MetricPolytope(random_profile(n, m, rng))
        quads = naive_quadruples(n, m)
        ids = poly.all_quadruples()
        assert ids.tolist() == [_quad_id(q, n, m) for q in quads]
        # The id is the flat C-order index into the (N, N, M, M) gaps.
        assert list(zip(*np.unravel_index(ids, (n, n, m, m)))) == quads
        assert poly.num_quad_ids == n * n * m * m
        assert poly.proper.sum() == len(quads) and poly.proper[ids].all()
        reference = naive_quadruple_rows(quads, n, m)
        assert np.array_equal(poly.quadruple_rows(ids), reference)
        order = rng.permutation(len(ids))
        assert np.array_equal(
            poly.quadruple_rows(ids[order]),
            naive_quadruple_rows([quads[i] for i in order], n, m),
        )


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
                values[k, z, subset], _ = solver.maximize(objective, opponent=z, norm=k)
                best = max(best, values[k, z, subset])
        per_k[k] = best
    top = max(per_k.values())
    if math.isinf(top):
        return per_k, blocked
    return per_k, next(key for key, v in values.items() if v >= top * (1 - 1e-9))


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
                value, _ = solver.maximize(objective.ravel(), opponent=z, norm=k)
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


def test_missing_chain_rows_raise_named_unbounded_failure():
    profile = warmup_instance().profile
    solver = _PolytopeSolver(MetricPolytope(profile))
    nm = solver.polytope.num_metric_vars
    objective = np.zeros(nm)
    objective[solver.polytope.var(1, 0)] = 1.0  # agent 1 ranks 0 below 2
    solver.seeded.add((0, 2))  # as if seeded, yet the pool stays empty
    with pytest.raises(SolverFailure, match="relaxation unbounded: chain rows missing") as info:
        solver.maximize(objective, opponent=2, norm="=")
    assert info.value.profile_text == serialize_profile(profile)
    assert info.value.lp_text.splitlines()[0].startswith("max ")


def test_seeded_chain_rows_stay_in_pool_and_tableau():
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
    pool = solver.pools[m - 1]
    # The chain rows are the pool's first rows, in chain order.
    assert pool.ids[: len(seeded)].tolist() == seeded
    assert pool.member[seeded].all() and live.in_tableau[seeded].all()
    # The masks agree with the id arrays they stand for.
    assert np.flatnonzero(pool.member).tolist() == sorted(pool.ids.tolist())
    quads = live.labels[live.labels >= 0]
    assert np.flatnonzero(live.in_tableau).tolist() == sorted(quads.tolist())


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
    # opponent 1 builds cold; opponent 2 starts from its optimum
    assert report.solver_stats["cold_builds"] == 1
    assert report.solver_stats["opponent_swaps"] == 1
    assert report.solver_stats["primal_pivots"] > 0
    for stats in (
        report.solver_stats,
        fairness_det(0, profile).solver_stats,
        opt_det(profile).solver_stats,
        opt_rand(profile).solver_stats,
        fairness_rand(UNIFORM3, profile).solver_stats,
    ):
        assert set(stats) == set(SOLVER_STATS)
        assert stats["separation_rounds"] > 0
        assert stats["bland_switches"] == 0
        assert stats["pool_rows"] > 0
    # pool_rows is the level of the solver's pools, not a per-call count
    pools = _solver_for(profile).pools
    assert stats["pool_rows"] == sum(pool.ids.size for pool in pools.values())
    assert stats["pool_rows"] == sum(pool.member.sum() for pool in pools.values())


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
    # starts opponent 0's from the last of them
    assert reports[1].solver_stats["cold_builds"] == 0


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

    # The solver stays usable: its pools survive, and the next call agrees
    # with a fresh solver.
    monkeypatch.undo()
    value, _ = a_det(1, m - 1, profile)
    fresh, _ = a_det(1, m - 1, PreferenceProfile(profile.rankings))
    assert value == pytest.approx(fresh, rel=1e-9)


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
    # tableau to start from; the shared solver starts most opponents' tableaux
    # from another opponent's optimum.
    rng = np.random.default_rng(73)
    swaps = 0
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
        swaps += solver.stats["opponent_swaps"]
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
    assert swaps > 0


def test_failed_opponent_swap_builds_cold_with_the_same_values(monkeypatch):
    rng = np.random.default_rng(101)
    profiles = [random_profile(4, 4, rng) for _ in range(6)]
    swapped = [(dist_det(0, p), opt_det(p)) for p in profiles]

    def refuse(self, row):
        raise SolverFailure("new equation row vanishes at the basic solution")

    monkeypatch.setattr(linprog.Tableau, "replace_equation", refuse)
    for profile, (report, det) in zip(profiles, swapped):
        profile = PreferenceProfile(profile.rankings)
        cold = dist_det(0, profile)
        assert cold.solver_stats["opponent_swaps"] == 0
        assert report.solver_stats["opponent_swaps"] > 0
        finite = sum(math.isfinite(v) for v in cold.per_opponent.values())
        assert cold.solver_stats["cold_builds"] == finite
        for z, value in report.per_opponent.items():
            assert _close(value, cold.per_opponent[z]), z
        cold_det = opt_det(profile)
        assert cold_det.solver_stats["opponent_swaps"] == 0
        assert cold_det.winner == det.winner
        for c, z in itertools.permutations(range(4), 2):
            assert _close(det.matrix[c, z], cold_det.matrix[c, z]), (c, z)
        assert len(_solver_for(profile).live) <= profile.num_alternatives


def test_opponent_swap_then_cheapest_ignores_the_donor_objective():
    # Everyone ranks 0 first, so no chain leads into 0: the donor's objective,
    # on column 1, is unbounded once opponent 0 is normalized.
    profile = PreferenceProfile([[0, 1, 2], [0, 2, 1], [0, 1, 2]])
    poly = MetricPolytope(profile)
    solver = _PolytopeSolver(poly)
    solver.maximize(np.tile([0.0, 1.0, 0.0], 3), opponent=2, norm="=")
    objective = np.tile([1.0, 0.0, 0.0], 3)
    value, _ = solver.maximize(objective, opponent=0, norm="cheapest")
    assert solver.stats["opponent_swaps"] == 1
    assert solver.stats["cold_builds"] == 1
    fresh, _ = _PolytopeSolver(poly).maximize(objective, opponent=0, norm="cheapest")
    assert value == pytest.approx(fresh, rel=1e-9)


def test_retarget_from_a_top_k_donor_to_cheapest_on_a_new_opponent():
    # The donor holds generated k-subset rows, which carry rhs 1 like the
    # bound: they must leave before the new opponent's bound replaces it.
    profile = random_profile(5, 4, np.random.default_rng(103))
    poly = MetricPolytope(profile)
    solver = _PolytopeSolver(poly)
    m = poly.num_alternatives
    z, c = next(
        (z, c) for z in range(m) for c in range(m) if c != z and poly.reach[c, z]
    )
    objective = np.zeros(poly.num_metric_vars)
    for v in range(3):
        objective[poly.var(v, c)] = 1.0
    solver.maximize(objective, opponent=z, norm=3)
    live = solver.live[z]
    assert (live.labels <= _SUBSET).any()
    assert live.subsets.sum() == (live.labels <= _SUBSET).sum()

    new = next(o for o in range(m) if o != z and poly.reach[:, o].all())
    lottery = np.tile(np.full(m, 1 / m), poly.num_agents)
    before = dict(solver.stats)
    value, _ = solver.maximize(lottery, opponent=new, norm="cheapest")
    stats = solver.stats_since(before)
    assert stats["opponent_swaps"] == 1 and stats["norm_swaps"] == 0
    assert stats["cold_builds"] == stats["rebuilds"] == 0
    fresh, _ = _PolytopeSolver(poly).maximize(lottery, opponent=new, norm="cheapest")
    assert value == pytest.approx(fresh, rel=1e-9)


# ---------------------------------------------------------------------------
# Normalization swaps: one live tableau per opponent


def _assert_no_phase_one(solver):
    """Every live tableau has rhs >= 0, so each cold build starts from the slack
    basis; rhs 1 sits on the normalization's one bound row and on generated
    top-k rows alone."""
    for live in solver.live.values():
        rhs = live.tableau.rhs
        assert (rhs >= 0).all()
        assert live.labels.size == rhs.size
        labels = live.labels.tolist()
        bounds = [i for i, label in enumerate(labels) if rhs[i] and label > _SUBSET]
        assert len(bounds) == 1


def _norm_calls(poly, rng):
    """``(opponent, norm, objective)`` triples over every norm, there and back.

    Objectives weight only columns with a chain to the opponent, so every
    relaxation is bounded.
    """
    n, m = poly.num_agents, poly.num_alternatives
    norms = ["=", "cheapest"] + list(range(1, n + 1))
    calls = []
    for norm in norms + norms[::-1] + norms[1::2] + norms[::2]:
        z = int(rng.integers(m))
        sources = np.flatnonzero(poly.reach[:, z] & (np.arange(m) != z))
        if sources.size == 0:
            continue
        objective = np.zeros(poly.num_metric_vars)
        if isinstance(norm, str):
            x = np.zeros(m)
            x[sources] = rng.random(sources.size) + 0.1
            objective[:] = np.tile(x / x.sum(), n)
        else:
            c = int(rng.choice(sources))
            for v in rng.choice(n, size=norm, replace=False):
                objective[poly.var(int(v), c)] = 1.0
        calls.append((z, norm, objective))
    return calls


def test_interleaved_norms_match_fresh_solvers():
    rng = np.random.default_rng(79)
    swaps = 0
    for trial in range(8):
        profile = random_profile(3 + trial % 3, 3 + trial % 2, rng)
        poly = MetricPolytope(profile)
        solver = _PolytopeSolver(poly)
        for z, norm, objective in _norm_calls(poly, rng):
            value, _ = solver.maximize(objective, opponent=z, norm=norm)
            fresh, _ = _PolytopeSolver(poly).maximize(objective, opponent=z, norm=norm)
            assert value == pytest.approx(fresh, rel=1e-9), (trial, z, norm)
            assert len(solver.live) <= poly.num_alternatives
            _assert_no_phase_one(solver)
        assert solver.stats["cold_builds"] <= poly.num_alternatives
        swaps += solver.stats["norm_swaps"]
    assert swaps > 0


def test_optimize_sequence_builds_one_tableau_cold():
    # Every other opponent's tableau starts from another one's optimum, and
    # every norm, top-k included, swaps in place on it.
    for seed in (83, 89, 97):
        profile = random_profile(4, 4, np.random.default_rng(seed))
        solver = _solver_for(profile)
        det = opt_det(profile)
        reports = [det, opt_rand(profile), fairness_det(det.winner, profile)]
        cold = sum(r.solver_stats["cold_builds"] for r in reports)
        assert cold == 1, seed
        assert reports[1].solver_stats["norm_swaps"] > 0
        assert reports[2].solver_stats["norm_swaps"] > 0
        assert len(solver.live) <= profile.num_alternatives
        _assert_no_phase_one(solver)


def test_failed_removal_rebuilds_the_swapped_program_cold(monkeypatch):
    profile = warmup_instance().profile
    solver = _solver_for(profile)
    separation_oracle(UNIFORM3, 2.0, profile)  # "cheapest" tableaux
    builds = solver.stats["cold_builds"]

    def refuse(self, indices):
        raise SolverFailure("slack has no pivot in a row that stays")

    monkeypatch.setattr(linprog.Tableau, "remove_rows", refuse)
    value, _ = a_det(0, 2, profile)  # "=" on opponent 2 swaps in place
    assert solver.stats["rebuilds"] == 1
    assert solver.stats["cold_builds"] == builds + 1
    assert solver.live[2].norm == "="
    monkeypatch.undo()
    fresh, _ = a_det(0, 2, PreferenceProfile(profile.rankings))
    assert value == pytest.approx(fresh, rel=1e-9)


def test_swap_that_raises_leaves_no_tableau(monkeypatch):
    profile = warmup_instance().profile
    a_det(0, 2, profile)  # leaves the "=" tableau of opponent 2
    solver = _solver_for(profile)
    assert 2 in solver.live

    def broken(*args, **kwargs):
        raise SolverFailure("pivot loop broken on purpose")

    monkeypatch.setattr(linprog, "_pivot_loop", broken)
    objective = np.tile(UNIFORM3, profile.num_agents)
    with pytest.raises(SolverFailure):
        solver.maximize(objective, opponent=2, norm="cheapest")
    assert 2 not in solver.live
    monkeypatch.undo()
    value, _ = solver.maximize(objective, opponent=2, norm="cheapest")
    poly = MetricPolytope(profile)
    fresh, _ = _PolytopeSolver(poly).maximize(objective, opponent=2, norm="cheapest")
    assert value == pytest.approx(fresh, rel=1e-9)
