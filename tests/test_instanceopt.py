import math

import numpy as np
import pytest

from metricdist import distortion, instanceopt
from metricdist.distortion import SOLVER_STATS, dist_det, dist_rand
from metricdist.instanceopt import (
    CuttingPlaneState,
    _lottery_game,
    candidate_response_value,
    opt_det,
    opt_rand,
    separation_oracle,
)
from metricdist.linprog import LpOutcome, LpStatus, SolverFailure
from metricdist.profiles import (
    PreferenceProfile,
    parse_profile,
    random_profile,
    ranked_pairs_hard_instance,
    serialize_profile,
    warmup_instance,
)
from metricdist.rules import randomized_dictatorship, ranked_pairs

from oracles import brute_force_lp_best

UNANIMOUS = PreferenceProfile([[1, 0, 2]] * 3)


def test_opt_det_warmup():
    result = opt_det(warmup_instance().profile)
    assert result.winner == 0
    assert result.value == pytest.approx(3.0, abs=1e-6)
    # the cyclic symmetry makes every row max equal
    row_max = result.matrix.max(axis=1)
    assert np.allclose(row_max, 3.0, atol=1e-6)
    assert np.allclose(np.diag(result.matrix), 1.0)


def test_opt_det_unanimous():
    result = opt_det(UNANIMOUS)
    assert result.winner == 1
    assert result.value == pytest.approx(1.0, abs=1e-6)
    # non-winners are unboundedly bad against the unanimous favourite
    assert math.isinf(result.matrix[0, 1])


def test_opt_det_ties_break_toward_smallest_index(monkeypatch):
    # Warm-up row maxima are all exactly 3; shave one ulp off row 1's only
    # maximal entry. Rounding of that size is LP noise, not a better winner.
    real_dist_det = instanceopt.dist_det

    def shaved(c, profile):
        report = real_dist_det(c, profile)
        if c == 1:
            report.per_opponent[0] = np.nextafter(report.per_opponent[0], 0.0)
        return report

    monkeypatch.setattr(instanceopt, "dist_det", shaved)
    result = opt_det(warmup_instance().profile)
    assert result.matrix.max(axis=1)[1] < 3.0
    assert result.winner == 0
    assert result.value == pytest.approx(3.0, abs=1e-6)


def test_opt_det_below_ranked_pairs():
    profile = ranked_pairs_hard_instance(2).profile
    winner = ranked_pairs(profile).winner
    rp_value = dist_det(winner, profile).value
    result = opt_det(profile)
    assert result.value <= rp_value + 1e-6


def test_separation_oracle_warmup_uniform_feasible_at_2():
    profile = warmup_instance().profile
    verdict = separation_oracle(np.full(3, 1 / 3), 2.0, profile)
    assert verdict.feasible
    assert verdict.value == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("x", [[1.5, -0.5, 0.0], [0.2, 0.2, 0.2], [0.5, 0.5]])
def test_separation_oracle_rejects_a_point_that_is_no_lottery(x):
    with pytest.raises(ValueError, match="probability vector"):
        separation_oracle(x, 2.0, warmup_instance().profile)


def test_separation_oracle_refuses_a_nan_budget():
    with pytest.raises(ValueError, match="gamma"):
        separation_oracle(np.full(3, 1 / 3), math.nan, warmup_instance().profile)


@pytest.mark.parametrize("viol_tol", [math.nan, math.inf, -1e-9])
def test_separation_oracle_refuses_a_violation_tolerance_not_finite_and_nonnegative(
    viol_tol,
):
    with pytest.raises(ValueError, match="viol_tol"):
        separation_oracle(
            np.full(3, 1 / 3), 2.0, warmup_instance().profile, viol_tol=viol_tol
        )


def test_separation_oracle_point_mass_violated():
    profile = warmup_instance().profile
    verdict = separation_oracle(np.array([1.0, 0.0, 0.0]), 2.5, profile)
    assert not verdict.feasible
    assert verdict.value == pytest.approx(3.0, abs=1e-6)
    assert verdict.witness is not None
    # the cut is a genuine normalized consistent metric: every column sum >= 1,
    # the opponent's exactly 1
    sums = verdict.witness.values.sum(axis=0)
    assert sums[verdict.opponent] == pytest.approx(1.0, abs=1e-6)
    assert (sums >= 1.0 - 1e-7).all()


def test_opt_rand_warmup_uniform_value_2():
    result = opt_rand(warmup_instance().profile)
    assert result.value == pytest.approx(2.0, abs=1e-3)
    assert np.allclose(result.x, 1 / 3, atol=1e-3)
    assert result.state.master_values == sorted(result.state.master_values)


@pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf])
def test_opt_rand_rejects_an_eps_that_is_not_positive_and_finite(eps):
    with pytest.raises(ValueError, match="eps"):
        opt_rand(warmup_instance().profile, eps=eps)


def test_opt_rand_single_alternative():
    result = opt_rand(PreferenceProfile([[0], [0]]))
    assert result.value == 1.0
    assert result.x.tolist() == [1.0]


def test_opt_rand_unanimous_blocks_bad_columns():
    result = opt_rand(UNANIMOUS)
    assert result.value == pytest.approx(1.0, abs=1e-3)
    assert result.x[1] == pytest.approx(1.0, abs=1e-6)


def _assert_bracketed(result, eps):
    # The last master value is a lower bound on the optimum, up to round-off;
    # the oracle certified the lottery within eps / 2 of it.
    lower = result.state.master_values[-1]
    assert lower * (1 - 1e-9) <= result.value <= lower + eps / 2


def test_opt_rand_value_lies_in_its_master_bracket():
    rng = np.random.default_rng(23)
    eps = 1e-4
    for _ in range(6):
        profile = random_profile(int(rng.integers(2, 5)), int(rng.integers(2, 4)), rng)
        result = opt_rand(profile, eps=eps)
        _assert_bracketed(result, eps)
        # No lottery beats the lower bound: not the point masses, not the
        # uniform one, not the optimum itself.
        m = profile.num_alternatives
        lower = result.state.master_values[-1]
        for y in [*np.eye(m), np.full(m, 1 / m), result.x]:
            assert dist_rand(y, profile).value >= lower * (1 - 1e-9)


def test_opt_rand_master_skips_round_off_on_blocked_columns():
    # Alternative 0 is ranked last by everyone, so no chain leads from it to
    # the others and the master never weights it. A master over every
    # column, which blocked it only after an oracle verdict, used to carry
    # ~1e-17 there and loop to the cut cap.
    profile = parse_profile("4 4\n2 4 3 1\n2 4 3 1\n4 3 2 1\n3 2 4 1\n")
    eps = 1e-4
    result = opt_rand(profile, eps=eps)
    assert result.x[0] == 0.0
    assert result.value == pytest.approx(1.909, abs=1e-3)
    _assert_bracketed(result, eps)


def test_opt_rand_lottery_carries_no_round_off_mass():
    # Entries of the master LP's optimum at round-off level are exactly 0 in
    # the lottery. opt_det first fills the solver's stored optima, the start
    # under which about one profile in eight of these held an entry near 1e-17.
    rng = np.random.default_rng(1)
    for _ in range(40):
        n, m = int(rng.integers(3, 6)), int(rng.integers(3, 5))
        profile = random_profile(n, m, rng)
        opt_det(profile)
        x = opt_rand(profile).x
        assert not ((x > 0) & (x <= 1e-9)).any(), (serialize_profile(profile), x)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_opt_rand_carries_solver_stats():
    result = opt_rand(warmup_instance().profile)
    assert set(result.solver_stats) == set(SOLVER_STATS)
    assert result.solver_stats["cold_builds"] >= 1
    assert result.solver_stats["primal_pivots"] > 0
    trivial = opt_rand(PreferenceProfile([[0], [0]]))
    assert trivial.state.iterations == 0
    assert trivial.state.master_values == [trivial.value]


def test_opt_rand_x_feeds_dist_rand():
    profile = warmup_instance().profile
    result = opt_rand(profile)
    report = dist_rand(result.x, profile)
    assert report.value == pytest.approx(result.value, abs=1e-6)


def test_opt_rand_self_consistency():
    profile = warmup_instance().profile
    result = opt_rand(profile, eps=1e-4)
    verdict = separation_oracle(result.x, result.value + 2e-4, profile)
    assert verdict.feasible


def test_optimality_ordering_random_instances():
    rng = np.random.default_rng(29)
    eps = 1e-4
    for _ in range(3):
        profile = random_profile(int(rng.integers(2, 5)), int(rng.integers(2, 4)), rng)
        det = opt_det(profile)
        rand = opt_rand(profile, eps=eps)
        rd = dist_rand(randomized_dictatorship(profile).distribution, profile)
        assert rand.value <= det.value + eps
        assert rand.value <= rd.value + eps
        x_resp, v_resp = candidate_response_value(profile, matrix=det.matrix)
        assert v_resp >= rand.value - 2 * eps


def test_candidate_response_trivial_cases():
    assert candidate_response_value(PreferenceProfile([[0]]))[1] == 1.0
    x, value = candidate_response_value(UNANIMOUS)
    assert value == pytest.approx(1.0, abs=1e-6)
    assert x[1] == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (9,)])
def test_candidate_response_rejects_a_matrix_that_is_not_m_by_m(shape):
    with pytest.raises(ValueError, match="3 x 3"):
        candidate_response_value(warmup_instance().profile, matrix=np.ones(shape))


@pytest.mark.parametrize("bad", [math.nan, 0.0, -2.0, -math.inf])
def test_candidate_response_rejects_a_nan_or_nonpositive_entry(bad):
    matrix = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
    matrix[0, 2] = bad
    with pytest.raises(ValueError, match="positive"):
        candidate_response_value(warmup_instance().profile, matrix=matrix)


def test_candidate_response_skips_rows_marked_infinite():
    matrix = np.array([[1.0, 2.0, math.inf], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
    x, value = candidate_response_value(warmup_instance().profile, matrix=matrix)
    assert x[0] == 0.0
    assert value == pytest.approx(2.0)


def test_candidate_response_vs_opt_rand_warmup():
    profile = warmup_instance().profile
    _, v_resp = candidate_response_value(profile)
    rand = opt_rand(profile)
    assert v_resp >= rand.value - 2e-4


def test_oracle_feasible_at_budget_3_for_top_choice_lottery():
    # The top-choice lottery never exceeds budget 3, so the oracle certifies
    # it on every instance.
    rng = np.random.default_rng(37)
    for _ in range(6):
        profile = random_profile(int(rng.integers(1, 6)), int(rng.integers(2, 5)), rng)
        x = randomized_dictatorship(profile).distribution
        verdict = separation_oracle(x, 3.0, profile, viol_tol=1e-6)
        assert verdict.feasible
        assert verdict.value <= 3.0 + 1e-6


def test_oracle_cut_invariant_every_stored_cut_was_violated():
    profile = warmup_instance().profile
    result = opt_rand(profile, eps=1e-4)
    # skip the uniform cut at index 0 and the stored optima after it
    for sums, witness, violation in result.state.cuts[1 + result.state.seeded :]:
        assert violation > 1e-4 / 2
        assert np.allclose(witness.values.sum(axis=0), sums)
        assert (sums >= 1.0 - 1e-7).all()


def test_state_summary_smoke():
    state = CuttingPlaneState(eps=1e-4, master_values=[1.5])
    assert "iterations=0" in state.summary()
    assert "seeded=0" in state.summary()
    assert "master_values=[1.5]" in state.summary()


def test_lottery_game_matches_the_epigraph_program():
    # The min-max game written directly: minimize t over the simplex on
    # ``columns`` with every row of ``payoffs @ x`` at most t.
    rng = np.random.default_rng(41)
    for _ in range(60):
        rows, m = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        payoffs = rng.uniform(1.0, 6.0, (rows, m))
        k = int(rng.integers(1, m + 1))
        columns = sorted(rng.choice(m, size=k, replace=False).tolist())
        A_ub = np.hstack([payoffs[:, columns], -np.ones((rows, 1))])
        objective = np.zeros(k + 1)
        objective[k] = 1.0
        simplex_row = np.concatenate([np.ones(k), [0.0]])
        reference, _ = brute_force_lp_best(
            objective, A_ub, np.zeros(rows), [simplex_row], [1.0], sense="min"
        )
        assert reference is not None

        x, value = _lottery_game(payoffs, columns)
        assert value == pytest.approx(reference, rel=1e-12)
        assert (x >= 0).all() and x.sum() == pytest.approx(1.0, rel=1e-12)
        off = np.setdiff1d(np.arange(m), columns)
        assert (x[off] == 0.0).all()
        assert (payoffs @ x).max() == pytest.approx(value, rel=1e-12)


def test_opt_rand_raises_at_its_cut_cap_with_the_state(monkeypatch):
    # A fresh profile: its solver holds no optimum to seed the cutting plane.
    monkeypatch.setattr(instanceopt, "_MAX_CUTS", 1)
    profile = random_profile(4, 4, np.random.default_rng(3))
    with pytest.raises(instanceopt.ConvergenceError) as info:
        opt_rand(profile)
    state = info.value.state
    assert state.iterations == 1 and state.seeded == 0
    message = str(info.value)
    assert message.startswith("cut cap exceeded\niterations=1 ")
    assert f"master_values={[round(float(state.master_values[0]), 6)]}" in message
    assert "np.float64" not in message


@pytest.mark.parametrize("how", ["raises", "unbounded"])
def test_failed_lottery_game_carries_its_lp(monkeypatch, how):
    def broken(lp):
        if how == "raises":
            raise SolverFailure("pivot loop broken on purpose")
        return LpOutcome(status=LpStatus.UNBOUNDED)

    monkeypatch.setattr(instanceopt, "solve", broken)
    payoffs = np.array([[1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(SolverFailure, match="lottery-game LP") as info:
        _lottery_game(payoffs, [0, 1])
    lines = info.value.lp_text.splitlines()
    assert lines[0].startswith("max ")
    assert sum(line.endswith(" <= 1.0") for line in lines[1:]) == 2


def test_separation_oracle_reads_dist_rand_with_an_opponent_cheapest_witness():
    # The oracle bounds each opponent's total cost alone; its largest value
    # is dist_rand, and the worst opponent is its witness's cheapest column,
    # so every cut pays at least 1.
    rng = np.random.default_rng(139)
    witnesses = 0
    for _ in range(25):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        profile = random_profile(n, m, rng)
        x = randomized_dictatorship(profile).distribution
        verdict = separation_oracle(x, 1.0, profile)
        value = dist_rand(x, profile).value
        if math.isinf(value):
            assert math.isinf(verdict.value)
            continue
        assert verdict.value == pytest.approx(value, rel=1e-9)
        if not verdict.feasible:
            sums = verdict.witness.values.sum(axis=0)
            assert sums.min() >= sums[verdict.opponent] - 1e-9
            witnesses += 1
        result = opt_rand(profile)
        seeded = 1 + result.state.seeded  # the uniform cut and the stored optima
        for sums, _, _ in result.state.cuts[:1] + result.state.cuts[seeded:]:
            assert sums.min() >= 1 - 1e-9
        # A stored optimum pays its opponent 1 but may pay another less;
        # its cut still bounds every lottery's worst ratio from below.
        for sums, _, _ in result.state.cuts[1:seeded]:
            assert sums.min() >= 0.0
            assert sums @ result.x <= result.value * (1 + 1e-9)
    assert witnesses > 0


@pytest.mark.parametrize(
    ("name", "opponent"), [("opt_det", 1), ("dist_det", 0), ("separation_oracle", 0)]
)
def test_row_generation_failure_names_its_opponent_and_k(monkeypatch, name, opponent):
    def broken(lp, **tolerances):
        raise SolverFailure("pivot loop broken on purpose")

    calls = {
        "opt_det": opt_det,
        "dist_det": lambda profile: dist_det(2, profile),
        "separation_oracle": lambda profile: separation_oracle(
            np.full(3, 1 / 3), 2.0, profile
        ),
    }
    monkeypatch.setattr(distortion, "Tableau", broken)
    # A new profile object holds no live tableau, so the first LP is a cold build.
    profile = warmup_instance().profile
    with pytest.raises(SolverFailure) as info:
        calls[name](profile)
    message = str(info.value)
    assert message.startswith(f"opponent {opponent} (0-based), k = 3: cold solve failed")
    assert "broken on purpose" in message
    assert info.value.lp_text.splitlines()[0].startswith("max ")
    assert info.value.profile_text == serialize_profile(profile)


def _stored_optima(profile):
    """The solver's stored k = N optima of ``profile``, in insertion order."""
    return list(distortion._solver_for(profile).optima.values())


def test_opt_rand_after_opt_det_starts_from_its_optima():
    rng = np.random.default_rng(173)
    eps = 1e-4
    seeded = 0
    for trial in range(24):
        n, m = int(rng.integers(3, 6)), int(rng.integers(3, 5))
        rankings = random_profile(n, m, rng).rankings
        profile = PreferenceProfile(rankings)
        det = opt_det(profile)
        stored = _stored_optima(profile)
        assert len(stored) == np.isfinite(det.matrix).sum() - m, trial
        warm = opt_rand(profile, eps=eps)
        state = warm.state
        assert state.seeded == len(stored)
        assert [cut[0].tolist() for cut in state.cuts[1 : 1 + state.seeded]] == [
            metric.sum(axis=0).tolist() for _, metric in stored
        ]
        assert all(cut[2] == 0.0 for cut in state.cuts[: 1 + state.seeded])
        _assert_bracketed(warm, eps)
        fresh = opt_rand(PreferenceProfile(rankings), eps=eps)
        assert fresh.state.seeded == 0
        assert abs(warm.value - fresh.value) <= eps / 2 + 1e-9, trial
        assert state.iterations <= fresh.state.iterations, trial
        seeded += state.seeded
    assert seeded > 0


def test_optimize_sequence_reads_fairness_at_k_n_from_opt_det():
    # The benchmark's optimize request on one fixed 4 x 4 profile: fairness
    # at k = N repeats the winner's row of opt_det's table, M - 1 LPs.
    profile = parse_profile("4 4\n1 2 3 4\n2 3 4 1\n3 1 2 4\n4 2 1 3\n")
    m = profile.num_alternatives
    det = opt_det(profile)
    opt_rand(profile)
    candidate_response_value(profile, matrix=det.matrix)
    fairness = distortion.fairness_det(det.winner, profile)
    assert fairness.solver_stats["reused"] >= m - 1
    assert distortion._solver_for(profile).stats["reused"] >= m - 1
    assert fairness.per_k[4] == det.value
