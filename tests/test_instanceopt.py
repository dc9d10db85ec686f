import math

import numpy as np
import pytest

from metricdist import instanceopt
from metricdist.distortion import SOLVER_STATS, dist_det, dist_rand
from metricdist.instanceopt import (
    CuttingPlaneState,
    _lottery_game,
    candidate_response_value,
    opt_det,
    opt_rand,
    separation_oracle,
)
from metricdist.profiles import (
    PreferenceProfile,
    parse_profile,
    random_profile,
    ranked_pairs_hard_instance,
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
    real_a_det = instanceopt.a_det

    def shaved(c, opponent, profile):
        value, witness = real_a_det(c, opponent, profile)
        if (c, opponent) == (1, 0):
            value = np.nextafter(value, 0.0)
        return value, witness

    monkeypatch.setattr(instanceopt, "a_det", shaved)
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


def test_opt_rand_modes_agree():
    rng = np.random.default_rng(23)
    for _ in range(3):
        profile = random_profile(int(rng.integers(2, 5)), int(rng.integers(2, 4)), rng)
        master = opt_rand(profile, eps=1e-4)
        bisect = opt_rand(profile, eps=1e-4, binary_search=True)
        assert abs(master.value - bisect.value) <= 2e-4


def test_opt_rand_master_skips_round_off_on_blocked_columns():
    # Alternative 0 is ranked last by everyone, so the master blocks it; the
    # next master solution used to carry ~1e-17 there and loop to the cut cap.
    profile = parse_profile("4 4\n2 4 3 1\n2 4 3 1\n4 3 2 1\n3 2 4 1\n")
    eps = 1e-4
    master = opt_rand(profile, eps=eps)
    bisect = opt_rand(profile, eps=eps, binary_search=True)
    assert master.x[0] == 0.0
    assert master.value == pytest.approx(1.909, abs=1e-3)
    assert abs(master.value - bisect.value) <= 2 * eps


def test_opt_rand_carries_solver_stats():
    for binary_search in (False, True):
        # a fresh profile per mode, so that neither finds the other's tableaux
        result = opt_rand(warmup_instance().profile, binary_search=binary_search)
        assert set(result.solver_stats) == set(SOLVER_STATS)
        assert result.solver_stats["cold_builds"] >= 1
        assert result.solver_stats["primal_pivots"] > 0


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
    # skip the seeded uniform cut at index 0
    for sums, witness, violation in result.state.cuts[1:]:
        assert violation > 1e-4 / 2
        assert np.allclose(witness.values.sum(axis=0), sums)
        assert (sums >= 1.0 - 1e-7).all()


def test_state_summary_smoke():
    state = CuttingPlaneState(eps=1e-4, mode="master")
    assert "mode=master" in state.summary()


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
