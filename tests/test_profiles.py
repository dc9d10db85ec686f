import copy

import numpy as np
import pytest

from metricdist.metricspace import (
    is_consistent,
    is_q_metric,
    random_line_metric,
    social_cost,
)
from metricdist.profiles import (
    PreferenceProfile,
    ProfileParseError,
    coupling_instance,
    line_split_instance,
    parse_cost_matrix,
    parse_profile,
    percentile_gap_instance,
    random_line_instance,
    random_profile,
    ranked_pairs_hard_instance,
    serialize_cost_matrix,
    serialize_profile,
    symmetric_tournament_instance,
    top_choice_counts,
    warmup_instance,
)

WARMUP_TEXT = "3 3\n1 2 3\n2 3 1\n3 1 2\n"


def test_parse_warmup_text():
    profile = parse_profile(WARMUP_TEXT)
    assert profile == warmup_instance().profile


def test_parse_single_agent_single_alternative():
    profile = parse_profile("1 1\n1\n")
    assert profile.num_agents == 1
    assert profile.num_alternatives == 1


def test_parse_accepts_comments_and_bytes():
    text = "# a comment\n3 3\n# another\n1 2 3\n2 3 1\n3 1 2\n"
    assert parse_profile(text) == parse_profile(WARMUP_TEXT)
    assert parse_profile(WARMUP_TEXT.encode()) == parse_profile(WARMUP_TEXT)


def test_parse_rejects_non_permutation_with_row_number():
    with pytest.raises(ProfileParseError, match="row 1"):
        parse_profile("2 2\n1 1\n2 1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ProfileParseError, match="line 1"):
        parse_profile("nonsense header\n")
    with pytest.raises(ProfileParseError, match="line 3"):
        parse_profile("2 2\n1 2\n2 x\n")
    with pytest.raises(ProfileParseError, match="ranking rows"):
        parse_profile("3 2\n1 2\n2 1\n")
    with pytest.raises(ProfileParseError):
        parse_profile("")


def test_profile_roundtrip_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        profile = random_profile(int(rng.integers(1, 8)), int(rng.integers(1, 6)), rng)
        assert parse_profile(serialize_profile(profile)) == profile
    assert serialize_profile(parse_profile(WARMUP_TEXT)) == WARMUP_TEXT


def test_cost_matrix_roundtrip_is_bit_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        twin = copy.deepcopy(rng)
        d = random_line_instance(n, m, rng).metric
        again = parse_cost_matrix(serialize_cost_matrix(d))
        assert np.array_equal(again.values, d.values)
        # the instance's costs are the line metric of the same draws
        assert np.array_equal(d.values, random_line_metric(n, m, twin).values)


def test_top_choice_counts():
    assert top_choice_counts(warmup_instance().profile).tolist() == [1, 1, 1]
    unanimous = PreferenceProfile([[0, 1]] * 4)
    assert top_choice_counts(unanimous).tolist() == [4, 0]
    counts = top_choice_counts(symmetric_tournament_instance(2).profile)
    assert counts.tolist() == [2, 1, 1]


def test_warmup_fixture_values():
    inst = warmup_instance()
    assert inst.metric.values[1].tolist() == [3.0, 1.0, 1.0]
    assert social_cost(inst.metric, 2) == 2.0
    assert is_q_metric(inst.metric)[0] and is_consistent(inst.metric, inst.profile)[0]


@pytest.mark.parametrize("n,expected", [(3, 35 / 11), (1, 13 / 5)])
def test_coupling_ratio(n, expected):
    inst = coupling_instance(n)
    ratio = social_cost(inst.metric, 0) / social_cost(inst.metric, 4)
    assert ratio == pytest.approx(expected)
    assert ratio == pytest.approx((11 * n + 2) / (3 * n + 2))


def test_coupling_validates_any_n():
    for n in (1, 2, 7):
        inst = coupling_instance(n)
        assert inst.profile.num_agents == 3 * n + 1
        assert inst.profile.num_alternatives == 5


def test_ranked_pairs_hard_fixture():
    inst = ranked_pairs_hard_instance(2)
    d = inst.metric
    assert social_cost(d, 0) == 14.0
    assert social_cost(d, 4) == 6.0
    # agent index 3 is the second rotated agent; alternative index 2 is the third
    assert d.values[3, 2] == 3.0
    for n in (2, 3, 7, 12):
        inst = ranked_pairs_hard_instance(n)
        assert inst.profile.num_agents == n + 2
        assert inst.profile.num_alternatives == 2 * n + 1
        assert social_cost(inst.metric, 0) == 5 * n + 4
        assert social_cost(inst.metric, 2 * n) == n + 4


def test_symmetric_tournament_column_sums():
    for m in (2, 3, 5):
        inst = symmetric_tournament_instance(m)
        sums = inst.metric.values.sum(axis=0)
        assert sums[0] == m
        assert (sums[1:] == 3 * m).all()


def test_percentile_gap_and_line_split_validation():
    from metricdist.metricspace import percentile_cost

    inst = percentile_gap_instance(3, 0.01)
    assert inst.profile.num_agents == 6
    ratio = percentile_cost(inst.metric, 0, 0.25) / percentile_cost(inst.metric, 1, 0.25)
    assert ratio == pytest.approx(100.0)
    with pytest.raises(ValueError):
        percentile_gap_instance(2, 1.5)
    with pytest.raises(ValueError):
        percentile_gap_instance(0, 0.5)
    inst = line_split_instance(4, 2)
    assert top_choice_counts(inst.profile).tolist() == [4, 2]
    with pytest.raises(ValueError):
        line_split_instance(1, 2)


def test_generators_always_produce_valid_pairs():
    rng = np.random.default_rng(9)
    instances = [
        warmup_instance(),
        coupling_instance(4),
        ranked_pairs_hard_instance(3),
        symmetric_tournament_instance(4),
        percentile_gap_instance(2, 0.25),
        line_split_instance(5, 2),
        random_line_instance(5, 4, rng),
    ]
    for inst in instances:
        assert is_q_metric(inst.metric)[0]
        assert is_consistent(inst.metric, inst.profile)[0]


def test_profile_rejects_non_permutation():
    with pytest.raises(ValueError):
        PreferenceProfile([[0, 0]])
