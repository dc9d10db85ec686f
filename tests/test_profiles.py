import copy
import re

import numpy as np
import pytest

from metricdist import profiles
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


# ---------------------------------------------------------------------------
# The vectorized parse against the line loop


def _parse_outcome(parse, text):
    """What a parser makes of ``text``: the profile's arrays or its error."""
    try:
        profile = parse(text)
    except ProfileParseError as exc:
        return ("error", str(exc), exc.line)
    except ValueError as exc:  # e.g. bytes that are not UTF-8
        return ("error", type(exc).__name__, str(exc))
    return (
        "profile",
        profile.rankings.dtype.str,
        profile.rankings.tolist(),
        profile.positions.dtype.str,
        profile.positions.tolist(),
    )


def _assert_paths_agree(text):
    """Both paths accept the text with identical arrays, or it takes the loop.

    Returns whether the vectorized path accepted the text.
    """
    expected = _parse_outcome(profiles._parse_profile_lines, text)
    assert _parse_outcome(parse_profile, text) == expected, repr(text)
    fast = profiles._parse_profile_vectorized(text)
    if fast is not None:
        assert _parse_outcome(lambda _: fast, text) == expected, repr(text)
    return fast is not None


def _rows(text):
    return text.split("\n")


def _set_token(text, row, col, token):
    lines = _rows(text)
    tokens = lines[row].split(" ")
    tokens[col] = token
    lines[row] = " ".join(tokens)
    return "\n".join(lines)


def _short_then_long(text):
    # Move the last entry of row 1 to the end of row 2: the token total still
    # equals N * M, so only per-line counts can catch it.
    lines = _rows(text)
    head, _, last = lines[1].rpartition(" ")
    lines[1] = head
    lines[2] += " " + last
    return "\n".join(lines)


PARSE_MUTATIONS = {
    "comment": lambda t: "# generated\n" + t,
    "blank lines": lambda t: "\n \n" + t.replace("\n", "\n\t\n", 1) + "  \n\n",
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "tabs": lambda t: t.replace(" ", "\t"),
    "leading zeros": lambda t: re.sub(r"(\d+)", r"00\1", t),
    "no final newline": lambda t: t.rstrip("\n"),
    "overflow entry": lambda t: _set_token(t, 1, 0, "18446744073709551618"),
    "overflow header": lambda t: _set_token(t, 0, 0, "18446744073709551618"),
    "short then long row": _short_then_long,
    "wrong n": lambda t: _set_token(t, 0, 0, str(int(t.split()[0]) + 1)),
    "three-token header": lambda t: t.replace("\n", " 1\n", 1),
    "duplicate entry": lambda t: _set_token(t, 1, -1, _rows(t)[1].split(" ")[0]),
    "zero entry": lambda t: _set_token(t, 1, 0, "0"),
    "plus sign": lambda t: _set_token(t, 1, 0, "+" + _rows(t)[1].split(" ")[0]),
    "underscore": lambda t: _set_token(t, 1, 0, "1_0"),
    "non-ascii digit": lambda t: t.replace("1", "١"),
    "bytes": lambda t: t.encode("utf-8"),
    "bad utf-8": lambda t: t.encode("utf-8") + b"\xff",
}


def test_vectorized_parse_agrees_with_line_loop_on_random_texts():
    rng = np.random.default_rng(41)
    accepted = 0
    for _ in range(60):
        profile = random_profile(int(rng.integers(1, 7)), int(rng.integers(1, 12)), rng)
        text = serialize_profile(profile)
        assert profiles._parse_profile_vectorized(text) == profile
        accepted += _assert_paths_agree(text)
        for name, mutate in PARSE_MUTATIONS.items():
            if name == "short then long row" and profile.num_agents < 2:
                continue
            accepted += _assert_paths_agree(mutate(text))
    # Plain mutations (blank lines, tabs, leading zeros, bytes) stay vectorized.
    assert accepted > 5 * 60


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n \n",
        "1\n",
        "1 1\n",
        "1 1\n1\n",
        "0 3\n",
        "1 0\n\n",
        "2 2\n1 2\n",
        "2 2\n1 2\n2 1\n1 2\n",
        "2 2\n1\n2 1 2\n",
        "1 2\n1 2 3\n",
        "1 3\n3 1 2\n",
        "1 3 1\n3 1 2\n",
        "1 2\n2 18446744073709551618\n",
        "1 2\n1 2",
        "   1    2   \n\t2\t1\t\n",
        "01 02\n002 0001\n",
        "1 10\n10 9 8 7 6 5 4 3 2 1\n",
        "1 10\n1_0 9 8 7 6 5 4 3 2 1\n",
        "1 2\n+1 2\n",
        "1 2\n-1 2\n",
        "1 2\n1.0 2\n",
        "1 2\n1 2\x0c\n",
        b"1 2\n2 1\n",
        b"1 2\n2 1\n\xff",
    ],
)
def test_vectorized_parse_agrees_with_line_loop_on_edge_texts(text):
    _assert_paths_agree(text)


def test_profile_constructor_matches_argsort_and_first_bad_agent():
    rng = np.random.default_rng(43)
    for _ in range(40):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        rankings = np.argsort(rng.random((n, m)), axis=1)
        profile = PreferenceProfile(rankings)
        expected = np.argsort(rankings, axis=1)
        assert profile.positions.dtype == expected.dtype
        assert np.array_equal(profile.positions, expected)
        if m < 2:
            continue
        bad = rankings.copy()
        agents = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        bad[agents, 0] = bad[agents, 1]
        first = int(agents.min())
        with pytest.raises(ValueError, match=rf"^agent {first + 1}: .* of 1\.\.{m}$"):
            PreferenceProfile(bad)
        bad[agents, 0] = m
        with pytest.raises(ValueError, match=rf"^agent {first + 1}: "):
            PreferenceProfile(bad)
