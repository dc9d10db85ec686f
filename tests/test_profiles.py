import copy
import re
import tracemalloc

import numpy as np
import pytest

from metricdist import profiles
from metricdist.metricspace import (
    CostMatrix,
    is_consistent,
    is_q_metric,
    random_line_metric,
    social_cost,
)
from metricdist.profiles import (
    LabeledInstance,
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
from metricdist.tournament import build_weighted

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


def _serialize_entrywise(profile):
    """One ``str`` call per entry: the plain form the serializer must reproduce."""
    lines = [f"{profile.num_agents} {profile.num_alternatives}"]
    for row in profile.rankings:
        lines.append(" ".join(str(int(x) + 1) for x in row))
    return "\n".join(lines) + "\n"


def test_serialize_profile_matches_the_entrywise_form():
    rng = np.random.default_rng(61)
    shapes = [(1, 1), (1, 12), (12, 1), (3, 100), (2, 1001)]
    shapes += [(int(rng.integers(1, 40)), int(rng.integers(1, 120))) for _ in range(20)]
    for n, m in shapes:
        profile = PreferenceProfile(np.argsort(rng.random((n, m)), axis=1))
        assert serialize_profile(profile) == _serialize_entrywise(profile)


def test_serialize_profile_parses_back_at_scale():
    rankings = np.argsort(np.random.default_rng(67).random((16000, 30)), axis=1)
    profile = PreferenceProfile(rankings)
    assert parse_profile(serialize_profile(profile)) == profile


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


@pytest.mark.parametrize(
    "rankings, costs, message",
    [
        ([[0, 1], [1, 0]], [[0.0, 1.0]], "metric dimensions do not match the profile"),
        (
            [[1, 0], [0, 1]],
            [[10.0, 0.0], [0.0, 0.0]],
            "metric violates the quadrilateral inequality at (0, 1, 0, 1)",
        ),
        (
            [[0, 1], [0, 1]],
            [[1.0, 0.0], [1.0, 0.0]],
            "metric is inconsistent with the profile at (0, 0, 1)",
        ),
    ],
)
def test_labeled_instance_checks_its_metric(rankings, costs, message):
    with pytest.raises(ValueError) as exc:
        LabeledInstance(PreferenceProfile(rankings), CostMatrix(costs))
    assert str(exc.value) == message


def test_profile_rejects_non_permutation():
    with pytest.raises(ValueError):
        PreferenceProfile([[0, 0]])


@pytest.mark.parametrize(
    "order",
    [[0, 0, 0], [1], [-1, 0], [0, 0], [1, 2], [1.0, 0.0], [True, False], [[1, 0]], []],
)
def test_with_agents_permuted_rejects_anything_but_a_permutation(order):
    profile = PreferenceProfile([[0, 1, 2], [2, 1, 0]])
    with pytest.raises(ValueError, match=r"^order must be a permutation of 0\.\.1$"):
        profile.with_agents_permuted(order)


def test_with_agents_permuted_reorders_the_agents():
    profile = PreferenceProfile([[0, 1, 2], [2, 1, 0], [1, 0, 2]])
    for order in ([2, 0, 1], np.array([2, 0, 1], dtype=np.uint8)):
        shuffled = profile.with_agents_permuted(order)
        assert shuffled.rankings.tolist() == [[1, 0, 2], [0, 1, 2], [2, 1, 0]]


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


def _vectorized(text):
    """The vectorized parse of ``text``, checked against the line loop."""
    fast = profiles._parse_profile_vectorized(text)
    assert fast is not None, repr(text[:80])
    assert fast == profiles._parse_profile_lines(text)
    return fast


@pytest.mark.parametrize("m", [9, 10, 11, 99, 100, 101, 999, 1000, 1001])
def test_vectorized_parse_at_each_digit_width_and_dtype_step(m):
    rng = np.random.default_rng(m)
    profile = random_profile(3, m, rng)
    text = serialize_profile(profile)
    assert _vectorized(text) == profile
    # The widest token right before the narrowest, and right after it.
    rest = " ".join(str(c) for c in range(2, m))
    text = f"2 {m}\n{m} 1 {rest}\n1 {m} {rest}\n"
    assert _vectorized(text).rankings[:, :2].tolist() == [[m - 1, 0], [0, m - 1]]


def test_vectorized_parse_reads_zero_padded_tokens_at_and_beyond_the_width():
    m = 20
    row = [str(c) for c in range(1, m + 1)]
    padded = {"1": "0001", "5": "05", "10": "010"}
    text = f"1 {m}\n" + " ".join(padded.get(t, t) for t in row) + "\n"
    assert _vectorized(text).rankings.tolist() == [list(range(m))]
    # Padding on every token, the header's too.
    text = "0001 020\n" + " ".join("0000" + t for t in row) + "\n"
    assert _vectorized(text).rankings.tolist() == [list(range(m))]


def test_vectorized_parse_reads_a_short_token_after_a_long_one():
    # The token before a one-digit token must not make it look long.
    for m in (20, 100, 1000):
        tail = [str(c) for c in range(1, m + 1) if c not in (4, 10)]
        text = f"2 {m}\n10 4 " + " ".join(tail) + "\n4 10 " + " ".join(tail) + "\n"
        profile = _vectorized(text)
        assert profile.rankings[0, :2].tolist() == [9, 3]
        assert profile.rankings[1, :2].tolist() == [3, 9]


def test_vectorized_parse_reads_a_multi_digit_header():
    rng = np.random.default_rng(5)
    profile = random_profile(12, 3, rng)
    text = serialize_profile(profile)
    assert text.startswith("12 3\n")
    assert _vectorized(text) == profile
    assert _vectorized(text.replace("12 3", "0012 003", 1)) == profile
    wide = random_profile(1234, 2, rng)
    assert _vectorized(serialize_profile(wide)) == wide


def test_a_token_wider_than_m_takes_the_line_loop_and_its_message():
    m = 20
    row = ["120" if c == 1 else str(c) for c in range(1, m + 1)]
    text = f"1 {m}\n" + " ".join(row) + "\n"
    assert profiles._parse_profile_vectorized(text) is None
    with pytest.raises(ProfileParseError, match=r"^line 2: row 1 is not a permutation"):
        parse_profile(text)


def test_a_large_plain_text_never_reaches_the_line_loop(monkeypatch):
    rankings = np.argsort(np.random.default_rng(59).random((4000, 30)), axis=1)
    text = serialize_profile(PreferenceProfile(rankings))

    def line_loop(text):
        raise AssertionError("the line loop read a plain text")

    monkeypatch.setattr(profiles, "_parse_profile_lines", line_loop)
    assert np.array_equal(parse_profile(text).rankings, rankings)


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


# Rank values at the edges of the narrow rank type (M - 1 and the fill value
# M), and agent counts at the edges of the narrow count type; the largest N
# is paired with small M only, to keep the tables small.
NARROW_EDGES = [(n, m) for m in (1, 2, 255, 256, 257) for n in (1, 255, 256)]
NARROW_EDGES += [(n, m) for n in (65535, 65536) for m in (1, 2, 3)]


@pytest.mark.parametrize("n, m", NARROW_EDGES)
def test_rank_tables_and_first_bad_agent_at_the_narrow_type_edges(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    rankings = np.argsort(rng.random((n, m)), axis=1)
    profile = PreferenceProfile(rankings)
    expected = np.argsort(rankings, axis=1)
    assert profile.rank_of.dtype == np.min_scalar_type(m)
    assert np.array_equal(profile.rank_of, expected.T)
    assert profile.positions.dtype == expected.dtype
    assert np.array_equal(profile.positions, expected)
    assert not profile.positions.flags.writeable
    assert not profile.rank_of.flags.writeable
    agents = rng.choice(n, size=min(n, 3), replace=False)
    first = int(agents.min()) + 1
    message = rf"^agent {first}: ranking is not a permutation of 1\.\.{m}$"
    # Out of range above and below, and each bad agent's first choice repeated
    # as its last (with M = 1 those are one entry).
    for entry in [m, -1] + ([rankings[agents, 0]] if m > 1 else []):
        bad = rankings.copy()
        bad[agents, -1] = entry
        with pytest.raises(ValueError, match=message):
            PreferenceProfile(bad)


def test_vectorized_parse_holds_no_copy_of_its_token_array():
    n, m = 4000, 20
    rankings = np.argsort(np.random.default_rng(47).random((n, m)), axis=1)
    text = serialize_profile(PreferenceProfile(rankings))
    table = n * m * np.dtype(int).itemsize
    tracemalloc.start()
    try:
        profile = parse_profile(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(profile.rankings, rankings)
    # The encoded text, the token array, one sorted copy for validation and
    # its mask; a copy of the token array would add one more table.
    assert peak - len(text) < 2.5 * table, peak
    assert not profile.rankings.flags.writeable


def test_parse_and_tournament_build_hold_no_int_positions_table():
    n, m = 4000, 20
    rankings = np.argsort(np.random.default_rng(71).random((n, m)), axis=1)
    text = serialize_profile(PreferenceProfile(rankings))
    table = n * m * np.dtype(int).itemsize
    tracemalloc.start()
    try:
        profile = parse_profile(text)
        build_weighted(profile)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(profile.rankings, rankings)
    assert peak - len(text) < 2.5 * table, peak
    # What stays is the int rankings, the narrow rank table and the M x M
    # counts; an int positions table would add one more table.
    assert held < 1.5 * table, held


def test_profile_copies_and_freezes_a_caller_array():
    rankings = np.argsort(np.random.default_rng(53).random((5, 4)), axis=1)
    profile = PreferenceProfile(rankings)
    assert not np.shares_memory(profile.rankings, rankings)
    assert rankings.flags.writeable and not profile.rankings.flags.writeable
    rankings[0] = rankings[0][::-1]
    assert not np.array_equal(profile.rankings, rankings)
