import itertools

import numpy as np
import pytest

from metricdist.profiles import (
    PreferenceProfile,
    line_split_instance,
    random_profile,
    ranked_pairs_hard_instance,
    warmup_instance,
)
from metricdist.rules import (
    RuleOutcome,
    copeland,
    lexicographic_pairs,
    randomized_dictatorship,
    ranked_pairs,
    schulze,
)
from metricdist.tournament import build_weighted

from oracles import naive_ranked_pairs

UNANIMOUS = PreferenceProfile([[1, 2, 0]] * 4)


def test_copeland_warmup():
    out = copeland(warmup_instance().profile)
    assert out.audit["scores"] == [1, 1, 1]
    assert out.winner == 0


def test_copeland_unanimous():
    assert copeland(UNANIMOUS).winner == 1


def test_copeland_deterministic_given_tie_break():
    profile = ranked_pairs_hard_instance(2).profile
    first = copeland(profile, tie_break=[4, 3, 2, 1, 0])
    second = copeland(profile, tie_break=[4, 3, 2, 1, 0])
    assert first.winner == second.winner
    assert first.audit["scores"] == second.audit["scores"]


def test_ranked_pairs_warmup_lexicographic():
    out = ranked_pairs(warmup_instance().profile)
    assert out.winner == 0
    locked = [(i, j) for i, j, _ in out.audit["locked"]]
    assert locked[:2] == [(0, 1), (1, 2)]
    assert (2, 0) not in locked


def test_ranked_pairs_unanimous():
    assert ranked_pairs(UNANIMOUS).winner == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ranked_pairs_hard_family_winner_under_shuffles(n):
    profile = ranked_pairs_hard_instance(n).profile
    rng = np.random.default_rng(n)
    pairs = lexicographic_pairs(2 * n + 1)
    for _ in range(40):
        order = [pairs[k] for k in rng.permutation(len(pairs))]
        assert ranked_pairs(profile, edge_tie_break=order).winner == 0


def test_ranked_pairs_winner_reaches_everyone():
    rng = np.random.default_rng(55)
    for _ in range(25):
        profile = random_profile(int(rng.integers(1, 8)), int(rng.integers(2, 6)), rng)
        out = ranked_pairs(profile)
        reach = out.audit["reachable"]
        for c in range(profile.num_alternatives):
            assert c == out.winner or reach[out.winner, c]


def test_ranked_pairs_rejects_partial_tie_order():
    with pytest.raises(ValueError):
        ranked_pairs(UNANIMOUS, edge_tie_break=[(0, 1)])


@pytest.mark.parametrize(
    "swap", [(0, 0), (1, 1), (0, 3), (-1, 2), (2, -1), (1, 0), (10**20, 0)]
)
def test_ranked_pairs_rejects_a_tie_order_that_is_not_every_pair_once(swap):
    order = lexicographic_pairs(3)
    order[0] = swap
    with pytest.raises(ValueError, match="every ordered pair once"):
        ranked_pairs(UNANIMOUS, edge_tie_break=order)


def _assert_ranked_pairs_matches_oracle(profile, edge_tie_break=None):
    m = profile.num_alternatives
    order = lexicographic_pairs(m) if edge_tie_break is None else edge_tie_break
    winner, locked, reachable = naive_ranked_pairs(
        build_weighted(profile).weights, order
    )
    out = ranked_pairs(profile, edge_tie_break=edge_tie_break)
    assert out.winner == winner
    assert out.audit["locked"] == locked
    assert all(type(x) is int for edge in out.audit["locked"] for x in edge)
    assert out.audit["reachable"].dtype == reachable.dtype
    assert np.array_equal(out.audit["reachable"], reachable)


def test_ranked_pairs_matches_the_dense_closure_oracle():
    rng = np.random.default_rng(71)
    for m in [1, 2, 3, 5, 8, 13, 21, 30]:
        for _ in range(4):
            # Few agents make many equal weights, so the tie order matters.
            profile = random_profile(int(rng.integers(1, 7)), m, rng)
            _assert_ranked_pairs_matches_oracle(profile)
            pairs = lexicographic_pairs(m)
            shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
            _assert_ranked_pairs_matches_oracle(profile, shuffled)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ranked_pairs_matches_the_oracle_on_the_hard_family(n):
    profile = ranked_pairs_hard_instance(n).profile
    pairs = lexicographic_pairs(2 * n + 1)
    rng = np.random.default_rng(n)
    _assert_ranked_pairs_matches_oracle(profile)
    for _ in range(10):
        _assert_ranked_pairs_matches_oracle(
            profile, [pairs[k] for k in rng.permutation(len(pairs))]
        )


def test_schulze_warmup_cycle_ties():
    out = schulze(warmup_instance().profile)
    p = np.array(out.audit["path_strengths"])
    assert p[0, 1] == 2 and p[1, 0] == 2
    assert out.audit["co_winners"] == [0, 1, 2]
    assert out.winner == 0
    assert schulze(warmup_instance().profile, tie_break=[2, 0, 1]).winner == 2


def test_schulze_unanimous():
    assert schulze(UNANIMOUS).winner == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_schulze_hard_family_strict_winner(n):
    profile = ranked_pairs_hard_instance(n).profile
    out = schulze(profile)
    assert out.winner == 0
    assert out.audit["co_winners"] == [0]
    p = np.array(out.audit["path_strengths"])
    for c in range(1, 2 * n + 1):
        assert p[0, c] > p[c, 0]
    for order in itertools.islice(itertools.permutations(range(2 * n + 1)), 30):
        assert schulze(profile, tie_break=list(order)).winner == 0


def test_randomized_dictatorship_examples():
    out = randomized_dictatorship(warmup_instance().profile)
    assert np.allclose(out.distribution, [1 / 3, 1 / 3, 1 / 3])
    assert randomized_dictatorship(UNANIMOUS).distribution[1] == 1.0
    out = randomized_dictatorship(line_split_instance(4, 2).profile)
    assert np.allclose(out.distribution, [2 / 3, 1 / 3])


def test_randomized_dictatorship_ignores_lower_positions():
    rng = np.random.default_rng(77)
    profile = random_profile(6, 4, rng)
    shuffled_rows = []
    for row in profile.rankings:
        tail = list(row[1:])
        rng.shuffle(tail)
        shuffled_rows.append([row[0]] + tail)
    other = PreferenceProfile(shuffled_rows)
    assert np.array_equal(
        randomized_dictatorship(profile).distribution,
        randomized_dictatorship(other).distribution,
    )


def test_all_rules_anonymous():
    rng = np.random.default_rng(88)
    for _ in range(10):
        profile = random_profile(5, 4, rng)
        shuffled = profile.with_agents_permuted(rng.permutation(5))
        assert copeland(profile).winner == copeland(shuffled).winner
        assert ranked_pairs(profile).winner == ranked_pairs(shuffled).winner
        assert schulze(profile).winner == schulze(shuffled).winner
        assert np.array_equal(
            randomized_dictatorship(profile).distribution,
            randomized_dictatorship(shuffled).distribution,
        )


def test_weighted_tournament_rules_depend_only_on_weights():
    # Distinct profiles, identical pairwise counts.
    a = PreferenceProfile([[0, 1, 2], [2, 1, 0]])
    b = PreferenceProfile([[1, 2, 0], [0, 2, 1]])
    from metricdist.tournament import build_weighted

    assert np.array_equal(build_weighted(a).weights, build_weighted(b).weights)
    assert copeland(a).winner == copeland(b).winner
    assert schulze(a).winner == schulze(b).winner


def test_rule_outcome_distribution_validated():
    with pytest.raises(ValueError):
        RuleOutcome(distribution=[0.5, 0.4])
