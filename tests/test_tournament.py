import numpy as np
import pytest

from metricdist.profiles import (
    PreferenceProfile,
    random_profile,
    ranked_pairs_hard_instance,
    symmetric_tournament_instance,
    warmup_instance,
)
from metricdist.tournament import build_majority, build_weighted


def test_warmup_weights():
    w = build_weighted(warmup_instance().profile).weights
    assert w[0, 1] == 2
    assert w[1, 0] == 1
    assert (np.diag(w) == 0).all()


def test_ranked_pairs_hard_weight_separation():
    for n in (2, 3, 5):
        inst = ranked_pairs_hard_instance(n)
        w = build_weighted(inst.profile).weights
        m = 2 * n + 1
        cycle = {(i, i + 1) for i in range(m - 1)}
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                if (i, j) in cycle:
                    assert w[i, j] == n + 1
                else:
                    assert w[i, j] <= n


def test_symmetric_tournament_all_weights_equal():
    for m in (2, 3, 6):
        w = build_weighted(symmetric_tournament_instance(m).profile).weights
        off = w[~np.eye(m + 1, dtype=bool)]
        assert (off == m).all()


def test_weight_complementarity_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        profile = random_profile(int(rng.integers(1, 9)), int(rng.integers(2, 7)), rng)
        w = build_weighted(profile).weights
        n, m = profile.num_agents, profile.num_alternatives
        off = ~np.eye(m, dtype=bool)
        assert (w + w.T == n)[off].all()
        assert (w >= 0).all() and (w <= n).all()


def test_majority_warmup_is_three_cycle():
    g = build_majority(warmup_instance().profile)
    expected = np.zeros((3, 3), dtype=bool)
    expected[0, 1] = expected[1, 2] = expected[2, 0] = True
    assert np.array_equal(g.adjacency, expected)


def test_majority_unanimous_is_transitive():
    profile = PreferenceProfile([[2, 0, 1]] * 3)
    g = build_majority(profile)
    assert g.adjacency[2, 0] and g.adjacency[2, 1] and g.adjacency[0, 1]
    assert g.out_degrees().tolist() == [1, 0, 2]


def test_majority_all_ties_follow_tie_break():
    inst = symmetric_tournament_instance(2)
    g = build_majority(inst.profile)  # lexicographic default
    m = 3
    for i in range(m):
        for j in range(m):
            if i != j:
                assert g.adjacency[i, j] == (i < j)
    reversed_order = build_majority(inst.profile, tie_break=[2, 1, 0])
    for i in range(m):
        for j in range(m):
            if i != j:
                assert reversed_order.adjacency[i, j] == (i > j)


def test_majority_edge_count_always_complete():
    rng = np.random.default_rng(33)
    for _ in range(30):
        profile = random_profile(int(rng.integers(1, 8)), int(rng.integers(2, 7)), rng)
        g = build_majority(profile)
        m = profile.num_alternatives
        assert g.adjacency.sum() == m * (m - 1) // 2
        assert not (g.adjacency & g.adjacency.T).any()


def test_agent_permutation_invariance():
    rng = np.random.default_rng(41)
    for _ in range(10):
        profile = random_profile(6, 4, rng)
        shuffled = profile.with_agents_permuted(rng.permutation(6))
        assert np.array_equal(
            build_weighted(profile).weights, build_weighted(shuffled).weights
        )
        assert np.array_equal(
            build_majority(profile).adjacency, build_majority(shuffled).adjacency
        )


def test_edge_list_dumps():
    inst = warmup_instance()
    wt_text = build_weighted(inst.profile).edge_list_text()
    assert "1 2 2" in wt_text.splitlines()
    mg_text = build_majority(inst.profile).edge_list_text()
    assert mg_text.splitlines() == ["1 2", "2 3", "3 1"]


def test_bad_tie_break_rejected():
    with pytest.raises(ValueError):
        build_majority(warmup_instance().profile, tie_break=[0, 0, 1])


@pytest.mark.parametrize("seed", [0, 1])
def test_weighted_tournament_built_once_matches_broadcast(seed):
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (1, 2), (4, 1), (5, 2), (1, 7), (3, 300)]
    shapes += [(int(rng.integers(1, 40)), int(rng.integers(1, 12))) for _ in range(20)]
    # Counts at the edges of the narrow types that sum them.
    shapes += [(255, 4), (256, 4), (65535, 2), (65536, 2)]
    for n, m in shapes:
        profile = random_profile(n, m, rng)
        tournament = build_weighted(profile)
        assert build_weighted(profile) is tournament
        pos = profile.positions
        expected = (pos[:, :, None] < pos[:, None, :]).sum(0)
        assert tournament.weights.dtype == expected.dtype
        assert np.array_equal(tournament.weights, expected)
        off = ~np.eye(m, dtype=bool)
        assert (tournament.weights + tournament.weights.T == n)[off].all()
        assert tournament.num_agents == n
        assert not tournament.weights.flags.writeable
        with pytest.raises(ValueError):
            tournament.weights[0, 0] = 1
