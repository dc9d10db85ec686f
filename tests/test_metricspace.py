import math

import numpy as np
import pytest

from metricdist.metricspace import (
    CostMatrix,
    complete_metric,
    is_consistent,
    is_q_metric,
    lp_norm,
    percentile_cost,
    random_box_q_metric,
    random_line_metric,
    social_cost,
    submajorization_ratio,
    top_k_cost,
)
from metricdist.profiles import (
    percentile_gap_instance,
    random_line_instance,
    warmup_instance,
)


@pytest.fixture
def warmup():
    return warmup_instance()


def test_cost_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        CostMatrix([[1.0, -0.5]])
    with pytest.raises(ValueError):
        CostMatrix([[np.nan]])


def test_q_metric_examples(warmup):
    assert is_q_metric(warmup.metric) == (True, None)
    assert is_q_metric(CostMatrix(np.zeros((3, 4)))) == (True, None)
    bad = CostMatrix([[10.0, 0.0], [0.0, 0.0]])
    ok, witness = is_q_metric(bad)
    assert not ok
    assert witness == (0, 1, 0, 1)
    # paranoid mode agrees
    assert is_q_metric(bad, paranoid=True)[0] is False
    assert is_q_metric(warmup.metric, paranoid=True)[0] is True


def test_consistency_examples(warmup):
    assert is_consistent(warmup.metric, warmup.profile) == (True, None)
    constant = CostMatrix(np.full((3, 3), 2.0))
    assert is_consistent(constant, warmup.profile) == (True, None)
    tweaked = CostMatrix([[2, 1, 1], [3, 1, 1], [2, 2, 0]])
    ok, witness = is_consistent(tweaked, warmup.profile)
    assert not ok
    assert witness == (0, 0, 1)


def _is_consistent_loop(d, profile, tol=1e-9):
    """The per-agent, per-position reference for ``is_consistent``."""
    vals = d.values
    for v, ranking in enumerate(profile.rankings):
        for t in range(len(ranking) - 1):
            a, b = int(ranking[t]), int(ranking[t + 1])
            if vals[v, a] > vals[v, b] + tol:
                return False, (v, a, b)
    return True, None


def test_is_consistent_matches_loop_on_perturbed_metrics():
    rng = np.random.default_rng(17)
    inconsistent = 0
    for _ in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        profile_rng = np.random.default_rng(rng.integers(1 << 32))
        inst = random_line_instance(n, m, profile_rng)
        vals = inst.metric.values.copy()
        # Nudge entries either way by amounts from below the tolerance up to 1,
        # so some matrices violate several rankings at once.
        for _ in range(int(rng.integers(0, n * m + 1))):
            v, c = int(rng.integers(n)), int(rng.integers(m))
            step = rng.choice([-1.0, 1.0]) * 10.0 ** int(rng.integers(-11, 1))
            vals[v, c] = max(0.0, vals[v, c] + step)
        metric = CostMatrix(vals)
        got = is_consistent(metric, inst.profile)
        assert got == _is_consistent_loop(metric, inst.profile)
        if not got[0]:
            assert all(type(x) is int for x in got[1])
            inconsistent += 1
    assert inconsistent > 20


def test_complete_metric_values(warmup):
    full = complete_metric(warmup.metric)
    n = 3
    # distance between the first two alternatives
    assert full.table[n + 0, n + 1] == pytest.approx(2.0)
    assert np.diagonal(full.table).max() == 0.0
    assert full.max_symmetry_violation() == 0.0
    assert full.max_triangle_violation() <= 1e-12
    # agent-alternative entries are preserved
    assert np.array_equal(full.table[:n, n:], warmup.metric.values)


def test_complete_metric_single_agent_tight_triangle():
    d = CostMatrix([[0.0, 5.0]])
    full = complete_metric(d)
    assert full.table[1, 2] == pytest.approx(5.0)
    # the triangle through the agent is tight: 5 <= 0 + 5
    assert full.max_triangle_violation() <= 1e-12


def test_complete_metric_rejects_non_q_metric():
    with pytest.raises(ValueError):
        complete_metric(CostMatrix([[10.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", range(4))
def test_complete_metric_random(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        if rng.random() < 0.7:
            d = random_line_metric(n, m, rng)
        else:
            d = random_box_q_metric(min(n, 3), min(m, 3), rng)
        full = complete_metric(d)
        assert full.max_triangle_violation() <= 1e-9
        assert full.max_symmetry_violation() == 0.0


def test_cost_objectives(warmup):
    d = warmup.metric
    assert social_cost(d, 0) == 6.0
    assert top_k_cost(d, 0, 1) == 3.0
    assert top_k_cost(d, 0, 2) == 5.0
    assert top_k_cost(d, 0, 3) == 6.0
    assert top_k_cost(d, 2, 2) == 2.0
    assert social_cost(CostMatrix(np.zeros((3, 3))), 1) == 0.0
    with pytest.raises(ValueError):
        top_k_cost(d, 0, 4)
    with pytest.raises(ValueError):
        top_k_cost(d, 0, 0)


def test_top_k_matches_social_cost_and_is_concave():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_line_metric(int(rng.integers(2, 7)), int(rng.integers(1, 5)), rng)
        for c in range(d.num_alternatives):
            n = d.num_agents
            vals = [top_k_cost(d, c, k) for k in range(1, n + 1)]
            assert vals[-1] == pytest.approx(social_cost(d, c))
            increments = np.diff([0.0] + vals)
            assert (increments >= -1e-12).all()
            assert (np.diff(increments) <= 1e-12).all()


def test_percentile_cost(warmup):
    inst = percentile_gap_instance(2, 0.1)
    assert percentile_cost(inst.metric, 1, 0.25) == pytest.approx(0.1)
    assert percentile_cost(inst.metric, 0, 0.25) == pytest.approx(1.0)
    d = CostMatrix([[1.0, 0], [4.0, 0], [2.0, 0]])
    assert percentile_cost(d, 0, 0.0) == 1.0
    assert percentile_cost(warmup.metric, 0, 0.5) == 2.0
    with pytest.raises(ValueError):
        percentile_cost(d, 0, 1.0)


def test_submajorization_ratio(warmup):
    x = warmup.metric.column(0)
    y = warmup.metric.column(2)
    assert submajorization_ratio(x, y) == pytest.approx(3.0)
    assert submajorization_ratio(x, x) == pytest.approx(1.0)
    assert submajorization_ratio([2.0, 0.0], [1.0, 1.0]) == pytest.approx(2.0)
    assert submajorization_ratio([1.0, 0.0], [0.0, 0.0]) == math.inf
    assert submajorization_ratio([0.0], [0.0]) == 1.0


def test_lp_norm(warmup):
    assert lp_norm([3.0, 4.0], 2) == pytest.approx(5.0)
    assert lp_norm([3.0, 4.0], math.inf) == pytest.approx(4.0)
    assert lp_norm(warmup.metric.column(0), 1) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        lp_norm([1.0], 3)


def test_submajorization_bounds_p_norms():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        x = rng.uniform(0, 5, size=n)
        y = rng.uniform(0, 5, size=n)
        alpha = submajorization_ratio(x, y)
        if math.isinf(alpha):
            continue
        for p in (1, 2, math.inf):
            assert lp_norm(x, p) <= alpha * lp_norm(y, p) + 1e-9


def test_scaling_preserves_checks_and_scales_objectives(warmup):
    lam = 3.25
    scaled = warmup.metric.scaled(lam)
    assert is_q_metric(scaled)[0]
    assert is_consistent(scaled, warmup.profile)[0]
    assert social_cost(scaled, 0) == pytest.approx(lam * 6.0)
    assert top_k_cost(scaled, 0, 2) == pytest.approx(lam * 5.0)
    assert percentile_cost(scaled, 0, 0.5) == pytest.approx(lam * 2.0)
