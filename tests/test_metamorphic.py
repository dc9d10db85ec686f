"""Metamorphic relations: the entry points commute with relabeling the
alternatives, permuting the agents and cloning the electorate.

Values agree at relative 1e-9, and infinities exactly. ``opt_rand``'s
lottery is one optimal lottery among possibly several, so a relation keeps
its worth, not its entries: the lottery of the transformed profile, mapped
back, is worth on the original profile what ``opt_rand`` certifies there.
"""

import math

import numpy as np

from metricdist.distortion import dist_det, dist_rand, fairness_det
from metricdist.instanceopt import (
    DEFAULT_EPS,
    candidate_response_value,
    opt_det,
    opt_rand,
)
from metricdist.profiles import PreferenceProfile, random_profile

TOL = 1e-9
VALUES = ("opt_det", "opt_rand", "response")


def _same(got, want):
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


def _outcomes(profile, winner, x):
    det = opt_det(profile)
    rand = opt_rand(profile)
    return {
        "dist_det": dist_det(winner, profile).per_opponent,
        "dist_rand": dist_rand(x, profile).per_opponent,
        "matrix": det.matrix,
        "opt_det": det.value,
        "opt_rand": rand.value,
        "lottery": rand.x,
        "response": candidate_response_value(profile, matrix=det.matrix)[1],
        "fairness": fairness_det(winner, profile).per_k,
    }


def _cases(seed, count=16):
    """``(profile, winner, lottery, rng)`` over N in 2..4 and M in 2..4."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        profile = random_profile(n, m, rng)
        yield profile, int(rng.integers(m)), rng.dirichlet(np.ones(m)), rng


def _assert_lottery_is_optimal(x, profile, value):
    """``x`` is worth ``value`` on ``profile`` up to opt_rand's certificate."""
    worth = dist_rand(x, profile).value
    assert value * (1 - TOL) <= worth <= value + DEFAULT_EPS / 2, (worth, value)


def _assert_values_same(got, want, where):
    for key in VALUES:
        assert _same(got[key], want[key]), (where, key, got[key], want[key])


def test_relabeling_alternatives_permutes_every_output():
    for trial, (profile, winner, x, rng) in enumerate(_cases(151)):
        base = _outcomes(profile, winner, x)
        perm = rng.permutation(profile.num_alternatives)  # c is renamed perm[c]
        relabeled = PreferenceProfile(perm[profile.rankings])
        got = _outcomes(relabeled, int(perm[winner]), x[np.argsort(perm)])
        for key in ("dist_det", "dist_rand"):
            assert set(got[key]) == {int(perm[z]) for z in base[key]}
            for z, value in base[key].items():
                assert _same(got[key][int(perm[z])], value), (trial, key, z)
        matrix = got["matrix"][np.ix_(perm, perm)]  # back to the old names
        for c, z in np.ndindex(matrix.shape):
            assert _same(matrix[c, z], base["matrix"][c, z]), (trial, c, z)
        _assert_values_same(got, base, trial)
        assert got["fairness"].keys() == base["fairness"].keys()
        for k, value in base["fairness"].items():
            assert _same(got["fairness"][k], value), (trial, k)
        _assert_lottery_is_optimal(got["lottery"][perm], profile, base["opt_rand"])


def test_permuting_agents_changes_nothing():
    for trial, (profile, winner, x, rng) in enumerate(_cases(157)):
        base = _outcomes(profile, winner, x)
        shuffled = profile.with_agents_permuted(rng.permutation(profile.num_agents))
        got = _outcomes(shuffled, winner, x)
        for key in ("dist_det", "dist_rand", "fairness"):
            assert got[key].keys() == base[key].keys()
            for z, value in base[key].items():
                assert _same(got[key][z], value), (trial, key, z)
        for c, z in np.ndindex(base["matrix"].shape):
            assert _same(got["matrix"][c, z], base["matrix"][c, z]), (trial, c, z)
        _assert_values_same(got, base, trial)
        _assert_lottery_is_optimal(got["lottery"], profile, base["opt_rand"])


def test_cloning_the_electorate_keeps_ratios_and_doubles_k():
    # The top-2k cost of a doubled column is twice the top-k cost.
    for trial, (profile, winner, x, _) in enumerate(_cases(163)):
        base = _outcomes(profile, winner, x)
        cloned = PreferenceProfile(np.repeat(profile.rankings, 2, axis=0))
        got = _outcomes(cloned, winner, x)
        for key in ("dist_det", "dist_rand"):
            assert got[key].keys() == base[key].keys()
            for z, value in base[key].items():
                assert _same(got[key][z], value), (trial, key, z)
        for c, z in np.ndindex(base["matrix"].shape):
            assert _same(got["matrix"][c, z], base["matrix"][c, z]), (trial, c, z)
        _assert_values_same(got, base, trial)
        assert set(got["fairness"]) == set(range(1, 2 * profile.num_agents + 1))
        for k, value in base["fairness"].items():
            assert _same(got["fairness"][2 * k], value), (trial, k)
        _assert_lottery_is_optimal(got["lottery"], profile, base["opt_rand"])
