"""Acceptance suite: one test per numbered criterion, each at its stated
tolerance, printing one pass/fail line. Run with ``pytest -s`` to see the
lines on success."""

import math

import numpy as np

from metricdist.distortion import dist_det, grid_oracle
from metricdist.linprog import LpStatus
from metricdist.profiles import random_line_instance, random_profile, warmup_instance
from metricdist.reproduce import run_claim
from metricdist.rules import copeland

from oracles import brute_force_lp_best, lp_norm, point_is_feasible, submajorization_ratio
from test_linprog import _random_lp


def _record(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {num}: {text}"


def _claim(num, claim_id, **kwargs):
    report = run_claim(claim_id, **kwargs)
    detail = report.get("first_failure", {})
    _record(
        num,
        report["ok"],
        f"{claim_id} ({report['elapsed_s']:.1f}s)"
        + (f" first failure: {detail}" if detail else ""),
    )
    return report


def test_criterion_01_warmup_fixture():
    report = _claim(1, "warmup")
    assert abs(report["det"] - 3.0) <= 1e-6
    assert abs(report["rand"] - 2.0) <= 1e-6
    assert report["fairness_fixture"] == 3.0
    assert report["elapsed_s"] < 1.0


def test_criterion_02_ranked_pairs_family():
    report = _claim(2, "thm2")
    assert report["elapsed_s"] < 60.0
    ratios = [row["ratio"] for row in report["table"]]
    assert ratios == sorted(ratios)  # monotone trend toward 5, reported


def test_criterion_03_coupling_family():
    _claim(3, "example1")


def test_criterion_04_symmetric_tournament_family():
    _claim(4, "thm3")


def test_criterion_05_copeland_property_suite():
    report = _claim(5, "thm4-suite")
    assert report["max_distortion"] <= 5 + 1e-6
    assert report["max_fairness"] <= 5 + 1e-6
    assert report["elapsed_s"] < 600.0


def test_criterion_06_top_choice_lottery_property_suite():
    report = _claim(6, "thm5-suite")
    assert report["max_distortion"] <= 3 + 1e-6
    assert report["max_fairness"] <= 3 + 1e-6


def test_criterion_07_metric_completion_suite():
    report = _claim(7, "lemma1-suite")
    assert report["count"] >= 500


def test_criterion_08_submajorization_implies_norm_bounds():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(60):
        inst = random_line_instance(int(rng.integers(2, 7)), int(rng.integers(2, 6)), rng)
        winner = copeland(inst.profile).winner
        optimum = int(np.argmin(inst.metric.values.sum(axis=0)))
        x = inst.metric.values[:, winner]
        y = inst.metric.values[:, optimum]
        alpha = submajorization_ratio(x, y)
        if math.isinf(alpha):
            continue
        for p in (1, 2, math.inf):
            assert lp_norm(x, p) <= alpha * lp_norm(y, p) + 1e-9
        checked += 1
    _record(8, checked >= 50, f"norm bounds on {checked} sampled consistent metrics")


def test_criterion_09_optimality_ordering():
    _claim(9, "optimality-suite", eps=1e-4)


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(42)

    # Grid oracle never exceeds the LP value; fixtures sit on the grid.
    profile = warmup_instance().profile
    fixture_det = grid_oracle(0, profile)
    fixture_rand = grid_oracle(np.full(3, 1 / 3), profile)
    ok = fixture_det >= 3.0 - 1e-9 and fixture_rand >= 2.0 - 1e-9
    instances = [profile]
    for shape in ((2, 2), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3)):
        instances.append(random_profile(*shape, rng))
    for prof in instances:
        winner = copeland(prof).winner
        lp_value = dist_det(winner, prof).value
        ok = ok and grid_oracle(winner, prof) <= lp_value + 1e-6

    # Simplex agrees with basic-feasible-point enumeration on 500 tiny LPs.
    from metricdist.linprog import solve

    agreed = 0
    for _ in range(500):
        lp = _random_lp(rng)
        out = solve(lp)
        oracle_val, _ = brute_force_lp_best(lp.objective, lp.A_ub, lp.b_ub)
        assert oracle_val is not None  # x = 0 is a basic feasible point
        if out.status is LpStatus.OPTIMAL:
            assert abs(out.value - oracle_val) <= 1e-6
            assert point_is_feasible(lp, out.assignment, tol=1e-7)
        agreed += 1
    _record(10, ok and agreed == 500, f"grid vs LP on {len(instances)} instances; "
            f"{agreed} random LPs vs enumeration")


def test_criterion_11_unboundedness_demonstrations():
    rep2 = _claim(11, "example2")
    rep3 = run_claim("example3")
    _record(11, rep3["ok"], f"example3 ({rep3['elapsed_s']:.1f}s)")
    assert rep2["ratios"][0.1] == 1.0 / 0.1
    assert rep2["ratios"][0.01] == 1.0 / 0.01
