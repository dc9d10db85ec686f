import json
import math

import pytest

from metricdist import distortion
from metricdist.cli import main
from metricdist.distortion import SOLVER_STATS
from metricdist.profiles import parse_cost_matrix, parse_profile

WARMUP = "3 3\n1 2 3\n2 3 1\n3 1 2\n"


@pytest.fixture
def warmup_file(tmp_path):
    path = tmp_path / "warmup.txt"
    path.write_text(WARMUP)
    return path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.startswith("{") else out)


def test_gen_warmup_roundtrips(tmp_path, capsys):
    profile_path = tmp_path / "p.txt"
    metric_path = tmp_path / "m.txt"
    code = main(
        [
            "gen",
            "warmup",
            "--out",
            str(profile_path),
            "--metric-out",
            str(metric_path),
        ]
    )
    assert code == 0
    assert profile_path.read_text() == WARMUP
    metric = parse_cost_matrix(metric_path.read_text())
    assert metric.values[1].tolist() == [3.0, 1.0, 1.0]


def test_gen_to_stdout(capsys):
    code, out = _run(capsys, ["gen", "rp-hard", "--n", "2"])
    assert code == 0
    profile = parse_profile(out)
    assert profile.num_agents == 4
    assert profile.num_alternatives == 5


def test_gen_missing_param_errors(capsys):
    code = main(["gen", "coupling"])
    assert code == 2
    assert "needs --n" in capsys.readouterr().err


def test_winner_command(warmup_file, capsys, tmp_path):
    dump = tmp_path / "wt.txt"
    code, report = _run(
        capsys,
        [
            "winner",
            "--rule",
            "copeland",
            str(warmup_file),
            "--dump-weighted",
            str(dump),
        ],
    )
    assert code == 0
    assert report["schema_version"] == 1
    assert report["winner"] == 1  # 1-based in reports
    assert report["audit"]["scores"] == [1, 1, 1]
    assert "1 2 2" in dump.read_text().splitlines()


def test_winner_respects_tie_break(warmup_file, capsys):
    code, report = _run(
        capsys,
        ["winner", "--rule", "schulze", str(warmup_file), "--tie-break", "3,1,2"],
    )
    assert code == 0
    assert report["winner"] == 3


def test_distribution_command(warmup_file, capsys):
    code, report = _run(capsys, ["distribution", "--rule", "rd", str(warmup_file)])
    assert code == 0
    assert report["distribution"] == ["0.333333333333"] * 3


def test_distortion_command_with_witness(warmup_file, capsys, tmp_path):
    witness_path = tmp_path / "witness.txt"
    code, report = _run(
        capsys,
        [
            "distortion",
            "--rule",
            "copeland",
            str(warmup_file),
            "--witness",
            str(witness_path),
        ],
    )
    assert code == 0
    assert float(report["value"]) == pytest.approx(3.0, abs=1e-6)
    assert report["winner"] == 1
    assert report["opponent"] == 3
    witness = parse_cost_matrix(witness_path.read_text())
    assert witness.values.sum(axis=0)[2] == pytest.approx(1.0, abs=1e-6)


def test_distortion_dump_lp(warmup_file, capsys, tmp_path):
    dump = tmp_path / "lp.txt"
    code, _ = _run(
        capsys,
        ["distortion", "--rule", "copeland", str(warmup_file), "--dump-lp", str(dump)],
    )
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0].startswith("max ")
    # normalization + consistency + all quadrilateral rows, one per line
    assert len(lines) == 1 + 1 + 6 + 36


def test_distortion_rd(warmup_file, capsys):
    code, report = _run(capsys, ["distortion", "--rule", "rd", str(warmup_file)])
    assert code == 0
    assert float(report["value"]) == pytest.approx(2.0, abs=1e-6)


def test_distortion_fixed_metric(warmup_file, capsys, tmp_path):
    metric_path = tmp_path / "m.txt"
    main(["gen", "warmup", "--out", str(tmp_path / "ignore.txt"), "--metric-out", str(metric_path)])
    code, report = _run(
        capsys,
        [
            "distortion",
            "--rule",
            "copeland",
            str(warmup_file),
            "--metric",
            str(metric_path),
        ],
    )
    assert code == 0
    assert float(report["value"]) == pytest.approx(3.0)


def test_distortion_rejects_inconsistent_metric(warmup_file, capsys, tmp_path):
    metric_path = tmp_path / "bad.txt"
    metric_path.write_text("2.0 1.0 1.0\n3.0 1.0 1.0\n2.0 2.0 0.0\n")
    code = main(
        [
            "distortion",
            "--rule",
            "copeland",
            str(warmup_file),
            "--metric",
            str(metric_path),
        ]
    )
    assert code == 2
    assert "inconsistent" in capsys.readouterr().err


def test_fairness_fixed_metric_matches_fixture(warmup_file, capsys, tmp_path):
    metric_path = tmp_path / "m.txt"
    main(["gen", "warmup", "--out", str(tmp_path / "p.txt"), "--metric-out", str(metric_path)])
    code, report = _run(
        capsys,
        [
            "fairness",
            "--rule",
            "copeland",
            "--k",
            "all",
            str(warmup_file),
            "--metric",
            str(metric_path),
        ],
    )
    assert code == 0
    assert report["per_k"] == {"1": "3", "2": "2.5", "3": "3"}


def test_fairness_fixed_metric_of_a_lottery(warmup_file, capsys, tmp_path):
    # Randomized Dictatorship is uniform on the warm-up profile, whose
    # metric has top-k costs (3, 2, 1), (5, 3, 2) and (6, 4, 2) by column.
    metric_path = tmp_path / "m.txt"
    main(["gen", "warmup", "--out", str(tmp_path / "p.txt"), "--metric-out", str(metric_path)])
    code, report = _run(
        capsys,
        ["fairness", "--rule", "rd", str(warmup_file), "--metric", str(metric_path)],
    )
    assert code == 0
    assert report["config"]["mode"] == "fixed-metric"
    assert report["winner"] is None
    assert report["per_k"] == {"1": "2", "2": "1.66666666667", "3": "2"}
    assert report["value"] == "2"


def test_fairness_worst_case(warmup_file, capsys):
    code, report = _run(
        capsys, ["fairness", "--rule", "copeland", "--k", "1,2", str(warmup_file)]
    )
    assert code == 0
    assert set(report["per_k"]) == {"1", "2"}
    assert float(report["value"]) >= 3.0 - 1e-6


def test_fairness_rd_bounds(warmup_file, capsys):
    code, report = _run(capsys, ["fairness", "--rule", "rd", "--k", "1", str(warmup_file)])
    assert code == 0
    assert report["exact_k"]["1"] is True
    assert float(report["value_lower"]) <= float(report["value_upper"]) + 1e-9


def test_opt_commands(warmup_file, capsys):
    code, report = _run(capsys, ["opt-det", str(warmup_file)])
    assert code == 0
    assert report["winner"] == 1
    assert float(report["value"]) == pytest.approx(3.0, abs=1e-6)

    code, report = _run(capsys, ["opt-rand", str(warmup_file), "--eps", "1e-4"])
    assert code == 0
    assert float(report["value"]) == pytest.approx(2.0, abs=1e-3)
    assert "normal_metric_reading" in report
    assert "mode" not in report["config"]
    lower = float(report["value_lower"])
    assert lower * (1 - 1e-9) <= float(report["value"]) <= lower + 1e-4 / 2
    # The profile is read anew, so no stored optimum seeds the cutting plane.
    assert report["seeded_cuts"] == 0
    assert report["solver_stats"]["reused"] == 0

    code, report = _run(capsys, ["candidate-response", str(warmup_file)])
    assert code == 0
    assert float(report["value"]) >= 2.0 - 1e-3


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_opt_rand_rejects_an_eps_that_is_not_positive_and_finite(
    warmup_file, capsys, eps
):
    code = main(["opt-rand", str(warmup_file), "--eps", eps])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: eps")


@pytest.mark.parametrize("eps", ["nan", "-1"])
def test_reproduce_rejects_an_eps_that_is_not_positive_and_finite(capsys, eps):
    # Only optimality-suite uses eps, but every claim records it in its config.
    code = main(["reproduce", "warmup", "--eps", eps])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: eps")


def test_lp_reports_carry_solver_stats(warmup_file, capsys):
    for argv in (
        ["distortion", "--rule", "copeland"],
        ["fairness", "--rule", "copeland", "--k", "1"],
        ["fairness", "--rule", "rd", "--k", "1"],
        ["opt-det"],
        ["opt-rand"],
    ):
        code, report = _run(capsys, argv + [str(warmup_file)])
        assert code == 0
        stats = report["solver_stats"]
        assert set(stats) == set(SOLVER_STATS), argv
        assert stats["cold_builds"] > 0 and stats["separation_rounds"] > 0, argv


def test_distortion_json_counts_opponent_swaps(warmup_file, capsys):
    code, report = _run(capsys, ["distortion", "--rule", "copeland", str(warmup_file)])
    assert code == 0
    stats = report["solver_stats"]
    # Each opponent with a finite ratio builds its tableau cold: the swap to
    # the second is seeded with the rows tight at the first one's optimum.
    finite = [v for v in report["per_opponent"].values() if math.isfinite(float(v))]
    assert stats["cold_builds"] == len(finite) == 2
    assert stats["seeded_rows"] > 0
    assert stats["objectives"] == 2  # one LP per opponent


def test_oracle_command(warmup_file, capsys):
    code, report = _run(capsys, ["oracle", str(warmup_file), "--rule", "copeland"])
    assert code == 0
    assert float(report["lower_bound"]) >= 3.0 - 1e-9
    code, report = _run(capsys, ["oracle", str(warmup_file), "--uniform"])
    assert code == 0
    assert float(report["lower_bound"]) >= 2.0 - 1e-9


@pytest.mark.parametrize(
    "flag, value", [("--step", "0"), ("--step", "nan"), ("--max", "-1")]
)
def test_oracle_rejects_a_bad_grid(warmup_file, capsys, flag, value):
    code = main(["oracle", str(warmup_file), "--alt", "1", flag, value])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: grid")


def test_oracle_refuses_a_grid_over_budget_promptly(warmup_file, capsys, monkeypatch):
    # Refused before any grid row is enumerated.
    def enumerate_rows(*args):
        raise AssertionError("grid rows enumerated before the budget check")

    monkeypatch.setattr(
        distortion.itertools, "combinations_with_replacement", enumerate_rows
    )
    code = main(["oracle", str(warmup_file), "--alt", "1", "--step", "0.1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: grid enumeration needs 5456^3")


def test_reproduce_command(warmup_file, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["reproduce", "warmup", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["config"]["claim"] == "warmup"
    assert float(report["det"]) == pytest.approx(3.0, abs=1e-6)
    assert float(report["rand"]) == pytest.approx(2.0, abs=1e-6)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 1\n2 1\n")
    code = main(["winner", "--rule", "copeland", str(bad)])
    assert code == 2
    assert "row 1" in capsys.readouterr().err


def test_reports_are_deterministic(warmup_file, capsys):
    _, first = _run(capsys, ["distortion", "--rule", "copeland", str(warmup_file)])
    _, second = _run(capsys, ["distortion", "--rule", "copeland", str(warmup_file)])
    assert first == second
