import json
import math
import shlex
from pathlib import Path

import pytest

from metricdist import distortion
from metricdist.cli import _build_parser, main
from metricdist.distortion import SOLVER_STATS
from metricdist.profiles import LabeledInstance, parse_cost_matrix, parse_profile

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


@pytest.fixture
def rp_hard_file(tmp_path):
    path = tmp_path / "rp-hard.txt"
    assert main(["gen", "rp-hard", "--n", "2", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("tie_break", [[], ["--tie-break", "5,4,3,2,1"]])
def test_winner_ranked_pairs(rp_hard_file, capsys, tie_break):
    code, report = _run(
        capsys, ["winner", "--rule", "ranked-pairs", str(rp_hard_file), *tie_break]
    )
    assert code == 0
    assert report["winner"] == 1


def test_distortion_ranked_pairs_hard_instance(rp_hard_file, capsys):
    code, report = _run(
        capsys, ["distortion", "--rule", "ranked-pairs", str(rp_hard_file)]
    )
    assert code == 0
    assert float(report["value"]) == pytest.approx(13 / 5, abs=1e-6)  # (5n+3)/(n+3)


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
    assert "normal_metric_reading" not in report
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


@pytest.mark.parametrize(
    "family, params",
    [
        ("symmetric-tourney", ["--m", "2"]),
        ("percentile-gap", ["--half", "2", "--eps", "0.5"]),
        ("line-split", ["--n1", "2", "--n2", "1"]),
        ("random-line", ["--agents", "3", "--alts", "4", "--seed", "7"]),
    ],
)
def test_gen_writes_a_family_with_its_metric(tmp_path, capsys, family, params):
    profile_path = tmp_path / "p.txt"
    metric_path = tmp_path / "m.txt"
    argv = ["gen", family, *params, "--out", str(profile_path)]
    assert main(argv + ["--metric-out", str(metric_path)]) == 0
    profile = parse_profile(profile_path.read_text())
    metric = parse_cost_matrix(metric_path.read_text())
    assert LabeledInstance(profile, metric).metric is metric


def test_gen_random_is_seeded_and_carries_no_metric(tmp_path, capsys):
    code, first = _run(capsys, ["gen", "random", "--agents", "4", "--alts", "3"])
    assert code == 0
    assert parse_profile(first).rankings.shape == (4, 3)
    _, again = _run(capsys, ["gen", "random", "--agents", "4", "--alts", "3"])
    assert again == first
    _, other = _run(
        capsys, ["gen", "random", "--agents", "4", "--alts", "3", "--seed", "1"]
    )
    assert other != first

    # Refused before anything is written.
    profile_path = tmp_path / "p.txt"
    metric_path = tmp_path / "m.txt"
    argv = ["gen", "random", "--agents", "4", "--alts", "3", "--out", str(profile_path)]
    code = main(argv + ["--metric-out", str(metric_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: family 'random' carries no metric\n"
    assert not profile_path.exists() and not metric_path.exists()


def test_winner_dumps_the_majority_digraph(warmup_file, capsys, tmp_path):
    dump = tmp_path / "maj.txt"
    code, report = _run(
        capsys,
        ["winner", "--rule", "copeland", str(warmup_file), "--dump-majority", str(dump)],
    )
    assert code == 0
    assert report["winner"] == 1
    assert dump.read_text() == "1 2\n2 3\n3 1\n"  # the warm-up's majority cycle


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1 1\n1 1 1\n", "metric dimensions do not match the profile"),
        (
            "0 0 9\n0 0 0\n0 0 0\n",
            "metric violates the quadrilateral inequality at (0, 1, 2, 0)",
        ),
    ],
)
@pytest.mark.parametrize("command", ["distortion", "fairness"])
def test_fixed_metric_is_checked_against_the_profile(
    warmup_file, capsys, tmp_path, command, text, message
):
    metric_path = tmp_path / "m.txt"
    metric_path.write_text(text)
    argv = [command, "--rule", "copeland", str(warmup_file), "--metric", str(metric_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("alt", ["0", "4"])
def test_oracle_rejects_an_alternative_out_of_range(warmup_file, capsys, alt):
    code = main(["oracle", str(warmup_file), "--alt", alt])
    assert code == 2
    assert capsys.readouterr().err == "error: --alt must be in 1..3\n"


# Every command, with its arguments, and the config keys its report records
# beyond "command", "profile" and its own extras, keyed by case. oracle runs
# a rule, and reads the tie order, only under --rule.
_CASES = {
    "winner": ("winner", ["--rule", "copeland"], {"tie_break"}),
    "distribution": ("distribution", ["--rule", "rd"], set()),
    "distortion": ("distortion", ["--rule", "copeland"], {"tie_break"}),
    "fairness": ("fairness", ["--rule", "copeland", "--k", "1"], {"tie_break"}),
    "opt-det": ("opt-det", [], set()),
    "opt-rand": ("opt-rand", [], set()),
    "candidate-response": ("candidate-response", [], set()),
    "oracle": ("oracle", ["--alt", "1"], set()),
    "oracle-rule": ("oracle", ["--rule", "copeland"], {"tie_break"}),
    "reproduce": ("reproduce", [], {"seed"}),
}
_COMMANDS = sorted({command for command, _, _ in _CASES.values()})
# The commands that take --tie-break: those with a case that reads it.
_TIE_BREAK = {command for command, _, keys in _CASES.values() if "tie_break" in keys}


def _argv(case, profile_path):
    command, args, _ = _CASES[case]
    target = ["warmup"] if command == "reproduce" else [str(profile_path)]
    return [command, *target, *args]


@pytest.mark.parametrize("case", sorted(_CASES))
def test_config_records_the_seed_and_tie_order_only_where_read(
    warmup_file, capsys, case
):
    code, report = _run(capsys, _argv(case, warmup_file))
    assert code == 0
    *_, recorded = _CASES[case]
    assert {"seed", "tie_break"} & set(report["config"]) == recorded
    if "seed" in recorded:
        assert report["config"]["seed"] == 42
    if "tie_break" in recorded:
        assert report["config"]["tie_break"] == "lex"


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--seed") for c in _COMMANDS if c != "reproduce"]
    + [(c, "--tie-break") for c in _COMMANDS if c not in _TIE_BREAK],
)
def test_a_flag_no_code_reads_is_refused(warmup_file, capsys, command, flag):
    value = "1" if flag == "--seed" else "1,2,3"
    with pytest.raises(SystemExit) as exc:
        main(_argv(command, warmup_file) + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # Every ``metricdist ...`` line of the README's "Command line" block.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("metricdist ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.handler), line
