"""Command-line front end.

Every command reads the text file formats defined in ``profiles`` and emits
a versioned JSON report: numbers are decimal strings with 12 significant
digits so reports diff cleanly across platforms, keys are sorted, and the
full run configuration (including the seed and tie order) is embedded.
Alternative indices in reports are 1-based, matching the file formats.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from metricdist import reproduce
from metricdist.distortion import (
    build_full_lp,
    dist_det,
    dist_rand,
    fairness_det,
    fairness_rand,
    grid_oracle,
)
from metricdist.instanceopt import candidate_response_value, opt_det, opt_rand
from metricdist.metricspace import is_consistent, is_q_metric, top_k_cost
from metricdist.profiles import (
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
    warmup_instance,
)
from metricdist.rules import (
    copeland,
    randomized_dictatorship,
    ranked_pairs,
    schulze,
)
from metricdist.tournament import build_majority, build_weighted

SCHEMA_VERSION = 1

_DET_RULES = {"copeland": copeland, "ranked-pairs": ranked_pairs, "schulze": schulze}

_NORMAL_READING = (
    "a metric is opponent-normal when the opponent's total cost is exactly 1 "
    "and every other alternative's total cost is at least 1"
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ProfileParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="metricdist",
        description=(
            "Worst-case distortion and fairness of voting rules under metric "
            "preferences, certified by linear programming."
        ),
    )
    sub = parser.add_subparsers(required=True)

    gen = sub.add_parser("gen", help="write a benchmark instance family")
    gen.add_argument(
        "family",
        choices=[
            "warmup",
            "coupling",
            "rp-hard",
            "symmetric-tourney",
            "percentile-gap",
            "line-split",
            "random",
            "random-line",
        ],
    )
    gen.add_argument("--n", type=int, help="family size parameter")
    gen.add_argument("--m", type=int, help="alternatives parameter")
    gen.add_argument("--half", type=int, help="agents per bloc")
    gen.add_argument("--eps", type=float, help="minority cost parameter")
    gen.add_argument("--n1", type=int)
    gen.add_argument("--n2", type=int)
    gen.add_argument("--agents", type=int)
    gen.add_argument("--alts", type=int)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", type=Path, help="profile file (default: stdout)")
    gen.add_argument("--metric-out", type=Path, help="also write the paired metric")
    gen.set_defaults(handler=_cmd_gen)

    winner = sub.add_parser("winner", help="run a deterministic rule")
    winner.add_argument("profile", type=Path)
    winner.add_argument("--rule", required=True, choices=sorted(_DET_RULES))
    _common_flags(winner)
    winner.add_argument("--dump-weighted", type=Path, help="edge-list dump")
    winner.add_argument("--dump-majority", type=Path, help="edge-list dump")
    winner.set_defaults(handler=_cmd_winner)

    dist_cmd = sub.add_parser("distribution", help="run a randomized rule")
    dist_cmd.add_argument("profile", type=Path)
    dist_cmd.add_argument("--rule", required=True, choices=["rd"])
    _common_flags(dist_cmd)
    dist_cmd.set_defaults(handler=_cmd_distribution)

    distortion = sub.add_parser(
        "distortion", help="worst-case cost ratio of a rule's outcome"
    )
    distortion.add_argument("profile", type=Path)
    distortion.add_argument(
        "--rule", required=True, choices=sorted(_DET_RULES) + ["rd"]
    )
    distortion.add_argument(
        "--metric", type=Path, help="evaluate at this fixed metric instead of the sup"
    )
    distortion.add_argument("--witness", type=Path, help="dump the witness metric")
    distortion.add_argument(
        "--dump-lp",
        type=Path,
        help="dump the fully materialized LP of the worst opponent, for bug reports",
    )
    distortion.add_argument(
        "--paranoid", action="store_true", help="check all degenerate quadruples too"
    )
    _common_flags(distortion)
    distortion.set_defaults(handler=_cmd_distortion)

    fairness = sub.add_parser("fairness", help="worst-case top-k cost ratios")
    fairness.add_argument("profile", type=Path)
    fairness.add_argument(
        "--rule", required=True, choices=sorted(_DET_RULES) + ["rd"]
    )
    fairness.add_argument("--k", default="all", help="'all' or a comma list like 1,2")
    fairness.add_argument("--budget", type=int, default=None)
    fairness.add_argument(
        "--metric", type=Path, help="evaluate at this fixed metric instead of the sup"
    )
    fairness.add_argument("--paranoid", action="store_true")
    _common_flags(fairness)
    fairness.set_defaults(handler=_cmd_fairness)

    od = sub.add_parser("opt-det", help="instance-optimal single winner")
    od.add_argument("profile", type=Path)
    _common_flags(od)
    od.set_defaults(handler=_cmd_opt_det)

    orand = sub.add_parser("opt-rand", help="instance-optimal lottery")
    orand.add_argument("profile", type=Path)
    orand.add_argument("--eps", type=float, default=1e-4)
    orand.add_argument(
        "--binary-search",
        action="store_true",
        help="bisect the budget instead of keeping it as a master variable",
    )
    _common_flags(orand)
    orand.set_defaults(handler=_cmd_opt_rand)

    cr = sub.add_parser("candidate-response", help="pairwise-response game value")
    cr.add_argument("profile", type=Path)
    _common_flags(cr)
    cr.set_defaults(handler=_cmd_candidate_response)

    oracle = sub.add_parser("oracle", help="grid-search lower bound on distortion")
    oracle.add_argument("profile", type=Path)
    group = oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule", choices=sorted(_DET_RULES) + ["rd"])
    group.add_argument("--alt", type=int, help="fixed winner, 1-based")
    group.add_argument("--uniform", action="store_true")
    oracle.add_argument("--step", type=float, default=0.5)
    oracle.add_argument("--max", dest="grid_max", type=float, default=3.0)
    _common_flags(oracle)
    oracle.set_defaults(handler=_cmd_oracle)

    rep = sub.add_parser("reproduce", help="re-run a benchmark claim end to end")
    rep.add_argument("claim", choices=list(reproduce.CLAIM_IDS))
    rep.add_argument("--trials", type=int, default=None)
    rep.add_argument("--eps", type=float, default=1e-4)
    _common_flags(rep)
    rep.set_defaults(handler=_cmd_reproduce)

    return parser


def _common_flags(parser):
    parser.add_argument("--tie-break", default="lex", help="'lex' or 1-based comma list")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, help="write the JSON report here")


def _tie_break(args, num_alternatives):
    if args.tie_break == "lex":
        return None
    order = [int(tok) - 1 for tok in args.tie_break.split(",")]
    if sorted(order) != list(range(num_alternatives)):
        raise ValueError("--tie-break must list every alternative once (1-based)")
    return order


def _config(args, command, **extra):
    config = {
        "command": command,
        "seed": args.seed,
        "tie_break": getattr(args, "tie_break", "lex"),
    }
    if getattr(args, "profile", None) is not None:
        config["profile"] = str(args.profile)
    config.update(extra)
    return config


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".12g")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _emit(payload, out_path) -> int:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    text = json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _load_profile(path):
    return parse_profile(Path(path).read_text(encoding="utf-8"))


def _one_based(index):
    return None if index is None else int(index) + 1


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    need = lambda name: _require(args, name, args.family)
    if args.family == "warmup":
        inst = warmup_instance()
    elif args.family == "coupling":
        inst = coupling_instance(need("n"))
    elif args.family == "rp-hard":
        inst = ranked_pairs_hard_instance(need("n"))
    elif args.family == "symmetric-tourney":
        inst = symmetric_tournament_instance(need("m"))
    elif args.family == "percentile-gap":
        inst = percentile_gap_instance(need("half"), need("eps"))
    elif args.family == "line-split":
        inst = line_split_instance(need("n1"), need("n2"))
    elif args.family == "random-line":
        inst = random_line_instance(need("agents"), need("alts"), rng)
    else:
        from metricdist.profiles import LabeledInstance

        inst = LabeledInstance(
            random_profile(need("agents"), need("alts"), rng),
            meta={"generator": "random", "seed": args.seed},
        )

    text = serialize_profile(inst.profile)
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.metric_out:
        if inst.metric is None:
            raise ValueError(f"family {args.family!r} carries no metric")
        args.metric_out.write_text(serialize_cost_matrix(inst.metric), encoding="utf-8")
    return 0


def _require(args, name, family):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"family {family!r} needs --{name.replace('_', '-')}")
    return value


def _cmd_winner(args) -> int:
    profile = _load_profile(args.profile)
    tie_break = _tie_break(args, profile.num_alternatives)
    outcome = _outcome_for_rule(args.rule, profile, tie_break)
    if args.dump_weighted:
        args.dump_weighted.write_text(
            build_weighted(profile).edge_list_text(), encoding="utf-8"
        )
    if args.dump_majority:
        args.dump_majority.write_text(
            build_majority(profile, tie_break).edge_list_text(), encoding="utf-8"
        )
    audit = {
        k: v for k, v in outcome.audit.items() if k != "reachable"
    }
    return _emit(
        {
            "config": _config(args, "winner", rule=args.rule),
            "rule": args.rule,
            "winner": _one_based(outcome.winner),
            "audit": audit,
        },
        args.out,
    )


def _cmd_distribution(args) -> int:
    profile = _load_profile(args.profile)
    outcome = randomized_dictatorship(profile)
    return _emit(
        {
            "config": _config(args, "distribution", rule=args.rule),
            "rule": args.rule,
            "distribution": outcome.distribution,
            "audit": outcome.audit,
        },
        args.out,
    )


def _outcome_for_rule(rule_name, profile, tie_break):
    if rule_name == "rd":
        return randomized_dictatorship(profile)
    if rule_name == "ranked-pairs":
        return ranked_pairs(profile, edge_tie_break=_edge_priority(tie_break, profile))
    return _DET_RULES[rule_name](profile, tie_break=tie_break)


def _edge_priority(tie_break, profile):
    """Derive an ordered-pair priority from an alternative order, if any."""
    if tie_break is None:
        return None
    rank = {c: i for i, c in enumerate(tie_break)}
    m = profile.num_alternatives
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    return sorted(pairs, key=lambda p: (rank[p[0]], rank[p[1]]))


def _cmd_distortion(args) -> int:
    profile = _load_profile(args.profile)
    tie_break = _tie_break(args, profile.num_alternatives)
    outcome = _outcome_for_rule(args.rule, profile, tie_break)

    if args.metric:
        metric = parse_cost_matrix(args.metric.read_text(encoding="utf-8"))
        _validate_metric(metric, profile, args.paranoid)
        sums = metric.values.sum(axis=0)
        if outcome.distribution is not None:
            value = float(outcome.distribution @ sums) / float(sums.min())
        else:
            value = float(sums[outcome.winner]) / float(sums.min())
        return _emit(
            {
                "config": _config(args, "distortion", rule=args.rule, mode="fixed-metric"),
                "rule": args.rule,
                "winner": _one_based(outcome.winner),
                "distribution": outcome.distribution,
                "value": value,
            },
            args.out,
        )

    if outcome.distribution is not None:
        report = dist_rand(
            outcome.distribution, profile, rule=args.rule, seed=args.seed
        )
    else:
        report = dist_det(
            outcome.winner,
            profile,
            rule=args.rule,
            tie_break=tie_break,
            seed=args.seed,
        )
    if args.witness and report.witness is not None:
        args.witness.write_text(
            serialize_cost_matrix(report.witness), encoding="utf-8"
        )
    if args.dump_lp and report.opponent is not None:
        target = (
            report.distribution if report.distribution is not None else report.winner
        )
        args.dump_lp.write_text(
            build_full_lp(target, report.opponent, profile).dump_text(),
            encoding="utf-8",
        )
    return _emit(
        {
            "config": _config(args, "distortion", rule=args.rule, mode="worst-case"),
            "rule": args.rule,
            "winner": _one_based(report.winner),
            "distribution": report.distribution,
            "value": report.value,
            "opponent": _one_based(report.opponent),
            "per_opponent": {
                _one_based(c): v for c, v in report.per_opponent.items()
            },
            "tolerances": report.tolerances,
            "solver_stats": report.solver_stats,
        },
        args.out,
    )


def _validate_metric(metric, profile, paranoid):
    if metric.values.shape != (profile.num_agents, profile.num_alternatives):
        raise ValueError("metric dimensions do not match the profile")
    ok, quad = is_q_metric(metric, paranoid=paranoid)
    if not ok:
        raise ValueError(f"metric violates the quadrilateral inequality at {quad}")
    ok, witness = is_consistent(metric, profile)
    if not ok:
        raise ValueError(f"metric is inconsistent with the profile at {witness}")


def _parse_k_set(raw):
    if raw == "all":
        return None
    return [int(tok) for tok in raw.split(",")]


def _cmd_fairness(args) -> int:
    profile = _load_profile(args.profile)
    tie_break = _tie_break(args, profile.num_alternatives)
    outcome = _outcome_for_rule(args.rule, profile, tie_break)
    k_set = _parse_k_set(args.k)

    if args.metric:
        metric = parse_cost_matrix(args.metric.read_text(encoding="utf-8"))
        _validate_metric(metric, profile, args.paranoid)
        ks = k_set or list(range(1, profile.num_agents + 1))
        per_k = {}
        for k in ks:
            denom = min(
                top_k_cost(metric, c, k) for c in range(profile.num_alternatives)
            )
            if outcome.distribution is not None:
                num = sum(
                    outcome.distribution[c] * top_k_cost(metric, c, k)
                    for c in range(profile.num_alternatives)
                )
            else:
                num = top_k_cost(metric, outcome.winner, k)
            per_k[k] = num / denom
        return _emit(
            {
                "config": _config(args, "fairness", rule=args.rule, mode="fixed-metric"),
                "rule": args.rule,
                "winner": _one_based(outcome.winner),
                "per_k": per_k,
                "value": max(per_k.values()),
            },
            args.out,
        )

    if outcome.distribution is not None:
        kwargs = {} if args.budget is None else {"budget": args.budget}
        report = fairness_rand(outcome.distribution, profile, k_set=k_set, **kwargs)
        payload = {
            "config": _config(args, "fairness", rule=args.rule, mode="worst-case"),
            "rule": args.rule,
            "distribution": report.distribution,
            "per_k": {k: {"lower": lo, "upper": hi} for k, (lo, hi) in report.per_k.items()},
            "exact_k": report.exact_k,
            "value_lower": report.value_bounds[0],
            "value_upper": report.value_bounds[1],
            "solver_stats": report.solver_stats,
        }
    else:
        kwargs = {} if args.budget is None else {"budget": args.budget}
        report = fairness_det(outcome.winner, profile, k_set=k_set, **kwargs)
        payload = {
            "config": _config(args, "fairness", rule=args.rule, mode="worst-case"),
            "rule": args.rule,
            "winner": _one_based(outcome.winner),
            "per_k": report.per_k,
            "value": report.value,
            "solver_stats": report.solver_stats,
        }
    return _emit(payload, args.out)


def _cmd_opt_det(args) -> int:
    profile = _load_profile(args.profile)
    result = opt_det(profile)
    return _emit(
        {
            "config": _config(args, "opt-det"),
            "winner": _one_based(result.winner),
            "value": result.value,
            "matrix": result.matrix,
            "solver_stats": result.solver_stats,
        },
        args.out,
    )


def _cmd_opt_rand(args) -> int:
    profile = _load_profile(args.profile)
    result = opt_rand(profile, eps=args.eps, binary_search=args.binary_search)
    return _emit(
        {
            "config": _config(
                args,
                "opt-rand",
                eps=args.eps,
                mode="binary-search" if args.binary_search else "master",
            ),
            "x": result.x,
            "value": result.value,
            "cuts": len(result.state.cuts),
            "iterations": result.state.iterations,
            "normal_metric_reading": _NORMAL_READING,
            "solver_stats": result.solver_stats,
        },
        args.out,
    )


def _cmd_candidate_response(args) -> int:
    profile = _load_profile(args.profile)
    x, value = candidate_response_value(profile)
    return _emit(
        {
            "config": _config(args, "candidate-response"),
            "x": x,
            "value": value,
        },
        args.out,
    )


def _cmd_oracle(args) -> int:
    profile = _load_profile(args.profile)
    if args.uniform:
        target = np.full(
            profile.num_alternatives, 1.0 / profile.num_alternatives
        )
        described = "uniform"
    elif args.alt is not None:
        if not 1 <= args.alt <= profile.num_alternatives:
            raise ValueError(f"--alt must be in 1..{profile.num_alternatives}")
        target = args.alt - 1
        described = f"alternative {args.alt}"
    else:
        tie_break = _tie_break(args, profile.num_alternatives)
        outcome = _outcome_for_rule(args.rule, profile, tie_break)
        target = (
            outcome.distribution if outcome.distribution is not None else outcome.winner
        )
        described = args.rule
    bound = grid_oracle(target, profile, grid_step=args.step, grid_max=args.grid_max)
    return _emit(
        {
            "config": _config(
                args, "oracle", step=args.step, grid_max=args.grid_max, target=described
            ),
            "lower_bound": bound,
        },
        args.out,
    )


def _cmd_reproduce(args) -> int:
    report = reproduce.run_claim(
        args.claim, seed=args.seed, trials=args.trials, eps=args.eps
    )
    report["config"] = _config(args, "reproduce", claim=args.claim, eps=args.eps)
    _emit(report, args.out)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
