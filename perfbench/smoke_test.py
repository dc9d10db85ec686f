"""Smoke test of the benchmark itself.

Runs a one-second version of every workload, traced and untraced, and checks
that every metric named in BENCHMARK.json is printed with its unit. Then
perturbs real results on purpose and checks that the correctness gate
catches each perturbation, so the gate is not vacuous.

    python3 perfbench/smoke_test.py

Exits 0 when every check passes.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS before numpy loads)


def check_metrics(spec):
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, cwd=ROOT,
            )
            assert proc.returncode == 0, f"{name} trace {trace}:\n{proc.stdout}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{name} trace {trace}: {got} != {expected}"
            for metric, value in result["metrics"].items():
                assert isinstance(value["value"], float), (metric, value)
                assert f"{metric} " in proc.stdout, f"{metric} not printed"
            print(f"ok   {name} trace {trace}: {len(got)} metrics")


# Each perturbation edits a correct record the way a wrong program might.
PERTURBATIONS = {
    "certify": [
        ("RD distortion above 3", lambda r: r.update(dist_rand=3.5)),
        ("RD distortion off by 1e-4", lambda r: r.update(dist_rand=r["dist_rand"] * (1 + 1e-4))),
        ("lottery not top-choice counts", lambda r: r["lottery"].__setitem__(
            0, r["lottery"][0] + 0.5)),
    ],
    "optimize": [
        ("opt_rand above opt_det", lambda r: r.update(opt_rand=float(r["opt_det"]) + 0.01)),
        ("fairness off by 1e-4", lambda r: r["fairness"].__setitem__(
            0, float(r["fairness"][0]) * (1 + 1e-4))),
        ("opt_det winner changed", lambda r: r.update(
            opt_det_winner=(r["opt_det_winner"] + 1) % r["m"])),
    ],
    "tally": [
        ("a winner changed", lambda r: r["winners"].__setitem__(
            1, (r["winners"][1] + 1) % r["m"])),
        ("lottery not top-choice counts", lambda r: r["lottery_counts"].__setitem__(
            0, r["lottery_counts"][0] + 1)),
        ("parse mangled the rankings", lambda r: r.update(parsed_digest_ok=False)),
    ],
}


def check_gate():
    import numpy as np

    run.import_program()
    from workloads import WARMUP_SEED, WORKLOADS

    for name, perturbations in PERTURBATIONS.items():
        workload = WORKLOADS[name]
        reference = run.load_reference(workload)
        request = workload.make_requests(np.random.default_rng(WARMUP_SEED), 1)[0]
        record = workload.summarize(request, workload.run(request))
        assert not run.check_warmup(workload, record, reference), name
        for label, perturb in perturbations:
            bad = copy.deepcopy(record)
            perturb(bad)
            problems = run.check_warmup(workload, bad, reference)
            assert problems, f"{name}: gate missed '{label}'"
            print(f"ok   {name} gate catches '{label}': {problems[0][1][:70]}")


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_gate()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
