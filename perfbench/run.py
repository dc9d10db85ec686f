"""metricdist benchmark: one command per workload, every metric with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` first runs the
workload untraced for half the time, then the same requests again with
per-layer spans, and reports the per-layer metrics and the tracing overhead.
Human-readable lines go to standard output, followed by one JSON line;
the full report (and, when tracing, the spans) is written to
``perfbench/out/``. A request that raises counts as failed; the exit status
is 1 if any result fails the correctness gate, 0 otherwise. See ``perfbench/README.md`` for the workloads and metrics.
"""

import os
import sys

# Pin BLAS to one thread before numpy is imported, and keep the package's
# own thread option unset: the benchmark measures the default program on one
# core, not the scheduler.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)
os.environ.pop("METRICDIST_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

# Set-up is measured in this process and in this many fresh child processes;
# the median is reported.
SETUP_CHILDREN = 2
REFERENCE_REQUESTS = 48
# Latencies are reported at the speed of a machine on which the calibration
# kernel takes this long; on a quiet 2-core x86-64 machine either kernel
# shape takes about 2.4 ms.
KERNEL_REF_S = 2.5e-3

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "optimize", "tally"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up once, print the set-up time as JSON and exit",
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="recompute the stored reference results for the default seed",
    )
    return parser.parse_args(argv)


def import_program():
    """Import numpy and metricdist from this checkout; returns seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import metricdist

    elapsed = time.perf_counter() - start
    if Path(metricdist.__file__).resolve().parent != (SRC / "metricdist").resolve():
        raise SystemExit(f"error: metricdist imported from {metricdist.__file__}")
    sys.path.insert(0, str(HERE))
    return elapsed


def set_up(workload, seed):
    """Generate the request pool and serve one untimed warm-up request."""
    import numpy as np

    from workloads import WARMUP_SEED

    start = time.perf_counter()
    pool = workload.make_requests(np.random.default_rng(seed), workload.pool_size)
    warmup = workload.make_requests(np.random.default_rng(WARMUP_SEED), 1)[0]
    output = workload.run(warmup)
    return pool, workload.summarize(warmup, output), time.perf_counter() - start


def child_setup_seconds(args):
    """Set-up time of a fresh interpreter, measured in a child process."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Calibration:
    """A fixed kernel of the benchmark's own, timed around every request.

    Other tenants of a shared machine slow it for stretches of seconds to
    minutes, by up to about 2x, and the guest cannot see it (no steal
    time). The kernel's time tracks that slowdown because it mimics the
    workload's hot path: simplex pivots driven from Python on a tableau of
    the workload's ``kernel_tableau`` shape (like ``linprog``), and short
    text parsing (like ``parse_profile``). It runs no ``metricdist`` code,
    so a change to the program cannot move it.
    """

    def __init__(self, rows, cols, repeats, pivots):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.tableau = rng.random((rows, cols)) + 1.0
        self.repeats, self.pivots = repeats, pivots
        self.lines = [" ".join(str(x) for x in rng.permutation(20) + 1) for _ in range(60)]

    def __call__(self):
        np = self.np
        start = time.perf_counter()
        for _ in range(self.repeats):
            t = self.tableau.copy()
            for r in range(self.pivots):
                row = t[r]
                row /= row[int(np.argmin(row[:-1]))]
                col = t[:, r].copy()
                col[r] = 0.0
                t -= np.outer(col, row)
                positive = np.flatnonzero(t[:, r] > 0.5)
                {i: float(t[i, -1]) for i in positive[:5]}
        for line in self.lines:
            sorted(int(tok) for tok in line.split())
        return time.perf_counter() - start


class Pass:
    """Latencies and records of one pass of the closed loop."""

    def __init__(self):
        self.latencies = []
        self.kernel = []  # calibration time around each request
        self.records = []  # None for a request that raised
        self.errors = []  # (request index, message)


def serve(workload, pool, calibrate, *, seconds=None, count=None, tracer=None):
    """Closed loop, one client: each request starts after the last one ends.

    Stops after ``count`` requests, or at the first request ending past
    ``seconds``. Only ``workload.run`` is timed; ``calibrate`` runs just
    before and just after it.
    """
    result = Pass()
    start = time.perf_counter()
    i = 0
    while count is None or i < count:
        request = pool[i % len(pool)]
        if tracer is not None:
            tracer.request = i
        before = calibrate()
        t0 = time.perf_counter()
        try:
            output = workload.run(request)
        except Exception:  # a failed request is counted; the loop goes on
            t1 = time.perf_counter()
            result.records.append(None)
            result.errors.append((i, traceback.format_exc(limit=3)))
        else:
            t1 = time.perf_counter()
            result.records.append(workload.summarize(request, output))
        result.latencies.append(t1 - t0)
        result.kernel.append(0.5 * (before + calibrate()))
        i += 1
        if seconds is not None and t1 - start >= seconds:
            break
    return result


def scaled_latencies(p):
    """Latencies of a pass at the reference machine speed.

    A timing is multiplied by ``KERNEL_REF_S`` / (kernel time around that
    request), so it reads as it would on a machine where the calibration
    kernel takes ``KERNEL_REF_S``.
    """
    return [lat * KERNEL_REF_S / k for lat, k in zip(p.latencies, p.kernel)]


def load_reference(workload):
    path = REFERENCE / f"{workload.name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def gate(workload, records, reference, check_reference, pool_size):
    """Correctness problems of a pass, as ``(request index, message)``."""
    problems = []
    stored = reference["requests"] if check_reference else []
    for i, record in enumerate(records):
        if record is None:
            continue
        messages = workload.invariants(record)
        if i % pool_size < len(stored):
            messages += workload.compare(record, stored[i % pool_size])
        problems += [(i, m) for m in messages]
    return problems


def check_warmup(workload, record, reference):
    messages = workload.invariants(record) + workload.compare(record, reference["warmup"])
    return [(-1, m) for m in messages]


def census(workload, records, pool_size):
    done = [r for r in records if r is not None]
    shares = {}
    for key in ("unreachable", "single_winner", "condorcet"):
        hits = sum(workload.census(r)[key] for r in done)
        shares[f"census.{key}_share"] = hits / len(done) if done else 0.0
    shares["census.repeat_share"] = max(0, len(records) - pool_size) / len(records)
    return shares


def harrell_davis(values, p):
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics. The
    workloads mix size cells whose latencies form separate clusters; a
    plain sample quantile that falls in a gap between clusters jumps with a
    single sample, this estimate does not.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):  # Beta mass of [i/n, (i+1)/n], midpoint rule, 16 points
        mids = ((i + (j + 0.5) / 16) / n for j in range(16))
        weights.append(
            sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) for t in mids)
        )
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def latency_summary(latencies):
    p50, p90 = harrell_davis(latencies, 0.5), harrell_davis(latencies, 0.9)
    beyond = sum(lat > p90 for lat in latencies)
    return p50, p90, beyond


def environment(seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_PIN},
        "METRICDIST_THREADS": os.environ.get("METRICDIST_THREADS"),
        "seed": seed,
        "platform": platform.platform(),
    }


def write_reference(workload):
    import numpy as np

    from workloads import DEFAULT_SEED, WARMUP_SEED

    warmup = workload.make_requests(np.random.default_rng(WARMUP_SEED), 1)[0]
    count = min(REFERENCE_REQUESTS, workload.pool_size)
    requests = workload.make_requests(np.random.default_rng(DEFAULT_SEED), count)
    data = {
        "seed": DEFAULT_SEED,
        "warmup": workload.summarize(warmup, workload.run(warmup)),
        "requests": [workload.summarize(r, workload.run(r)) for r in requests],
    }
    for record in [data["warmup"], *data["requests"]]:
        problems = workload.invariants(record)
        if problems:
            raise SystemExit(f"refusing to store a reference that fails: {problems}")
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload.name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}: warm-up + {count} requests")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "metricdist" / "__init__.py").is_file():
        print(f"error: no metricdist sources at {SRC}", file=sys.stderr)
        return 2
    import_s = import_program()

    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.write_reference:
        write_reference(workload)
        return 0

    pool, warmup_record, setup_here = set_up(workload, args.seed)
    calibrate = Calibration(*workload.kernel_tableau)
    # Scaled like the latencies, by the kernel time right after set-up.
    setup_here = (import_s + setup_here) * KERNEL_REF_S / statistics.median(
        calibrate() for _ in range(3)
    )
    if args.setup_only:
        print(json.dumps({"setup_s": setup_here}))
        return 0
    reference = load_reference(workload)
    check_ref = args.seed == reference["seed"]

    env = environment(args.seed)
    report = {"workload": workload.name, "why": workload.why, "env": env}
    metrics, units = {}, dict(END_TO_END)
    if args.trace:
        import tracer as tracing

        untraced = serve(workload, pool, calibrate, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            measured = serve(
                workload, pool, calibrate, count=len(untraced.latencies), tracer=tracer
            )
        finally:
            tracer.uninstall()
        passes = (untraced, measured)
        layer, self_time = tracer.aggregate(len(measured.latencies))
        metrics.update(layer)
        traced_s, untraced_s = (sum(scaled_latencies(p)) for p in passes)
        metrics["trace.overhead"] = traced_s / untraced_s
        units = dict(tracing.METRICS)
        report["self_time_s"] = dict(sorted(self_time.items(), key=lambda kv: -kv[1]))
        report["computed_metrics"] = list(tracing.COMPUTED)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": tracer.spans}, fh)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        measured = serve(workload, pool, calibrate, seconds=args.seconds)
        passes = (measured,)
        latencies = scaled_latencies(measured)
        setup = [setup_here] + [
            child_setup_seconds(args) for _ in range(SETUP_CHILDREN)
        ]
        p50, p90, beyond = latency_summary(latencies)
        metrics.update(
            throughput_rps=len(latencies) / sum(latencies),
            latency_p50_ms=p50 * 1e3,
            latency_p90_ms=p90 * 1e3,
            setup_s=statistics.median(setup),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        report["setup_samples_s"] = setup
        report["latency_samples"] = len(latencies)
        report["latencies_s"] = latencies
        report["raw_latencies_s"] = measured.latencies
        report["kernel_s"] = measured.kernel
        report["latency_beyond_p90"] = beyond

    # A request fails if it raises or returns a wrong result; only a wrong
    # result makes the run incorrect. The warm-up request is checked too,
    # and counts as attempted.
    problems = check_warmup(workload, warmup_record, reference)
    attempted = 1 + sum(len(p.latencies) for p in passes)
    failed_keys = {("warm-up", -1)} if problems else set()
    errors = []
    for k, p in enumerate(passes):
        wrong = gate(workload, p.records, reference, check_ref, len(pool))
        # The traced pass serves the same requests as the untraced one, and
        # tracing must not change a result.
        if k:
            wrong += [
                (i, "result differs from the first pass over the same input")
                for i, (a, b) in enumerate(zip(passes[0].records, p.records))
                if a is not None and b is not None and a != b
            ]
        failed_keys |= {(k, i) for i, _ in wrong + p.errors}
        problems += wrong
        errors += p.errors
    failed = len(failed_keys)
    correct = not problems
    census_shares = census(workload, measured.records, len(pool))
    if args.trace:
        metrics.update(census_shares)

    report.update(
        seconds=args.seconds,
        trace=args.trace,
        attempted=attempted,
        failed=failed,
        failure_rate=failed / attempted,
        reference_checked=check_ref,
        census=census_shares,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        problems=[f"request {i}: {msg}" for i, msg in problems[:20]],
        errors=[f"request {i}: {msg}" for i, msg in errors[:20]],
    )
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {workload.name}: {workload.why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        note = " (computed)" if name in report.get("computed_metrics", ()) else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    if not args.trace:
        print(
            f"latency samples {report['latency_samples']}, "
            f"{report['latency_beyond_p90']} beyond p90"
        )
        print("census " + ", ".join(f"{k} {v:.3f}" for k, v in census_shares.items()))
    else:
        top = list(report["self_time_s"].items())[:6]
        total = sum(report["self_time_s"].values()) or 1.0
        print("self time share " + ", ".join(f"{k} {v / total:.1%}" for k, v in top))
    print(f"failure_rate {failed / attempted:.6g} ({failed}/{attempted} requests)")
    for line in report["problems"]:
        print(f"WRONG {line}")
    for line in report["errors"]:
        print("RAISED " + line.strip().splitlines()[-1])
    print(f"report {report_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
