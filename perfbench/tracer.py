"""Per-layer spans for the traced benchmark run.

Spans are recorded around the public functions of each ``metricdist`` module
by replacing the module attributes that callers look up: a function is
rebound in every ``metricdist`` module that imported it by name, and a
method is replaced on its class. Spans are kept in memory as
``[name, start, end, parent, request]`` lists and aggregated at the end.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

_RELATIONS_WITH_SLACK = ("<=", ">=")


def _tableau_shape(lp):
    """Rows and columns of the two-phase tableau ``linprog.solve`` builds.

    Computed from the program's shape: free variables are split in two,
    every inequality gets a slack column, every row that is not ``<=``
    after making its right-hand side nonnegative gets an artificial one.
    """
    rows = len(lp.relations)
    free = int((~lp.nonneg).sum())
    slack = sum(rel in _RELATIONS_WITH_SLACK for rel in lp.relations)
    artificial = sum(
        (rel == "<=") == (b < 0) or rel == "="
        for rel, b in zip(lp.relations, lp.rhs)
    )
    return rows, (rows + 1) * (lp.num_vars + free + slack + artificial + 1)


# (module, attribute, span name). A dotted attribute is a method on a class.
HOOKS = (
    ("linprog", "solve", "linprog.solve"),
    ("linprog", "LinearProgram.__init__", "linprog.build"),
    ("distortion", "dist_det", "distortion.dist_det"),
    ("distortion", "dist_rand", "distortion.dist_rand"),
    ("distortion", "fairness_det", "distortion.fairness_det"),
    ("distortion", "a_det", "distortion.a_det"),
    ("distortion", "a_rand", "distortion.a_rand"),
    ("distortion", "_PolytopeSolver.maximize", "distortion.maximize"),
    ("distortion", "MetricPolytope.violated_quadruples", "distortion.separation"),
    ("instanceopt", "opt_det", "instanceopt.opt_det"),
    ("instanceopt", "opt_rand", "instanceopt.opt_rand"),
    ("instanceopt", "separation_oracle", "instanceopt.oracle"),
    ("instanceopt", "candidate_response_value", "instanceopt.response"),
    ("metricspace", "is_q_metric", "metricspace.is_q_metric"),
    ("rules", "copeland", "rules.copeland"),
    ("rules", "ranked_pairs", "rules.ranked_pairs"),
    ("rules", "schulze", "rules.schulze"),
    ("rules", "randomized_dictatorship", "rules.randomized_dictatorship"),
    ("tournament", "build_weighted", "tournament.build_weighted"),
    ("tournament", "build_majority", "tournament.build_majority"),
    ("profiles", "parse_profile", "profiles.parse"),
)

# Every per-layer metric, with its unit. Counts and times are per traced
# request, so two commits compare even when they complete different numbers
# of requests in the same time.
METRICS = {
    "linprog.solve.calls": "calls/req",
    "linprog.solve.busy_s": "s/req",
    "linprog.solve.failures": "count/req",
    "linprog.build.busy_s": "s/req",
    "linprog.rows_mean": "rows",
    "linprog.tableau_cells": "cells/req",
    "distortion.self_s": "s/req",
    "distortion.a_det.calls": "calls/req",
    "distortion.a_rand.calls": "calls/req",
    "distortion.separation.calls": "calls/req",
    "distortion.separation.busy_s": "s/req",
    "distortion.cuts_added": "cuts/req",
    "distortion.solves_per_objective": "solves/objective",
    "instanceopt.opt_det.busy_s": "s/req",
    "instanceopt.opt_rand.busy_s": "s/req",
    "instanceopt.oracle.calls": "calls/req",
    "instanceopt.oracle.busy_s": "s/req",
    "instanceopt.master.busy_s": "s/req",
    "instanceopt.iterations": "iterations/req",
    "instanceopt.cuts": "cuts/req",
    "instanceopt.self_s": "s/req",
    "metricspace.is_q_metric.calls": "calls/req",
    "metricspace.is_q_metric.busy_s": "s/req",
    "rules.copeland.busy_s": "s/req",
    "rules.ranked_pairs.busy_s": "s/req",
    "rules.schulze.busy_s": "s/req",
    "rules.randomized_dictatorship.busy_s": "s/req",
    "tournament.build_weighted.calls": "calls/req",
    "tournament.build_weighted.busy_s": "s/req",
    "tournament.build_majority.busy_s": "s/req",
    "profiles.parse.busy_s": "s/req",
    "profiles.parse.bytes": "bytes/req",
    "census.unreachable_share": "share",
    "census.single_winner_share": "share",
    "census.condorcet_share": "share",
    "census.multi_round_share": "share",
    "census.repeat_share": "share",
    "trace.overhead": "ratio",
    "trace.hooks_missing": "count",
}

# Derived from program shapes, not measured.
COMPUTED = ("linprog.tableau_cells",)


class Tracer:
    """In-memory span recorder with attribute-patching hooks."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self.missing = []
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(span)
            tracer._on_call(name, args, kwargs)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".failures"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            tracer._on_return(name, result)
            return result

        return traced

    def _on_call(self, name, args, kwargs):
        if name == "linprog.solve":
            rows, cells = _tableau_shape(args[0] if args else kwargs["lp"])
            self.counts["linprog.rows"] += rows
            self.counts["linprog.cells"] += cells
        elif name == "profiles.parse":
            text = args[0] if args else kwargs["text"]
            self.counts["profiles.bytes"] += len(
                text if isinstance(text, bytes) else text.encode("utf-8")
            )

    def _on_return(self, name, result):
        if name == "distortion.separation":
            self.counts["distortion.cuts"] += len(result)
        elif name == "instanceopt.opt_rand":
            self.counts["instanceopt.iterations"] += result.state.iterations
            # The first cut is the uniform metric every run is seeded with.
            self.counts["instanceopt.cuts"] += len(result.state.cuts) - 1

    def install(self):
        """Patch every hook that exists; hooks that do not are listed in
        ``missing`` and reported, never fatal."""
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == "metricdist" or key.startswith("metricdist.")
        ]
        for module_name, attr, span_name in HOOKS:
            try:
                home = importlib.import_module("metricdist." + module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(span_name, original))
                    continue
                original = getattr(home, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        if self.missing:
            print(f"trace: hooks not found: {self.missing}", file=sys.stderr)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def aggregate(self, requests):
        """Per-layer metrics over ``requests`` traced requests, plus a
        self-time table ``{span name: seconds}``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        child_solves = [0] * len(spans)
        calls, busy, self_time = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
                if name == "linprog.solve":
                    child_solves[parent] += 1
        master = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_time[name] += end - start - child_time[i]
            if name == "linprog.solve" and parent >= 0:
                if spans[parent][0].startswith("instanceopt."):
                    master += end - start
        layer_self = defaultdict(float)
        for name, seconds in self_time.items():
            layer_self[name.split(".")[0]] += seconds

        maximize = [i for i, s in enumerate(spans) if s[0] == "distortion.maximize"]
        per = 1.0 / max(requests, 1)
        solves = calls["linprog.solve"]
        c = self.counts
        metrics = {
            "linprog.solve.calls": solves * per,
            "linprog.solve.busy_s": busy["linprog.solve"] * per,
            "linprog.solve.failures": c["linprog.solve.failures"] * per,
            "linprog.build.busy_s": busy["linprog.build"] * per,
            "linprog.rows_mean": c["linprog.rows"] / solves if solves else 0.0,
            "linprog.tableau_cells": c["linprog.cells"] * per,
            "distortion.self_s": layer_self["distortion"] * per,
            "distortion.a_det.calls": calls["distortion.a_det"] * per,
            "distortion.a_rand.calls": calls["distortion.a_rand"] * per,
            "distortion.separation.calls": calls["distortion.separation"] * per,
            "distortion.separation.busy_s": busy["distortion.separation"] * per,
            "distortion.cuts_added": c["distortion.cuts"] * per,
            "distortion.solves_per_objective": (
                sum(child_solves[i] for i in maximize) / len(maximize)
                if maximize
                else 0.0
            ),
            "instanceopt.opt_det.busy_s": busy["instanceopt.opt_det"] * per,
            "instanceopt.opt_rand.busy_s": busy["instanceopt.opt_rand"] * per,
            "instanceopt.oracle.calls": calls["instanceopt.oracle"] * per,
            "instanceopt.oracle.busy_s": busy["instanceopt.oracle"] * per,
            "instanceopt.master.busy_s": master * per,
            "instanceopt.iterations": c["instanceopt.iterations"] * per,
            "instanceopt.cuts": c["instanceopt.cuts"] * per,
            "instanceopt.self_s": layer_self["instanceopt"] * per,
            "metricspace.is_q_metric.calls": calls["metricspace.is_q_metric"] * per,
            "metricspace.is_q_metric.busy_s": busy["metricspace.is_q_metric"] * per,
            "rules.copeland.busy_s": busy["rules.copeland"] * per,
            "rules.ranked_pairs.busy_s": busy["rules.ranked_pairs"] * per,
            "rules.schulze.busy_s": busy["rules.schulze"] * per,
            "rules.randomized_dictatorship.busy_s": (
                busy["rules.randomized_dictatorship"] * per
            ),
            "tournament.build_weighted.calls": calls["tournament.build_weighted"] * per,
            "tournament.build_weighted.busy_s": busy["tournament.build_weighted"] * per,
            "tournament.build_majority.busy_s": busy["tournament.build_majority"] * per,
            "profiles.parse.busy_s": busy["profiles.parse"] * per,
            "profiles.parse.bytes": c["profiles.bytes"] * per,
            "census.multi_round_share": (
                sum(child_solves[i] > 1 for i in maximize) / len(maximize)
                if maximize
                else 0.0
            ),
            "trace.hooks_missing": float(len(self.missing)),
        }
        return metrics, dict(self_time)
