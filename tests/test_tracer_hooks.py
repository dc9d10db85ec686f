"""The benchmark tracer's hooks name attributes that exist in the package.

``perfbench/tracer.py`` times the package by patching functions and methods
it names; a name that no longer resolves is only reported on stderr there,
and the per-layer metrics behind it read zero. This guard fails instead.
The tracer file is only read, never changed or cached.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# Every module of the package, so that each reference the tracer rebinds is
# checked on uninstall.
MODULES = (
    "cli",
    "distortion",
    "instanceopt",
    "linprog",
    "metricspace",
    "profiles",
    "reproduce",
    "rules",
    "tournament",
)


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _namespaces():
    """Every metricdist module and every class defined in one, by name."""
    for name in MODULES:
        importlib.import_module(f"metricdist.{name}")
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "metricdist" or key.startswith("metricdist."):
            out[key] = mod
            for attr, value in vars(mod).items():
                if inspect.isclass(value) and value.__module__ == key:
                    out[f"{key}.{attr}"] = value
    return out


def test_every_hook_resolves_and_uninstall_restores_it():
    namespaces = _namespaces()
    before = {name: dict(vars(owner)) for name, owner in namespaces.items()}
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer._undo
        for owner, key, original in tracer._undo:
            assert vars(owner)[key] is not original, (owner, key)
    finally:
        tracer.uninstall()
    for name, owner in namespaces.items():
        now = vars(owner)
        assert set(now) == set(before[name]), name
        changed = [key for key, value in before[name].items() if now[key] is not value]
        assert changed == [], name


def test_tableau_shape_reads_the_program():
    # The tracer sizes each solve from lp.relations, lp.rhs, lp.nonneg and
    # lp.num_vars; a name gone from LinearProgram would only show up as
    # failed requests in a traced benchmark run.
    from metricdist.distortion import build_full_lp
    from metricdist.profiles import warmup_instance

    lp = build_full_lp(0, 2, warmup_instance().profile)
    r, n = len(lp.b_ub), lp.num_vars
    assert _load_tracer()._tableau_shape(lp) == (r, (r + 1) * (n + r + 1))


def test_separation_counts_one_cut_per_row_it_builds():
    # The tracer counts distortion.cuts_added as len() of what the hooked
    # MetricPolytope.violated_quadruples returns; each entry must be one row
    # that quadruple_rows builds.
    import numpy as np

    from metricdist.distortion import MetricPolytope, _PolytopeSolver
    from metricdist.linprog import LinearProgram
    from metricdist.profiles import random_profile

    module = _load_tracer()
    hooks = {attr for _, attr, _ in module.HOOKS}
    assert {"MetricPolytope.violated_quadruples", "_PolytopeSolver.maximize"} <= hooks
    assert "maximize" in vars(_PolytopeSolver)
    for name in ("relations", "rhs", "nonneg"):
        assert name in vars(LinearProgram), name

    tracer = module.Tracer()
    rng = np.random.default_rng(5)
    built = 0
    for _ in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        poly = MetricPolytope(random_profile(n, m, rng))
        values = rng.random((n, m)) * (rng.random((n, m)) < 0.6)
        exclude = np.zeros(poly.num_quad_ids, dtype=bool)
        for limit in (3, 75):
            found = poly.violated_quadruples(values, 1e-9, exclude, limit)
            rows = poly.quadruple_rows(found)
            assert len(found) == len(rows) <= limit
            tracer._on_return("distortion.separation", found)
            built += len(rows)
    assert built > 0
    assert tracer.counts["distortion.cuts"] == built
