"""The benchmark's span tracer (perfbench/tracer.py) must still find every
program function it wraps, so a renamed function fails here and not only in
the benchmark's own tests."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PROGRAM = ["walk", "localtime", "rng", "scenery", "algebra", "cumulant",
           "harness", "cli", "reportio"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(name, key): value for name, mod in sys.modules.items()
            if name.startswith("rwscenery") and mod is not None
            for key, value in vars(mod).items() if callable(value)}


def test_tracer_installs_and_uninstalls():
    importlib.import_module("scipy.stats")
    for name in PROGRAM:
        importlib.import_module(f"rwscenery.{name}")
    tracer = _load_tracer()
    for module, attr, _name, _count in tracer.FUNCTIONS:
        assert callable(getattr(sys.modules[module], attr, None)), (module, attr)
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert _bindings() != before
    finally:
        tr.uninstall()
    assert _bindings() == before


def test_tracer_installs_with_only_the_program_imported():
    """In a fresh interpreter that imports only what the benchmark's
    ``common.import_program`` imports (so nothing here preloads scipy.stats),
    the tracer still installs and uninstalls."""
    bench = TRACER.parent
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(bench)!r})",
        "from common import import_program",
        "import_program()",
        "from tracer import Tracer",
        "tr = Tracer()",
        "tr.install()",
        "tr.uninstall()",
    ])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script], cwd=bench.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_tracer_records_ks_spans_through_the_deferred_scipy_stats():
    """With scipy.stats not yet executed when the tracer installs, its wrapper
    on ``scipy.stats.ks_1samp`` must be what ``harness`` calls: a tiny
    fclt-iid run records one KS span per omega and window, and its payload
    equals the untraced run's."""
    bench = TRACER.parent
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(bench)!r})",
        "from common import import_program",
        "import_program()",
        "from tracer import Tracer",
        "from rwscenery import cli, reportio",
        "assert 'scipy.stats._stats_py' not in sys.modules",
        "doc = {'experiment': 'fclt-iid', 'seed': 99, 'walk': {'preset': 'lazy2d'},",
        "       'scenery': {'variant': 'iid', 'law': {'name': 'rademacher'}},",
        "       'n': 512, 't_grid': [0.5, 1.0], 'm_sceneries': 100, 'n_omegas': 2}",
        "def payload():",
        "    report, series, _ = cli.run_experiment(doc)",
        "    return reportio.canonical_json({'report': report.to_dict(), 'series': series})",
        "tr = Tracer()",
        "tr.install()",
        "try:",
        "    traced = payload()",
        "finally:",
        "    tr.uninstall()",
        "ks = [s for s in tr.spans if s[0] == 'harness.ks_1samp']",
        "assert len(ks) == 2 * 2, len(ks)",
        "assert traced == payload()",
    ])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script], cwd=bench.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
