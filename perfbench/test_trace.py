"""Benchmark-local tests: tracing is transparent and payloads match the CLI.

    python3 -m pytest perfbench/test_trace.py

Runs one unit of every workload traced and untraced (about a minute on two
cores) and compares payload sha256s.
"""

import json
import sys

import pytest

from common import import_program, sha256_text

prog = import_program()

import workloads  # noqa: E402
from tracer import FUNCTIONS, Tracer  # noqa: E402


def _names():
    """Every (module, attribute) -> object binding the tracer may replace."""
    return {(name, key): value for name, mod in sys.modules.items()
            if name.startswith("rwscenery") and mod is not None
            for key, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_payloads_match(name):
    wl = workloads.WORKLOADS[name](prog)
    wl.setup(5)
    plain, items = wl.unit(5, 0)
    tracer = Tracer()
    tracer.unit = 0
    before = _names()
    tracer.install()
    try:
        traced, traced_items = wl.unit(5, 0)
    finally:
        tracer.uninstall()
    assert _names() == before
    assert sha256_text(traced) == sha256_text(plain)
    assert traced_items == items
    metrics = tracer.unit_metrics(0)
    assert metrics["reportio.canonical_json.calls"] >= 1
    assert all(s[2] is not None and s[2] >= s[1] for s in tracer.spans)


def test_every_traced_function_is_found():
    for module, attr, _name, _count in FUNCTIONS:
        assert callable(getattr(sys.modules[module], attr)), (module, attr)


def test_payload_matches_rwscenery_run(tmp_path):
    """The benchmark hashes the same bytes ``rwscenery run`` writes as report.json."""
    wl = workloads.Ladders(prog)
    doc = wl.docs(5, 0)[-1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert prog.cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    want = {o["path"]: o["sha256"] for o in manifest["outputs"]}["report.json"]
    assert sha256_text(wl.payload(doc)) == want
