#!/usr/bin/env python3
"""rwscenery benchmark: one workload per child process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in its own child process (``child.py``) from this
checkout's ``src``: a closed loop with one client and one unit of work at a
time, for ``--seconds``.  The program is driven only through its public API
(``cli.run_experiment``, ``algebra.*``); every config seed is derived from
``--seed``.  Every run passes a correctness gate: the payload sha256 of the
reference unit matches ``workloads.json``, repeats are byte-identical, and
an independent oracle agrees on one omega.

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``items_per_s``, ``peak_rss_mb``); ``failed_frac`` is ``failed /
attempted``.  ``--trace 1`` reports the per-layer metrics, measured by
wrapping the program's public functions from outside (``tracer.py``).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment block, is
written to ``.bench_out/``.  ``--workload all`` runs every workload in turn
and prints one table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, ROOT

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 2          # extra set-up-only children; setup_s is the median of 3
TIME_LIMIT = 170.0        # all children of one workload; a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def spawn(workload, seed, seconds, trace, deadline, setup_only=False):
    """Run child.py; return (set-up seconds from spawn to READY, last JSON line)."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(seconds),
           str(trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload}: children ran past {TIME_LIMIT} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if not ready:
        raise ChildFailed(f"{workload}: child never finished set-up")
    return ready[0] - t0, (None if setup_only else json.loads(lines[-1]))


def median(values) -> float:
    """Median, or 0.0 when every unit failed (the run then reports incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    setup, child = spawn(workload, seed, seconds, trace, deadline)
    setups = [setup] + [spawn(workload, seed, seconds, trace, deadline, setup_only=True)[0]
                        for _ in range(SETUP_PROBES)]
    items = median(s["items"] for s in child["samples"])
    wall_s = median(s["wall_s"] for s in child["samples"])
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "items_per_s": items / wall_s if wall_s else 0.0,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    failed = len(child["failures"])
    result = dict(child, setups=setups, end_to_end=end_to_end,
                  failed=failed, failed_frac=failed / child["attempted"],
                  items_per_unit=items)
    if trace:
        result["per_layer"] = per_layer(child)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result_{workload}_s{seed}_t{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def per_layer(child) -> dict:
    """Median over traced units of each per-layer metric in BENCHMARK.json."""
    layers = child["layers"]

    def frac(name):
        return median(lay.get(name + ".distinct", 0) / lay[name + ".calls"]
                      for lay in layers if lay.get(name + ".calls"))

    untraced = median(s["wall_s"] for s in child["samples"])
    traced = median(s["wall_s"] for s in child["traced"])
    special = {
        "localtime.local_times.distinct_frac": frac("localtime.local_times"),
        "algebra.exact_joint_moment.distinct_frac": frac("algebra.exact_joint_moment"),
        "process.cpu_s": median(s["cpu_s"] for s in child["samples"]),
        "process.import_s": child["import_s"],
        "trace.overhead_frac": traced / untraced - 1.0 if untraced else 0.0,
        "trace.uncovered_frac": median(lay["bench.unit.self_s"] / lay["bench.unit.s"]
                                       for lay in layers),
    }
    return {m["name"]: special[m["name"]] if m["name"] in special
            else median(lay.get(m["name"], 0.0) for lay in layers)
            for m in BENCH["per_layer"]}


def report(workload, res, trace):
    e2e = res["end_to_end"]
    n = len(res["samples"])
    print(f"{workload}: seed {res['seed']}, {res['seconds']:g} s, "
          f"{res['items_per_unit']:g} items per unit ({SPEC['workloads'][workload]['item']})")
    print(f"  setup_s      {e2e['setup_s']:12.4f} s      median of {len(res['setups'])} set-ups")
    print(f"  wall_s       {e2e['wall_s']:12.4f} s      median of {n} units")
    print(f"  items_per_s  {e2e['items_per_s']:12.1f} 1/s")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:12.1f} MiB")
    print(f"  failed_frac  {res['failed_frac']:12.4f} ratio  "
          f"{res['failed']} of {res['attempted']} attempts")
    if trace:
        for name, value in res["per_layer"].items():
            print(f"  {name:<46} {value:.6g}")
    for label, messages in res["failures"].items():
        for message in messages:
            print(f"  FAILED {label}: {message}")
    print("  environment " + json.dumps(res["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rwscenery benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    metric_specs = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, args.trace)
            report(name, res, args.trace)
            values = res["per_layer"] if args.trace else res["end_to_end"]
            prefix = "" if len(names) == 1 else name + "."
            for m in metric_specs:
                metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            attempted += res["attempted"]
            failed += res["failed"]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
