#!/usr/bin/env python3
"""Report-only sweep: every bundled fixture once through ``rwscenery run``.

Each fixture runs in its own ``python -m rwscenery.cli run`` process from
this checkout's ``src``.  The sweep records wall time, the exit code and the
sha256 of the ``report.json`` payload per fixture, with the environment, and
writes them as JSON (default ``.bench_out/sweep.json``).  It is not part of
the gated workloads: criteria failures (exit code 2) are recorded, not
judged.

    python3 perfbench/sweep.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import OUT, ROOT, SRC, environment


def fixture_names() -> list:
    names = []
    for path in sorted((SRC / "rwscenery" / "fixtures").glob("*.json")):
        with open(path) as fh:
            if "experiment" in json.load(fh):
                names.append(path.stem)
    return names


def run_fixture(name: str) -> dict:
    out_dir = (OUT / "sweep" / name).relative_to(ROOT)
    cfg = (SRC / "rwscenery" / "fixtures" / f"{name}.json").relative_to(ROOT)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "rwscenery.cli", "run", str(cfg),
                           "--out", str(out_dir)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall = time.monotonic() - t0
    sha = None
    manifest = ROOT / out_dir / "manifest.json"
    if manifest.is_file():
        with open(manifest) as fh:
            outputs = {o["path"]: o["sha256"] for o in json.load(fh)["outputs"]}
        sha = outputs.get("report.json")
    return {"wall_s": wall, "exit_code": proc.returncode, "payload_sha256": sha,
            "last_line": (proc.stdout.strip().splitlines() or [""])[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(OUT / "sweep.json"))
    args = parser.parse_args(argv)
    env = environment()
    fixtures = {}
    t0 = time.monotonic()
    for name in fixture_names():
        fixtures[name] = run_fixture(name)
        r = fixtures[name]
        print(f"{name:<24} exit {r['exit_code']}  {r['wall_s']:8.2f} s  "
              f"{r['payload_sha256']}", flush=True)
    total = time.monotonic() - t0
    print(f"{'total':<24}         {total:8.2f} s")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"environment": env, "total_wall_s": total, "fixtures": fixtures},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
