"""One benchmark run of one workload, in its own process.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Prints ``READY <monotonic time>`` when set-up ends (imports, config
validation, model/scenery/pair building), then runs:

1. the reference unit at the default seed, checked against the recorded
   payload sha256; it is also the first timed sample, and the peak
   resident memory is read right after it;
2. the workload's independent oracle on one omega;
3. a closed loop of units from ``SEED`` until ``SECONDS`` of measured unit
   time: one client, one unit at a time.  Untraced, unit 0 runs twice and
   the repeat must be byte-identical.  Traced (TRACE=1), every unit runs
   twice, traced and untraced in alternating order, and both payloads must
   be identical.

The last stdout line is a JSON object with the raw samples; ``run.py``
turns it into metrics.  ``--setup-only`` exits after ``READY``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

T_IMPORT0 = time.monotonic()

from common import OUT, environment, import_program, sha256_text  # noqa: E402


def cpu_seconds() -> float:
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def max_rss_mb() -> float:
    """Peak resident memory of this process and of the children it waited for."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


class Run:
    """Attempts of one run, each under a unique label, and the ones that failed."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.attempted = 0
        self.failures = {}   # label -> messages
        self.busy = 0.0      # seconds spent in timed units, failed ones included

    def attempt(self, label, fn):
        """Run one checked step; a raise fails it."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            self.check(label, False, traceback.format_exc())
            return None

    def check(self, label, ok, message):
        if not ok:
            self.failures.setdefault(label, []).append(message)

    def timed_unit(self, unit, label, wrap=None, seed=None):
        """(payload sha256, wall s, cpu s, items) of one unit, or None if it raised."""
        seed = self.seed if seed is None else seed
        fn = lambda: self.wl.unit(seed, unit)  # noqa: E731
        if wrap is not None:
            fn = wrap(fn)
        c0, t0 = cpu_seconds(), time.perf_counter()
        out = self.attempt(label, fn)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self.busy += wall
        if out is None:
            return None
        text, items = out
        return sha256_text(text), wall, cpu, items


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    prog = import_program()
    import workloads

    import_s = time.monotonic() - T_IMPORT0
    wl = workloads.WORKLOADS[name](prog)
    wl.setup(seed)
    print(f"READY {time.monotonic()!r}", flush=True)
    if "--setup-only" in argv:
        return 0

    run = Run(wl, seed)
    samples, traced, layers = [], [], []
    reference = workloads.SPEC["workloads"][name]["reference_sha256"]
    got = run.timed_unit(0, "reference", seed=workloads.DEFAULT_SEED)
    # The peak is taken here, through set-up and the fixed reference input,
    # so that it does not move with the walks that --seed draws.
    peak_rss_mb = max_rss_mb()
    if got is not None:
        run.check("reference", got[0] == reference,
                  f"payload sha256 {got[0]} at seed {workloads.DEFAULT_SEED}, "
                  f"recorded {reference}")
        if not trace:
            samples.append(got)
    errors = run.attempt("oracle", lambda: wl.oracle(seed))
    for err in errors or []:
        run.check("oracle", False, err)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    # --seconds counts time in timed units (the reference unit included), so
    # the oracle and the tracer's bookkeeping do not eat into it.
    first = None
    i = 0
    while i < 2 or run.busy < seconds:
        if tracer is None:
            # the second unit repeats the first config, so the repeat check
            # costs no time outside the measured loop
            unit = max(i - 1, 0)
            label = "repeat" if i == 1 else f"unit {unit}"
            got = run.timed_unit(unit, label)
            if got is not None:
                samples.append(got)
                if i == 0:
                    first = got[0]
                elif i == 1:
                    run.check(label, got[0] == first, "unit 0 repeated is not byte-identical")
        else:
            unit = i
            pair = {}
            for mode in ((1, 0) if unit % 2 == 0 else (0, 1)):
                if mode:
                    tracer.unit = unit
                    tracer.install()
                    try:
                        pair[mode] = run.timed_unit(
                            unit, f"unit {unit} traced", lambda fn: tracer.span("bench.unit", fn))
                    finally:
                        tracer.uninstall()
                    layers.append(dict(tracer.unit_metrics(unit), **tracer.take_counters()))
                else:
                    pair[mode] = run.timed_unit(unit, f"unit {unit}")
            if pair[0] is not None and pair[1] is not None:
                run.check(f"unit {unit} traced", pair[0][0] == pair[1][0],
                          "traced and untraced payloads differ")
                samples.append(pair[0])
                traced.append(pair[1])
        i += 1

    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "attempted": run.attempted, "failures": run.failures,
              "import_s": import_s, "environment": environment(),
              "peak_rss_mb": peak_rss_mb,
              "samples": [{"wall_s": s[1], "cpu_s": s[2], "items": s[3]} for s in samples],
              "traced": [{"wall_s": s[1], "cpu_s": s[2], "items": s[3]} for s in traced],
              "layers": layers}
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace_{name}_s{seed}.jsonl")
        result["span_count"] = len(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
