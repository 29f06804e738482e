"""Span tracer that measures rwscenery's layers from outside the program.

The tracer wraps public functions at every module name through which the
program calls them (``harness.sample_path`` and ``walk.sample_path`` are the
same function reached through two names), so no file under ``src/`` needs
to know about it.  Each call becomes a span ``[name, start, end, parent,
unit]`` kept in memory; per-call counters (words hashed, sites, draws...)
are recorded at the same boundary.  ``uninstall`` restores every name.

Spans nest strictly because the program is single-threaded at the Python
level, so a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _local_times_count(tr, args, kwargs, result):
    path, window = _arg(args, kwargs, 0, "path"), _arg(args, kwargs, 1, "window")
    start, stop = int(window[0]), int(window[1])
    tr.add("localtime.local_times.positions", stop - start)
    tr.add("localtime.local_times.sites", len(result))
    tr.distinct("localtime.local_times", (path.seed, path.n, start, stop))


def _joint_moment_count(tr, args, kwargs, result):
    f, ells = _arg(args, kwargs, 1, "f"), _arg(args, kwargs, 2, "ells")
    pts = sorted(tuple(int(x) for x in e) for e in ells)
    base = pts[0]
    key = tuple(tuple(a - b for a, b in zip(p, base)) for p in pts)
    tr.distinct("algebra.exact_joint_moment", (tuple(sorted(f.coeffs)), key))


# (module, attribute, span name, counter) for every wrapped function.
FUNCTIONS = [
    ("rwscenery.walk", "sample_path", "walk.sample_path",
     lambda tr, a, k, r: tr.add("walk.sample_path.steps", _arg(a, k, 1, "n"))),
    ("rwscenery.localtime", "local_times", "localtime.local_times", _local_times_count),
    ("rwscenery.localtime", "pair_count_tables", "localtime.pair_count_tables", None),
    ("rwscenery.rng", "splitmix64", "rng.splitmix64",
     lambda tr, a, k, r: tr.add("rng.splitmix64.words", np.size(r))),
    ("rwscenery.rng", "hash_sites", "rng.hash_sites",
     lambda tr, a, k, r: tr.add("rng.hash_sites.sites", len(r))),
    ("rwscenery.rng", "derive_seed", "rng.derive_seed", None),
    ("rwscenery.scenery", "field_increments", "scenery.field_increments",
     lambda tr, a, k, r: tr.add("scenery.field_increments.draws", len(r))),
    ("rwscenery.scenery", "quenched_variance", "scenery.quenched_variance", None),
    ("rwscenery.scenery", "spectral_density", "scenery.spectral_density", None),
    ("rwscenery.algebra", "find_cumulant_radius", "algebra.find_cumulant_radius", None),
    ("rwscenery.algebra", "exact_cumulant", "algebra.exact_cumulant", None),
    ("rwscenery.algebra", "exact_joint_moment", "algebra.exact_joint_moment",
     _joint_moment_count),
    ("rwscenery.algebra", "sunit_search", "algebra.sunit_search", None),
    ("rwscenery.algebra", "check_pair", "algebra.check_pair", None),
    ("rwscenery.cumulant", "joint_cumulant", "cumulant.joint_cumulant", None),
    ("rwscenery.harness", "run_fclt", "harness.run_fclt", None),
    ("rwscenery.harness", "track_variance_lln", "harness.track_variance_lln", None),
    ("rwscenery.harness", "check_increment_orthogonality",
     "harness.check_increment_orthogonality", None),
    ("rwscenery.harness", "track_erdos_taylor", "harness.track_erdos_taylor", None),
    ("rwscenery.harness", "check_newman_wright", "harness.check_newman_wright", None),
    ("rwscenery.harness", "check_moricz", "harness.check_moricz", None),
    ("rwscenery.cli", "validate_config", "cli.validate_config", None),
    ("rwscenery.cli", "run_experiment", "cli.run_experiment", None),
    ("rwscenery.reportio", "canonical_json", "reportio.canonical_json",
     lambda tr, a, k, r: tr.add("reportio.canonical_json.bytes", len(r))),
]

# harness reaches the KS test as ``stats.ks_1samp`` on scipy.stats itself.
FOREIGN = [("scipy.stats", "ks_1samp", "harness.ks_1samp", None)]

LAW_SPAN = "scenery.Law.values"


def _law_count(tr, args, kwargs, result):
    tr.add("scenery.Law.values.words", np.size(_arg(args, kwargs, 1, "words")))


class Tracer:
    """In-memory spans and counters, grouped by the unit of work that made them."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None, unit]
        self.counters = defaultdict(float)
        self._distinct = defaultdict(set)
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self.unit = None

    # -- recording ---------------------------------------------------------

    def add(self, name, amount):
        self.counters[name] += amount

    def distinct(self, name, key):
        self._distinct[name].add(key)

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span and its counters."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf(), None, self._stack[-1] if self._stack else None, self.unit]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        """Replace every program-visible name of each traced function."""
        program = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rwscenery" or name.startswith("rwscenery."))]
        for module, attr, name, count in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.span(name, original, count)
            for mod in program:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for module, attr, name, count in FOREIGN:
            mod = sys.modules[module]
            self._patch(mod, attr, self.span(name, getattr(mod, attr), count))
        scenery = sys.modules["rwscenery.scenery"]
        for cls in _subclasses(scenery.Law):
            if "values" in vars(cls):
                self._patch(cls, "values", self.span(LAW_SPAN, vars(cls)["values"],
                                                     _law_count))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summarizing -------------------------------------------------------

    def unit_metrics(self, unit) -> dict:
        """Per-layer totals for one unit: calls, seconds, self seconds, counters."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == unit]
        child_time = defaultdict(float)
        for i in idx:
            parent = self.spans[i][3]
            if parent is not None:
                child_time[parent] += self.spans[i][2] - self.spans[i][1]
        out = defaultdict(float)
        for i in idx:
            name, start, end = self.spans[i][:3]
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - child_time[i]
        return out

    def take_counters(self) -> dict:
        """Counters and distinct-key counts since the last call, then reset."""
        out = dict(self.counters)
        for name, keys in self._distinct.items():
            out[name + ".distinct"] = len(keys)
        self.counters.clear()
        self._distinct.clear()
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, unit."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
