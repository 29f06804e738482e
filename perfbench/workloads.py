"""The five benchmark workloads: inputs from a seed, one unit of work, oracles.

A workload is built from bundled fixtures, which fix the input sizes.  A
*unit* is one reduced run of those fixtures (one omega, or a few) through
the public API, ending in the canonical report payload that ``rwscenery
run`` writes as ``report.json``.  Every config ``seed`` is derived from the
benchmark seed, the workload name, the unit index and the fixture name, so
the program only ever sees generated configs.

Each workload also has an oracle: an independent, cheap recomputation on one
omega that must agree with the program (see ``Workload.oracle``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from common import sha256_text

DEFAULT_SEED = 0
SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())

# exact_algebra: criterion 10 on a reduced cumulant scan box (scan=2 alone
# takes ~42 s), plus seeded probe configurations in [-4, 4]^2.
ALGEBRA_SCAN = 1
ALGEBRA_PROBES = 100
ALGEBRA_POLY = [(1, 0, 0), (0, 1, 0)]      # cos(2 pi x1) + cos(2 pi x2)


def config_seed(seed: int, workload: str, unit: int, part: str) -> int:
    """63-bit config seed for one fixture of one unit, a pure function of its labels."""
    digest = hashlib.sha256(f"{seed}|{workload}|{unit}|{part}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Workload:
    """One workload: ``docs`` builds the configs of a unit, ``unit`` runs it."""

    name = ""
    fixtures: list = []    # (fixture file, overrides)

    def __init__(self, prog):
        self.prog = prog

    def docs(self, seed: int, unit: int) -> list:
        out = []
        for fixture, overrides in self.fixtures:
            doc = self.prog.cli.load_fixture(fixture)
            doc.update(overrides)
            doc["seed"] = config_seed(seed, self.name, unit, fixture)
            out.append(doc)
        return out

    def setup(self, seed: int):
        """Validate the configs and build the walk models and sceneries once."""
        for doc in self.docs(seed, 0):
            self.prog.cli.validate_config(doc)

    def unit(self, seed: int, unit: int):
        """Run one unit; return (payload text, items done)."""
        docs = self.docs(seed, unit)
        return "".join(self.payload(doc) for doc in docs), sum(map(self.items, docs))

    def payload(self, doc) -> str:
        """Run one config; return the text ``rwscenery run`` writes as report.json."""
        report, _series, _charts = self.prog.cli.run_experiment(doc)
        return self.prog.reportio.canonical_json(
            {"experiment": doc["experiment"], "config": doc,
             "artifact_version": self.prog.__version__,
             "report": report.to_dict(),
             "passed": getattr(report, "passed", None)})

    def items(self, doc) -> int:
        raise NotImplementedError

    def oracle(self, seed: int) -> list:
        """Independent checks on one omega; returns a list of failure messages."""
        raise NotImplementedError

    # -- helpers shared by the oracles -------------------------------------

    def model(self, doc):
        walk = self.prog.walk
        return walk.build_walk_model(self.prog.cli.WALK_PRESETS[doc["walk"]["preset"]]())

    def scenery(self, doc):
        scen = dict(doc["scenery"])
        if scen.get("pair") == "bundled-sl3":
            scen["pair"] = self.prog.cli.load_fixture("toral_pair_sl3.json")
        return self.prog.scenery.scenery_from_dict(scen)

    def oracle_inputs(self, doc, seed: int, n: int):
        """A path and three scenery draws from seeds the program never derives."""
        path = self.prog.walk.sample_path(self.model(doc), n,
                                          config_seed(seed, self.name, -1, "oracle-path"))
        x_seeds = [config_seed(seed, self.name, -1, f"oracle-x{i}") for i in range(3)]
        return path, x_seeds


def _edges(n: int, t_grid) -> list:
    return [0] + [int(math.floor(n * float(t))) for t in t_grid]


# -- splitmix64 in Python integers: the reference the numpy kernel must match --

_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _site_hash(site) -> int:
    h = 0
    for j, c in enumerate(site):
        h = _splitmix64(h ^ (int(c) & _M64))
        h = _splitmix64((h + j + 1) & _M64)
    return h


def rademacher_visit_sums(positions: np.ndarray, edges, x_seed: int) -> list:
    """Window sums of X_{Z_k} for a Rademacher scenery, visit by visit.

    X_l is +1 when the top bit of splitmix64(site_hash(l) ^ x_seed) is set
    and -1 otherwise; site values are memoized, the sum runs over visits.
    """
    value = {}
    sums = []
    sites = [tuple(p) for p in positions.tolist()]
    for lo, hi in zip(edges, edges[1:]):
        total = 0
        for site in sites[lo:hi]:
            v = value.get(site)
            if v is None:
                v = value[site] = 1 if _splitmix64(_site_hash(site) ^ x_seed) >> 63 else -1
            total += v
        sums.append(total)
    return sums


def iid_oracle(wl: Workload, doc, seed: int) -> list:
    """Brute-force per-visit Rademacher sums must equal field_increments exactly."""
    path, x_seeds = wl.oracle_inputs(doc, seed, doc["n"])
    t_grid = doc.get("t_grid", [1.0])
    inc = wl.prog.scenery.field_increments(wl.scenery(doc), path, t_grid, x_seeds)
    edges = _edges(path.n, t_grid)
    errors = []
    for row, x in zip(inc, x_seeds):
        got, want = [float(v) for v in row], rademacher_visit_sums(path.positions, edges, x)
        if got != [float(v) for v in want]:
            errors.append(f"{wl.name}: field_increments {got} != per-visit {want}")
    return errors


class FcltIid(Workload):
    name = "fclt_iid"
    fixtures = [("fclt_iid.json", {"n_omegas": 1})]

    def items(self, doc):
        return doc["m_sceneries"] * doc["n_omegas"]

    def oracle(self, seed):
        return iid_oracle(self, self.docs(seed, 0)[0], seed)


class FcltToral(Workload):
    name = "fclt_toral"
    fixtures = [("fclt_toral.json", {"n_omegas": 1})]

    def items(self, doc):
        return doc["m_sceneries"] * doc["n_omegas"]

    def oracle(self, seed):
        """Direct f(A^l x) per visit, A^l exact from mat_pow_pair, agrees to 1e-9."""
        prog = self.prog
        doc = self.docs(seed, 0)[0]
        scen = self.scenery(doc)
        path, x_seeds = self.oracle_inputs(doc, seed, doc["n"])
        inc = prog.scenery.field_increments(scen, path, doc["t_grid"], x_seeds)
        pair = prog.algebra.pair_from_dict(prog.cli.load_fixture("toral_pair_sl3.json"))
        q = scen.q_mod
        coeffs = list(scen.poly.coeffs.items())
        sites = [tuple(p) for p in path.positions.tolist()]
        powers = {s: prog.algebra.mat_pow_pair(pair, s) for s in set(sites)}
        edges = _edges(path.n, doc["t_grid"])
        errors = []
        for row, x_seed in zip(inc, x_seeds):
            gen = prog.rng.philox_gen(prog.rng.derive_seed(x_seed, "toral-point"))
            x = [int(v) for v in gen.integers(0, q, size=pair.rho, dtype=np.uint64)]
            value = {}
            for s, a in powers.items():
                y = [sum(a[i][j] * x[j] for j in range(pair.rho)) % q for i in range(pair.rho)]
                total = 0.0
                for k, c in coeffs:
                    angle = 2.0 * math.pi * (sum(ki * yi for ki, yi in zip(k, y)) % q) / q
                    total += c.real * math.cos(angle) - c.imag * math.sin(angle)
                value[s] = total
            for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
                vals = [value[s] for s in sites[lo:hi]]
                want = math.fsum(vals)
                scale = max(math.fsum(abs(v) for v in vals), 1.0)
                if abs(row[j] - want) > 1e-9 * scale:
                    errors.append(f"fclt_toral: window {j}: field_increments {float(row[j])!r} "
                                  f"vs direct {want!r} (scale {scale:.3g})")
        return errors


class Ladders(Workload):
    name = "ladders"
    fixtures = [("lln_variance.json", {"n_omegas": 2}),
                ("orthogonality.json", {"n_omegas": 2}),
                ("erdos_taylor.json", {"n_omegas": 2})]

    def items(self, doc):
        return doc["n_omegas"] * max(doc["n_ladder"])

    def oracle(self, seed):
        """Local-time counts sum to each window length; a prefix matches a Counter."""
        localtime = self.prog.localtime
        errors = []
        for doc in self.docs(seed, 0):
            n = max(doc["n_ladder"])
            path, _ = self.oracle_inputs(doc, seed, n)
            windows = [(0, m) for m in doc["n_ladder"]]
            a, b, c, d = doc.get("windows", (0.1, 0.4, 0.6, 0.9))
            windows += [(int(n * a), int(n * b)), (int(n * c), int(n * d))]
            for lo, hi in windows:
                tab = localtime.local_times(path, (lo, hi))
                if tab.total() != hi - lo or int(tab.counts.min()) < 1:
                    errors.append(f"ladders: window {(lo, hi)} counts sum to {tab.total()}")
            head = localtime.local_times(path, (0, 4096)).as_dict()
            if head != dict(Counter(map(tuple, path.positions[:4096].tolist()))):
                errors.append("ladders: local-time table of [0, 4096) != visit Counter")
        return errors


class Maximal(Workload):
    name = "maximal"
    fixtures = [("newman_wright.json", {}), ("moricz_walk.json", {})]

    def items(self, doc):
        return doc["m_sceneries"] * doc["n"]

    def oracle(self, seed):
        return iid_oracle(self, self.docs(seed, 0)[0], seed)


class ExactAlgebra(Workload):
    name = "exact_algebra"
    fixtures = []

    def setup(self, seed):
        self.pair_doc = self.prog.cli.load_fixture("toral_pair_sl3.json")
        self.prog.algebra.pair_from_dict(self.pair_doc)
        self.prog.trigpoly.cosine_polynomial(ALGEBRA_POLY)

    def probes(self, seed: int, unit: int) -> list:
        gen = np.random.default_rng(config_seed(seed, self.name, unit, "probes"))
        pts = gen.integers(-4, 5, size=(ALGEBRA_PROBES, 3, 2)).tolist()
        return [[tuple(p) for p in cfg] + [(0, 0)] for cfg in pts]

    def unit(self, seed, unit):
        algebra, reportio = self.prog.algebra, self.prog.reportio
        pair = algebra.pair_from_dict(self.pair_doc)
        f = self.prog.trigpoly.cosine_polynomial(ALGEBRA_POLY)
        rep = algebra.check_pair(pair, 6)
        radius, nonzero = algebra.find_cumulant_radius(pair, f, scan=ALGEBRA_SCAN)
        probes = [[list(map(list, cfg)), algebra.exact_cumulant(pair, f, cfg)]
                  for cfg in self.probes(seed, unit)]
        r1 = algebra.sunit_search(pair, gamma_bound=20, ell_bound=4)
        r2 = algebra.sunit_search(pair, gamma_bound=30, ell_bound=5)
        text = reportio.canonical_json({
            "check_pair": {"all_pass": rep.all_pass, "box": rep.box,
                           "n_ell": len(rep.per_ell)},
            "cumulant_radius": radius, "scan": ALGEBRA_SCAN,
            "nonzero": [[list(map(list, cfg)), c] for cfg, c in nonzero],
            "probes": probes,
            "sunit": [dataclasses.asdict(r1), dataclasses.asdict(r2)]})
        items = (2 * ALGEBRA_SCAN + 1) ** 6 + len(probes)
        return text, items

    def oracle(self, seed):
        """Criterion 10's exact identities, recomputed outside the timed units."""
        algebra = self.prog.algebra
        pair = algebra.pair_from_dict(self.pair_doc)
        f = self.prog.trigpoly.cosine_polynomial(ALGEBRA_POLY)
        errors = []
        rep = algebra.check_pair(pair, 6)
        if not (rep.all_pass and len(rep.per_ell) == 13 * 13 - 1):
            errors.append("exact_algebra: check_pair(box 6) failed")
        r1 = algebra.sunit_search(pair, gamma_bound=20, ell_bound=4)
        ident = algebra.mat_identity(3)
        for e1, e2, e3 in r1.triples:
            m1, m2, m3 = (algebra.mat_pow_pair(pair, e) for e in (e1, e2, e3))
            m = tuple(tuple(m1[i][j] - m2[i][j] + m3[i][j] for j in range(3))
                      for i in range(3))
            if m != ident:
                errors.append(f"exact_algebra: triple {(e1, e2, e3)} is no unit relation")
        # cumulants are shift-invariant: moving every index by one vector
        for cfg in self.probes(seed, 0)[:2]:
            moved = [(a + 1, b - 2) for a, b in cfg]
            c0, c1 = (algebra.exact_cumulant(pair, f, c) for c in (cfg, moved))
            if abs(c0 - c1) > 1e-12:
                errors.append(f"exact_algebra: cumulant {c0!r} moved to {c1!r}")
        return errors


WORKLOADS = {w.name: w for w in (FcltIid, FcltToral, Ladders, Maximal, ExactAlgebra)}
