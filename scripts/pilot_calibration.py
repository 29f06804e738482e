#!/usr/bin/env python3
"""Pilot run for the acceptance suite: measures finite-n behaviour of every
slow-converging statistic at the bundled fixture scales and (with --freeze)
records the resulting thresholds in src/rwscenery/fixtures/pilot_tolerances.json.

The acceptance tests compare against the frozen fixture file, never against
the literal limits with tight tolerances; log-speed convergence makes that
the only honest choice.  Run this after any change to fixture seeds/scales.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rwscenery import walk
from rwscenery.cli import WALK_PRESETS, load_fixture, run_experiment

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "src", "rwscenery", "fixtures")


def stamp(label, t0):
    print(f"  [{time.time() - t0:7.1f}s] {label}")


def mean_se(values):
    x = np.asarray(values, dtype=float)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def cross_window_kappa(c0, windows):
    """Local-CLT limit of E V(omega, [nA, nB), [nC, nD), 0) / n:
    (C0/2) int_A^B int_C^D dt ds / (t - s)."""
    a, b, c, d = windows

    def g(x):  # antiderivative of log x
        return x * math.log(x) - x

    return c0 / 2 * (g(d - a) - g(d - b) - g(c - a) + g(c - b))


def pilot(full=True):
    t0 = time.time()
    out = {}

    print("== spectral variance / transient oracle ==")
    simple3 = walk.build_walk_model(walk.simple_walk_law(3))
    series_value = walk.spectral_variance(simple3, {(0, 0, 0): 1.0})
    print(f"  I(0)={series_value:.6f} (Watson 1939: 2 G(0) - 1 = 2.032772)")
    out["transient_series_i0"] = series_value

    print("== FCLT i.i.d. at fixture scale ==")
    doc = load_fixture("fclt_iid.json")
    if not full:
        doc = {**doc, "n_omegas": 4, "m_sceneries": 1000}
    rep, _, _ = run_experiment(doc)
    print(f"  ks_pass_fraction={rep.ks_pass_fraction}")
    print(f"  offdiag per-omega pass@0.1={rep.offdiag_pass_fraction} "
          f"pooled={['%.4f' % v for v in rep.pooled_offdiag]} "
          f"pooled max={rep.pooled_offdiag_max:.4f}")
    print(f"  pooled Var(Y1): exact={rep.pooled_exact_var_y1:.4f} "
          f"mc={rep.pooled_mc_var_y1:.4f} (sigma2={rep.sigma2})")
    out["fclt_iid_ks_pass"] = rep.ks_pass_fraction
    out["fclt_iid_offdiag_pooled"] = rep.pooled_offdiag_max
    out["fclt_iid_var_y1"] = rep.pooled_exact_var_y1
    stamp("fclt-iid", t0)

    print("== FCLT moving average (variance target (sum a)^2 = 4) ==")
    doc = load_fixture("fclt_ma.json")
    if not full:
        doc = {**doc, "n_omegas": 4, "m_sceneries": 200}
    rep, _, _ = run_experiment(doc)
    ratio = rep.pooled_exact_var_y1 / rep.sigma2
    print(f"  pooled exact Var(Y1)={rep.pooled_exact_var_y1:.4f} "
          f"ratio to sigma2={ratio:.4f} ks={rep.ks_pass_fraction}")
    out["fclt_ma_var_ratio"] = ratio
    stamp("fclt-ma", t0)

    print("== degenerate MA ladder ==")
    doc = load_fixture("ma_degenerate_ladder.json")
    rep, _, _ = run_experiment(doc)
    print(f"  Var(Y1) ladder: {[round(v, 4) for v in rep.pooled_exact_var_y1]} "
          f"decreasing={rep.decreasing}")
    out["ma_degenerate_ladder"] = rep.pooled_exact_var_y1
    stamp("variance-ladder", t0)

    print("== toral FCLT, two primes ==")
    for name in ("fclt_toral.json", "fclt_toral_prime2.json"):
        doc = load_fixture(name)
        if not full:
            doc = {**doc, "n_omegas": 4, "m_sceneries": 400}
        rep, _, _ = run_experiment(doc)
        print(f"  {name}: ks={rep.ks_pass_fraction} varY1={rep.pooled_exact_var_y1:.4f} "
              f"mcVar={rep.pooled_mc_var_y1:.4f} sigma2={rep.sigma2:.4f}")
        out[f"toral_{doc['scenery']['q_mod']}"] = {
            "ks": rep.ks_pass_fraction, "var": rep.pooled_mc_var_y1}
        stamp(name, t0)

    print("== LLN tracker ==")
    doc = load_fixture("lln_variance.json")
    if not full:
        doc = {**doc, "n_omegas": 10}
    rep, _, _ = run_experiment(doc)
    nmax = max(rep.n_ladder)
    for p in rep.p_set:
        series = [round(rep.mean_ratio[(n, p)], 4) for n in rep.n_ladder]
        print(f"  p={p}: mean ratios {series} (ladder {rep.n_ladder})")
    out["lln_at_nmax"] = {str(p): rep.mean_ratio[(nmax, p)] for p in rep.p_set}
    stamp("lln", t0)

    print("== cross-window orthogonality ==")
    doc = load_fixture("orthogonality.json")
    if not full:
        doc = {**doc, "n_omegas": 10}
    rep, _, _ = run_experiment(doc)
    model = walk.build_walk_model(WALK_PRESETS[doc["walk"]["preset"]]())
    kappa = cross_window_kappa(model.c0, rep.windows)
    for p in rep.p_set:
        series = np.array([rep.normalized[(n, p)] for n in rep.n_ladder])
        for n, row in zip(rep.n_ladder, series):
            m, se = mean_se(row)
            print(f"  p={p} n=2^{int(math.log2(n))}: V/(n log n) = {m:.5f} "
                  f"+- {se:.5f} vs kappa/log n = {kappa / math.log(n):.5f}")
        m, se = mean_se((series * np.log(rep.n_ladder)[:, None]).mean(axis=0))
        print(f"  p={p}: per-omega mean V/n = {m:.4f} +- {se:.4f} vs kappa "
              f"= {kappa:.4f} (z {(m - kappa) / se:+.2f}); endpoint "
              f"decrease fraction {rep.endpoint_decrease_fraction[p]:.2f}")
    out["orthogonality_decrease"] = {
        str(p): rep.endpoint_decrease_fraction[p] for p in rep.p_set}
    stamp("orthogonality", t0)

    print("== sup local time (simple walk) ==")
    doc = load_fixture("erdos_taylor.json")
    if not full:
        doc = {**doc, "n_omegas": 10}
    rep, _, _ = run_experiment(doc)
    for n in rep.n_ladder:
        m, se = mean_se(rep.log_ratio[n])
        print(f"  n=2^{int(math.log2(n))}: log-ratio={m:.4f} +- {se:.4f} "
              f"vs band [1/(4pi), 1/pi] = [{0.25 / math.pi:.4f}, {1 / math.pi:.4f}] "
              f"power-ratio={rep.mean_power_ratio[n]:.4f}")
    first, last = rep.log_ratio[rep.n_ladder[0]], rep.log_ratio[rep.n_ladder[-1]]
    m, se = mean_se(np.subtract(last, first))
    print(f"  paired growth first -> last rung: {m:+.4f} +- {se:.4f} (z {m / se:+.2f})")
    out["erdos_taylor"] = {str(n): [rep.mean_log_ratio[n], rep.mean_power_ratio[n]]
                           for n in rep.n_ladder}
    stamp("erdos-taylor", t0)

    print("== inequality suites ==")
    for name in ("newman_wright.json", "moricz_sequence.json", "moricz_walk.json"):
        doc = load_fixture(name)
        rep, _, _ = run_experiment(doc)
        if name.startswith("newman"):
            print(f"  NW margins: {[round(m, 4) for m in rep.margins]} "
                  f"violations={rep.violations}")
        else:
            print(f"  {name}: superadd={rep.super_additive} hyp_ok={rep.hypothesis_ok} "
                  f"violations={rep.violations} worst={rep.worst_margin_se_units:.1f} SE")
        stamp(name, t0)

    print("== transient variance at fixture scale ==")
    doc = load_fixture("transient_3d.json")
    if not full:
        doc = {**doc, "n_omegas": 4, "m_sceneries": 100}
    rep, _, _ = run_experiment(doc)
    print(f"  series={rep.series_value:.4f} exact={rep.exact_mean:.4f} "
          f"(se {rep.exact_se:.4f}) mc={rep.mc_mean:.4f} (se {rep.mc_se:.4f}) "
          f"agree={rep.agree}")
    out["transient"] = {"series": rep.series_value, "exact": rep.exact_mean,
                        "mc": rep.mc_mean}
    stamp("transient", t0)

    return out


def freeze(out):
    path = os.path.join(FIXDIR, "pilot_tolerances.json")
    erdos_taylor = {"compare": "rung-mean-in-band-and-paired-growth",
                    "limit": 1.0 / math.pi}
    # the 150-omega confirmation run is not part of this pilot; carry it over
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh).get("erdos_taylor", {})
        if "confirmation_150_omegas" in old:
            erdos_taylor["confirmation_150_omegas"] = old["confirmation_150_omegas"]
    tol = {
        "_note": "pilot-frozen acceptance thresholds; regenerate with scripts/pilot_calibration.py --freeze",
        "fclt": {"ks_p": 0.01, "ks_pass_fraction": 0.9,
                 "offdiag_abs": 0.1, "offdiag_mode": "pooled-mean"},
        "ma_variance_band": [0.85, 1.15],
        "lln_band": [0.8, 1.2],
        "erdos_taylor": erdos_taylor,
        "inequality_se_units": 3.0,
        "pilot_observations": out,
    }
    with open(path, "w") as fh:
        json.dump(tol, fh, indent=1, sort_keys=True)
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="reduced scale smoke pilot")
    ap.add_argument("--freeze", action="store_true",
                    help="write fixtures/pilot_tolerances.json")
    args = ap.parse_args()
    out = pilot(full=not args.quick)
    if args.freeze:
        freeze(out)


if __name__ == "__main__":
    main()
