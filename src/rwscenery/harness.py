"""Statistical experiments confronting simulation with the limit theorems.

Quenched semantics are preserved throughout: a walk realization omega is
fixed per seed, scenery draws x are taken for that fixed omega, and
x-samples are never pooled across omegas.  "For a.e. omega" is
operationalized as: run n_omegas independent walks and require the
criterion for at least a configured fraction of them.

Normalization conventions.  The rescaled process is

    Y_n(t) = S_{floor(n t)} / sqrt(C0 n log n)

so increments over (t_{j-1}, t_j] target Normal(0, phi_f(0) (t_j - t_{j-1})).
Because the self-intersection law of large numbers converges only at log
speed, distribution-shape tests standardize each increment by its exact
quenched standard deviation (computable from window local times and the
field correlations); the slowly converging level is reported separately as
a variance-ratio series.  Finite-n acceptance bands are pilot-calibrated
fixtures, never literal limits with tight tolerances.

Runner contract.  Each experiment is one runner whose keyword-only
parameters are exactly its config fields (``cli.EXPERIMENTS``), with no
defaults: cli.py declares each default once.  A runner checks its inputs
through the ``require_*`` rules, which ``rwscenery validate`` applies to the
same fields, and its report carries its own pass rule as ``passed``
(None, or absent, for a report-only result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .localtime import local_times, max_local_time, pair_count_tables, path_table
from .rng import derive_seed
from .scenery import (
    IIDScenery,
    SceneryModel,
    field_increments,
    is_associated,
    quenched_variance,
    site_values,
    spectral_density,
    stats,
    window_boundaries,
)
from .walk import RECURRENT, WalkModel, WalkPath, sample_path
from . import scenery as scenery_mod

MORICZ_CMAX = (1.0 - 2.0 ** -0.25) ** -4.0
# run_fclt's pass rule (offdiag_pass_fraction is reported, not judged)
FCLT_THRESHOLDS = {"ks_p": 0.01, "ks_pass_fraction": 0.9, "offdiag_abs": 0.1,
                   "offdiag_pass_fraction": 0.9}
SQRT2 = math.sqrt(2.0)


def _omega_seed(master: int, i: int) -> int:
    return derive_seed(master, "omega", i)


def _x_seeds(master: int, i: int, m: int) -> list:
    return [derive_seed(master, "scenery", i, j) for j in range(m)]


def _omega_pass(model: WalkModel, n: int, n_omegas: int, seed: int, fn) -> list:
    """[fn(i, path_seed, path) for each omega i]: the n-step path drawn once
    with path_seed = _omega_seed(seed, i), and each path (with its cached site
    table) dead before the next one is drawn.  ``fn`` returns the omega's rows
    and keeps no state, so the runner reduces the results in omega order.
    """
    seeds = [_omega_seed(seed, i) for i in range(n_omegas)]
    return [fn(i, s, sample_path(model, n, s)) for i, s in enumerate(seeds)]


def _rule(ok, message: str):
    """A runner's rule for its walk or scenery; cli.py names the field that breaks it."""
    def require(value) -> None:
        if not ok(value):
            raise ValueError(message)
    return require


require_planar_recurrent = _rule(lambda w: w.c0 is not None,
                                 "the runner normalizes by C0 n log n, which needs a centered "
                                 "planar walk whose support spans a rank-2 lattice")
require_aperiodic_planar = _rule(  # planar and recurrent: centered, not deterministic
    lambda w: w.dimension == 2 and w.classification == RECURRENT and w.aperiodic,
    "sup-local-time tracking needs a centered aperiodic planar walk, not a deterministic one")
require_transient = _rule(lambda w: w.effectively_transient and w.dimension >= 2,
                          "transient_variance_check needs a transient walk in d >= 2 "
                          "(the point-mass constant vanishes in d = 1)")
require_associated = _rule(is_associated, "scenery is not certified associated (i.i.d. or "
                                          "single-signed moving average required)")
require_iid = _rule(lambda s: isinstance(s, IIDScenery),
                    "exact fourth-moment verification needs an i.i.d. scenery")
require_toral = _rule(lambda s: isinstance(s, scenery_mod.ToralScenery),
                      "truncation ladder applies to toral sceneries")
require_t_grid = _rule(lambda g: len(g) > 0 and g[-1] == 1.0
                       and all(a < b for a, b in zip((0.0, *g), g)),
                       "t_grid must increase strictly within (0, 1] and end at 1.0")
require_windows = _rule(lambda w: len(w) == 4 and 0 < w[0] < w[1] < w[2] < w[3] < 1,
                        "windows need [A, B, C, D] with 0 < A < B < C < D < 1")
require_g0_kind = _rule(lambda k: k in ("sqrt3k", "self_intersection"),
                        "g0_kind must be 'sqrt3k' or 'self_intersection'")


class _Report:
    def to_dict(self) -> dict:
        return asdict(self)  # recurses into nested dataclasses


# ---------------------------------------------------------------------------
# FCLT suite


@dataclass
class OmegaFcltStats:
    omega_index: int
    path_seed: int
    ks_stat: list           # per window
    ks_pvalue: list
    window_variance: list   # exact quenched Var of each increment
    variance_ratio: list    # exact Var / (C0 * window_len * log n * sigma2)
    offdiag: list           # corr of standardized increments, upper triangle
    offdiag_max: float      # max |corr| for this omega
    exact_var_y1: float     # quenched Var(Y_n(1)), exact counts
    mc_var_y1: float        # scenery-sample estimate of the same


@dataclass
class FcltReport(_Report):
    n: int
    t_grid: tuple
    m_sceneries: int
    n_omegas: int
    seed: int
    sigma2: float               # phi_f(0), the C0-normalized target variance
    c0: float
    c0_mode: str                # always "exact"
    degenerate: bool
    per_omega: list
    ks_pass_fraction: list      # per window, at the ks_p threshold
    offdiag_pass_fraction: float
    pooled_offdiag: list        # per increment pair: mean corr over omegas
    pooled_offdiag_max: float   # max |pooled correlation|
    pooled_exact_var_y1: float
    pooled_mc_var_y1: float
    thresholds: dict
    passed: Optional[bool]


def run_fclt(*, walk: WalkModel, scenery: SceneryModel, n: int, t_grid,
             m_sceneries: int, n_omegas: int, seed: int) -> FcltReport:
    """Quenched FCLT check: per-omega KS tests of the rescaled increments
    against the normal law, increment decorrelation, and variance tracking.

    Degenerate sigma^2 flips the report into collapse-tracking mode: no KS
    tests, pass/fail left undecided, variance series still reported.
    """
    require_planar_recurrent(walk)
    t_grid = tuple(float(t) for t in t_grid)
    require_t_grid(t_grid)
    edges = window_boundaries(n, t_grid)
    tol = FCLT_THRESHOLDS
    logn, c0 = math.log(n), walk.c0
    sigma2 = spectral_density(scenery, dimension=2).at_zero()
    degenerate = abs(sigma2) < 1e-12

    def omega(i, path_seed, path):
        """The omega's statistics; the variances are still unscaled by C0."""
        win_var = [quenched_variance(scenery, path, (edges[j], edges[j + 1]))
                   for j in range(len(edges) - 1)]
        exact_var_y1 = quenched_variance(scenery, path, (0, edges[-1]))
        inc = field_increments(scenery, path, t_grid, _x_seeds(seed, i, m_sceneries))
        ks_stat, ks_p, offdiag = [], [], []
        if not degenerate:
            z = np.empty_like(inc)
            for j, v in enumerate(win_var):
                z[:, j] = inc[:, j] / math.sqrt(v) if v > 0 else 0.0
                res = stats.ks_1samp(z[:, j], stats.norm.cdf)
                ks_stat.append(float(res.statistic))
                ks_p.append(float(res.pvalue))
            if z.shape[1] > 1:
                corr = np.corrcoef(z, rowvar=False)
                iu = np.triu_indices(z.shape[1], k=1)
                offdiag = [float(c) for c in corr[iu]]
        return OmegaFcltStats(
            omega_index=i, path_seed=path_seed, ks_stat=ks_stat, ks_pvalue=ks_p,
            window_variance=[float(v) for v in win_var], variance_ratio=[],
            offdiag=offdiag,
            offdiag_max=float(np.max(np.abs(offdiag))) if offdiag else 0.0,
            exact_var_y1=float(exact_var_y1),
            mc_var_y1=float(inc.sum(axis=1).var(ddof=1)))

    per_omega = _omega_pass(walk, n, n_omegas, seed, omega)
    widths = [b - a for a, b in zip(edges, edges[1:])]
    for o in per_omega:
        o.exact_var_y1 /= c0 * n * logn
        o.mc_var_y1 /= c0 * n * logn
        o.variance_ratio = [float(v / (c0 * max(w, 1) * logn) if degenerate
                                  else v / (c0 * w * logn * sigma2) if w else 0.0)
                            for v, w in zip(o.window_variance, widths)]

    if degenerate:
        ks_pass = [0.0] * len(widths)
        off_pass = 1.0
        pooled_off = []
        pooled_off_max = 0.0
        passed = None
    else:
        ks_pass = [float(np.mean([o.ks_pvalue[j] > tol["ks_p"] for o in per_omega]))
                   for j in range(len(widths))]
        off_pass = float(np.mean([o.offdiag_max < tol["offdiag_abs"] for o in per_omega]))
        # pooling over omegas averages the sampling noise out of each pair's
        # correlation estimate; the pooled value is the criterion statistic
        offmat = np.array([o.offdiag for o in per_omega])
        pooled_off = [float(v) for v in offmat.mean(axis=0)] if offmat.size else []
        pooled_off_max = float(np.max(np.abs(pooled_off))) if pooled_off else 0.0
        passed = (all(f >= tol["ks_pass_fraction"] for f in ks_pass)
                  and pooled_off_max < tol["offdiag_abs"])
    return FcltReport(
        n=n, t_grid=t_grid, m_sceneries=m_sceneries,
        n_omegas=n_omegas, seed=seed, sigma2=sigma2, c0=c0,
        c0_mode="exact", degenerate=degenerate, per_omega=per_omega,
        ks_pass_fraction=ks_pass, offdiag_pass_fraction=off_pass,
        pooled_offdiag=pooled_off, pooled_offdiag_max=pooled_off_max,
        pooled_exact_var_y1=float(np.mean([o.exact_var_y1 for o in per_omega])),
        pooled_mc_var_y1=float(np.mean([o.mc_var_y1 for o in per_omega])),
        thresholds=dict(tol), passed=passed)


@dataclass
class VarianceLadderReport(_Report):
    """Var(Y_n(1)) along an n-ladder (degenerate-scenery collapse witness)."""

    n_ladder: list
    pooled_exact_var_y1: list
    degenerate: list
    decreasing: bool
    passed: bool


def track_variance_ladder(*, walk: WalkModel, scenery: SceneryModel, n_ladder: Sequence[int],
                          n_omegas: int, seed: int) -> VarianceLadderReport:
    """run_fclt's pooled Var(Y_n(1)) at each rung n, read off the n-step
    prefixes of one pass of n_ladder[-1]-step paths (sample_path is prefix-stable)."""
    require_planar_recurrent(walk)
    n_ladder = sorted(int(n) for n in n_ladder)
    rows = _omega_pass(walk, n_ladder[-1], n_omegas, seed, lambda i, path_seed, path: [
        quenched_variance(scenery, path, (0, n)) for n in n_ladder])
    vals = [float(np.mean([float(v) / (walk.c0 * n * math.log(n)) for v in rung]))
            for n, rung in zip(n_ladder, zip(*rows))]
    degenerate = abs(spectral_density(scenery, dimension=2).at_zero()) < 1e-12
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    return VarianceLadderReport(n_ladder=n_ladder, pooled_exact_var_y1=vals, decreasing=decreasing,
                                degenerate=[degenerate] * len(n_ladder), passed=decreasing)


# ---------------------------------------------------------------------------
# LLN trackers


@dataclass
class LlnReport:
    n_ladder: list
    p_set: list
    n_omegas: int
    c0: float
    mean_ratio: dict      # (n, p) -> mean of V_n(omega, p)/(C0 n log n)
    std_ratio: dict
    max_ratio: dict       # empirical stand-in for the a.e.-finite K(omega)
    trend_to_one: dict    # p -> |mean - 1| along the ladder

    def to_dict(self) -> dict:
        return {
            "n_ladder": list(self.n_ladder), "p_set": [list(p) for p in self.p_set],
            "n_omegas": self.n_omegas, "c0": self.c0,
            "mean_ratio": {f"{n}|{p}": v for (n, p), v in self.mean_ratio.items()},
            "std_ratio": {f"{n}|{p}": v for (n, p), v in self.std_ratio.items()},
            "max_ratio": {f"{n}|{p}": v for (n, p), v in self.max_ratio.items()},
            "trend_to_one": {str(p): v for p, v in self.trend_to_one.items()},
        }


def track_variance_lln(*, walk: WalkModel, n_ladder: Sequence[int], n_omegas: int,
                       p_set, seed: int) -> LlnReport:
    """V_n(omega, p) / (C0 n log n) along an n-ladder; the limit is 1 for
    every p.  Prefix windows of a single path per omega keep the ladder
    internally consistent (common random numbers)."""
    require_planar_recurrent(walk)
    n_ladder = sorted(int(n) for n in n_ladder)
    p_set = [tuple(int(c) for c in p) for p in p_set]

    def omega(i, path_seed, path):
        """{(n, p): V_n(omega, p) / (C0 n log n)}"""
        row = {}
        for n in n_ladder:
            tab = local_times(path, (0, n))
            denom = walk.c0 * n * math.log(n)
            row.update({(n, p): pair_count_tables(tab, tab, p) / denom for p in p_set})
        return row

    rows = _omega_pass(walk, n_ladder[-1], n_omegas, seed, omega)
    ratios = {(n, p): [r[(n, p)] for r in rows] for n in n_ladder for p in p_set}
    mean_r = {k: float(np.mean(v)) for k, v in ratios.items()}
    std_r = {k: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0 for k, v in ratios.items()}
    max_r = {k: float(np.max(v)) for k, v in ratios.items()}
    trend = {p: [abs(mean_r[(n, p)] - 1.0) for n in n_ladder] for p in p_set}
    return LlnReport(n_ladder=n_ladder, p_set=p_set, n_omegas=n_omegas,
                     c0=walk.c0, mean_ratio=mean_r, std_ratio=std_r,
                     max_ratio=max_r, trend_to_one=trend)


@dataclass
class OrthogonalityReport:
    n_ladder: list
    windows: tuple                 # (A, B, C, D)
    p_set: list
    n_omegas: int
    normalized: dict               # (n, p) -> list over omegas of V/( n log n)
    mean_normalized: dict
    endpoint_decrease_fraction: dict  # p -> fraction of omegas with last < first

    def to_dict(self) -> dict:
        return {
            "n_ladder": list(self.n_ladder), "windows": list(self.windows),
            "p_set": [list(p) for p in self.p_set], "n_omegas": self.n_omegas,
            "mean_normalized": {f"{n}|{p}": v for (n, p), v in self.mean_normalized.items()},
            "endpoint_decrease_fraction": {str(p): v for p, v
                                           in self.endpoint_decrease_fraction.items()},
        }


def check_increment_orthogonality(*, walk: WalkModel, n_ladder: Sequence[int],
                                  n_omegas: int, windows, p_set, seed: int
                                  ) -> OrthogonalityReport:
    """Cross-interval coincidence counts V(omega, [nA, nB), [nC, nD), p),
    normalized by n log n; asymptotic orthogonality drives them to 0."""
    require_windows(windows)
    a, b, c, d = windows
    n_ladder = sorted(int(n) for n in n_ladder)
    p_set = [tuple(int(x) for x in p) for p in p_set]

    def omega(i, path_seed, path):
        """{(n, p): V(omega, [nA, nB), [nC, nD), p) / (n log n)}"""
        row = {}
        for n in n_ladder:
            tab_i = local_times(path, (int(n * a), int(n * b)))
            tab_j = local_times(path, (int(n * c), int(n * d)))
            row.update({(n, p): pair_count_tables(tab_i, tab_j, p) / (n * math.log(n))
                        for p in p_set})
        return row

    rows = _omega_pass(walk, n_ladder[-1], n_omegas, seed, omega)
    series = {(n, p): [r[(n, p)] for r in rows] for n in n_ladder for p in p_set}
    mean_norm = {k: float(np.mean(v)) for k, v in series.items()}
    dec = {p: float(np.mean(np.less(series[(n_ladder[-1], p)], series[(n_ladder[0], p)])))
           for p in p_set}
    return OrthogonalityReport(n_ladder=n_ladder, windows=tuple(windows),
                               p_set=p_set, n_omegas=n_omegas,
                               normalized=series,
                               mean_normalized=mean_norm,
                               endpoint_decrease_fraction=dec)


# ---------------------------------------------------------------------------
# maximal inequalities


@dataclass
class NewmanWrightReport(_Report):
    lambdas: list
    lhs: list          # mu(max_k |S_k| >= lambda ||S_n||)
    rhs: list          # 2 mu(|S_n| >= (lambda - sqrt 2) ||S_n||)
    lhs_se: list
    rhs_se: list
    margins: list      # rhs - lhs
    violations: list   # margin < -3 * combined SE
    l2_norm: float
    m_sceneries: int

    @property
    def passed(self) -> bool:
        return not any(self.violations)


def check_newman_wright(*, walk: WalkModel, scenery: SceneryModel, n: int, m_sceneries: int,
                        lambda_grid, seed: int) -> NewmanWrightReport:
    """Maximal inequality for associated summands along the n-step path of
    ``seed``:

        mu(max |S_k| >= lam ||S_n||_2) <= 2 mu(|S_n| >= (lam - sqrt 2) ||S_n||_2)

    Rejects sceneries without an association certificate.  Both sides are
    Monte Carlo estimates with binomial standard errors; ||S_n||_2 is exact
    from the counting layer.  ``seed`` also keys the scenery draws.
    """
    require_associated(scenery)
    path = sample_path(walk, n, seed)
    l2 = math.sqrt(quenched_variance(scenery, path, (0, n)))
    max_abs, s_n = _running_max_abs(scenery, path_table(path), _x_seeds(seed, 0, m_sceneries))
    lhs, rhs, lhs_se, rhs_se, margins, viol = [], [], [], [], [], []
    m = m_sceneries
    for lam in lambda_grid:
        p_l = float(np.mean(max_abs >= lam * l2))
        p_r_raw = float(np.mean(np.abs(s_n) >= (lam - SQRT2) * l2))
        p_r = 2.0 * p_r_raw
        se_l = math.sqrt(max(p_l * (1 - p_l), 1e-12) / m)
        se_r = 2.0 * math.sqrt(max(p_r_raw * (1 - p_r_raw), 1e-12) / m)
        margin = p_r - p_l
        lhs.append(p_l)
        rhs.append(p_r)
        lhs_se.append(se_l)
        rhs_se.append(se_r)
        margins.append(margin)
        viol.append(margin < -3.0 * math.hypot(se_l, se_r))
    return NewmanWrightReport(lambdas=[float(x) for x in lambda_grid], lhs=lhs,
                              rhs=rhs, lhs_se=lhs_se, rhs_se=rhs_se,
                              margins=margins, violations=viol, l2_norm=l2,
                              m_sceneries=m_sceneries)


def _running_max_abs(scen: SceneryModel, table, seeds) -> tuple:
    """max_k |S_k| and S_n along the path, one entry per scenery draw.

    256 draws at a time through one pair of (256, n) buffers, reused by every
    chunk: the per-visit values, then their running sums, made absolute in
    place.
    """
    max_abs, s_n = np.empty(len(seeds)), np.empty(len(seeds))
    vals = np.empty((min(len(seeds), 256), len(table.inverse)))
    cs = np.empty_like(vals)
    for lo in range(0, len(seeds), 256):
        k = min(256, len(seeds) - lo)
        # mode="clip" gathers straight into out; "raise" would buffer a copy
        np.take(site_values(scen, table.sites, seeds[lo:lo + k]), table.inverse, axis=1,
                out=vals[:k], mode="clip")
        np.cumsum(vals[:k], axis=1, out=cs[:k])
        s_n[lo:lo + k] = cs[:k, -1]
        np.abs(cs[:k], out=cs[:k])
        np.max(cs[:k], axis=1, out=max_abs[lo:lo + k])
    return max_abs, s_n


def _window_v_table(path: WalkPath, n: int) -> np.ndarray:
    """V(omega, [b, b+k)) for all 0 <= b <= b+k <= n, O(n^2) incremental."""
    ids = path_table(path).inverse[:n]
    v = np.zeros((n + 1, n + 1))  # v[b, k]
    # V([b, b+k)) = V([b+1, b+k)) + 2 #{u in [b+1, b+k): Z_u = Z_b} + 1
    for b in range(n - 1, -1, -1):
        v[b, 1] = 1.0
        v[b, 2:n - b + 1] = v[b + 1, 1:n - b] + 2 * np.cumsum(ids[b + 1:] == ids[b]) + 1
    return v


def _fourth_moment_window(path: WalkPath, law, b: int, k: int) -> float:
    """Exact E |S_{[b,b+k)}|^4 for an i.i.d. scenery from window local times:
    3 (E X^2)^2 sum_{l1 != l2} w^2 w^2 + E X^4 sum_l w^4."""
    tab = local_times(path, (b, b + k))
    w2 = tab.counts.astype(np.float64) ** 2
    v = float(w2.sum())
    w4 = float((w2**2).sum())
    return 3.0 * law.moment(2) ** 2 * (v * v - w4) + law.fourth_moment * w4


@dataclass
class MoriczReport(_Report):
    n: int
    g0_kind: str
    super_additive: bool
    hypothesis_ok: bool         # E S^4 <= G0^2 on all checked windows
    hypothesis_worst: float     # min of G0^2 - E S^4 over checked windows
    windows: list               # dyadic (b, k) used for the maximum bound
    m4_estimates: list          # E max^4 per window (Monte Carlo)
    m4_se: list
    bounds: list                # C_max * G0(b,k)^2
    margins: list               # bound - estimate
    worst_margin_se_units: float
    violations: int
    m_sceneries: int

    @property
    def passed(self) -> Optional[bool]:  # undecided where the bound's hypotheses fail
        return self.violations == 0 if self.super_additive and self.hypothesis_ok else None


def check_moricz(*, walk: WalkModel, scenery: SceneryModel, n: int, m_sceneries: int,
                 g0_kind: str, seed: int) -> MoriczReport:
    """Fourth-moment maximal bound E max_k |S_{b,k}|^4 <= C_max G0(b,n)^2
    with C_max = (1 - 2^{-1/4})^{-4}, along the n-step path of ``seed``
    (which also keys the scenery draws).

    The hypothesis E |S_{b,k}|^4 <= G0(b,k)^2 is verified EXACTLY (local
    times and law moments, no Monte Carlo) on every window of the dyadic
    grid, and super-additivity of G0 is verified exhaustively over all
    index triples.  Only the max-moment side is estimated.
    """
    require_iid(scenery)
    require_g0_kind(g0_kind)
    path = sample_path(walk, n, seed)
    law = scenery.law
    v_table = _window_v_table(path, n)
    if g0_kind == "sqrt3k":
        g0 = np.sqrt(3.0) * np.tile(np.arange(n + 1, dtype=np.float64), (n + 1, 1))
    else:
        g0 = 2.0 * math.sqrt(law.fourth_moment) * v_table

    super_additive = _check_super_additive(g0, n)

    windows = [(b, 2**j) for j in range(int(n).bit_length())  # dyadic, k = 2^j <= n
               for b in range(0, n - 2**j + 1, 2**j)]
    hyp_margins = [g0[b, k] ** 2 - _fourth_moment_window(path, law, b, k) for b, k in windows]
    hypothesis_ok = all(m >= -1e-6 for m in hyp_margins)

    big = [w for w in windows if w[1] >= 8]  # max over a single step carries no info
    m4_draws = _window_max4(scenery, path_table(path), _x_seeds(seed, 0, m_sceneries), n, big)
    est, ses, bounds, margins = [], [], [], []
    worst_units = math.inf
    viol = 0
    for (b, k), m4s in zip(big, m4_draws):
        e = float(m4s.mean())
        se = float(m4s.std(ddof=1) / math.sqrt(m_sceneries))
        bound = MORICZ_CMAX * g0[b, k] ** 2
        est.append(e)
        ses.append(se)
        bounds.append(float(bound))
        margins.append(float(bound - e))
        units = (bound - e) / se if se > 0 else math.inf
        worst_units = min(worst_units, units)
        if bound - e < -3.0 * se:
            viol += 1
    return MoriczReport(n=n, g0_kind=g0_kind, super_additive=super_additive,
                        hypothesis_ok=hypothesis_ok,
                        hypothesis_worst=float(min(hyp_margins)),
                        windows=[list(w) for w in big], m4_estimates=est,
                        m4_se=ses, bounds=bounds, margins=margins,
                        worst_margin_se_units=float(worst_units),
                        violations=viol, m_sceneries=m_sceneries)


def _window_max4(scen: SceneryModel, table, seeds, n: int, windows) -> list:
    """max_{0 < j <= k} |S_{b+j} - S_b|^4 per scenery draw, one array per
    window (b, k) inside the first n steps.

    The prefix sums and the window differences are one (m, n) array each;
    every window reuses the second in place.
    """
    cs = np.zeros((len(seeds), n + 1))  # S_0 = 0, then S_1, ..., S_n per draw
    np.cumsum(site_values(scen, table.sites, seeds)[:, table.inverse[:n]], axis=1,
              out=cs[:, 1:])
    seg = np.empty((len(seeds), n))
    out = []
    for b, k in windows:
        d = np.subtract(cs[:, b + 1:b + k + 1], cs[:, b:b + 1], out=seg[:, :k])
        out.append(np.max(np.abs(d, out=d), axis=1) ** 4)
    return out


def _check_super_additive(g0: np.ndarray, n: int) -> bool:
    """G0(b,k) + G0(b+k,l) <= G0(b,k+l) for every b, k, l; exhaustive."""
    if float(np.max(np.abs(g0[:, 0]))) > 1e-12:
        return False
    for b in range(n - 1):
        rest = n - b
        ks = np.arange(1, rest)
        ls = np.arange(1, rest)
        tot = ks[:, None] + ls[None, :]
        valid = tot <= rest
        lhs = g0[b, ks][:, None] + g0[b + ks][:, ls]
        rhs = g0[b, np.minimum(tot, rest)]
        if np.any((lhs - rhs)[valid] > 1e-9):
            return False
    return True


# ---------------------------------------------------------------------------
# tightness


@dataclass
class TightnessReport:
    n: int
    epsilon: float
    delta_ladder: list
    grid_points: int
    estimates: dict        # delta -> mean over omegas of mu(modulus >= eps)
    per_omega: dict        # delta -> list
    monotone_in_delta: bool

    def to_dict(self) -> dict:
        return {"n": self.n, "epsilon": self.epsilon,
                "delta_ladder": list(self.delta_ladder),
                "grid_points": self.grid_points,
                "estimates": {str(k): v for k, v in self.estimates.items()},
                "per_omega": {str(k): v for k, v in self.per_omega.items()},
                "monotone_in_delta": self.monotone_in_delta}


def estimate_tightness_modulus(*, walk: WalkModel, scenery: SceneryModel, n: int,
                               m_sceneries: int, n_omegas: int, seed: int, delta_ladder,
                               epsilon: float, grid_points: int) -> TightnessReport:
    """Empirical mu(sup_{|t'-t|<=delta} |Y_n(t') - Y_n(t)| >= eps) per delta.

    The sup over t is approximated on a grid of ``grid_points`` strides;
    halving the stride must not change conclusions (grid_points is exposed
    for exactly that check).
    """
    require_planar_recurrent(walk)
    grid = [(i + 1) / grid_points for i in range(grid_points)]
    deltas = sorted(float(d) for d in delta_ladder)

    def omega(i, path_seed, path):
        """S at the grid points, (m, grid_points + 1), not yet scaled by C0."""
        inc = field_increments(scenery, path, grid, _x_seeds(seed, i, m_sceneries))
        return np.concatenate([np.zeros((inc.shape[0], 1)), np.cumsum(inc, axis=1)], axis=1)

    partial_sums = _omega_pass(walk, n, n_omegas, seed, omega)
    scale = math.sqrt(walk.c0 * n * math.log(n))
    per_omega = {d: [] for d in deltas}
    for unscaled in partial_sums:
        y = unscaled / scale
        for d in deltas:
            w = max(1, int(round(d * grid_points)))
            mod = np.zeros(y.shape[0])
            for o in range(1, min(w, y.shape[1] - 1) + 1):
                np.maximum(mod, np.max(np.abs(y[:, o:] - y[:, :-o]), axis=1), out=mod)
            per_omega[d].append(float(np.mean(mod >= epsilon)))
    estimates = {d: float(np.mean(v)) for d, v in per_omega.items()}
    vals = [estimates[d] for d in deltas]
    return TightnessReport(n=n, epsilon=epsilon, delta_ladder=deltas,
                           grid_points=grid_points, estimates=estimates,
                           per_omega=per_omega,
                           monotone_in_delta=all(a <= b + 1e-12 for a, b
                                                 in zip(vals, vals[1:])))


# ---------------------------------------------------------------------------
# sup local time trackers


@dataclass
class ErdosTaylorReport:
    n_ladder: list
    n_omegas: int
    log_ratio: dict          # n -> list over omegas of sup w_n / (log n)^2
                             # (kept out of to_dict() and the payload)
    mean_log_ratio: dict     # n -> mean of log_ratio[n]
    quantiles_log_ratio: dict
    mean_power_ratio: dict   # n -> mean of sup w_n / n^0.1
    distance_to_limit: dict  # n -> |mean_log_ratio - 1/pi|

    def to_dict(self) -> dict:
        return {"n_ladder": list(self.n_ladder), "n_omegas": self.n_omegas,
                "mean_log_ratio": {str(k): v for k, v in self.mean_log_ratio.items()},
                "quantiles_log_ratio": {str(k): v for k, v in self.quantiles_log_ratio.items()},
                "mean_power_ratio": {str(k): v for k, v in self.mean_power_ratio.items()},
                "distance_to_limit": {str(k): v for k, v in self.distance_to_limit.items()}}


def track_erdos_taylor(*, walk: WalkModel, n_ladder: Sequence[int], n_omegas: int,
                       epsilon: float, seed: int) -> ErdosTaylorReport:
    """sup_l w_n / (log n)^2 along a ladder (planar limit 1/pi), plus the
    o(n^eps) witness sup_l w_n / n^eps."""
    require_aperiodic_planar(walk)
    n_ladder = sorted(int(n) for n in n_ladder)
    rows = _omega_pass(walk, n_ladder[-1], n_omegas, seed,
                       lambda i, path_seed, path: [max_local_time(path, n) for n in n_ladder])
    sup = {n: [r[k] for r in rows] for k, n in enumerate(n_ladder)}
    log_ratio = {n: [s / math.log(n) ** 2 for s in v] for n, v in sup.items()}
    mean_log = {n: float(np.mean(r)) for n, r in log_ratio.items()}
    quant = {n: [float(q) for q in np.quantile(r, [0.1, 0.5, 0.9])]
             for n, r in log_ratio.items()}
    mean_pow = {n: float(np.mean([s / n**epsilon for s in v])) for n, v in sup.items()}
    dist = {n: abs(mean_log[n] - 1.0 / math.pi) for n in n_ladder}
    return ErdosTaylorReport(n_ladder=n_ladder, n_omegas=n_omegas,
                             log_ratio=log_ratio, mean_log_ratio=mean_log,
                             quantiles_log_ratio=quant, mean_power_ratio=mean_pow,
                             distance_to_limit=dist)


# ---------------------------------------------------------------------------
# transient variance


@dataclass
class TransientVarianceReport(_Report):
    n: int
    n_omegas: int
    m_sceneries: int
    series_value: float      # truncated series + tail correction
    series_truncated: float
    tail_estimate: float
    exact_mean: float        # mean over omegas of exact Var_x(S_n)/n
    exact_se: float
    mc_mean: float           # scenery-sampled estimate of the same
    mc_se: float
    combined_error: float
    agree: bool

    @property
    def passed(self) -> bool:
        return self.agree


def transient_variance_check(*, walk: WalkModel, scenery: SceneryModel, n: int,
                             m_sceneries: int, n_omegas: int, k_max: int,
                             seed: int) -> TransientVarianceReport:
    """||S_n||^2 / n against the Green-series limit for transient walks.

    Both an exact per-omega value (counts times correlations) and a scenery
    Monte Carlo estimate are produced; agreement is within the combined
    error bars (3 SE over omegas plus half the series tail, which is an
    estimate rather than a bound).
    """
    require_transient(walk)
    est = scenery_mod.asymptotic_variance(scenery, walk, k_max=k_max)
    series = est.value + est.tail_estimate

    def omega(i, path_seed, path):
        inc = field_increments(scenery, path, [1.0], _x_seeds(seed, i, m_sceneries))
        return quenched_variance(scenery, path, (0, n)) / n, float(inc[:, 0].var(ddof=1)) / n

    rows = _omega_pass(walk, n, n_omegas, seed, omega)
    exact_vals, mc_vals = [e for e, _ in rows], [m for _, m in rows]
    exact_mean = float(np.mean(exact_vals))
    exact_se = float(np.std(exact_vals, ddof=1) / math.sqrt(n_omegas)) if n_omegas > 1 else 0.0
    mc_mean = float(np.mean(mc_vals))
    mc_se = float(np.std(mc_vals, ddof=1) / math.sqrt(n_omegas)) if n_omegas > 1 else 0.0
    combined = 3.0 * mc_se + 0.5 * abs(est.tail_estimate)
    agree = abs(mc_mean - series) <= combined and abs(exact_mean - series) <= (
        3.0 * exact_se + 0.5 * abs(est.tail_estimate))
    return TransientVarianceReport(
        n=n, n_omegas=n_omegas, m_sceneries=m_sceneries, series_value=series,
        series_truncated=est.value, tail_estimate=est.tail_estimate,
        exact_mean=exact_mean, exact_se=exact_se, mc_mean=mc_mean, mc_se=mc_se,
        combined_error=combined, agree=agree)


# ---------------------------------------------------------------------------
# trig-polynomial truncation ladder (report-only)


@dataclass
class TruncationLadderReport(_Report):
    terms_ladder: list
    norm_c_dropped: list      # ||f - f_k||_c per rung
    density_sup_bound: list   # ||phi_{f - f_k}||_inf <= ||f - f_k||_c^2
    var_y1: list              # pooled exact Var(Y_n(1)) per rung


def run_truncation_ladder(*, walk: WalkModel, scenery: SceneryModel, n: int,
                          n_omegas: int, seed: int, terms_ladder) -> TruncationLadderReport:
    """Approximation ladder for toral observables: truncate f to its largest
    coefficient pairs and report how the spectral-density bound and the
    observed variance respond.  Report-only; how faithfully the ladder
    represents the full admissible class is not asserted."""
    require_planar_recurrent(walk)
    require_toral(scenery)
    norm_drop, subs = [], []
    for terms in terms_ladder:
        fk = scenery.poly.truncate_to(int(terms))
        norm_drop.append(float(sum(abs(c) for k, c in scenery.poly.coeffs.items()
                                   if k not in fk.coeffs)))
        subs.append(scenery_mod.ToralScenery(pair=scenery.pair, poly=fk, q_mod=scenery.q_mod,
                                             orbit_box=scenery.orbit_box))
    rows = _omega_pass(walk, n, n_omegas, seed, lambda i, path_seed, path: [
        quenched_variance(sub, path, (0, n)) for sub in subs])
    var1 = [float(np.mean([v / (walk.c0 * n * math.log(n)) for v in rung]))
            for rung in zip(*rows)]
    return TruncationLadderReport(terms_ladder=[int(t) for t in terms_ladder],
                                  norm_c_dropped=norm_drop,
                                  density_sup_bound=[d**2 for d in norm_drop],
                                  var_y1=var1)
