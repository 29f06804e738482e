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
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .localtime import max_local_time, pair_count_tables, path_table, window_tables
from .rng import derive_seed, derive_seeds
from .scenery import (
    _DRAW_CHUNK,
    IIDScenery,
    SceneryModel,
    field_increments,
    is_associated,
    lag_sum,
    quenched_variance,
    site_values,
    spectral_density,
    stats,
    window_boundaries,
)
from .walk import (RECURRENT, STEP_CHUNK, WalkModel, WalkPath, residue_blocks, sample_path,
                   spectral_variance)
from . import scenery as scenery_mod

MORICZ_CMAX = (1.0 - 2.0 ** -0.25) ** -4.0
# run_fclt's pass rule (offdiag_pass_fraction is reported, not judged)
FCLT_THRESHOLDS = {"ks_p": 0.01, "ks_pass_fraction": 0.9, "offdiag_abs": 0.1,
                   "offdiag_pass_fraction": 0.9}
SQRT2 = math.sqrt(2.0)
# draws per step-major block of _visit_sums: one (sites x draws) value
# table, one walk of the path
_VISIT_DRAWS = 1024
# running-sum rows per batch that _running_max_abs folds
_FOLD_ROWS = 64


def _omega_seed(master: int, i: int) -> int:
    return derive_seed(master, "omega", i)


def _x_seeds(master: int, i: int, m: int) -> list:
    return derive_seeds(master, "scenery", i, count=m)


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
    def require(*values) -> None:
        if not ok(*values):
            raise ValueError(message)
    return require


require_planar_recurrent = _rule(lambda w: w.c0 is not None,
                                 "the runner normalizes by C0 n log n, which needs a centered "
                                 "planar walk whose support spans a rank-2 lattice")
require_planar = _rule(lambda w: w.dimension == 2,
                       "the p_set lags are planar, so the runner needs a planar walk")
require_aperiodic_planar = _rule(  # planar and recurrent: centered, not deterministic
    lambda w: w.dimension == 2 and w.classification == RECURRENT and w.aperiodic,
    "sup-local-time tracking needs a centered aperiodic planar walk, not a deterministic one")
require_associated = _rule(is_associated, "scenery is not certified associated (i.i.d. or "
                                          "single-signed moving average required)")
require_iid = _rule(lambda s: isinstance(s, IIDScenery),
                    "exact fourth-moment verification needs an i.i.d. scenery")
require_toral = _rule(lambda s: isinstance(s, scenery_mod.ToralScenery),
                      "truncation ladder applies to toral sceneries")
require_t_grid = _rule(  # (t_grid, n): window j is [floor(n t_{j-1}), floor(n t_j))
    lambda g, n: len(g) > 0 and g[-1] == 1.0
    and all(math.floor(n * a) < math.floor(n * b) for a, b in zip((0.0, *g), g)),
    "t_grid must increase within (0, 1] and end at 1.0, and every window "
    "[floor(n t_{j-1}), floor(n t_j)) must hold at least one of the n steps")
require_windows = _rule(lambda w: len(w) == 4 and 0 < w[0] < w[1] < w[2] < w[3] < 1,
                        "windows need [A, B, C, D] with 0 < A < B < C < D < 1")
require_g0_kind = _rule(lambda k: k in ("sqrt3k", "self_intersection"),
                        "g0_kind must be 'sqrt3k' or 'self_intersection'")
require_scenery_dimension = _rule(  # (scenery, walk); an i.i.d. scenery takes any walk
    lambda s, w: (w.dimension == 2 if isinstance(s, scenery_mod.ToralScenery) else
                  all(len(q) == w.dimension for q in s.coeffs)
                  if isinstance(s, scenery_mod.MovingAverageScenery) else True),
    "the scenery's sites need the walk's dimension: 2 for a toral scenery, len(q) for a "
    "moving average")


def physical_memory() -> int:
    """Bytes of physical memory on this machine (``os.sysconf``)."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(what: str, nbytes: int) -> None:
    if nbytes > physical_memory():
        raise ValueError(f"{what} would take {nbytes / 2**30:.1f} GiB, more than the "
                         f"{physical_memory() / 2**30:.1f} GiB of physical memory")


def _visit_bytes(n: int, m_sceneries: int) -> int:
    """_visit_sums' buffers that grow with n: a (sites x min(m, 1024)) value
    table, at most n+1 sites, and one 256-draw site_values chunk."""
    return 8 * (n + 1) * (min(m_sceneries, _VISIT_DRAWS) + _DRAW_CHUNK)


def require_moricz_memory(n: int, m_sceneries: int) -> None:
    """check_moricz holds two (n+1) x (n+1) float64 tables (V and G0 per
    window), the n+1 running-sum rows of min(m, 1024) draws, and the value
    table and site_values chunk they are summed from."""
    _require_memory("the two (n+1)^2 float64 window tables and the (n+1) x "
                    "min(m_sceneries, 1024) running sums",
                    16 * (n + 1) ** 2 + 8 * (n + 1) * min(m_sceneries, _VISIT_DRAWS)
                    + _visit_bytes(n, m_sceneries))


def require_transient(walk: WalkModel) -> None:
    """transient_variance_check's walk: transient in d >= 2, and small enough
    residue blocks for spectral_variance (``walk.residue_blocks``): a
    (rows, deg + 1) complex coefficient block and, above degree 2, a
    (rows, deg, deg) companion block."""
    if not (walk.effectively_transient and walk.dimension >= 2):
        raise ValueError("transient_variance_check needs a transient walk in d >= 2 "
                         "(the point-mass constant vanishes in d = 1)")
    rows, deg = residue_blocks(walk)
    _require_memory(f"spectral_variance's complex residue blocks of degree {deg} in z over "
                    f"{rows} grid points", 16 * rows * (deg + 1 + (deg * deg if deg > 2 else 0)))


def require_newman_wright_memory(n: int, m_sceneries: int) -> None:
    """check_newman_wright holds an (n+1) x min(m, 1024) float64 value table
    and one 256 x (n+1) site_values chunk; its running sums are folded in
    batches of _FOLD_ROWS rows."""
    _require_memory("the (n+1) x min(m_sceneries, 1024) float64 value table",
                    _visit_bytes(n, m_sceneries))


def _payload(value):
    """``value`` with every dict key a string, at any depth: a (n, p) key
    with a lag p reads "n|p", any other key str(key)."""
    if isinstance(value, dict):
        return {f"{k[0]}|{k[1]}" if isinstance(k, tuple) and isinstance(k[-1], tuple)
                else str(k): _payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_payload(v) for v in value]
    return value


class _Report:
    def to_dict(self) -> dict:
        """The payload: every field not marked ``payload: False``, nested
        dataclasses included (``asdict``), with string keys (``_payload``)."""
        hidden = {f.name for f in fields(self) if not f.metadata.get("payload", True)}
        return {k: _payload(v) for k, v in asdict(self).items() if k not in hidden}


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
    require_t_grid(t_grid, n)
    edges = window_boundaries(n, t_grid)
    widths = [b - a for a, b in zip(edges, edges[1:])]
    tol = FCLT_THRESHOLDS
    logn, c0 = math.log(n), walk.c0
    sigma2 = spectral_density(scenery, dimension=2).at_zero()
    degenerate = abs(sigma2) < 1e-12

    def omega(i, path_seed, path):
        """The omega's statistics; Var(Y_n(1)) is scaled by C0 n log n."""
        *win_var, exact_var_y1 = quenched_variance(
            scenery, path, [*zip(edges, edges[1:]), (0, edges[-1])])
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
        win_var = [float(v) for v in win_var]
        return OmegaFcltStats(
            omega_index=i, path_seed=path_seed, ks_stat=ks_stat, ks_pvalue=ks_p,
            window_variance=win_var,
            variance_ratio=[float(v / (c0 * w * logn) if degenerate
                                  else v / (c0 * w * logn * sigma2))
                            for v, w in zip(win_var, widths)],
            offdiag=offdiag,
            offdiag_max=float(np.max(np.abs(offdiag))) if offdiag else 0.0,
            exact_var_y1=float(exact_var_y1) / (c0 * n * logn),
            mc_var_y1=float(inc.sum(axis=1).var(ddof=1)) / (c0 * n * logn))

    per_omega = _omega_pass(walk, n, n_omegas, seed, omega)

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
    rows = _omega_pass(walk, n_ladder[-1], n_omegas, seed, lambda i, path_seed, path:
                       quenched_variance(scenery, path, [(0, n) for n in n_ladder]))
    vals = [float(np.mean([float(v) / (walk.c0 * n * math.log(n)) for v in rung]))
            for n, rung in zip(n_ladder, zip(*rows))]
    degenerate = abs(spectral_density(scenery, dimension=2).at_zero()) < 1e-12
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    return VarianceLadderReport(n_ladder=n_ladder, pooled_exact_var_y1=vals, decreasing=decreasing,
                                degenerate=[degenerate] * len(n_ladder), passed=decreasing)


# ---------------------------------------------------------------------------
# LLN trackers


@dataclass
class LlnReport(_Report):
    n_ladder: list
    p_set: list
    n_omegas: int
    c0: float
    mean_ratio: dict      # (n, p) -> mean of V_n(omega, p)/(C0 n log n)
    std_ratio: dict
    max_ratio: dict       # empirical stand-in for the a.e.-finite K(omega)
    trend_to_one: dict    # p -> |mean - 1| along the ladder


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
        v = pair_count_tables(path, [((0, n), (0, n)) for n in n_ladder], p_set)
        return {(n, p): int(v[r, c]) / (walk.c0 * n * math.log(n))
                for r, n in enumerate(n_ladder) for c, p in enumerate(p_set)}

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
class OrthogonalityReport(_Report):
    n_ladder: list
    windows: tuple                 # (A, B, C, D)
    p_set: list
    n_omegas: int
    # (n, p) -> list over omegas of V / (n log n)
    normalized: dict = field(metadata={"payload": False})
    mean_normalized: dict
    endpoint_decrease_fraction: dict  # p -> fraction of omegas with last < first


def check_increment_orthogonality(*, walk: WalkModel, n_ladder: Sequence[int],
                                  n_omegas: int, windows, p_set, seed: int
                                  ) -> OrthogonalityReport:
    """Cross-interval coincidence counts V(omega, [nA, nB), [nC, nD), p),
    normalized by n log n; asymptotic orthogonality drives them to 0."""
    require_planar(walk)
    require_windows(windows)
    a, b, c, d = windows
    n_ladder = sorted(int(n) for n in n_ladder)
    p_set = [tuple(int(x) for x in p) for p in p_set]

    def omega(i, path_seed, path):
        """{(n, p): V(omega, [nA, nB), [nC, nD), p) / (n log n)}"""
        v = pair_count_tables(path, [((int(n * a), int(n * b)), (int(n * c), int(n * d)))
                                     for n in n_ladder], p_set)
        return {(n, p): int(v[r, k]) / (n * math.log(n))
                for r, n in enumerate(n_ladder) for k, p in enumerate(p_set)}

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
    l2 = math.sqrt(quenched_variance(scenery, path, [(0, n)])[0])
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
    """max_k |S_k| and S_n along the whole path, one entry per scenery draw.
    max |S_k| = max(max S_k, -min S_k) over k = 0..n, folded in as the rows
    come; S_0 = 0 starts both folds."""
    hi, low, s_n = np.zeros(len(seeds)), np.zeros(len(seeds)), np.empty(len(seeds))
    for lo, rows in _visit_sums(scen, table, seeds, len(table.inverse), _FOLD_ROWS):
        part = slice(lo, lo + rows.shape[1])
        np.maximum(hi[part], rows.max(axis=0), out=hi[part])
        np.minimum(low[part], rows.min(axis=0), out=low[part])
        s_n[part] = rows[-1]
    return np.maximum(hi, -low), s_n


def _line_aligned_empty(shape) -> np.ndarray:
    """``np.empty(shape)`` whose data starts on a 64-byte cache line.  The
    per-step adds of ``_visit_sums`` run slower on rows that straddle cache
    lines, and where malloc puts a table moves with allocations elsewhere in
    the process; at 1024 draws (8 KiB rows) every row is then aligned."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // raw.itemsize
    return raw[start:start + size].reshape(shape)


def _visit_sums(scen: SceneryModel, table, seeds, n: int, span: int):
    """Running sums S_0 = 0, S_1, ..., S_n of the per-visit values of the
    first n steps, step-major.

    ``site_values`` is built once for the path's sites.  Per block of up to
    _VISIT_DRAWS draws it fills a (sites x draws) value table, _DRAW_CHUNK
    draws at a time, and the path's site index is walked once: S_1 is the
    first visit's values and S_{i+1} = S_i + table[site of step i], one
    vector add across the draws, so each draw adds the terms of
    ``np.cumsum`` in its order.  Yields ``(lo, rows)`` with rows[r, j] =
    S_{i+r} of draw lo + j, for up to span + 1 consecutive steps i + r; each
    batch starts with the previous batch's last row (S_0 in a block's
    first), in a buffer the next batch reuses.
    """
    values = site_values(scen, table.sites)
    width = min(len(seeds), _VISIT_DRAWS)
    vals = _line_aligned_empty((len(table.sites), width))
    buf = _line_aligned_empty((min(span, n) + 1, width))
    add = np.add
    for lo in range(0, len(seeds), _VISIT_DRAWS):
        k = min(_VISIT_DRAWS, len(seeds) - lo)
        for c in range(0, k, _DRAW_CHUNK):
            chunk = seeds[lo + c:lo + min(c + _DRAW_CHUNK, k)]
            vals[:, c:c + len(chunk)] = values(chunk).T
        rows, v = list(buf[:, :k]), list(vals[:, :k])
        rows[0][:] = 0.0
        rows[1][:] = v[table.inverse[0]]
        r, last = 1, len(rows) - 1
        for a in range(1, n, STEP_CHUNK):
            for s in table.inverse[a:min(a + STEP_CHUNK, n)].tolist():
                if r == last:
                    yield lo, buf[:, :k]
                    rows[0][:] = rows[r]
                    r = 0
                add(rows[r], v[s], rows[r + 1])
                r += 1
        yield lo, buf[:r + 1, :k]


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
    w2 = window_tables(path, [(b, b + k)])[0].astype(np.float64) ** 2
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
    window (b, k) of a dyadic grid inside the first n steps (b a multiple of
    k).  Per level k, one reshape max and min along the step axis give every
    block's extremes, and max_j |S_{b+j} - S_b| = max(max S - S_b, S_b - min S)
    exactly, since rounding is monotone."""
    if any(b % k for b, k in windows):
        raise ValueError("every window (b, k) needs b a multiple of k")
    out = [np.empty(len(seeds)) for _ in windows]
    levels = sorted({k for _, k in windows})
    for lo, rows in _visit_sums(scen, table, seeds, n, n):
        part = slice(lo, lo + rows.shape[1])
        for k in levels:
            q = n // k
            steps = rows[1:q * k + 1].reshape(q, k, -1)
            base = rows[:q * k:k]
            top = np.maximum(steps.max(axis=1) - base, base - steps.min(axis=1))
            for m4, (b, kw) in zip(out, windows):
                if kw == k:
                    m4[part] = top[b // k] ** 4
    return out


def _check_super_additive(g0: np.ndarray, n: int) -> bool:
    """G0(b,k) + G0(b+k,l) <= G0(b,k+l) for every b, k, l; exhaustive.

    One outer sum per midpoint c = b + k, over every b < c and l <= n - c,
    against a strided view of G0(b, c - b + l): in the flat (n+1) x (n+1)
    table, (b, c - b + l) sits at c + b n + l."""
    if float(np.max(np.abs(g0[:, 0]))) > 1e-12:
        return False
    g = np.ascontiguousarray(g0[:n + 1, :n + 1], dtype=np.float64)
    flat, step = g.reshape(-1), g.itemsize
    for c in range(1, n):
        left = np.lib.stride_tricks.as_strided(flat[c:], (c,), (n * step,))  # G0(b, c - b)
        right = np.lib.stride_tricks.as_strided(flat[c + 1:], (c, n - c), (n * step, step))
        if np.any(np.add.outer(left, g[c, 1:n - c + 1]) - right > 1e-9):
            return False
    return True


# ---------------------------------------------------------------------------
# tightness


@dataclass
class TightnessReport(_Report):
    n: int
    epsilon: float
    delta_ladder: list
    grid_points: int
    estimates: dict        # delta -> mean over omegas of mu(modulus >= eps)
    per_omega: dict        # delta -> list
    monotone_in_delta: bool


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
    scale = math.sqrt(walk.c0 * n * math.log(n))

    def omega(i, path_seed, path):
        """Y_n at the grid points, (m, grid_points + 1)."""
        inc = field_increments(scenery, path, grid, _x_seeds(seed, i, m_sceneries))
        return np.concatenate([np.zeros((inc.shape[0], 1)), np.cumsum(inc, axis=1)],
                              axis=1) / scale

    per_omega = {d: [] for d in deltas}
    for y in _omega_pass(walk, n, n_omegas, seed, omega):
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
class ErdosTaylorReport(_Report):
    n_ladder: list
    n_omegas: int
    # n -> list over omegas of sup w_n / (log n)^2
    log_ratio: dict = field(metadata={"payload": False})
    mean_log_ratio: dict     # n -> mean of log_ratio[n]
    quantiles_log_ratio: dict
    mean_power_ratio: dict   # n -> mean of sup w_n / n^0.1
    distance_to_limit: dict  # n -> |mean_log_ratio - 1/pi|


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
    series_value: float      # sum_l a_l I(l), the walk's spectral integral
    exact_mean: float        # mean over omegas of exact Var_x(S_n)/n
    exact_se: float
    mc_mean: float           # scenery-sampled estimate of the same
    mc_se: float
    combined_error: float    # 3 SE of the Monte Carlo mean
    agree: bool

    @property
    def passed(self) -> bool:
        return self.agree


def transient_variance_check(*, walk: WalkModel, scenery: SceneryModel, n: int,
                             m_sceneries: int, n_omegas: int,
                             seed: int) -> TransientVarianceReport:
    """||S_n||^2 / n against the limit sum_l a_l I(l) for transient walks.

    Both an exact per-omega value (counts times correlations) and a scenery
    Monte Carlo estimate are produced; each agrees when its mean over the
    omegas lies within 3 SE of the limit.
    """
    require_transient(walk)
    # ||f||^2 + 2 sum_k sum_l P(Z_k = l) <T^l f, f> = sum_l a_l I(l)
    series = spectral_variance(walk, spectral_density(scenery, dimension=walk.dimension).fourier)

    def omega(i, path_seed, path):
        inc = field_increments(scenery, path, [1.0], _x_seeds(seed, i, m_sceneries))
        return quenched_variance(scenery, path, [(0, n)])[0] / n, float(inc[:, 0].var(ddof=1)) / n

    exact_vals, mc_vals = np.array(_omega_pass(walk, n, n_omegas, seed, omega)).T
    exact_mean, mc_mean = float(np.mean(exact_vals)), float(np.mean(mc_vals))
    exact_se, mc_se = (float(np.std(v, ddof=1) / math.sqrt(n_omegas))
                       for v in (exact_vals, mc_vals))
    agree = abs(mc_mean - series) <= 3.0 * mc_se and abs(exact_mean - series) <= 3.0 * exact_se
    return TransientVarianceReport(
        n=n, n_omegas=n_omegas, m_sceneries=m_sceneries, series_value=series,
        exact_mean=exact_mean, exact_se=exact_se, mc_mean=mc_mean, mc_se=mc_se,
        combined_error=3.0 * mc_se, agree=agree)


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
    # one count call per omega over every rung's lags; each rung sums its own
    # lags in its own spectral-density order, as quenched_variance does
    fouriers = [spectral_density(sub, dimension=walk.dimension).fourier for sub in subs]
    lags = list(dict.fromkeys(p for fourier in fouriers for p in fourier))

    def omega(i, path_seed, path):
        v = dict(zip(lags, pair_count_tables(path, [((0, n), (0, n))], lags)[0]))
        return [lag_sum(fourier, v) for fourier in fouriers]

    rows = _omega_pass(walk, n, n_omegas, seed, omega)
    var1 = [float(np.mean([v / (walk.c0 * n * math.log(n)) for v in rung]))
            for rung in zip(*rows)]
    return TruncationLadderReport(terms_ladder=[int(t) for t in terms_ladder],
                                  norm_c_dropped=norm_drop,
                                  density_sup_bound=[d**2 for d in norm_drop],
                                  var_y1=var1)
