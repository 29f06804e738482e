"""Random-field backends: i.i.d. sceneries, moving averages, and toral
automorphism fields, with spectral densities and sums along a walk path.

Scenery draws are quenched-consistent: a site's value is a pure function of
(x_seed, site), so the same site re-visited in any window yields the same
value without storing the infinite field.  The toral backend evaluates
f(A^l x) at rational points x = p/q_mod by exact integer arithmetic mod a
prime q_mod, which sidesteps the exponential floating-point error growth
of hyperbolic matrix iteration.  Whether the q_mod-lattice is a faithful
stand-in for Haar measure is checked operationally: two distinct primes
must give statistically indistinguishable reports.
"""

from __future__ import annotations

import importlib.util
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import algebra
from .localtime import local_times, pair_count_tables, path_table, unique_sites, window_counts
from .rng import derive_seed, hash_sites, philox_gen, splitmix64, u64_to_uniform
from .trigpoly import TrigPolynomial
from .walk import RECURRENT, WalkModel, WalkPath, green_series_table


def _lazy_module(name: str):
    """``name`` registered in ``sys.modules`` now but executed on its first
    attribute access (the ``importlib.util.LazyLoader`` recipe of the Python
    docs), so a run that never draws a Gaussian, integrates or tests pays
    nothing for scipy.  Python 3.11's LazyLoader can race when two threads
    touch a module mid-load (fixed in 3.12); the program is single-threaded
    at the Python level, so that cannot happen here."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


integrate = _lazy_module("scipy.integrate")
special = _lazy_module("scipy.special")
stats = _lazy_module("scipy.stats")


class OrbitExitError(RuntimeError):
    """Raised when the dual-orbit scan finds no closure within its box."""


# ---------------------------------------------------------------------------
# base laws (centered; unit variance unless a derived truncation part)


class Law:
    name = "law"

    def values(self, words: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def moment(self, k: int) -> float:
        """E X^k for k = 0..4."""
        raise NotImplementedError

    def partial_moment(self, k: int, level: float) -> float:
        """E[X^k 1_{X <= level}] for k = 0..4."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        return self.moment(2) - self.moment(1) ** 2

    @property
    def fourth_moment(self) -> float:
        return self.moment(4)


class Rademacher(Law):
    name = "rademacher"

    def values(self, words):
        return np.where(words.view(np.int64) < 0, 1.0, -1.0)  # the top bit

    def moment(self, k):
        return 0.0 if k % 2 else 1.0

    def partial_moment(self, k, level):
        total = 0.0
        for atom in (-1.0, 1.0):
            if atom <= level:
                total += 0.5 * atom**k
        return total


class CenteredUniform(Law):
    name = "uniform"

    def values(self, words):
        return (2.0 * u64_to_uniform(words) - 1.0) * math.sqrt(3.0)

    def moment(self, k):
        # uniform on [-sqrt(3), sqrt(3)]: E X^k = 3^{k/2} / (k+1) for even k
        return 0.0 if k % 2 else 3.0 ** (k / 2.0) / (k + 1)

    def partial_moment(self, k, level):
        b = math.sqrt(3.0)
        hi = min(level, b)
        if hi <= -b:
            return 0.0
        return ((hi ** (k + 1)) - ((-b) ** (k + 1))) / (2.0 * b * (k + 1))


class Gaussian(Law):
    name = "gaussian"

    def values(self, words):
        return special.ndtri(u64_to_uniform(words))

    def moment(self, k):
        return {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0}[k]

    def partial_moment(self, k, level):
        # M_k = -level^{k-1} phi(level) + (k-1) M_{k-2}
        phi = stats.norm.pdf(level)
        m = [stats.norm.cdf(level), -phi]
        for j in range(2, k + 1):
            m.append(-(level ** (j - 1)) * phi + (j - 1) * m[j - 2])
        return m[k]


class TruncatedGaussian(Law):
    """Bounded part of a standard Gaussian at ``level``, standardized to unit
    variance.  The underlying draw is the same Gaussian word mapping, so
    comparisons across laws share randomness."""

    name = "truncated_gaussian"

    def __init__(self, level: float):
        self.level = float(level)
        self._shift = stats.norm.pdf(self.level)  # -E[g 1_{g<=L}] = phi(L)
        var = stats.norm.cdf(self.level) - self.level * stats.norm.pdf(self.level) - self._shift**2
        if var <= 0:
            raise ValueError("truncation level leaves no variance")
        self._scale = math.sqrt(var)

    def values(self, words):
        g = special.ndtri(u64_to_uniform(words))
        hat = np.where(g <= self.level, g, 0.0) + self._shift
        return hat / self._scale

    def _raw(self, k):
        # E[(g 1_{g<=L} + shift)^k] via Gaussian partial moments
        g = Gaussian()
        total = 0.0
        for j in range(k + 1):
            pm = 1.0 if j == 0 else g.partial_moment(j, self.level)
            total += math.comb(k, j) * pm * self._shift ** (k - j)
        return total

    def moment(self, k):
        return self._raw(k) / self._scale**k

    def partial_moment(self, k, level):
        t = float(level)
        cut = min(self.level, t * self._scale - self._shift)
        val = 0.0
        if cut > -40.0:
            val, _ = integrate.quad(
                lambda g: ((g + self._shift) / self._scale) ** k * stats.norm.pdf(g), -40.0, cut)
        atom_value = self._shift / self._scale
        if atom_value <= t:
            val += atom_value**k * stats.norm.sf(self.level)
        return val


class TruncationPart(Law):
    """One side of the pathwise split X = hat(X) + tilde(X) at ``level``.

    ``side`` is "bounded" for X 1_{X<=L} - E(X 1_{X<=L}) and "tail" for the
    complement.  Values reuse the base law's word mapping, which is what
    makes the two parts sum to the original field sample by sample.
    """

    def __init__(self, base: Law, level: float, side: str):
        if side not in ("bounded", "tail"):
            raise ValueError("side must be 'bounded' or 'tail'")
        self.base = base
        self.level = float(level)
        self.side = side
        self.name = f"{base.name}-{side}@{level:g}"
        self._mean_below = base.partial_moment(1, self.level)

    def values(self, words):
        x = self.base.values(words)
        below = x <= self.level
        if self.side == "bounded":
            return np.where(below, x, 0.0) - self._mean_below
        return np.where(below, 0.0, x) - (self.base.moment(1) - self._mean_below)

    def _indicator_raw(self, k):
        if k == 0:
            return 1.0
        pm = self.base.partial_moment(k, self.level)
        return pm if self.side == "bounded" else self.base.moment(k) - pm

    def moment(self, k):
        shift = self._mean_below if self.side == "bounded" else (
            self.base.moment(1) - self._mean_below)
        return sum(math.comb(k, j) * self._indicator_raw(j) * (-shift) ** (k - j)
                   for j in range(k + 1))


_LAWS = {
    "rademacher": Rademacher,
    "uniform": CenteredUniform,
    "gaussian": Gaussian,
    "truncated_gaussian": TruncatedGaussian,
}


def base_law(name: str, **params) -> Law:
    if name not in _LAWS:
        raise ValueError(f"unknown law {name!r}; choose from {sorted(_LAWS)}")
    return _LAWS[name](**params)


def law_from_dict(doc: dict) -> Law:
    doc = dict(doc)
    name = doc.pop("name")
    if name == "truncation_part":
        return TruncationPart(law_from_dict(doc["base"]), doc["level"], doc["side"])
    return base_law(name, **doc)


# ---------------------------------------------------------------------------
# scenery models


@dataclass(frozen=True)
class IIDScenery:
    law: Law
    variant: str = field(init=False, default="iid")


@dataclass(frozen=True)
class MovingAverageScenery:
    law: Law
    coeffs: dict  # site tuple q -> a_q, finite
    variant: str = field(init=False, default="moving_average")

    def __post_init__(self):
        norm_coeffs = {tuple(int(c) for c in q): float(a) for q, a in self.coeffs.items()}
        object.__setattr__(self, "coeffs", norm_coeffs)

    @property
    def coeff_sum(self) -> float:
        return math.fsum(self.coeffs.values())

    @property
    def degenerate(self) -> bool:
        return abs(self.coeff_sum) < 1e-12


@dataclass(frozen=True)
class ToralScenery:
    pair: algebra.MatrixPair
    poly: TrigPolynomial
    q_mod: int
    orbit_box: int = 12

    def __post_init__(self):
        if self.poly.rho != self.pair.rho:
            raise ValueError("polynomial and matrix pair dimensions differ")
        if self.pair.rho > 4:
            raise ValueError(f"rho = {self.pair.rho}: toral sceneries need rho <= 4, "
                             "so that rho-term uint64 dot products mod q stay exact")
        for name in ("q_mod", "orbit_box"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} = {value!r}: expected an integer")
            object.__setattr__(self, name, int(value))  # _is_prime needs an int, not np.int64
        if self.orbit_box < 1:
            raise ValueError(f"orbit_box = {self.orbit_box}: expected an integer >= 1")
        if not _is_prime(self.q_mod):
            raise ValueError(f"q_mod = {self.q_mod} is not prime")
        if not (2**20 < self.q_mod < 2**31):
            raise ValueError("q_mod must be a prime in (2^20, 2^31) for exact "
                             "uint64 modular arithmetic")

    @property
    def variant(self) -> str:
        return "toral"


SceneryModel = Union[IIDScenery, MovingAverageScenery, ToralScenery]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iid_scenery(law="rademacher", **params) -> IIDScenery:
    if isinstance(law, str):
        law = base_law(law, **params)
    return IIDScenery(law=law)


def moving_average_scenery(coeffs: dict, law="rademacher", **params) -> MovingAverageScenery:
    if isinstance(law, str):
        law = base_law(law, **params)
    return MovingAverageScenery(law=law, coeffs=coeffs)


def toral_scenery(pair, poly, q_mod: int = 2**31 - 1, orbit_box: int = 12) -> ToralScenery:
    return ToralScenery(pair=pair, poly=poly, q_mod=q_mod, orbit_box=orbit_box)


def is_associated(scenery: SceneryModel) -> bool:
    """Association certificate: i.i.d. site values always qualify; moving
    averages qualify when the coefficients carry one common sign."""
    if isinstance(scenery, IIDScenery):
        return True
    if isinstance(scenery, MovingAverageScenery):
        vals = list(scenery.coeffs.values())
        return all(a >= 0 for a in vals) or all(a <= 0 for a in vals)
    return False


# ---------------------------------------------------------------------------
# spectral densities and correlations


@dataclass(frozen=True)
class SpectralDensity:
    """Finite Fourier table l -> a_l = <T^l f, f> with a_{-l} = a_l."""

    fourier: dict

    def __post_init__(self):
        norm_f = {tuple(int(c) for c in k): float(v) for k, v in self.fourier.items()}
        object.__setattr__(self, "fourier", norm_f)
        for k, v in norm_f.items():
            mk = tuple(-c for c in k)
            if abs(norm_f.get(mk, 0.0) - v) > 1e-9:
                raise ValueError(f"spectral table not even at {k}")

    def at_zero(self) -> float:
        return math.fsum(self.fourier.values())

    def evaluate(self, t) -> float:
        t = np.asarray(t, dtype=np.float64)
        total = 0.0
        for k, a in self.fourier.items():
            total += a * math.cos(2.0 * math.pi * float(np.dot(k, t)))
        return total


def toral_correlations(scenery: ToralScenery) -> dict:
    """All nonzero <A^l f, f> found on the orbit box, exact by character
    matching.  Hyperbolicity makes dual orbits leave the finite support, so
    the table closes; if nonzero entries reach half the box the scan is
    declared unclosed and fails.  Cached on the scenery instance.
    """
    cached = getattr(scenery, "_corr_cache", None)
    if cached is not None:
        return cached
    box = scenery.orbit_box
    table = {}
    reach = 0
    for l1 in range(-box, box + 1):
        for l2 in range(-box, box + 1):
            a = algebra.toral_correlation(scenery.pair, scenery.poly, (l1, l2))
            if abs(a) > 1e-15:
                table[(l1, l2)] = a
                reach = max(reach, abs(l1), abs(l2))
    if reach > box // 2:
        raise OrbitExitError(
            f"nonzero correlations at |l| = {reach} with scan box {box}; "
            "raise orbit_box to certify closure")
    object.__setattr__(scenery, "_corr_cache", table)
    return table


def spectral_density(scenery: SceneryModel, dimension: int = 2) -> SpectralDensity:
    if isinstance(scenery, IIDScenery):
        # constant density; the table dimension follows the ambient lattice
        return SpectralDensity({(0,) * dimension: scenery.law.variance})
    if isinstance(scenery, MovingAverageScenery):
        table = {}
        qs = list(scenery.coeffs)
        for q1 in qs:
            for q2 in qs:
                l = tuple(a - b for a, b in zip(q1, q2))
                table[l] = table.get(l, 0.0) + scenery.coeffs[q1] * scenery.coeffs[q2]
        # <T^l f, f> = Var X sum_{q1 - q2 = l} a_q1 a_q2
        var = scenery.law.variance
        table = {l: var * v for l, v in table.items() if abs(v) > 1e-15}
        if not table:
            table = {(0, 0): 0.0}
        return SpectralDensity(table)
    if isinstance(scenery, ToralScenery):
        return SpectralDensity(toral_correlations(scenery))
    raise TypeError(f"not a scenery model: {scenery!r}")


@dataclass(frozen=True)
class VarianceEstimate:
    value: float
    regime: str             # "recurrent" | "transient"
    degenerate: bool
    tail_estimate: float    # transient truncation tail; 0.0 in the recurrent case
    k_max: int = 0


def asymptotic_variance(scenery: SceneryModel, model: WalkModel,
                        k_max: int = 60) -> VarianceEstimate:
    """Recurrent planar walks: sigma^2 = phi_f(0), the variance after the
    C0 n log n normalization.  Transient walks: the series
    ||f||^2 + 2 sum_k sum_l P(Z_k = l) <T^l f, f>, truncated at k_max with
    the local-limit tail reported.  A zero value is a flagged degeneracy,
    not an error.
    """
    density = spectral_density(scenery, dimension=model.dimension)
    if model.classification == RECURRENT and model.dimension == 2:
        value = density.at_zero()
        return VarianceEstimate(value=value, regime="recurrent",
                                degenerate=abs(value) < 1e-12, tail_estimate=0.0)
    if model.effectively_transient:
        sites = sorted(density.fourier)
        table = green_series_table(model, sites, k_max=k_max)
        value = math.fsum(density.fourier[p] * table[p].value for p in sites)
        tail0 = table[sites[0]].tail_estimate
        tail = tail0 * density.at_zero()
        return VarianceEstimate(value=value, regime="transient",
                                degenerate=abs(value) < 1e-12,
                                tail_estimate=tail, k_max=k_max)
    raise ValueError("asymptotic variance covered for recurrent planar or "
                     "transient walks only")


# ---------------------------------------------------------------------------
# sums along a path


def window_boundaries(n: int, t_grid) -> list:
    grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    edges = [0]
    for t in grid:
        if not 0.0 < t <= 1.0:
            raise ValueError("t_grid entries must lie in (0, 1]")
        edges.append(int(math.floor(n * t)))
    return edges


def site_values(scenery: SceneryModel, sites: np.ndarray, x_seeds) -> np.ndarray:
    """Field values at each site for each scenery draw, shape (m, M).

    The one place where hash words become field values.  i.i.d.: the law of
    splitmix64(hash_sites(0, l) ^ x_seed); moving average: sum_q a_q X_{l-q}
    in ``coeffs`` order, each distinct underlying site hashed once; toral:
    f(A^l x) with x keyed by x_seed.  The toral result is the transpose of a
    C-ordered (M, m) array, the others are C-ordered (m, M).
    """
    return _site_evaluator(scenery, sites)(x_seeds)


def _site_evaluator(scenery: SceneryModel, sites: np.ndarray):
    """``site_values`` with the sites fixed: the per-site work (site hashes,
    the moving average's underlying sites, the toral transported
    frequencies) is done once here; the returned function maps x_seeds to
    the (m, M) values."""
    if isinstance(scenery, ToralScenery):
        freqs = np.ascontiguousarray(
            _toral_transported_freqs(scenery, sites).transpose(1, 0, 2))  # (h, M, rho)
        return lambda x_seeds: _toral_values(scenery, freqs, x_seeds)
    if isinstance(scenery, IIDScenery):
        base = hash_sites(0, sites)
        return lambda x_seeds: _law_values(scenery.law, base, x_seeds)
    shifted = np.vstack([sites - np.asarray(q, dtype=np.int64) for q in scenery.coeffs])
    under, idx, _ = unique_sites(shifted)
    base = hash_sites(0, under)

    def values(x_seeds):
        out = np.zeros((len(x_seeds), len(sites)))
        # eight draws at a time keep the gathered values in cache
        for lo in range(0, len(x_seeds), 8):
            drawn = _law_values(scenery.law, base, x_seeds[lo:lo + 8])
            block = out[lo:lo + 8]
            for row, a in zip(idx.reshape(-1, len(sites)), scenery.coeffs.values()):
                block += a * drawn[:, row]
        return out
    return values


def _law_values(law: Law, base: np.ndarray, x_seeds) -> np.ndarray:
    """law.values of splitmix64(base ^ x_seed), one row per draw.

    Rows are hashed and mapped _HASH_WORDS words at a time, so the words,
    the splitmix64 scratch and the law's temporaries stay in cache."""
    seeds = np.array([int(s) & (2**64 - 1) for s in x_seeds], dtype=np.uint64)
    out = np.empty((len(seeds), len(base)))
    rows = max(1, _HASH_WORDS // max(len(base), 1))
    for lo in range(0, len(seeds), rows):
        out[lo:lo + rows] = law.values(splitmix64(seeds[lo:lo + rows, None] ^ base))
    return out


def field_increments(scenery: SceneryModel, path: WalkPath, t_grid,
                     x_seeds) -> np.ndarray:
    """Window increments of S along the path, one row per scenery draw.

    Returns (m, s) with column j equal to
    sum_{k in [floor(n t_{j-1}), floor(n t_j))} X_{Z_k} = sum_l w_j(l) X_l;
    cumulative sums of rows reproduce (S_{floor(n t_j)})_j exactly.
    """
    x_seeds = [int(s) for s in x_seeds]
    ids, counts = window_counts(path, window_boundaries(path.n, t_grid))
    sites = path_table(path).sites[ids]
    weights = counts.astype(np.float64)
    values = _site_evaluator(scenery, sites)
    out = np.zeros((len(x_seeds), weights.shape[1]))
    for lo in range(0, len(x_seeds), _DRAW_CHUNK):
        seeds = x_seeds[lo:lo + _DRAW_CHUNK]
        out[lo:lo + len(seeds)] = values(seeds) @ weights
    return out


# draws per site_values call (and per dgemm) in field_increments
_DRAW_CHUNK = 256

# words per hash-and-map block of _law_values (256 KiB of uint64)
_HASH_WORDS = 32768

# sites per block of the toral kernel: with _DRAW_CHUNK draws each of its five
# (block, draws) work buffers is 1 MiB, whatever the number of sites
_TORAL_BLOCK = 512


def _toral_point(scenery: ToralScenery, x_seed: int) -> np.ndarray:
    gen = philox_gen(derive_seed(x_seed, "toral-point"))
    return gen.integers(0, scenery.q_mod, size=scenery.pair.rho, dtype=np.uint64)


def _modmat_range(mat_t: tuple, lo: int, hi: int, q: int) -> dict:
    """(M^a mod q) for a in [lo, hi], built by exact ladder multiplication."""
    rho = len(mat_t)
    m = np.asarray(mat_t, dtype=object)
    minv = np.asarray(algebra.mat_inverse_unimodular(mat_t), dtype=object)
    fwd = (m % q).astype(np.uint64)
    bwd = (minv % q).astype(np.uint64)
    out = {0: np.eye(rho, dtype=np.uint64)}
    cur = out[0]
    for a in range(1, hi + 1):
        cur = _modmatmul(cur, fwd, q)
        out[a] = cur
    cur = out[0]
    for a in range(-1, lo - 1, -1):
        cur = _modmatmul(cur, bwd, q)
        out[a] = cur
    return out


def _modmatmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    # entries < q < 2^31: a rho-term dot is below rho (q-1)^2 < 2^64 for rho <= 4
    return (a @ b) % np.uint64(q)


def _toral_transported_freqs(scenery: ToralScenery, sites: np.ndarray) -> np.ndarray:
    """transpose(A^l) k mod q for every site l and half-support frequency k.

    Returns (M, h, rho) uint64 where h indexes one frequency per conjugate
    pair (the other half contributes the conjugate term analytically).
    """
    q = scenery.q_mod
    half = scenery.poly.half_support()
    a1t = algebra.mat_transpose(scenery.pair.a1)
    a2t = algebra.mat_transpose(scenery.pair.a2)
    lo1, hi1 = int(sites[:, 0].min()), int(sites[:, 0].max())
    lo2, hi2 = int(sites[:, 1].min()), int(sites[:, 1].max())
    pow1 = _modmat_range(a1t, lo1, hi1, q)
    pow2 = _modmat_range(a2t, lo2, hi2, q)
    kvecs = np.asarray([k for k, _ in half], dtype=np.int64) % q  # (h, rho)
    kvecs = kvecs.astype(np.uint64)
    # u[a] = (A1^T)^a k mod q for each needed a, then v = (A2^T)^b u
    u_by_a = np.stack([(kvecs @ pow1[a].T) % np.uint64(q) for a in range(lo1, hi1 + 1)])
    pow2_t = np.stack([pow2[b].T for b in range(lo2, hi2 + 1)])
    return (u_by_a[sites[:, 0] - lo1] @ pow2_t[sites[:, 1] - lo2]) % np.uint64(q)


def _toral_values(scenery: ToralScenery, freqs: np.ndarray, x_seeds) -> np.ndarray:
    """f(A^l x) = sum_k 2 Re(c_k e(phase_k)) over the half support, (c, M).

    ``freqs`` is the (h, M, rho) transpose of ``_toral_transported_freqs``.

    Blocks of _TORAL_BLOCK sites, one half-support frequency at a time: the
    phase is reduced mod q once (rho (q-1)^2 < 2^64 for rho <= 4), cos runs
    only where Re c != 0 and sin only where Im c != 0.  The terms are added
    in support order and the block's sine sum is subtracted once, as
    einsum("h,mhc->mc", 2 Re c, cos) - einsum("h,mhc->mc", 2 Im c, sin) does
    for two or more draws.
    """
    n_sites = freqs.shape[1]
    coeffs = [c for _, c in scenery.poly.half_support()]
    q = np.uint64(scenery.q_mod)
    scale = 2.0 * np.pi / scenery.q_mod
    pts = np.stack([_toral_point(scenery, s) for s in x_seeds])  # (c, rho)
    vals = np.zeros((n_sites, len(x_seeds)))
    shape = (min(_TORAL_BLOCK, n_sites), len(x_seeds))
    phase, term = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    angle, trig, sines = np.empty(shape), np.empty(shape), np.empty(shape)
    for lo in range(0, n_sites, _TORAL_BLOCK):
        hi = min(lo + _TORAL_BLOCK, n_sites)
        ph, tm, an, tr, sn = (a[:hi - lo] for a in (phase, term, angle, trig, sines))
        sn.fill(0.0)
        for f, c in zip(freqs[:, lo:hi], coeffs):
            np.multiply(f[:, :1], pts[:, 0], out=ph)
            for j in range(1, pts.shape[1]):
                np.multiply(f[:, j:j + 1], pts[:, j], out=tm)
                ph += tm
            ph %= q
            np.multiply(ph, scale, out=an)
            if c.real:
                np.cos(an, out=tr)
                tr *= 2.0 * c.real
                vals[lo:hi] += tr
            if c.imag:
                np.sin(an, out=tr)
                tr *= 2.0 * c.imag
                sn += tr
        vals[lo:hi] -= sn
    return vals.T


def quenched_variance(scenery: SceneryModel, path: WalkPath, window) -> float:
    """Exact Var_x of S over an index window: sum_p V(omega, J, p) a_p.

    Ties the counting layer to the field correlations; for i.i.d. sceneries
    this is just the self-intersection count of the window.
    """
    density = spectral_density(scenery, dimension=path.model.dimension)
    tab = local_times(path, window)
    total = 0.0
    for p, a in density.fourier.items():
        total += a * pair_count_tables(tab, tab, p)
    return total


def truncate_field(scenery: SceneryModel, level: float):
    """Split an i.i.d. scenery into its bounded and tail parts at ``level``.

    Both parts are centered and share the site-keyed randomness of the
    original, so they add back to it pathwise.
    """
    if not isinstance(scenery, IIDScenery):
        raise ValueError("truncate_field is defined for i.i.d. sceneries")
    hat = IIDScenery(law=TruncationPart(scenery.law, level, "bounded"))
    tail = IIDScenery(law=TruncationPart(scenery.law, level, "tail"))
    return hat, tail


# ---------------------------------------------------------------------------
# serialization


def scenery_from_dict(doc: dict) -> SceneryModel:
    variant = doc["variant"]
    if variant == "iid":
        return IIDScenery(law=law_from_dict(doc["law"]))
    if variant == "moving_average":
        coeffs = {tuple(item["q"]): item["a"] for item in doc["coeffs"]}
        return MovingAverageScenery(law=law_from_dict(doc["law"]), coeffs=coeffs)
    if variant == "toral":
        from .trigpoly import trig_from_list

        return ToralScenery(pair=algebra.pair_from_dict(doc["pair"]),
                            poly=trig_from_list(doc["poly"]),
                            q_mod=doc["q_mod"],
                            orbit_box=doc.get("orbit_box", 12))
    raise ValueError(f"unknown scenery variant {variant!r}")
