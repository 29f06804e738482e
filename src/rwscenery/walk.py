"""Lattice random-walk models on Z^d: analytic functions, classification, sampling.

A model is built from a finite increment law.  Derived data: mean and
covariance of one step, the index r of the lattice L that the support
spans (an exact integer Hermite-form computation; aperiodic means r = 1),
the recurrent/transient/deterministic classification (a centered walk whose
support spans a line or a plane is recurrent in any Z^d, by Chung-Fuchs;
every other walk of two or more atoms is transient), and, for a centered
planar walk whose support spans rank 2, the constant

    C0 = r / (pi * sqrt(det Sigma))

that normalizes self-intersection counts and the sums along the walk.  By
the local limit theorem P(S_k = 0) averages r / (2 pi k sqrt(det Sigma))
over the residue classes of the period, whatever the period is (Spitzer,
Principles of Random Walk, P7.9), so E V_n ~ C0 n log n.

A sampled path is its origin plus the atom index of each step, one byte per
step for laws of at most 256 atoms; its positions are derived on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rng import derive_seed, philox_gen

RECURRENT = "recurrent"
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

MAX_STEPS = 2**31  # counts fit int64: V_n <= n^2 <= 2^62


class PolePointError(ValueError):
    """Raised when Phi is evaluated at a point where Psi equals 1."""


@dataclass(frozen=True)
class IncrementLaw:
    """Finite increment distribution on Z^d (atom sites with probabilities)."""

    sites: tuple  # tuple of d-tuples of ints
    probs: tuple  # tuple of floats, same length
    dimension: int

    def site_array(self) -> np.ndarray:
        return np.asarray(self.sites, dtype=np.int64).reshape(len(self.sites), self.dimension)

    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)


def increment_law(atoms: Sequence, dimension: Optional[int] = None) -> IncrementLaw:
    """Validate and freeze an atom list ``[(site, prob), ...]``.

    Probabilities must be positive and sum to 1 within 1e-12; sites must be
    pairwise distinct integer vectors of one common dimension.
    """
    if not atoms:
        raise ValueError("increment law needs at least one atom")
    sites = []
    probs = []
    for site, prob in atoms:
        site = tuple(int(c) for c in (site if isinstance(site, (tuple, list, np.ndarray)) else (site,)))
        if dimension is None:
            dimension = len(site)
        if len(site) != dimension:
            raise ValueError(f"atom {site} has dimension {len(site)}, expected {dimension}")
        if not prob > 0:
            raise ValueError(f"atom {site} has non-positive probability {prob}")
        sites.append(site)
        probs.append(float(prob))
    if len(set(sites)) != len(sites):
        raise ValueError("atom sites must be pairwise distinct")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return IncrementLaw(sites=tuple(sites), probs=tuple(probs), dimension=dimension)


def simple_walk_law(d: int) -> IncrementLaw:
    """Uniform law on the 2d unit vectors +-e_i."""
    atoms = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        atoms.append((tuple(e), 1.0 / (2 * d)))
        atoms.append((tuple(-c for c in e), 1.0 / (2 * d)))
    return increment_law(atoms)


def lazy_walk_law_2d() -> IncrementLaw:
    """Uniform law on {0, +-e1, +-e2}; aperiodic, C0 = 5/(2 pi)."""
    atoms = [((0, 0), 0.2), ((1, 0), 0.2), ((-1, 0), 0.2), ((0, 1), 0.2), ((0, -1), 0.2)]
    return increment_law(atoms)


def deterministic_law(site) -> IncrementLaw:
    return increment_law([(tuple(site), 1.0)])


def hermite_lattice_index(generators: Sequence, d: int) -> int:
    """Index [Z^d : L] of the lattice spanned by integer ``generators``.

    Exact integer column reduction (Hermite normal form); returns 0 when
    the generators do not span rank d, i.e. the index is infinite.
    """
    cols = [[int(c) for c in g] for g in generators]
    cols = [c for c in cols if any(c)]
    index = 1
    for row in range(d):
        live = [c for c in cols if c[row] != 0]
        if not live:
            return 0
        # Euclid across columns until a single nonzero entry survives in this row
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            pivot = live[0]
            for c in live[1:]:
                q = c[row] // pivot[row]
                for i in range(d):
                    c[i] -= q * pivot[i]
            live = [c for c in live if c[row] != 0]
        pivot = live[0]
        index *= abs(pivot[row])
        cols = [c for c in cols if c is not pivot and any(c[row:])]
    return index


@dataclass(frozen=True)
class WalkModel:
    """Increment law plus everything derived from it."""

    law: IncrementLaw
    mean: np.ndarray
    sigma: np.ndarray  # covariance of one increment
    aperiodic: bool
    classification: str
    c0: Optional[float]

    @property
    def dimension(self) -> int:
        return self.law.dimension

    @property
    def centered(self) -> bool:
        return bool(np.all(np.abs(self.mean) <= 1e-12))

    @property
    def effectively_transient(self) -> bool:
        """True when the walk escapes to infinity (so Green-type series converge).

        Deterministic walks with a nonzero step drift away and qualify; the
        single-atom law at 0 behaves recurrently and does not.
        """
        if self.classification == TRANSIENT:
            return True
        if self.classification == DETERMINISTIC:
            return any(c != 0 for c in self.law.sites[0])
        return False


def build_walk_model(law: IncrementLaw) -> WalkModel:
    sites = law.site_array()
    probs = law.prob_array()
    d = law.dimension
    mean = probs @ sites.astype(np.float64)
    centered_sites = sites.astype(np.float64) - mean
    sigma = (centered_sites * probs[:, None]).T @ centered_sites

    index = hermite_lattice_index(law.sites, d)
    centered = bool(np.all(np.abs(mean) <= 1e-12))
    if len(law.sites) == 1:
        classification = DETERMINISTIC
    elif centered and np.linalg.matrix_rank(sites) <= 2:
        # a centered walk is recurrent iff its support spans at most a plane
        classification = RECURRENT
    else:
        classification = TRANSIENT

    c0 = None
    if d == 2 and centered and index > 0:
        det = float(np.linalg.det(sigma))
        c0 = index / (math.pi * math.sqrt(det))

    return WalkModel(
        law=law,
        mean=mean,
        sigma=sigma,
        aperiodic=index == 1,
        classification=classification,
        c0=c0,
    )


def characteristic_fn(model: WalkModel, t) -> complex:
    """Psi(t) = sum_l nu(l) exp(2 pi i <l, t>), t a point of the d-torus.

    Vectorizes over a trailing batch of points: ``t`` of shape (..., d)
    returns an array of shape (...).
    """
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 1
    phases = t @ model.law.site_array().astype(np.float64).T
    psi = np.exp(2j * np.pi * phases) @ model.law.prob_array().astype(np.complex128)
    return complex(psi) if scalar else psi


def phi_ratio(model: WalkModel, t) -> float:
    """Phi(t) = (1 - |Psi|^2) / |1 - Psi|^2, nonnegative, zero iff |Psi| = 1.

    |Psi|^2 carries float roundoff of order 1e-16, so numerators below 1e-13
    snap to exactly zero (the deterministic walk has |Psi| identically 1 and
    must report 0, not dust).
    """
    psi = characteristic_fn(model, np.asarray(t, dtype=np.float64))
    denom = abs(1.0 - psi) ** 2
    if denom < 1e-28:
        raise PolePointError(f"Psi(t) = 1 at t = {t}; Phi has a pole there")
    num = 1.0 - abs(psi) ** 2
    if num < 1e-13:
        return 0.0
    return num / denom


@dataclass(frozen=True)
class WalkPath:
    """One realization Z_0 .. Z_{n-1}, kept as its origin Z_0 and the atom
    index of each of its n - 1 steps, plus the seed regenerating it.

    ``steps`` takes one byte per step for every law of at most 256 atoms;
    ``positions`` rebuilds the (n, d) int64 coordinates on each access.  The
    site table (``localtime.path_table``) is counted from the steps, in any
    dimension, and never builds the positions.
    """

    model: WalkModel
    n: int
    seed: int
    origin: tuple         # Z_0, d ints
    steps: np.ndarray     # (n - 1,) atom indices, the smallest unsigned dtype

    @property
    def positions(self) -> np.ndarray:
        """(n, d) int64: the origin plus a per-column cumsum of the step atoms."""
        atoms = self.model.law.site_array()
        positions = np.empty((self.n, atoms.shape[1]), dtype=np.int64)
        positions[0] = self.origin
        # per column: 1-d gathers and cumsums run several times faster than
        # an (n, d) fancy gather and an axis-0 cumsum
        for j, z in enumerate(self.origin):
            column = positions[1:, j]
            np.cumsum(atoms[:, j].take(self.steps), out=column)
            if z:
                column += z
        return positions


def step_dtype(law: IncrementLaw) -> np.dtype:
    """The smallest unsigned dtype that holds every atom index of ``law``."""
    return np.min_scalar_type(len(law.sites) - 1)


# uniforms drawn per chunk: a 256 KiB float64 buffer that stays in cache
STEP_CHUNK = 2**15


def sample_path(model: WalkModel, n: int, seed: int) -> WalkPath:
    """Draw an n-step path from the origin, each step's atom by inverse CDF.

    The generator is counter-based and keyed by ``seed``; the uniforms come
    in chunks of STEP_CHUNK from that one stream, so rebuilding from
    (model, n, seed) reproduces the steps bit-exactly, and the first k steps
    of a longer path are the k-step path.  Only the atom indices are kept.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_STEPS:
        raise ValueError(f"n = {n} exceeds the supported maximum {MAX_STEPS}")
    steps = np.empty(n - 1, dtype=step_dtype(model.law))
    if n > 1:
        gen = philox_gen(derive_seed(seed, "walk-increments"))
        cdf = _cdf(model.law)
        u = np.empty(min(n - 1, STEP_CHUNK))
        for lo in range(0, n - 1, STEP_CHUNK):
            hi = min(lo + STEP_CHUNK, n - 1)
            gen.random(out=u[:hi - lo])
            _atom_indices(cdf, u[:hi - lo], steps[lo:hi])
    return WalkPath(model=model, n=n, seed=seed, origin=(0,) * model.dimension, steps=steps)


# laws with at most this many atoms invert the CDF by counting comparisons
_SCAN_ATOMS = 16


def _cdf(law: IncrementLaw) -> np.ndarray:
    cdf = np.cumsum(law.prob_array())
    cdf[-1] = 1.0
    return cdf


def _atom_indices(cdf: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Inverse CDF into ``out``: the index of the atom each uniform in [0, 1) draws.

    That index is the number of cdf entries <= u, as
    ``np.searchsorted(cdf, u, side="right")`` finds it.  The cdf is
    nondecreasing and u < 1 = cdf[-1], so for up to _SCAN_ATOMS atoms the
    count over cdf[:-1], summed in ``out``, is the same index at a fraction
    of the cost; larger laws keep the binary search.
    """
    if len(cdf) > _SCAN_ATOMS:
        out[...] = np.searchsorted(cdf, u, side="right")
        return
    out.fill(0)
    below = np.empty(u.shape, dtype=bool)
    for c in cdf[:-1]:
        np.greater_equal(u, c, out=below)
        out += below


# the k-fold convolution runs while _convolution_budget stays within this
# bound; past it each site's series is a Monte Carlo estimate over
# _GREEN_PATHS paths from the seed _GREEN_SEED
_GREEN_BUDGET = 2e9
_GREEN_PATHS = 20000
_GREEN_SEED = 0


def _convolution_budget(model: WalkModel, k_max: int) -> float:
    max_coord = int(np.max(np.abs(model.law.site_array()), initial=0))
    edge = 2 * k_max * max(max_coord, 1) + 1
    return float(edge) ** model.dimension * k_max * len(model.law.sites)


def _tail_estimate(model: WalkModel, k_max: int) -> float:
    """LLT tail for centered walks: sum_{k>k_max} 2 P(Z_k = l) with the
    Gaussian factor dropped (the l-dependence is negligible at this depth).

    Non-centered transient walks have exponentially small tails at fixed l;
    report 0 for them.
    """
    if not model.centered:
        return 0.0
    d = model.dimension
    if d <= 2:
        raise ValueError("centered walks in d <= 2 are recurrent; the series diverges")
    det = float(np.linalg.det(model.sigma))
    coef = 2.0 * (2.0 * math.pi) ** (-d / 2.0) / math.sqrt(det)
    return coef * (2.0 / (d - 2)) * (k_max + 0.5) ** (1 - d / 2.0)


def green_series(model: WalkModel, sites, k_max: int) -> tuple:
    """({site: I(site) truncated at k_max}, local-limit tail estimate) for the
    Green-type series I(l) = 1_{l=0} + sum_{k>=1} [P(Z_k = l) + P(Z_k = -l)].

    All sites share one exact k-fold convolution when it is affordable
    (_GREEN_BUDGET); past that, each site is a Monte Carlo estimate.
    Rejects recurrent models, whose series diverges.
    """
    if not model.effectively_transient:
        raise ValueError("green_series requires a transient walk; the series diverges otherwise")
    sites = [tuple(int(c) for c in s) for s in sites]
    for site in sites:
        if len(site) != model.dimension:
            raise ValueError(f"site {site} has wrong dimension, expected {model.dimension}")
    if _convolution_budget(model, k_max) <= _GREEN_BUDGET:
        values = _green_convolution_multi(model, sites, k_max)
    else:
        values = {s: _green_monte_carlo(model, s, k_max, _GREEN_PATHS, _GREEN_SEED)[0]
                  for s in sites}
    return values, _tail_estimate(model, k_max)


def _green_convolution_multi(model: WalkModel, sites, k_max: int) -> dict:
    d = model.dimension
    atoms = model.law.site_array()
    probs = model.law.prob_array()
    max_coord = int(np.max(np.abs(atoms), initial=0))
    r = k_max * max(max_coord, 1)
    dist = np.zeros((2 * r + 1,) * d, dtype=np.float64)
    dist[(r,) * d] = 1.0

    def entry(arr, point):
        idx = tuple(r + c for c in point)
        if any(not (0 <= i < 2 * r + 1) for i in idx):
            return 0.0
        return float(arr[idx])

    totals = {s: (1.0 if not any(s) else 0.0) for s in sites}
    for _ in range(k_max):
        new = np.zeros_like(dist)
        for atom, p in zip(atoms, probs):
            src = [slice(None)] * d
            dst = [slice(None)] * d
            for ax, shift in enumerate(atom):
                shift = int(shift)
                if shift >= 0:
                    dst[ax] = slice(shift, None) if shift else slice(None)
                    src[ax] = slice(None, -shift) if shift else slice(None)
                else:
                    dst[ax] = slice(None, shift)
                    src[ax] = slice(-shift, None)
            new[tuple(dst)] += p * dist[tuple(src)]
        dist = new
        for s in sites:
            totals[s] += entry(dist, s) + entry(dist, tuple(-c for c in s))
    return totals


def _green_monte_carlo(model: WalkModel, site, k_max: int, m_paths: int, seed: int):
    """(I(site) truncated at k_max, its standard error) over m_paths paths."""
    target = np.asarray(site, dtype=np.int64)
    origin = not target.any()
    counts = np.zeros(m_paths, dtype=np.int64)
    batch = max(1, int(2e7 // max(k_max, 1)))
    cdf = _cdf(model.law)
    done = 0
    while done < m_paths:
        b = min(batch, m_paths - done)
        gen = philox_gen(derive_seed(seed, "green-mc", done))
        idx = np.empty((b, k_max), dtype=step_dtype(model.law))
        _atom_indices(cdf, gen.random((b, k_max)), idx)
        steps = model.law.site_array()[idx]  # (b, k_max, d)
        pos = np.cumsum(steps, axis=1)
        hits = np.all(pos == target, axis=2) | np.all(pos == -target, axis=2)
        # at the origin l = -l, so each visit counts for both terms
        counts[done:done + b] = (2 if origin else 1) * hits.sum(axis=1)
        done += b
    stderr = float(counts.std(ddof=1) / math.sqrt(m_paths)) if m_paths > 1 else 0.0
    return float(origin) + float(counts.mean()), stderr
