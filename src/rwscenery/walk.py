"""Lattice random-walk models on Z^d: classification, sampling, spectral variance.

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

For a transient walk, ``spectral_variance`` gives the limit variance
sum_l a_l I(l) of a field's sums along it, an integral over a torus.

A sampled path is its origin plus the atom index of each step, one byte per
step for laws of at most 256 atoms; its positions are derived on demand.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rng import derive_seed, philox_gen

RECURRENT = "recurrent"
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

MAX_STEPS = 2**31  # counts fit int64: V_n <= n^2 <= 2^62


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


def lattice_point(coords) -> tuple:
    """``coords`` as a tuple of Python ints.  A coordinate that is not an
    integer (a float, a string, or a bool, which JSON spells true/false) is
    refused rather than truncated, which would move the point and could merge
    two points into one."""
    coords = tuple(coords)
    for c in coords:
        if not isinstance(c, numbers.Integral) or isinstance(c, bool):
            raise ValueError(f"{coords!r}: coordinate {c!r} is not an integer")
    return tuple(int(c) for c in coords)


def real_number(x, what: str) -> float:
    """``x`` as a float.  A bool (JSON true/false) is refused rather than read
    as 1.0 or 0.0, and so is anything else that is not a real number."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError(f"{what} {x!r} is not a real number")
    return float(x)


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
        site = lattice_point(site if isinstance(site, (tuple, list, np.ndarray)) else (site,))
        if dimension is None:
            dimension = len(site)
        if len(site) != dimension:
            raise ValueError(f"atom {site} has dimension {len(site)}, expected {dimension}")
        prob = real_number(prob, f"atom {site}: prob")
        if not prob > 0:
            raise ValueError(f"atom {site} has non-positive probability {prob}")
        sites.append(site)
        probs.append(prob)
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


def _lattice_basis(generators: Sequence, d: int) -> list:
    """A basis of the lattice L that integer ``generators`` span, by exact
    column reduction (Hermite normal form): the leading rows of its vectors
    increase strictly, and its length is the rank of L."""
    cols = [[int(c) for c in g] for g in generators]
    cols = [c for c in cols if any(c)]
    basis = []
    for row in range(d):
        live = [c for c in cols if c[row] != 0]
        if not live:
            continue
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
        basis.append(pivot)
        cols = [c for c in cols if c is not pivot and any(c[row:])]
    return basis


def hermite_lattice_index(generators: Sequence, d: int) -> int:
    """Index [Z^d : L] of the lattice spanned by integer ``generators``;
    0 when they do not span rank d, i.e. the index is infinite."""
    basis = _lattice_basis(generators, d)
    if len(basis) < d:
        return 0
    return math.prod(abs(b[row]) for row, b in enumerate(basis))


def _lattice_coords(basis: list, v) -> Optional[tuple]:
    """The integers c with sum_i c_i basis[i] = v, or None when v is off the
    lattice; ``basis`` is in the echelon form of ``_lattice_basis``."""
    rest = [int(x) for x in v]
    coords = []
    for b in basis:
        row = next(i for i, x in enumerate(b) if x)
        c, remainder = divmod(rest[row], b[row])
        if remainder:
            return None
        coords.append(c)
        rest = [x - c * y for x, y in zip(rest, b)]
    return None if any(rest) else tuple(coords)


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
        """True when the walk escapes to infinity: a transient walk, or a
        deterministic one whose step is not 0 (which stays put)."""
        return self.classification == TRANSIENT or (
            self.classification == DETERMINISTIC and any(self.law.sites[0]))


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
    elif centered and len(_lattice_basis(law.sites, d)) <= 2:
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


# the finest outer grid has n^(r-1) >= 2^_GRID_LOG2 points, in slabs of _SLAB_POINTS
_GRID_LOG2 = 16
_SLAB_POINTS = 2**14


def _roots(coef: np.ndarray) -> np.ndarray:
    """(M, deg) roots of the polynomials in the rows of ``coef`` (ascending
    powers).  Quadratics, as for steps in {-1, 0, 1}, take the closed form
    -w / 2a, -2c / w with w = b +- sqrt(b^2 - 4ac) away from cancellation, so
    their bytes do not depend on the LAPACK build; other degrees take LAPACK."""
    deg = coef.shape[1] - 1
    if deg == 2:
        c, b, a = coef.T
        root = np.sqrt(b * b - 4.0 * a * c)
        w = np.where((b.conj() * root).real >= 0.0, b + root, b - root)
        return np.stack([-w / (2.0 * a), -2.0 * c / w], axis=1)
    companion = np.zeros((len(coef), deg, deg), dtype=np.complex128)
    companion[:, 0] = -coef[:, deg - 1::-1] / coef[:, deg:]
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    return np.linalg.eigvals(companion)


def _residue_frame(model: WalkModel) -> tuple:
    """(basis, order, sites, drift): the echelon basis of the lattice the
    atoms span, the order of its coordinates that puts the residue axis
    first (the first one for a centered walk, else the one of largest
    drift), the atoms' coordinates in that order, and the drift along the
    residue axis."""
    basis = _lattice_basis(model.law.sites, model.dimension)
    sites = np.array([_lattice_coords(basis, x) for x in model.law.sites], dtype=np.int64)
    drift = (model.law.prob_array()[:, None] * sites).sum(axis=0)
    axis = 0 if model.centered else int(np.argmax(np.abs(drift)))
    order = [axis] + [i for i in range(len(basis)) if i != axis]
    return basis, order, sites[:, order], drift[axis]


def residue_blocks(model: WalkModel) -> tuple:
    """(rows, deg) of ``spectral_variance``'s residue step: the outer-grid
    points it factors at once (1 in rank 1, else at most _SLAB_POINTS) and the
    degree in z of P(z) = z^q (1 - Psi), the span of the atoms' residue
    coordinates.  Each call builds a (rows, deg + 1) complex coefficient
    block and, above degree 2, a (rows, deg, deg) companion block."""
    basis, _, sites, _ = _residue_frame(model)
    column = [int(c) for c in sites[:, 0]]
    deg = max(0, -min(column)) + max(0, max(column))
    return (1 if len(basis) == 1 else _SLAB_POINTS), deg


def spectral_variance(model: WalkModel, fourier: dict) -> float:
    """sigma^2 = sum_l a_l I(l) of a transient walk for an even Fourier table
    ``fourier`` (l -> a_l), I(l) = 1_{l=0} + sum_{k>=1} P(Z_k = +-l).

    In a basis of the lattice L its atoms span, of rank r, I(l) = 0 off L and
    int_{T^r} cos(2 pi <l, t>) Phi(t) dt on L, with Phi = (1 - |Psi|^2) /
    |1 - Psi|^2 and Psi(t) = sum_x nu(x) e(<x, t>) the characteristic function
    of one step (Spitzer, Principles of Random Walk, ch. II).  The coordinate
    s of largest drift is integrated exactly by residues in z = exp(2 pi i s),
    since for a drifted walk Phi has a ridge along <m, t> = 0 (m the mean
    step) that no product grid resolves.  The other r - 1 take a half-offset
    midpoint rule at grid sizes n/4, n/2, n and one Aitken step: the grid
    error's power of the step depends on the walk."""
    if not model.effectively_transient:
        raise ValueError("spectral_variance needs a transient walk; the series diverges otherwise")
    d = model.dimension
    if any(len(lag) != d for lag in fourier):
        raise ValueError(f"a lag of {list(fourier)} has wrong dimension, expected {d}")
    basis, order, sites, drift = _residue_frame(model)
    r = len(basis)
    probs = model.law.prob_array()
    coords = {lag: _lattice_coords(basis, lag) for lag in fourier}
    lags = {tuple(c[i] for i in order): fourier[lag]
            for lag, c in coords.items() if c is not None}
    # P(z) = z^q (1 - Psi) is a polynomial of degree deg in z
    q = max(0, -int(sites[:, 0].min()))
    deg = residue_blocks(model)[1]
    # in r = 1 the root z = 1 lies on the circle; Abel summation moves it to the side
    # of the drift, which adds the point mass of Re 1/(1 - Psi) at t = 0
    radius = 1.0 - 1e-9 * np.sign(drift) if r == 1 else 1.0

    def slice_integral(t: np.ndarray) -> np.ndarray:
        """int_0^1 phi_f Phi ds = 2 Re sum_l a_l e(<l', t'>) K_{l_1} - sum_{l_1=0}
        a_l cos(2 pi <l', t'>) at each row t' of ``t``, e(x) = exp(2 pi i x), as
        Phi = 2 Re 1/(1 - Psi) - 1; K_m = int_0^1 e(m s) / (1 - Psi) ds sums the
        residues of z^(m+q-1) / P(z) inside the circle, or minus those outside
        when m + q < 1."""
        # einsum, not a BLAS product, so the bytes do not depend on the BLAS kernel
        c = probs * np.exp(2j * np.pi * np.einsum("mj,aj->ma", t, sites[:, 1:]))
        coef = np.zeros((len(t), deg + 1), dtype=np.complex128)
        coef[:, q] = 1.0
        for k, power in enumerate(sites[:, 0] + q):
            coef[:, power] -= c[:, k]
        z = _roots(coef)
        slope = sum(k * coef[:, k, None] * z ** (k - 1) for k in range(1, deg + 1))
        inside = np.abs(z) < radius
        green = {}
        for m in {lag[0] for lag in lags}:
            residues = z ** (m + q - 1) / slope
            green[m] = (np.where(inside, residues, 0.0).sum(axis=1) if m + q >= 1
                        else -np.where(inside, 0.0, residues).sum(axis=1))
        waves = {lag: np.exp(2j * np.pi * np.einsum("mj,j->m", t, lag[1:])) for lag in lags}
        return sum((a * (2.0 * (waves[lag] * green[lag[0]]).real - (lag[0] == 0) * waves[lag].real)
                    for lag, a in lags.items()), np.zeros(len(t)))

    if r == 1:
        return float(slice_integral(np.zeros((1, 0)))[0])

    def grid_mean(n: int) -> float:
        # slice_integral is even and t' -> 1 - t' maps the grid onto itself, so the half
        # with t'_0 < 1/2, the first n^(r-1) / 2 points in C order, will do
        half = n ** (r - 1) // 2
        slabs = (np.arange(lo, min(lo + _SLAB_POINTS, half))
                 for lo in range(0, half, _SLAB_POINTS))
        return math.fsum(float(np.sum(slice_integral(
            (np.stack(np.unravel_index(index, (n,) * (r - 1)), axis=-1) + 0.5) / n)))
            for index in slabs) / half

    n = 2 ** max(3, -(-_GRID_LOG2 // (r - 1)))
    s1, s2, s3 = grid_mean(n // 4), grid_mean(n // 2), grid_mean(n)
    d1, d2 = s2 - s1, s3 - s2
    # a ratio outside (0, 1) is roundoff on a converged integral, not a rate
    return s3 - d2 * d2 / (d2 - d1) if d1 and 0.0 < d2 / d1 < 1.0 else s3


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
