"""Exact integer-matrix machinery for commuting toral automorphisms.

Everything here is arbitrary-precision: entries of A^l grow exponentially
in |l|, so Python integers are used throughout and a power cache keeps the
cost manageable.  Provides

* powers A^l = A1^{l1} A2^{l2} (negative exponents via the integer inverse),
* the total-ergodicity check on a box (no root-of-unity eigenvalue of A^l,
  decided by one determinant, det((A^l)^N - I) != 0 with
  N = lcm{n : phi(n) <= rho}, taken modulo a prime first and exactly only
  when the residue is 0),
* the dual (transpose) action on frequency vectors, exact correlations
  <A^l f, f> on a box by character matching along exact dual orbits, exact
  joint moments and cumulants of transported observables (a cumulant is
  expanded only when some support tuple's transported frequencies cancel;
  every other one is +0.0), and
* exhaustive enumeration of the four-term S-unit-type relation
  A^{l1} g - A^{l2} g + A^{l3} g - g = 0 without vanishing proper sub-sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul

import numpy as np

from .cumulant import joint_cumulant, set_partitions
from .trigpoly import TrigPolynomial
from .walk import lattice_point

# ---------------------------------------------------------------------------
# integer matrices as tuples of tuples


def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: tuple, b: tuple, q: int = 0) -> tuple:
    """A B, exact, or its residues modulo q when q > 0."""
    bt = tuple(zip(*b))
    if q:
        return tuple(tuple(sum(map(mul, row, col)) % q for col in bt) for row in a)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: tuple, v) -> tuple:
    return tuple(sum(x * int(y) for x, y in zip(row, v)) for row in a)


def mat_transpose(a: tuple) -> tuple:
    return tuple(zip(*a))


def mat_det(a) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination: every
    division is exact, so the entries stay integers, of the size of minors."""
    m = [[int(x) for x in row] for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def mat_inverse_unimodular(a: tuple) -> tuple:
    """Exact inverse of a matrix with determinant +-1 (adjugate / det)."""
    n = len(a)
    det = mat_det(a)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {det})")

    def cofactor(i, j):
        minor = [[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        return (-1) ** (i + j) * mat_det(minor) if n > 1 else 1

    # adj(a)[i][j] is the (j, i) cofactor, and 1 / det = det
    return tuple(tuple(cofactor(j, i) * det for j in range(n)) for i in range(n))


def mat_tuplify(rows) -> tuple:
    """Integer matrix rows as tuples of ints; a non-integer entry is refused."""
    return tuple(lattice_point(row) for row in rows)


_UNIT_ROOT_EXPONENT = (2, 12, 12, 120, 120, 2520)  # lcm{n : phi(n) <= rho}, rho = 1..6


# a prime near 2^61: det(A^N - I) is first taken modulo it
_DET_PRIME = 2**61 - 1


def mat_power(a: tuple, k: int, q: int = 0) -> tuple:
    """A^k for k >= 0, exact (or its residues modulo q when q > 0), by
    repeated squaring (high bit first)."""
    out = mat_identity(len(a))
    for bit in bin(k)[2:]:
        out = mat_mul(out, out, q)
        if bit == "1":
            out = mat_mul(out, a, q)
    return out


def _unit_root_det(a: tuple, q: int = 0) -> int:
    """det(A^N - I) with N = lcm{n : phi(n) <= rho}, exact, or modulo q when
    q > 0 (the exact determinant of the residue matrix, reduced)."""
    rho = len(a)
    if not 1 <= rho <= len(_UNIT_ROOT_EXPONENT):
        raise ValueError(f"rho = {rho}: the root-of-unity test supports 1 <= rho <= 6")
    p = mat_power(a, _UNIT_ROOT_EXPONENT[rho - 1], q)
    det = mat_det(tuple(tuple(x - (i == j) for j, x in enumerate(row))
                        for i, row in enumerate(p)))
    return det % q if q else det


def has_root_of_unity_eigenvalue(a: tuple) -> bool:
    """True iff some eigenvalue of the integer matrix A is a root of unity,
    decided exactly as det(A^N - I) == 0 with N = lcm{n : phi(n) <= rho}.

    If an eigenvalue lambda is a root of unity of order n, its minimal
    polynomial over Q is the cyclotomic Phi_n, of degree phi(n), which divides
    the characteristic polynomial of A; so phi(n) <= rho, n divides N, and
    lambda^N = 1 is an eigenvalue of A^N.  Conversely the eigenvalues of A^N
    are the N-th powers of those of A, so a singular A^N - I has an
    eigenvalue with lambda^N = 1.

    The determinant is first taken modulo ``_DET_PRIME`` on residues: a
    nonzero residue proves the exact determinant nonzero, so the exact A^N,
    whose entries grow like |lambda|^N, is built only when the residue is 0.
    """
    return _unit_root_det(a, _DET_PRIME) == 0 and _unit_root_det(a) == 0


# ---------------------------------------------------------------------------
# commuting pairs


@dataclass
class MatrixPair:
    """Two commuting unimodular integer matrices generating a Z^2-action."""

    a1: tuple
    a2: tuple
    rho: int
    # memos, kept out of == and repr: a pair equals its copy whatever it computed
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _gen_powers: dict = field(default_factory=dict, repr=False, compare=False)
    _dual: dict = field(default_factory=dict, repr=False, compare=False)


def matrix_pair(a1, a2) -> MatrixPair:
    a1 = mat_tuplify(a1)
    a2 = mat_tuplify(a2)
    if not a1 or len(a1) != len(a2) or any(len(r) != len(a1) for r in a1 + a2):
        raise ValueError("matrices must be nonempty, square and of equal size")
    if mat_det(a1) not in (1, -1) or mat_det(a2) not in (1, -1):
        raise ValueError("matrices must be unimodular (|det| = 1)")
    if mat_mul(a1, a2) != mat_mul(a2, a1):
        raise ValueError("matrices must commute")
    return MatrixPair(a1=a1, a2=a2, rho=len(a1))


def _gen_power(pair: MatrixPair, which: int, k: int) -> tuple:
    key = (which, k)
    if key in pair._gen_powers:
        return pair._gen_powers[key]
    base = pair.a1 if which == 1 else pair.a2
    if k < 0:
        base = pair._gen_powers.setdefault((which, "inv"), mat_inverse_unimodular(base))
    step = 1 if k >= 0 else -1
    # walk up from the nearest cached exponent toward k
    j = 0
    out = pair._gen_powers.setdefault((which, 0), mat_identity(pair.rho))
    while (which, j + step) in pair._gen_powers and j != k:
        j += step
        out = pair._gen_powers[(which, j)]
    while j != k:
        j += step
        out = mat_mul(out, base)
        pair._gen_powers[(which, j)] = out
    return out


def mat_pow_pair(pair: MatrixPair, ell) -> tuple:
    """A^l = A1^{l1} A2^{l2}, exact and cached."""
    ell = (int(ell[0]), int(ell[1]))
    if ell in pair._cache:
        return pair._cache[ell]
    out = mat_mul(_gen_power(pair, 1, ell[0]), _gen_power(pair, 2, ell[1]))
    pair._cache[ell] = out
    return out


@dataclass
class PairReport:
    box: int
    per_ell: dict            # (l1, l2) -> True when no unit-root eigenvalue
    all_pass: bool


def check_pair(pair: MatrixPair, box: int) -> PairReport:
    """Total ergodicity on a box: for every 0 != l with |l|_inf <= box, A^l
    has no root-of-unity eigenvalue.  ``matrix_pair`` already guarantees
    commutation and unimodularity.  A^-l has the reciprocal eigenvalues of
    A^l, so each +-l is tested once.  The full property is undecidable by
    box search; callers get "verified up to box".
    """
    per_ell = {}
    for ell in itertools.product(range(-box, box + 1), repeat=2):
        if ell == (0, 0):
            continue
        known = per_ell.get((-ell[0], -ell[1]))
        per_ell[ell] = (not has_root_of_unity_eigenvalue(mat_pow_pair(pair, ell))
                        if known is None else known)
    return PairReport(box=box, per_ell=per_ell, all_pass=all(per_ell.values()))


def dual_orbit(pair: MatrixPair, k, ell) -> tuple:
    """Transpose action on frequency vectors: transpose(A^l) k, exact and cached."""
    key = (tuple(k), tuple(ell))
    out = pair._dual.get(key)
    if out is None:
        out = pair._dual[key] = mat_vec(mat_transpose(mat_pow_pair(pair, ell)), k)
    return out


def _dual_walk(mat: tuple, vecs: np.ndarray, box: int):
    """(a, transpose(M)^a V) for a = 0, 1, ..., box and then a = -1, ..., -box,
    V a (rho, n) object array of integer columns, one exact step at a time and
    one power held at a time."""
    yield 0, vecs
    for sign, m in ((1, mat), (-1, mat_inverse_unimodular(mat))):
        step = np.array(mat_transpose(m), dtype=object)
        line = vecs
        for a in range(1, box + 1):
            line = step @ line
            yield sign * a, line


def correlation_box(pair: MatrixPair, f: TrigPolynomial, box: int) -> dict:
    """l -> <A^l f, f> for every l with |l|_inf <= box, l in row-major order.

    <A^l f, f> is the sum, over k with transpose(A^l) k in the support, of
    c_k conj(c_{transpose(A^l) k}), added in the order of ``f.coeffs``.  The
    dual action transpose(A^l) k = (A1^T)^{l1} (A2^T)^{l2} k is walked for the
    whole support along l1 and then l2, one exact integer step at a time
    (Python integers in object arrays), not raised to each l afresh; only one
    l2 line of the box is held at a time, so memory grows with the box, not
    its area.
    """
    coeffs = list(f.coeffs.items())
    h = len(coeffs)
    support = np.array([k for k, _ in coeffs], dtype=object).T  # (rho, h)
    by_l1 = dict(_dual_walk(pair.a1, support, box))
    by_l1 = np.concatenate([by_l1[a] for a in range(-box, box + 1)], axis=1)  # l1-major columns
    values = {}
    for l2, line in _dual_walk(pair.a2, by_l1, box):
        cols = line.T.tolist()
        for i in range(2 * box + 1):
            total = 0.0 + 0.0j
            for (_, c), kk in zip(coeffs, cols[i * h:(i + 1) * h]):
                ck = f.coeffs.get(tuple(kk))
                if ck is not None:
                    total += c * ck.conjugate()
            assert abs(total.imag) < 1e-9
            values[(i - box, l2)] = float(total.real)
    return {ell: values[ell] for ell in itertools.product(range(-box, box + 1), repeat=2)}


def _transported_keys(pair: MatrixPair, f: TrigPolynomial, ells, r: int) -> dict:
    """ell -> the transported support transpose(A^l) k, k in supp(f), in
    support order, each keyed by one integer for sums of up to r of them.

    The key has the coordinates as digits in balanced base 2^w with
    r max|coordinate| < 2^(w-1).  Every sum of r or fewer transported
    frequencies has its coordinates in that range, so the key is injective on
    them and adds as the vectors add: dicts get the keys and the order they
    would get under tuple keys, and a sum is 0 exactly when its key is.
    """
    orbits = {ell: [dual_orbit(pair, k, ell) for k in f.support] for ell in ells}
    w = (r * max((abs(x) for kks in orbits.values() for kk in kks for x in kk), default=0)
         ).bit_length() + 1
    return {ell: [sum(x << (w * j) for j, x in enumerate(kk)) for kk in kks]
            for ell, kks in orbits.items()}


# most support^r terms an exact joint moment of order r may expand
_MOMENT_BUDGET = 10**7


def exact_joint_moment(pair: MatrixPair, f: TrigPolynomial, ells,
                       budget: int = _MOMENT_BUDGET) -> float:
    """m_f(l_1..l_r) = integral of prod_i A^{l_i} f over Haar measure.

    Characters integrate to the indicator of a zero frequency sum, so the
    moment is the sum of prod c_{k_i} over support tuples whose transported
    frequencies cancel.  Partial-sum dictionaries keep the scan well below
    the worst case support^r.  The last factor only feeds the zero sum: the
    transported frequencies are distinct (the dual action is injective), so
    each partial sum s meets at most one of them, -s, and the terms add in
    partial-dict order as a full last convolution would add them.  Each
    frequency is keyed by one integer (``_transported_keys``).
    """
    r = len(ells)
    support = f.support
    if len(support) ** r > budget:
        raise ValueError("combinatorial budget exceeded")
    if r == 0:
        return 1.0
    ells = [tuple(ell) for ell in ells]
    keys = _transported_keys(pair, f, ells, r)
    coeffs = [f.coeffs[k] for k in support]

    partial = {0: 1.0 + 0.0j}
    for ell in ells[:-1]:
        transported = list(zip(keys[ell], coeffs))
        nxt = {}
        for s, acc in partial.items():
            for kk, c in transported:
                key = s + kk
                nxt[key] = nxt.get(key, 0.0 + 0.0j) + acc * c
        partial = nxt
    last = dict(zip(keys[ells[-1]], coeffs))
    total = 0.0 + 0.0j
    for s, acc in partial.items():
        c = last.get(-s)
        if c is not None:
            total += acc * c
    assert abs(total.imag) < 1e-9
    return float(total.real)


def _moment_memo(pair: MatrixPair, f: TrigPolynomial):
    """Moment oracle m(ells) memoized on the ells translated to start at 0.

    The moment is exactly translation invariant: the dual action T_v is a
    linear bijection, so the partial-sum dict of ``exact_joint_moment``
    groups and orders its terms the same way for ells and ells - v, and the
    value is bit for bit the same.  The entries keep their order (sorting
    them would reorder complex products).  The memo lives as long as the
    oracle, so callers hold one per scan.
    """
    memo = {}

    def moment(ells):
        x0, y0 = ells[0]
        key = tuple((x - x0, y - y0) for x, y in ells)
        if key not in memo:
            memo[key] = exact_joint_moment(pair, f, key)
        return memo[key]

    return moment


def _cumulant(moment, ells) -> float:
    """Joint cumulant of the config ``ells``, asking ``moment`` once per distinct
    block (15 subsets for the 37 block occurrences of the partitions at r = 4)."""
    blocks = {}

    def block_moment(block):
        if block not in blocks:
            blocks[block] = moment([ells[i - 1] for i in block])
        return blocks[block]

    return joint_cumulant(block_moment, len(ells))


def _frequency_sums(keys: dict, ells) -> set:
    """Every sum of transported frequencies, one per index of ``ells``."""
    sums = {0}
    for ell in ells:
        sums = {s + k for s in sums for k in keys[ell]}
    return sums


def _check_order(f: TrigPolynomial, r: int):
    """The refusals of a cumulant of order r, raised before any certificate
    can skip its moments: the partition order, then the moment budget."""
    set_partitions(r)
    if len(f.support) ** r > _MOMENT_BUDGET:
        raise ValueError("combinatorial budget exceeded")


def exact_cumulant(pair: MatrixPair, f: TrigPolynomial, ells) -> float:
    """Exact joint cumulant C(A^{l_1} f, ..., A^{l_r} f) via the exact moments.

    Zero certificate: unless some tuple (k_1..k_r) in supp(f)^r has
    sum transpose(A^{l_i}) k_i = 0, the cumulant is +0.0 and no moment is
    computed.  Joining cancelling tuples of every block of a partition would
    cancel the whole configuration, so each partition term then holds a moment
    of a block with no cancelling tuple, which ``exact_joint_moment`` returns
    as +0.0 (it adds no term); ``joint_cumulant``'s total starts at +0.0 and
    +0.0 + (-0.0) = +0.0, so the full expansion gives +0.0 too, bit for bit.
    The test meets in the middle: the sums over the first half of the indices
    against the negated sums over the second half.
    """
    ells = [tuple(int(x) for x in e) for e in ells]
    _check_order(f, len(ells))
    keys = _transported_keys(pair, f, set(ells), len(ells))
    half = len(ells) // 2
    if _frequency_sums(keys, ells[:half]).isdisjoint(
            -s for s in _frequency_sums(keys, ells[half:])):
        return 0.0
    return _cumulant(_moment_memo(pair, f), ells)


def find_cumulant_radius(pair: MatrixPair, f: TrigPolynomial, scan: int = 2,
                         r: int = 4, tol: float = 1e-12):
    """Scan configurations (l_1, .., l_{r-1}, 0) on a box and report the largest
    pairwise separation with a nonvanishing exact cumulant.

    Cumulants are shift-invariant, so pinning the last index at 0 loses
    nothing.  Returns (radius, nonzero configs); radius 0.0 means only the
    fully clustered configs contribute.

    Only the configurations that pass ``exact_cumulant``'s zero certificate
    are expanded; every other one has cumulant +0.0 and would not be listed.
    The candidates are found by meeting in the middle: one dict from each
    exact frequency sum over the first ceil((r - 1) / 2) free indices, for
    the whole box, to the index tuples that reach it, probed with the negated
    sums over the other free indices and the pinned 0.  The candidates are
    evaluated in ``itertools.product`` order, so the list and the radius are
    those of the full scan.
    """
    zero = (0, 0)
    _check_order(f, r)
    box = list(itertools.product(range(-scan, scan + 1), repeat=2))
    keys = _transported_keys(pair, f, box, r)
    half = r // 2
    heads = {}
    for head in itertools.product(box, repeat=half):
        for s in _frequency_sums(keys, head):
            heads.setdefault(s, []).append(head)
    candidates = set()
    for tail in itertools.product(box, repeat=r - 1 - half):
        for s in _frequency_sums(keys, tail + (zero,)):
            candidates.update(head + tail for head in heads.get(-s, ()))
    moment = _moment_memo(pair, f)
    radius = 0.0
    nonzero = []
    for ells in sorted(candidates):
        config = list(ells) + [zero]
        c = _cumulant(moment, config)
        if abs(c) > tol:
            pts = np.asarray(config, dtype=np.float64)
            diam = float(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2)
                                 .sum(axis=2)).max())
            nonzero.append((tuple(config), c))
            radius = max(radius, diam)
    return radius, nonzero


# ---------------------------------------------------------------------------
# the four-term relation A^{l1} g - A^{l2} g + A^{l3} g - g = 0


# the search keeps this many solution rows: the first in sorted-triple, then
# lexicographic-gamma, order
SAMPLE_CAP = 1000
# the screen's two primes; below 2^20, so a minor product is below 2^40
_Q1, _Q2 = 1048573, 1048583
# values of l1 per minor-table product in ``_singular_triples``: the product's
# temporaries stay small (4 L^2 floats), and at L = 121 blocks of 4 ran
# faster than blocks of 1, 8 or 16
_SCREEN_BLOCK = 4
# most gamma rows per slab of ``sunit_search``: a slab fixes the leading
# coordinates and runs over a grid of the trailing ones of at most this many
# rows (one coordinate at least)
_GAMMA_BLOCK = 2**16


@dataclass
class SUnitReport:
    solutions: list       # sample of (l1, l2, l3, gamma) tuples (capped)
    n_solutions: int      # full count of non-degenerate tuples in the boxes
    n_primitive: int      # tuples whose gamma has coprime entries
    triples: list         # distinct (l1, l2, l3) admitting some gamma: the F candidate
    n_triples: int
    ell_bound: int
    gamma_bound: int
    sample_cap: int = SAMPLE_CAP


def sunit_search(pair: MatrixPair, gamma_bound: int, ell_bound: int) -> SUnitReport:
    """Enumerate all (l1, l2, l3, gamma) in the boxes solving the four-term
    relation exactly, with every vanishing-proper-sub-sum tuple filtered out.

    The dual (transposed) version of the relation has the same solution
    counts for the transposed pair; the counts are what the finiteness
    statement is about.  Triples where a sub-sum vanishes identically
    (l1 = l2, l2 = l3, l1 = 0, l3 = 0) are skipped outright; the remaining
    candidates come from singular combinations found by a two-prime modular
    determinant screen and are then verified in exact arithmetic.  The
    screen is exact in float64 while C(2 rho, rho) (q1 - 1)^2 < 2^53, that
    is for rho <= 7; a larger rho is refused.

    Each candidate triple walks the nonzero gamma box in lexicographic
    slabs: a slab fixes the leading coordinates and takes the grid of the
    trailing ones (at most ``_GAMMA_BLOCK`` rows, built once), and the slab
    with a zero head drops its zero row.  Each of a triple's seven matrices
    is classified once (``_kernel_op``), so only a singular nonzero one is
    multiplied, slab by slab.  The first triple to walk the box keeps each
    slab's primitive mask for the others, so the search holds one byte per
    gamma and one slab's gamma rows and products, not the whole
    (2 gamma + 1)^rho x rho grid.
    """
    for name, bound in (("gamma_bound", gamma_bound), ("ell_bound", ell_bound)):
        if bound < 0:
            raise ValueError(f"{name} must be >= 0, got {bound}")
    rho = pair.rho
    if math.comb(2 * rho, rho) * (_Q1 - 1) ** 2 >= 2**53:
        raise ValueError(f"rho = {rho}: the S-unit screen's float64 sums would pass 2^53")
    ells = list(itertools.product(range(-ell_bound, ell_bound + 1), repeat=2))
    mats = {ell: np.asarray(mat_pow_pair(pair, ell), dtype=object) for ell in ells}

    ident = np.asarray(mat_identity(rho), dtype=object)
    solutions = []
    n_solutions = 0
    n_prim = 0
    triples = set()
    primitive = []  # per slab, which of its rows have coprime entries
    for (e1, e2, e3) in sorted(_singular_triples(mats, ells)):
        if e1 == e2 or e2 == e3 or e1 == (0, 0) or e3 == (0, 0):
            continue  # a proper sub-sum vanishes for every gamma
        p1, p2, p3 = mats[e1], mats[e2], mats[e3]
        op = _kernel_op(p1 - p2 + p3 - ident, gamma_bound)
        if op is False:
            continue
        subsums = _subsum_ops(p1, p2, p3, gamma_bound)
        if any(s is True for s in subsums):
            continue  # a pair sum is the zero matrix
        for i, gammas in enumerate(_gamma_slabs(rho, gamma_bound)):
            if i == len(primitive):  # the first triple to walk the box
                primitive.append(reduce(np.gcd, gammas.T, 0) == 1)  # gcd(0, g) = |g|
            good = _kernel_rows(op, gammas)
            if not good.any():
                continue
            if subsums:
                good &= ~_subsum_rows(subsums, gammas)
            n = int(np.count_nonzero(good))
            if not n:
                continue
            triples.add((e1, e2, e3))
            n_solutions += n
            n_prim += int(np.count_nonzero(good & primitive[i]))
            room = SAMPLE_CAP - len(solutions)
            if room > 0:  # gather only the sampled rows
                solutions += [(e1, e2, e3, tuple(g))
                              for g in gammas[np.flatnonzero(good)[:room]].tolist()]
    return SUnitReport(solutions=solutions, n_solutions=n_solutions,
                       n_primitive=n_prim, triples=sorted(triples),
                       n_triples=len(triples), ell_bound=ell_bound,
                       gamma_bound=gamma_bound)


def _gamma_slabs(rho: int, gamma_bound: int):
    """The nonzero gamma in [-gamma_bound, gamma_bound]^rho in lexicographic
    order, as int64 slabs: each fixes a head of leading coordinates and runs
    over the trailing grid of at most ``_GAMMA_BLOCK`` rows (one coordinate at
    least).  The slab whose head is zero drops the zero row.  The slabs share
    one buffer: each is overwritten by the next."""
    side = 2 * gamma_bound + 1
    tail = 1
    while tail < rho and side ** (tail + 1) <= _GAMMA_BLOCK:
        tail += 1
    slab = np.empty((side**tail, rho), dtype=np.int64)
    slab[:, rho - tail:] = np.indices((side,) * tail).reshape(tail, -1).T - gamma_bound
    zero = len(slab) // 2  # the centre of the lexicographic grid
    for head in itertools.product(range(-gamma_bound, gamma_bound + 1), repeat=rho - tail):
        slab[:, :rho - tail] = head
        yield slab if any(head) else np.delete(slab, zero, axis=0)


@lru_cache(maxsize=None)
def _minor_plan(rho: int) -> list:
    """Per k = 2..rho, over the k-subsets of range(rho) in ``itertools.combinations``
    order, the index arrays that expand each k x k minor along its first row:
    per t, the t-th element of the subset and the index of the (k - 1)-subset
    left without it."""
    plan = []
    for k in range(2, rho + 1):
        at = {s: i for i, s in enumerate(itertools.combinations(range(rho), k - 1))}
        subs = list(itertools.combinations(range(rho), k))
        plan.append([(np.array([s[t] for s in subs]),
                      np.array([at[s[:t] + s[t + 1:]] for s in subs])) for t in range(k)])
    return plan


def _minor_tables(m: np.ndarray, q: int) -> list:
    """The k x k minors modulo q of the int64 residues m (..., rho, rho), for
    k = 0..rho: entry k has [..., a, b] = det m[I_a, J_b] mod q, with I_a and
    J_b the a-th and b-th k-subsets (``_minor_plan`` order).  Each minor adds
    k signed products of residues below q^2 < 2^40, so the int64 sums are exact."""
    tables = [np.ones(m.shape[:-2] + (1, 1), dtype=np.int64), m]
    for terms in _minor_plan(m.shape[-1]):
        first, rest = (x[:, None] for x in terms[0])  # row I[0], the rows I - I[0]
        acc = 0
        for t, (col, drop) in enumerate(terms):
            term = m[..., first, col] * tables[-1][..., rest, drop]
            acc = acc - term if t % 2 else acc + term
        tables.append(acc % q)
    return tables


def _laplace_table(m: np.ndarray, q: int, right: bool = False) -> np.ndarray:
    """Each int64 residue matrix of m (n, rho, rho) as one float64 row of its
    C(2 rho, rho) minors modulo q (k = 0..rho, as ``_minor_tables`` has them);
    with ``right``, as the column that pairs with those rows.

    The Laplace expansion of a sum (Marcus, "Determinants of sums", College
    Math. J. 21, 1990) is det(B + C) = sum (-1)^(sum I + sum J) det B[I, J]
    det C[I^c, J^c].  The signed minors of C are the minors of S C S for
    S = diag((-1)^i), and complementing reverses the subset order (it
    complements the indicator vectors, whose binary values give it).  So
    det(B + C) is the row of B times the reversed row of S C S, modulo q."""
    if right:
        m = m * (-1) ** np.add.outer(range(m.shape[-1]), range(m.shape[-1])) % q
    out = np.concatenate([t.reshape(len(m), -1) for t in _minor_tables(m, q)], axis=1,
                         dtype=np.float64)
    return np.ascontiguousarray(out[:, ::-1].T) if right else out


def _det_sum_mod(rows: np.ndarray, cols: np.ndarray, q: int) -> np.ndarray:
    """det(B + C) mod q for every row B and column C of the Laplace tables.
    A dot product of C(2 rho, rho) residue products stays below
    C(2 rho, rho) (q - 1)^2 < 2^53 (``sunit_search`` refuses a larger rho), so
    every partial sum is an integer that float64 holds exactly, in any BLAS
    blocking or thread count."""
    out = rows @ cols
    # out < 2^53, so out / q < 2^34 is within 2^-20 of a quotient whose
    # fraction is 0 or at least 1 / q > 2^-20: its floor is exact
    out -= q * np.floor(out / q)
    return out


def _singular_triples(mats: dict, ells: list) -> set:
    """Triples (l1, l2, l3) with M = A^{l1} - A^{l2} + A^{l3} - I singular
    modulo two primes: a superset of the exactly singular ones.

    M is the same integer matrix for (l1, l2, l3) and (l3, l2, l1), so only
    i3 >= i1 is screened and the hits are mirrored.  Modulo the first prime,
    M = B + C with B = A^{l1} - A^{l2} - I and C = A^{l3}, and a block of
    ``_SCREEN_BLOCK`` values of l1 is one product of the B Laplace rows with
    the C Laplace columns (``_det_sum_mod``); only its zeros are rechecked
    modulo the second prime, by the rho x rho minor.
    """
    n = len(ells)
    powers = np.stack([mats[e] for e in ells])  # (L, rho, rho) Python ints
    rho = powers.shape[-1]
    arr1, arr2 = ((powers % q).astype(np.int64) for q in (_Q1, _Q2))
    ident = np.eye(rho, dtype=np.int64)
    cols = _laplace_table(arr1, _Q1, right=True)
    hits = []
    for lo in range(0, n, _SCREEN_BLOCK):
        b = ((arr1[lo:lo + _SCREEN_BLOCK, None] - arr1 - ident) % _Q1).reshape(-1, rho, rho)
        rows = _laplace_table(b, _Q1)
        row, col = np.nonzero(_det_sum_mod(rows, cols[:, lo:], _Q1) == 0)
        i1, i2, i3 = lo + row // n, row % n, lo + col
        hits.append(np.stack([i1, i2, i3])[:, i3 >= i1])
    i1, i2, i3 = np.concatenate(hits, axis=1)
    m = (arr2[i1] - arr2[i2] + arr2[i3] - ident) % _Q2
    keep = _minor_tables(m, _Q2)[rho][:, 0, 0] == 0
    half = {(ells[a], ells[b], ells[c]) for a, b, c in zip(i1[keep], i2[keep], i3[keep])}
    return half | {(e3, e2, e1) for e1, e2, e3 in half}


def _kernel_op(d, gamma_bound: int):
    """The integer matrix d classified once for ``_kernel_rows``: False when
    det d != 0 (no nonzero g solves d g = 0), True when d = 0 (every g does),
    else d^T, in int64 while the dot products with |g_i| <= gamma_bound fit
    and in Python integers past that."""
    rows = d.tolist()  # Python integers
    if mat_det(rows) != 0:
        return False
    big = max(abs(x) for row in rows for x in row)
    if big == 0:
        return True
    return d.T.astype(np.int64 if len(d) * big * gamma_bound < 2**62 else object)


def _kernel_rows(op, gammas: np.ndarray) -> np.ndarray:
    """Exactly which rows g of ``gammas`` (all nonzero) solve d g = 0, for
    op = ``_kernel_op(d, ...)``."""
    if op is True or op is False:
        return np.full(len(gammas), op)
    return np.all(gammas @ op == 0, axis=1)


def _subsum_ops(p1, p2, p3, gamma_bound: int) -> list:
    """The pair sums of the terms +P1 g, -P2 g, +P3 g, -g that some nonzero g
    can cancel, each classified by ``_kernel_op``.  A proper sub-sum vanishes
    iff a pair does: a vanishing triple forces the complementary single term
    to vanish, which cannot happen for g != 0 and invertible matrices."""
    ident = np.asarray(mat_identity(len(p1)), dtype=object)
    ops = (_kernel_op(d, gamma_bound)
           for d in (p1 - p2, p1 + p3, p1 - ident, p3 - p2, p2 + ident, p3 - ident))
    return [op for op in ops if op is not False]


def _subsum_rows(ops: list, gammas: np.ndarray) -> np.ndarray:
    """Rows g of ``gammas`` for which a proper sub-sum vanishes (``_subsum_ops``)."""
    out = np.zeros(len(gammas), dtype=bool)
    for op in ops:
        out |= _kernel_rows(op, gammas)
    return out


# ---------------------------------------------------------------------------
# serialization


def pair_from_dict(doc: dict) -> MatrixPair:
    return matrix_pair(doc["a1"], doc["a2"])
