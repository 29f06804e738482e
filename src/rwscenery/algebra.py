"""Exact integer-matrix machinery for commuting toral automorphisms.

Everything here is arbitrary-precision: entries of A^l grow exponentially
in |l|, so Python integers are used throughout and a power cache keeps the
cost manageable.  Provides

* powers A^l = A1^{l1} A2^{l2} (negative exponents via the integer inverse),
* the total-ergodicity check on a box (no root-of-unity eigenvalue of A^l,
  decided by exact divisibility of the characteristic polynomial by
  cyclotomic polynomials),
* the dual (transpose) action on frequency vectors, exact correlations
  <A^l f, f> by character matching, exact joint moments of transported
  observables, and
* exhaustive enumeration of the four-term S-unit-type relation
  A^{l1} g - A^{l2} g + A^{l3} g - g = 0 without vanishing proper sub-sums.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

import numpy as np

from .cumulant import joint_cumulant
from .trigpoly import TrigPolynomial

# ---------------------------------------------------------------------------
# integer matrices as tuples of tuples


def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: tuple, v) -> tuple:
    return tuple(sum(x * int(y) for x, y in zip(row, v)) for row in a)


def mat_transpose(a: tuple) -> tuple:
    return tuple(zip(*a))


def mat_det(a: tuple) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # permutation sign by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i, j in enumerate(perm):
            prod *= a[i][j]
        total += sign * prod
    return total


def mat_inverse_unimodular(a: tuple) -> tuple:
    """Exact inverse of a matrix with determinant +-1 (adjugate / det)."""
    n = len(a)
    det = mat_det(a)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {det})")
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(tuple(a[r][c] for c in range(n) if c != j)
                          for r in range(n) if r != i)
            m = mat_det(minor) if n > 1 else 1
            row.append((-1) ** (i + j) * m)
        cof.append(tuple(row))
    adj = mat_transpose(tuple(cof))
    return tuple(tuple(x * det for x in row) for row in adj)


def mat_tuplify(rows) -> tuple:
    return tuple(tuple(int(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# exact characteristic polynomials and cyclotomic divisibility


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod_monic(p, q):
    """Exact division by a monic integer polynomial; returns (quot, rem)."""
    assert q[-1] == 1
    p = list(p)
    dq = len(q) - 1
    quot = [0] * max(1, len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i]
        if c:
            quot[i - dq] = c
            for j, b in enumerate(q):
                p[i - dq + j] -= c * b
    return _poly_trim(quot), _poly_trim(p)


def char_poly(a: tuple) -> list:
    """Characteristic polynomial det(xI - A), exact integer coefficients.

    Cofactor expansion over the polynomial ring; fine for the small rho
    used here (guarded at rho <= 6).
    """
    n = len(a)
    if n > 6:
        raise ValueError("char_poly supports rho <= 6")
    entries = [[[-a[i][j], 1] if i == j else [-a[i][j]] for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = [0]
        r = rows[0]
        for pos, c in enumerate(cols):
            term = _poly_mul(entries[r][c], det(rows[1:], cols[:pos] + cols[pos + 1:]))
            if pos % 2:
                term = [-x for x in term]
            total = [x + y for x, y in zip(total + [0] * (len(term) - len(total)),
                                           term + [0] * (len(total) - len(term)))]
        return _poly_trim(total)

    return det(tuple(range(n)), tuple(range(n)))


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple:
    """Phi_n(x) by exact division of x^n - 1 by the lower cyclotomics."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_monic(p, cyclotomic(d))
            assert r == [0]
            p = list(q)
    return tuple(p)


def _euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def cyclotomic_indices(rho: int) -> list:
    """All n with euler_phi(n) <= rho (candidate orders of unit-root eigenvalues)."""
    return [n for n in range(1, 2 * rho * rho + 3) if _euler_phi(n) <= rho]


def has_root_of_unity_eigenvalue(a: tuple) -> bool:
    """True iff some cyclotomic Phi_n divides char_poly(A).

    Phi_n is irreducible over Q, so a nontrivial gcd with the characteristic
    polynomial is the same as divisibility, and an eigenvalue that is a root
    of unity has a minimal polynomial Phi_n with phi(n) <= rho.
    """
    cp = char_poly(a)
    for n in cyclotomic_indices(len(a)):
        _, rem = _poly_divmod_monic(cp, cyclotomic(n))
        if rem == [0]:
            return True
    return False


# ---------------------------------------------------------------------------
# commuting pairs


@dataclass
class MatrixPair:
    """Two commuting unimodular integer matrices generating a Z^2-action."""

    a1: tuple
    a2: tuple
    rho: int
    _cache: dict = field(default_factory=dict, repr=False)
    _gen_powers: dict = field(default_factory=dict, repr=False)


def matrix_pair(a1, a2) -> MatrixPair:
    a1 = mat_tuplify(a1)
    a2 = mat_tuplify(a2)
    if len(a1) != len(a2) or any(len(r) != len(a1) for r in a1 + a2):
        raise ValueError("matrices must be square of equal size")
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
    commutes: bool
    unimodular: bool
    box: int
    per_ell: dict            # (l1, l2) -> True when no unit-root eigenvalue
    all_pass: bool
    generator_eigen_moduli: dict  # float screen only; exactness comes from per_ell


def check_pair(pair: MatrixPair, box: int) -> PairReport:
    """Verify commutation/unimodularity exactly and total ergodicity on a box.

    For every 0 != l with |l|_inf <= box, checks that char_poly(A^l) is not
    divisible by any cyclotomic Phi_n with phi(n) <= rho.  The full property
    is undecidable by box search; callers get "verified up to box".
    """
    commutes = mat_mul(pair.a1, pair.a2) == mat_mul(pair.a2, pair.a1)
    unimodular = mat_det(pair.a1) in (1, -1) and mat_det(pair.a2) in (1, -1)
    if not (commutes and unimodular):
        raise ValueError("matrix pair fails commutation or unimodularity")
    per_ell = {}
    for ell in itertools.product(range(-box, box + 1), repeat=2):
        if ell == (0, 0):
            continue
        per_ell[ell] = not has_root_of_unity_eigenvalue(mat_pow_pair(pair, ell))
    moduli = {}
    for name, m in (("a1", pair.a1), ("a2", pair.a2)):
        eig = np.linalg.eigvals(np.asarray(m, dtype=np.float64))
        moduli[name] = sorted(float(abs(z)) for z in eig)
    return PairReport(commutes=commutes, unimodular=unimodular, box=box,
                      per_ell=per_ell, all_pass=all(per_ell.values()),
                      generator_eigen_moduli=moduli)


def dual_orbit(pair: MatrixPair, k, ell) -> tuple:
    """Transpose action on frequency vectors: transpose(A^l) k, exact."""
    return mat_vec(mat_transpose(mat_pow_pair(pair, ell)), k)


def toral_correlation(pair: MatrixPair, f: TrigPolynomial, ell) -> float:
    """<A^l f, f> = sum over k with transpose(A^l) k in the support of
    c_k conj(c_{transpose(A^l) k})."""
    total = 0.0 + 0.0j
    for k, c in f.coeffs.items():
        kk = dual_orbit(pair, k, ell)
        if kk in f.coeffs:
            total += c * f.coeffs[kk].conjugate()
    assert abs(total.imag) < 1e-9
    return float(total.real)


def exact_joint_moment(pair: MatrixPair, f: TrigPolynomial, ells,
                       budget: int = 10**7) -> float:
    """m_f(l_1..l_r) = integral of prod_i A^{l_i} f over Haar measure.

    Characters integrate to the indicator of a zero frequency sum, so the
    moment is the sum of prod c_{k_i} over support tuples whose transported
    frequencies cancel.  Partial-sum dictionaries keep the scan well below
    the worst case support^r.
    """
    r = len(ells)
    support = f.support
    if len(support) ** r > budget:
        raise ValueError("combinatorial budget exceeded")
    partial = {(0,) * f.rho: 1.0 + 0.0j}
    for ell in ells:
        transported = [(dual_orbit(pair, k, ell), f.coeffs[k]) for k in support]
        nxt = {}
        for s, acc in partial.items():
            for kk, c in transported:
                key = tuple(map(add, s, kk))
                nxt[key] = nxt.get(key, 0.0 + 0.0j) + acc * c
        partial = nxt
    total = partial.get((0,) * f.rho, 0.0 + 0.0j)
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
    return joint_cumulant(lambda block: moment([ells[i - 1] for i in block]), len(ells))


def exact_cumulant(pair: MatrixPair, f: TrigPolynomial, ells) -> float:
    """Exact joint cumulant C(A^{l_1} f, ..., A^{l_r} f) via the exact moments."""
    ells = [tuple(int(x) for x in e) for e in ells]
    return _cumulant(_moment_memo(pair, f), ells)


def find_cumulant_radius(pair: MatrixPair, f: TrigPolynomial, scan: int = 2,
                         r: int = 4, tol: float = 1e-12):
    """Scan configurations (l_1, .., l_{r-1}, 0) on a box and report the largest
    pairwise separation with a nonvanishing exact cumulant.

    Cumulants are shift-invariant, so pinning the last index at 0 loses
    nothing.  Returns (radius, nonzero configs); radius 0.0 means only the
    fully clustered configs contribute.
    """
    zero = (0, 0)
    moment = _moment_memo(pair, f)
    radius = 0.0
    nonzero = []
    for ells in itertools.product(itertools.product(range(-scan, scan + 1), repeat=2),
                                  repeat=r - 1):
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


@dataclass
class SUnitReport:
    solutions: list       # sample of (l1, l2, l3, gamma) tuples (capped)
    n_solutions: int      # full count of non-degenerate tuples in the boxes
    n_primitive: int      # tuples whose gamma has coprime entries
    triples: list         # distinct (l1, l2, l3) admitting some gamma: the F candidate
    n_triples: int
    ell_bound: int
    gamma_bound: int
    sample_cap: int = 1000


def _det3_mod(m: np.ndarray, p: int) -> np.ndarray:
    """det(m) mod p over the last two axes, for 3 p^3 < 2^63 (p ~ 2^20 here).

    On residues 0 <= a < p the cofactor expansion stays within +-3 p^3, so
    the int64 determinant is exact and only the result needs reducing.
    """
    a = m % p
    d = (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
         - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
         + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))
    return d % p


def sunit_search(pair: MatrixPair, gamma_bound: int, ell_bound: int) -> SUnitReport:
    """Enumerate all (l1, l2, l3, gamma) in the boxes solving the four-term
    relation exactly, with every vanishing-proper-sub-sum tuple filtered out.

    The dual (transposed) version of the relation has the same solution
    counts for the transposed pair; the counts are what the finiteness
    statement is about.  Triples where a sub-sum vanishes identically
    (l1 = l2, l2 = l3, l1 = 0, l3 = 0) are skipped outright; the remaining
    candidates come from singular combinations found by a two-prime modular
    determinant screen and are then verified in exact arithmetic.
    """
    if pair.rho != 3:
        return _sunit_search_generic(pair, gamma_bound, ell_bound)
    ells = list(itertools.product(range(-ell_bound, ell_bound + 1), repeat=2))
    mats = {ell: np.asarray(mat_pow_pair(pair, ell), dtype=object) for ell in ells}
    side = 2 * gamma_bound + 1
    gammas = np.indices((side,) * 3, dtype=np.int64).reshape(3, -1).T - gamma_bound
    gammas = gammas[np.any(gammas != 0, axis=1)]
    primitive = np.gcd.reduce(np.abs(gammas), axis=1) == 1

    ident = np.asarray(mat_identity(3), dtype=object)
    sample_cap = 1000
    solutions = []
    n_solutions = 0
    n_prim = 0
    triples = set()
    for (e1, e2, e3) in sorted(_singular_triples(mats, ells)):
        if e1 == e2 or e2 == e3 or e1 == (0, 0) or e3 == (0, 0):
            continue  # a proper sub-sum vanishes for every gamma
        p1, p2, p3 = mats[e1], mats[e2], mats[e3]
        good = _kernel_mask(p1 - p2 + p3 - ident, gammas, gamma_bound)
        # the terms are +P1 g, -P2 g, +P3 g, -g; a proper sub-sum vanishes iff
        # a pair does (see _has_vanishing_subsum)
        for d in (p1 - p2, p1 + p3, p1 - ident, p3 - p2, p2 + ident, p3 - ident):
            good &= ~_kernel_mask(d, gammas, gamma_bound)
        if not good.any():
            continue
        triples.add((e1, e2, e3))
        n_solutions += int(good.sum())
        n_prim += int((good & primitive).sum())
        for g in gammas[good][:max(0, sample_cap - len(solutions))]:
            solutions.append((e1, e2, e3, tuple(int(x) for x in g)))
    return SUnitReport(solutions=solutions, n_solutions=n_solutions,
                       n_primitive=n_prim, triples=sorted(triples),
                       n_triples=len(triples), ell_bound=ell_bound,
                       gamma_bound=gamma_bound, sample_cap=sample_cap)


def _singular_triples(mats: dict, ells: list) -> set:
    """Triples (l1, l2, l3) with M = A^{l1} - A^{l2} + A^{l3} - I singular
    modulo two primes: a superset of the exactly singular ones.

    Every triple is screened by broadcasting modulo the first prime; only
    its zeros are rechecked modulo the second.
    """
    q1, q2 = 1048573, 1048583
    powers = np.stack([mats[e] for e in ells])  # (L, 3, 3) Python ints
    arr1, arr2 = ((powers % q).astype(np.int64) for q in (q1, q2))
    ident = np.eye(3, dtype=np.int64)
    hits = []
    for i1 in range(len(ells)):
        det = _det3_mod(arr1[i1][None, None] - arr1[:, None] + arr1[None, :] - ident, q1)
        idx2, idx3 = np.nonzero(det == 0)
        hits.append(np.stack([np.full_like(idx2, i1), idx2, idx3], axis=1))
    i1, i2, i3 = np.concatenate(hits).T
    keep = _det3_mod(arr2[i1] - arr2[i2] + arr2[i3] - ident, q2) == 0
    return {(ells[a], ells[b], ells[c]) for a, b, c in zip(i1[keep], i2[keep], i3[keep])}


def _kernel_mask(d, gammas: np.ndarray, gamma_bound: int) -> np.ndarray:
    """Exactly which rows g of ``gammas`` (all nonzero) solve d g = 0."""
    if _exact_det3(d) != 0:
        return np.zeros(len(gammas), dtype=bool)
    big = max(abs(int(x)) for x in d.ravel())
    # int64 products while the dot product fits; Python integers past that
    d = d.astype(np.int64 if 3 * big * gamma_bound < 2**62 else object)
    return np.all(gammas @ d.T == 0, axis=1)


def _exact_det3(m) -> int:
    return (int(m[0][0]) * (int(m[1][1]) * int(m[2][2]) - int(m[1][2]) * int(m[2][1]))
            - int(m[0][1]) * (int(m[1][0]) * int(m[2][2]) - int(m[1][2]) * int(m[2][0]))
            + int(m[0][2]) * (int(m[1][0]) * int(m[2][1]) - int(m[1][1]) * int(m[2][0])))


def _has_vanishing_subsum(v1, v2, v3, g) -> bool:
    # terms are +v1, -v2, +v3, -g; a proper sub-sum vanishes iff a pair does
    # (a vanishing triple forces the complementary single term to vanish,
    # which cannot happen for g != 0 and invertible matrices)
    pairs = [
        tuple(a - b for a, b in zip(v1, v2)),
        tuple(a + b for a, b in zip(v1, v3)),
        tuple(a - b for a, b in zip(v1, g)),
        tuple(b - a for a, b in zip(v2, v3)),
        tuple(-(a + b) for a, b in zip(v2, g)),
        tuple(a - b for a, b in zip(v3, g)),
    ]
    return any(all(x == 0 for x in s) for s in pairs)


def _sunit_search_generic(pair: MatrixPair, gamma_bound: int, ell_bound: int) -> SUnitReport:
    """Plain exact enumeration for rho != 3 (no modular shortcut)."""
    ells = list(itertools.product(range(-ell_bound, ell_bound + 1), repeat=2))
    gammas = [g for g in itertools.product(range(-gamma_bound, gamma_bound + 1),
                                           repeat=pair.rho) if any(g)]
    solutions = []
    triples = set()
    for e1, e2, e3 in itertools.product(ells, repeat=3):
        if e1 == e2 or e2 == e3 or e1 == (0, 0) or e3 == (0, 0):
            continue
        p1 = mat_pow_pair(pair, e1)
        p2 = mat_pow_pair(pair, e2)
        p3 = mat_pow_pair(pair, e3)
        for g in gammas:
            v1, v2, v3 = mat_vec(p1, g), mat_vec(p2, g), mat_vec(p3, g)
            if any(a - b + c - d != 0 for a, b, c, d in zip(v1, v2, v3, g)):
                continue
            if _has_vanishing_subsum(v1, v2, v3, g):
                continue
            solutions.append((e1, e2, e3, g))
            triples.add((e1, e2, e3))
    n_prim = sum(1 for *_, g in solutions if math.gcd(*[abs(x) for x in g]) == 1)
    return SUnitReport(solutions=solutions, n_solutions=len(solutions),
                       n_primitive=n_prim, triples=sorted(triples),
                       n_triples=len(triples), ell_bound=ell_bound,
                       gamma_bound=gamma_bound)


# ---------------------------------------------------------------------------
# serialization


def pair_to_dict(pair: MatrixPair) -> dict:
    return {"rho": pair.rho, "a1": [list(r) for r in pair.a1],
            "a2": [list(r) for r in pair.a2]}


def pair_from_dict(doc: dict) -> MatrixPair:
    return matrix_pair(doc["a1"], doc["a2"])


def pair_to_json(pair: MatrixPair) -> str:
    return json.dumps(pair_to_dict(pair), sort_keys=True)


def pair_from_json(text: str) -> MatrixPair:
    return pair_from_dict(json.loads(text))
