import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwscenery import algebra, cumulant, trigpoly

# non-dyadic complex coefficients: a reordered product would move last ulps
COMPLEX_POLY = trigpoly.TrigPolynomial({
    (1, 0, 0): 0.3 + 0.1j, (-1, 0, 0): 0.3 - 0.1j,
    (0, 1, 0): 0.7, (0, -1, 0): 0.7,
    (1, 1, 0): 0.11 - 0.37j, (-1, -1, 0): 0.11 + 0.37j,
})


def test_mat_helpers():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert algebra.mat_mul(a, b) == ((2, 1), (4, 3))
    assert algebra.mat_det(a) == -2
    assert algebra.mat_vec(a, (1, 1)) == (3, 7)
    shear = ((1, 5), (0, 1))
    inv = algebra.mat_inverse_unimodular(shear)
    assert algebra.mat_mul(shear, inv) == algebra.mat_identity(2)
    with pytest.raises(ValueError):
        algebra.mat_inverse_unimodular(a)


def test_root_of_unity_eigenvalue_by_determinant():
    assert algebra.has_root_of_unity_eigenvalue(((1, 1), (0, 1)))  # eigenvalue 1
    assert algebra.has_root_of_unity_eigenvalue(((0, -1), (1, 0)))  # eigenvalue i
    assert not algebra.has_root_of_unity_eigenvalue(((2, 1), (1, 1)))
    # companion of Phi_5 = x^4 + x^3 + x^2 + x + 1: the primitive fifth roots of unity
    phi5 = ((0, 0, 0, -1), (1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))
    assert algebra.has_root_of_unity_eigenvalue(phi5)
    # companion of the Salem quartic x^4 - x^3 - x^2 - x + 1: two eigenvalues
    # on the unit circle, neither a root of unity
    salem = ((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))
    moduli = np.abs(np.linalg.eigvals(np.asarray(salem, dtype=float)))
    assert np.sum(np.abs(moduli - 1.0) < 1e-9) == 2
    assert not algebra.has_root_of_unity_eigenvalue(salem)
    assert algebra.has_root_of_unity_eigenvalue(((1,),))
    assert algebra.has_root_of_unity_eigenvalue(((-1,),))
    assert not algebra.has_root_of_unity_eigenvalue(((2,),))
    with pytest.raises(ValueError, match="rho = 7"):
        algebra.has_root_of_unity_eigenvalue(algebra.mat_identity(7))


def test_unit_root_residue_route_agrees_with_the_exact_determinant(sl3_pair, order4_pair):
    # the bundled pair's residues are all nonzero, so they decide every l;
    # every A^l of the order-4 pair has a unit-root eigenvalue, so the exact
    # determinant decides each of them
    for pair, residue_zero in ((sl3_pair, False), (order4_pair, True)):
        for ell in _nonzero_box(6):
            a = algebra.mat_pow_pair(pair, ell)
            exact = algebra._unit_root_det(a)
            residue = algebra._unit_root_det(a, algebra._DET_PRIME)
            assert residue == exact % algebra._DET_PRIME
            assert (residue == 0) is residue_zero
            assert algebra.has_root_of_unity_eigenvalue(a) is (exact == 0)
    assert algebra.mat_power(((3, 1), (2, 1)), 5, 7) == tuple(
        tuple(x % 7 for x in row) for row in algebra.mat_power(((3, 1), (2, 1)), 5))


def test_unit_root_exponent_is_the_lcm_of_the_possible_orders():
    """A root of unity of degree <= rho has an order n with phi(n) <= rho,
    and phi(n) >= sqrt(n / 2) bounds those n by 2 rho^2."""
    def phi(n):
        return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))

    for rho, exponent in enumerate(algebra._UNIT_ROOT_EXPONENT, start=1):
        assert exponent == math.lcm(*(n for n in range(1, 2 * rho * rho + 1) if phi(n) <= rho))


# has_root_of_unity_eigenvalue over 2400 seeded matrices with entries in
# [-2, 2] for each rho = 1..5: (number True, sha256 of the verdicts as a 0/1
# string), recorded with the characteristic-polynomial and cyclotomic-division
# test that the determinant test replaced
SEEDED_VERDICTS = {
    1: (972, "f1f9eebc1a38ce16492e85664d0824f101ab4ddffcd21aef7158a96343649b8d"),
    2: (822, "0f7b76ab60a14f4620799570d2cc39c28a5b73b8f77a2942ab0f33519aff15a5"),
    3: (582, "0ffe4aabb3b9cdd47c99dec3842bab32e07a65401f7139109869df71c839a3ae"),
    4: (344, "92d88ac3489acfe64ae9ca4bac6dccd5ea02295e12f7fd5272656c696501e4d3"),
    5: (165, "782d846681ea92a8f33143980364a613c681a47c34dbf88b07218aef31d97ba9"),
}


def test_root_of_unity_verdicts_on_seeded_matrices():
    gen = np.random.default_rng(20261021)
    for rho, (n_true, digest) in SEEDED_VERDICTS.items():
        bits = "".join("1" if algebra.has_root_of_unity_eigenvalue(tuple(map(tuple, m))) else "0"
                       for m in gen.integers(-2, 3, size=(2400, rho, rho)).tolist())
        assert (bits.count("1"), hashlib.sha256(bits.encode()).hexdigest()) == (n_true, digest)


def test_pair_validation():
    cat = ((2, 1), (1, 1))
    shear = ((1, 1), (0, 1))
    with pytest.raises(ValueError):
        algebra.matrix_pair(cat, shear)  # do not commute
    with pytest.raises(ValueError):
        algebra.matrix_pair(((2, 0), (0, 2)), ((1, 0), (0, 1)))  # det 4
    with pytest.raises(ValueError, match="nonempty"):
        algebra.matrix_pair((), ())
    with pytest.raises(ValueError, match="not an integer"):
        algebra.matrix_pair(((1.5, 0), (0, 1)), ((1, 0), (0, 1)))  # not truncated to 1


def test_pow_pair_paper_example(sl3_pair):
    p = sl3_pair
    assert algebra.mat_pow_pair(p, (0, 0)) == algebra.mat_identity(3)
    p11 = algebra.mat_pow_pair(p, (1, 1))
    assert p11 == algebra.mat_mul(p.a1, p.a2) == algebra.mat_mul(p.a2, p.a1)
    assert algebra.mat_pow_pair(p, (2, 0)) == algebra.mat_mul(p.a1, p.a1)


@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
@settings(max_examples=25, deadline=None)
def test_pow_homomorphism(ell, em):
    cat = ((2, 1), (1, 1))
    pair = algebra.matrix_pair(cat, algebra.mat_mul(cat, cat))
    lhs = algebra.mat_pow_pair(pair, (ell[0] + em[0], ell[1] + em[1]))
    rhs = algebra.mat_mul(algebra.mat_pow_pair(pair, ell),
                          algebra.mat_pow_pair(pair, em))
    assert lhs == rhs


def test_check_pair_paper_example(sl3_pair):
    rep = algebra.check_pair(sl3_pair, 3)
    assert rep.all_pass
    assert len(rep.per_ell) == 7 * 7 - 1
    # generator eigenvalues clear the unit circle (floating screen only)
    for m in (sl3_pair.a1, sl3_pair.a2):
        moduli = np.abs(np.linalg.eigvals(np.asarray(m, dtype=np.float64)))
        assert np.all(np.abs(moduli - 1.0) > 1e-6)


def test_check_pair_detects_unit_roots():
    shear = ((1, 1), (0, 1))
    rep = algebra.check_pair(algebra.matrix_pair(shear, shear), 1)
    assert rep.per_ell[(1, 0)] is False
    cat = ((2, 1), (1, 1))
    inv = algebra.mat_inverse_unimodular(cat)
    rep2 = algebra.check_pair(algebra.matrix_pair(cat, inv), 1)
    assert rep2.per_ell[(1, 1)] is False  # A^(1,1) = identity
    assert rep2.per_ell[(1, 0)] is True


def _nonzero_box(box):
    return [ell for ell in itertools.product(range(-box, box + 1), repeat=2) if ell != (0, 0)]


def test_check_pair_verdicts_in_box_order(sl3_pair):
    """Every verdict and its key order; check_pair tests each +-l once."""
    rep = algebra.check_pair(sl3_pair, 12)
    assert list(rep.per_ell.items()) == [(ell, True) for ell in _nonzero_box(12)]
    # a1 = a2 = I, and a1 a coordinate swap with a2 = I: every A^l has eigenvalue 1
    ident = algebra.mat_identity(3)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    for a1 in (ident, swap):
        rep = algebra.check_pair(algebra.matrix_pair(a1, ident), 2)
        assert list(rep.per_ell.items()) == [(ell, False) for ell in _nonzero_box(2)]
        assert not rep.all_pass
    # A^l = cat^(l1 - l2), the identity on the diagonal and hyperbolic off it
    cat = ((2, 1), (1, 1))
    rep = algebra.check_pair(algebra.matrix_pair(cat, algebra.mat_inverse_unimodular(cat)), 2)
    assert list(rep.per_ell.items()) == [(ell, ell[0] != ell[1]) for ell in _nonzero_box(2)]


def test_dual_orbit(sl3_pair):
    assert algebra.dual_orbit(sl3_pair, (0, 0, 0), (2, -1)) == (0, 0, 0)
    k = (1, 2, 3)
    assert algebra.dual_orbit(sl3_pair, k, (0, 0)) == k
    # injectivity on a sample of distinct frequencies
    freqs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, -1, 3)]
    for ell in [(1, 0), (0, 1), (2, 2), (-1, 3)]:
        images = {algebra.dual_orbit(sl3_pair, k, ell) for k in freqs}
        assert len(images) == len(freqs)


@pytest.fixture(scope="module")
def overlap_poly(sl3_pair):
    # k1 = transpose(A^(1, 0)) k0, so <A^l f, f> is nonzero at l = (0, 0) and (+-1, 0)
    k0 = (1, 0, 0)
    k1 = algebra.dual_orbit(sl3_pair, k0, (1, 0))
    return trigpoly.TrigPolynomial({
        k0: 0.5, tuple(-x for x in k0): 0.5,
        k1: 0.25, tuple(-x for x in k1): 0.25,
    })


def test_toral_correlation_parseval(sl3_pair, four_term_poly, overlap_poly):
    for f in (four_term_poly, overlap_poly):
        table = algebra.correlation_box(sl3_pair, f, 3)
        assert table[(0, 0)] == pytest.approx(f.norm_l2_sq(), abs=1e-12)
        assert list(table) == list(itertools.product(range(-3, 4), repeat=2))


def test_toral_correlation_single_character(sl3_pair):
    g = trigpoly.cosine_polynomial([(1, 0, 0)])
    for ell, a in algebra.correlation_box(sl3_pair, g, 3).items():
        if ell == (0, 0):
            assert a == pytest.approx(0.5)
        else:
            assert a == 0.0


def test_toral_correlation_constructed_overlap(sl3_pair, overlap_poly):
    table = algebra.correlation_box(sl3_pair, overlap_poly, 4)
    # transported k0 lands on k1; plus the conjugate pair
    assert table[(1, 0)] == pytest.approx(2 * (0.5 * 0.25), abs=1e-12)
    assert {ell for ell, a in table.items() if a} == {(-1, 0), (0, 0), (1, 0)}


def test_toral_correlation_symmetry(sl3_pair, four_term_poly, overlap_poly):
    for f in (four_term_poly, overlap_poly):
        table = algebra.correlation_box(sl3_pair, f, 4)
        for (l1, l2), a in table.items():
            assert a == pytest.approx(table[(-l1, -l2)], abs=1e-12)


def test_spectral_density_bound(sl3_pair, four_term_poly, overlap_poly):
    # summability: sum_l |a_l| <= ||f||_c^2
    for f in (four_term_poly, overlap_poly):
        total = sum(abs(a) for a in algebra.correlation_box(sl3_pair, f, 8).values())
        assert total <= f.norm_c() ** 2 + 1e-12


def test_exact_joint_moment(sl3_pair, four_term_poly):
    f = four_term_poly
    assert algebra.exact_joint_moment(sl3_pair, f, [(3, 1)]) == 0.0  # centered
    table = algebra.correlation_box(sl3_pair, f, 2)
    for ell in [(0, 0), (1, 0), (1, -2)]:
        m2 = algebra.exact_joint_moment(sl3_pair, f, [ell, (0, 0)])
        assert m2 == pytest.approx(table[ell], abs=1e-12)
    with pytest.raises(ValueError):
        algebra.exact_joint_moment(sl3_pair, f, [(0, 0)] * 4, budget=10)


def test_exact_cumulant_far_configs_vanish(sl3_pair, four_term_poly):
    far = [(0, 0), (9, 0), (0, 9), (9, 9)]
    assert algebra.exact_cumulant(sl3_pair, four_term_poly, far) == 0.0
    clustered = algebra.exact_cumulant(sl3_pair, four_term_poly,
                                       [(0, 0)] * 4)
    # E f^4 - 3 (E f^2)^2 for f = cos + cos
    assert clustered == pytest.approx(2.25 - 3.0, abs=1e-12)


def _direct_cumulant(pair, f, config):
    """Memo-free reference: one exact_joint_moment call per partition block."""
    return cumulant.joint_cumulant(
        lambda block: algebra.exact_joint_moment(pair, f, [config[i - 1] for i in block]),
        len(config))


@pytest.mark.parametrize("poly", ["four_term", "complex"])
def test_memoized_cumulants_are_bit_identical(sl3_pair, four_term_poly, poly):
    f = four_term_poly if poly == "four_term" else COMPLEX_POLY
    radius, nonzero = algebra.find_cumulant_radius(sl3_pair, f, scan=1)
    want = []
    for ells in itertools.product(itertools.product(range(-1, 2), repeat=2), repeat=3):
        config = list(ells) + [(0, 0)]
        c = _direct_cumulant(sl3_pair, f, config)
        if abs(c) > 1e-12:
            want.append((tuple(config), c))
    assert nonzero == want
    pts = [np.asarray(cfg, dtype=np.float64) for cfg, _ in want]
    assert radius == max(float(np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1)).max())
                         for p in pts)
    gen = np.random.default_rng(11)
    for cfg in gen.integers(-4, 5, size=(50, 4, 2)).tolist():
        config = [tuple(e) for e in cfg]
        assert algebra.exact_cumulant(sl3_pair, f, config) == \
            _direct_cumulant(sl3_pair, f, config)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_joint_moment_is_exactly_translation_invariant(sl3_pair, four_term_poly, r):
    gen = np.random.default_rng(r)
    for f in (four_term_poly, COMPLEX_POLY):
        for _ in range(10):
            ells = [tuple(e) for e in gen.integers(-3, 4, size=(r, 2)).tolist()]
            v = tuple(int(x) for x in gen.integers(-3, 4, size=2))
            moved = [(a + v[0], b + v[1]) for a, b in ells]
            assert algebra.exact_joint_moment(sl3_pair, f, ells) == \
                algebra.exact_joint_moment(sl3_pair, f, moved)


def test_cumulant_scan_computes_each_translated_moment_once(sl3_pair, four_term_poly,
                                                            monkeypatch):
    calls = []
    direct = algebra.exact_joint_moment

    def counted(pair, f, ells, *args):
        calls.append(tuple(ells))
        return direct(pair, f, ells, *args)

    monkeypatch.setattr(algebra, "exact_joint_moment", counted)
    algebra.find_cumulant_radius(sl3_pair, four_term_poly, scan=1)
    # one call per distinct translated index tuple of the 40 configurations
    # that pass the zero certificate (88 of them at scan 1; 1116 when all 729
    # were expanded), against 729 * 15 unmemoized
    assert len(set(calls)) == 88
    assert len(calls) == len(set(calls))


def _cached_direct_scan(pair, f, scan):
    """Reference scan without the zero certificate or the translation memo:
    every configuration of the box, each block moment computed once per
    exact index tuple."""
    cache = {}

    def moment(ells):
        if ells not in cache:
            cache[ells] = algebra.exact_joint_moment(pair, f, ells)
        return cache[ells]

    box = list(itertools.product(range(-scan, scan + 1), repeat=2))
    out = []
    for ells in itertools.product(box, repeat=3):
        config = ells + ((0, 0),)
        c = cumulant.joint_cumulant(lambda b: moment(tuple(config[i - 1] for i in b)), 4)
        if abs(c) > 1e-12:
            out.append((config, c))
    return out


@pytest.mark.parametrize("poly", ["four_term", "complex"])
def test_certified_scan_equals_the_full_scan(sl3_pair, four_term_poly, poly):
    f = four_term_poly if poly == "four_term" else COMPLEX_POLY
    want = _cached_direct_scan(sl3_pair, f, 2)
    radius, nonzero = algebra.find_cumulant_radius(sl3_pair, f, scan=2)
    assert repr(nonzero) == repr(want)  # every value bit for bit, in box order
    pts = [np.asarray(cfg, dtype=np.float64) for cfg, _ in want]
    assert radius == max(float(np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1)).max())
                         for p in pts)
    assert len(nonzero) == {"four_term": 37, "complex": 251}[poly]


def _cancels(pair, f, config) -> bool:
    """Some support tuple's transported frequencies sum to 0, by brute force."""
    orbits = [[algebra.dual_orbit(pair, k, ell) for k in f.support] for ell in config]
    return any(not any(map(sum, zip(*kks))) for kks in itertools.product(*orbits))


def test_non_cancelling_cumulant_is_positive_zero(sl3_pair, four_term_poly, monkeypatch):
    config = [(0, 0), (0, 0), (3, 0), (0, 4)]
    assert not _cancels(sl3_pair, four_term_poly, config)
    # the full expansion adds -0.0 terms: -m(l1, l2) m(l3, l4) with m(l1, l2) > 0
    direct = _direct_cumulant(sl3_pair, four_term_poly, config)
    assert direct == 0.0 and math.copysign(1.0, direct) == 1.0
    assert math.copysign(1.0, -1 * algebra.exact_joint_moment(
        sl3_pair, four_term_poly, config[:2]) * 0.0) == -1.0

    def no_moment(*args):
        raise AssertionError("a moment of a certified-zero configuration")

    monkeypatch.setattr(algebra, "exact_joint_moment", no_moment)
    for ells in (config, [(1, 1), (4, -2)], [(2, 0)]):
        c = algebra.exact_cumulant(sl3_pair, four_term_poly, ells)
        assert c == 0.0 and math.copysign(1.0, c) == 1.0


def test_cumulant_refusals_come_before_the_certificate(sl3_pair, monkeypatch):
    # 30 cosines: 60^4 = 12,960,000 support tuples, past the moment budget
    big = trigpoly.cosine_polynomial([(a, b, 1) for a in range(5) for b in range(6)])
    assert len(big.support) ** 4 > algebra._MOMENT_BUDGET >= len(big.support) ** 3

    def no_work(*args):
        raise AssertionError("work done before the budget check")

    monkeypatch.setattr(algebra, "dual_orbit", no_work)
    far = [(0, 0), (9, 0), (0, 9), (9, 9)]
    with pytest.raises(ValueError, match="budget"):
        algebra.exact_cumulant(sl3_pair, big, far)
    with pytest.raises(ValueError, match="budget"):
        algebra.find_cumulant_radius(sl3_pair, big, scan=0)
    # an order past the partition tables is refused, not certified zero
    with pytest.raises(ValueError, match="r must be"):
        algebra.exact_cumulant(sl3_pair, big, [(k, 0) for k in range(9)])


def _full_dict_joint_moment(pair, f, ells, budget=10**7):
    """Reference exact_joint_moment: a full dict convolution for every factor,
    the last one included, with each dual orbit rebuilt from A^l."""
    r = len(ells)
    support = f.support
    if len(support) ** r > budget:
        raise ValueError("combinatorial budget exceeded")
    partial = {(0,) * f.rho: 1.0 + 0.0j}
    for ell in ells:
        dual = algebra.mat_transpose(algebra.mat_pow_pair(pair, ell))
        transported = [(algebra.mat_vec(dual, k), f.coeffs[k]) for k in support]
        nxt = {}
        for s, acc in partial.items():
            for kk, c in transported:
                key = tuple(a + b for a, b in zip(s, kk))
                nxt[key] = nxt.get(key, 0.0 + 0.0j) + acc * c
        partial = nxt
    total = partial.get((0,) * f.rho, 0.0 + 0.0j)
    assert abs(total.imag) < 1e-9
    return float(total.real)


@pytest.mark.parametrize("poly", ["four_term", "complex"])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_joint_moment_matches_full_dict_convolution(sl3_pair, four_term_poly, poly, r):
    f = four_term_poly if poly == "four_term" else COMPLEX_POLY
    # the scan-1 grid (l_1, .., l_{r-1}, 0): at r = 4, seven of its configs
    # add three or more complex terms whose sum moves with the summation order
    box = list(itertools.product(range(-1, 2), repeat=2))
    configs = ([list(cfg) + [(0, 0)] for cfg in itertools.product(box, repeat=r - 1)]
               if r else [[]])
    gen = np.random.default_rng(100 + r)
    configs += [[tuple(e) for e in cfg]
                for cfg in gen.integers(-3, 4, size=(40, r, 2)).tolist()]
    for ells in configs:
        assert algebra.exact_joint_moment(sl3_pair, f, ells) == \
            _full_dict_joint_moment(sl3_pair, f, ells), ells


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_packed_keys_match_full_dict_far_out(sl3_pair, four_term_poly, r):
    # |l|_inf up to 40: dual-orbit coordinates pass 2^63, so each key digit is
    # wider than 64 bits; repeated and nearby indices make frequencies cancel
    gen = np.random.default_rng(500 + r)
    far = max(abs(x) for k in COMPLEX_POLY.support
              for x in algebra.dual_orbit(sl3_pair, k, (40, -40)))
    assert far > 2**63
    nonzero = 0
    for f in (four_term_poly, COMPLEX_POLY):
        for _ in range(12):
            base = [tuple(e) for e in gen.integers(-40, 41, size=(r, 2)).tolist()]
            near = [(a + int(gen.integers(-1, 2)), b + int(gen.integers(-1, 2)))
                    for a, b in base]
            for ells in (base, near, base[: r - r // 2] + base[: r // 2], base[:1] * r):
                got = algebra.exact_joint_moment(sl3_pair, f, ells)
                assert got == _full_dict_joint_moment(sl3_pair, f, ells), ells
                nonzero += got != 0.0
    assert nonzero or r == 1  # the comparison sees cancelling frequencies


@pytest.mark.parametrize("r,big", [(3, 341), (4, 256), (5, 2**40 - 1), (2, 2**61)])
def test_packed_keys_at_the_digit_boundary(sl3_pair, r, big):
    # at l = 0 the frequencies stay put, so partial sums reach r * big, the
    # edge of the balanced digits (r * big = 2^10 - 1, 2^10, ...).  Digits
    # sized for one term would merge -a - a - b = (-3 big, 1, 0) with
    # a + a - a = (big, 0, 0) at r = 4, big = 256.
    f = trigpoly.TrigPolynomial({
        (big, 0, 0): 0.25 + 0.5j, (-big, 0, 0): 0.25 - 0.5j,
        (big, -1, 0): 0.4 - 0.1j, (-big, 1, 0): 0.4 + 0.1j,
        (big - 1, 1, 0): 0.3, (1 - big, -1, 0): 0.3,
        (-1, 1, 0): 0.1 - 0.2j, (1, -1, 0): 0.1 + 0.2j,
        (0, big, -big): 0.7, (0, -big, big): 0.7,
    })
    for ells in itertools.product([(0, 0), (1, 0)], repeat=r):
        ells = list(ells)
        assert algebra.exact_joint_moment(sl3_pair, f, ells) == \
            _full_dict_joint_moment(sl3_pair, f, ells), ells
    assert algebra.exact_joint_moment(sl3_pair, f, [(0, 0)] * r) != 0.0


def test_joint_moment_budget_raises_before_any_work(sl3_pair, four_term_poly, monkeypatch):
    def no_work(*args):
        raise AssertionError("work done before the budget check")

    monkeypatch.setattr(algebra, "dual_orbit", no_work)
    monkeypatch.setattr(algebra, "mat_pow_pair", no_work)
    for ells, budget in (([(0, 0)] * 4, 10), ([(1, 2)] * 2, 15), ([], 0)):
        with pytest.raises(ValueError, match="budget"):
            algebra.exact_joint_moment(sl3_pair, four_term_poly, ells, budget=budget)


def test_pair_equality_ignores_caches(sl3_pair):
    doc = {"a1": sl3_pair.a1, "a2": sl3_pair.a2}
    fresh, used = algebra.pair_from_dict(doc), algebra.pair_from_dict(doc)
    algebra.mat_pow_pair(used, (2, -1))
    algebra.mat_pow_pair(used, (-3, 1))
    algebra.dual_orbit(used, (1, 0, 0), (1, 1))
    assert used._cache and used._gen_powers and used._dual
    assert fresh == used and repr(fresh) == repr(used)
    assert fresh != algebra.matrix_pair(sl3_pair.a2, sl3_pair.a1)


def test_dual_orbit_cache_matches_transpose_action(sl3_pair):
    for ell in [(0, 0), (2, -1), (-3, 2)]:
        dual = algebra.mat_transpose(algebra.mat_pow_pair(sl3_pair, ell))
        for k in [(1, 0, 0), (2, -1, 3)]:
            want = algebra.mat_vec(dual, k)
            assert algebra.dual_orbit(sl3_pair, k, ell) == want
            # a cache hit, also through numpy integers and lists
            assert algebra.dual_orbit(sl3_pair, np.array(k), list(ell)) == want


def _det3_mod(m, p):
    """det(m) mod p over the last two axes of int64 residues, for 3 p^3 < 2^63."""
    a = m % p
    d = (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
         - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
         + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))
    return d % p


def _exact_det3(m):
    return (int(m[0][0]) * (int(m[1][1]) * int(m[2][2]) - int(m[1][2]) * int(m[2][1]))
            - int(m[0][1]) * (int(m[1][0]) * int(m[2][2]) - int(m[1][2]) * int(m[2][0]))
            + int(m[0][2]) * (int(m[1][0]) * int(m[2][1]) - int(m[1][1]) * int(m[2][0])))


def _has_vanishing_subsum(v1, v2, v3, g):
    # terms are +v1, -v2, +v3, -g; a proper sub-sum vanishes iff a pair does
    pairs = [
        tuple(a - b for a, b in zip(v1, v2)),
        tuple(a + b for a, b in zip(v1, v3)),
        tuple(a - b for a, b in zip(v1, g)),
        tuple(b - a for a, b in zip(v2, v3)),
        tuple(-(a + b) for a, b in zip(v2, g)),
        tuple(a - b for a, b in zip(v3, g)),
    ]
    return any(all(x == 0 for x in s) for s in pairs)


def _brute_force_sunit(pair, gamma_bound, ell_bound):
    """Reference sunit_search: every (triple, gamma) in exact Python integers."""
    ells = list(itertools.product(range(-ell_bound, ell_bound + 1), repeat=2))
    gammas = [g for g in itertools.product(range(-gamma_bound, gamma_bound + 1),
                                           repeat=pair.rho) if any(g)]
    solutions = []
    n_solutions = 0
    n_prim = 0
    triples = set()
    for e1, e2, e3 in itertools.product(ells, repeat=3):
        if e1 == e2 or e2 == e3 or e1 == (0, 0) or e3 == (0, 0):
            continue
        p1 = algebra.mat_pow_pair(pair, e1)
        p2 = algebra.mat_pow_pair(pair, e2)
        p3 = algebra.mat_pow_pair(pair, e3)
        for g in gammas:
            v1, v2, v3 = (algebra.mat_vec(p, g) for p in (p1, p2, p3))
            if any(a - b + c - d != 0 for a, b, c, d in zip(v1, v2, v3, g)):
                continue
            if _has_vanishing_subsum(v1, v2, v3, g):
                continue
            n_solutions += 1
            n_prim += math.gcd(*g) == 1
            triples.add((e1, e2, e3))
            if len(solutions) < algebra.SAMPLE_CAP:
                solutions.append((e1, e2, e3, g))
    return algebra.SUnitReport(solutions=solutions, n_solutions=n_solutions,
                               n_primitive=n_prim, triples=sorted(triples),
                               n_triples=len(triples), ell_bound=ell_bound,
                               gamma_bound=gamma_bound)


def _full_grid_screen(mats, ells):
    """Reference _singular_triples: every (l1, l2, l3) of the grid screened."""
    q1, q2 = 1048573, 1048583
    powers = np.stack([mats[e] for e in ells])
    arr1, arr2 = ((powers % q).astype(np.int64) for q in (q1, q2))
    ident = np.eye(3, dtype=np.int64)
    hits = []
    for i1 in range(len(ells)):
        det = _det3_mod(arr1[i1][None, None] - arr1[:, None] + arr1[None, :] - ident,
                                q1)
        idx2, idx3 = np.nonzero(det == 0)
        hits.append(np.stack([np.full_like(idx2, i1), idx2, idx3], axis=1))
    i1, i2, i3 = np.concatenate(hits).T
    keep = _det3_mod(arr2[i1] - arr2[i2] + arr2[i3] - ident, q2) == 0
    return {(ells[a], ells[b], ells[c]) for a, b, c in zip(i1[keep], i2[keep], i3[keep])}


@pytest.mark.parametrize("ell_bound", [2, 3])
def test_symmetric_screen_equals_full_grid_screen(sl3_pair, ell_bound):
    ells = list(itertools.product(range(-ell_bound, ell_bound + 1), repeat=2))
    mats = {e: np.asarray(algebra.mat_pow_pair(sl3_pair, e), dtype=object) for e in ells}
    want = _full_grid_screen(mats, ells)
    assert any(e1 != e3 for e1, _, e3 in want)  # some hits need their mirror
    assert algebra._singular_triples(mats, ells) == want


def test_sunit_screen_keeps_every_singular_triple(sl3_pair):
    ells = list(itertools.product(range(-2, 3), repeat=2))
    mats = {e: np.asarray(algebra.mat_pow_pair(sl3_pair, e), dtype=object) for e in ells}
    ident = np.asarray(algebra.mat_identity(3), dtype=object)
    triples = list(itertools.product(ells, repeat=3))
    combined = [mats[a] - mats[b] + mats[c] - ident for a, b, c in triples]
    exact = [_exact_det3(m) for m in combined]
    singular = {t for t, d in zip(triples, exact) if d == 0}
    assert singular  # the check is not vacuous
    assert singular <= algebra._singular_triples(mats, ells)
    stack = np.stack(combined)
    for q in (1048573, 1048583):  # the int64 determinant modulo q is exact
        got = _det3_mod((stack % q).astype(np.int64), q)
        assert got.tolist() == [d % q for d in exact]


def _kernel_mask(d, gammas, gamma_bound):
    """Which rows g of ``gammas`` solve d g = 0, through the search's two steps."""
    return algebra._kernel_rows(algebra._kernel_op(d, gamma_bound), gammas)


def test_kernel_mask_is_exact_past_int64():
    gammas = np.array([g for g in itertools.product(range(-3, 4), repeat=3) if any(g)])
    for scale, dtype in ((7, np.int64), (10**20, object)):  # int64, then Python integers
        d = np.asarray([[scale, -2 * scale, 0], [1, -2, 0], [0, 0, 0]], dtype=object)
        assert algebra._kernel_op(d, 3).dtype == dtype
        want = [int(g[0]) == 2 * int(g[1]) for g in gammas]
        assert _kernel_mask(d, gammas, 3).tolist() == want
    assert not _kernel_mask(np.eye(3, dtype=np.int64).astype(object), gammas, 3).any()


def test_kernel_mask_of_zero_matrix_matches_matmul():
    gammas = np.array([g for g in itertools.product(range(-3, 4), repeat=3) if any(g)])
    zero = np.zeros((3, 3), dtype=np.int64)
    want = np.all(gammas @ zero.T == 0, axis=1)
    for d in (zero, zero.astype(object)):
        got = _kernel_mask(d, gammas, 3)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


# a kernel vector U e1 = (1, 1, 2) and, per case, the eigenvalues (a1, a2, a3)
# of P1, P2, P3 on it: each case cancels exactly one pair of the terms
# +P1 g, -P2 g, +P3 g, -g (the other eigenvalues, (2, 3, 7) and (4, 9, 6),
# cancel none)
_U = ((1, 0, 0), (1, 1, 0), (2, 1, 1))
SUBSUM_CASES = {
    "P1g=P2g": (2, 2, 5), "P1g=-P3g": (2, 5, -2), "P1g=g": (1, 5, 3),
    "P3g=P2g": (2, 5, 5), "P2g=-g": (2, -1, 5), "P3g=g": (2, 5, 1),
}


@pytest.mark.parametrize("first", SUBSUM_CASES.values(), ids=list(SUBSUM_CASES))
def test_each_subsum_exclusion_is_exercised(first):
    inv = algebra.mat_inverse_unimodular(_U)
    mats = [algebra.mat_mul(algebra.mat_mul(_U, ((a, 0, 0), (0, b, 0), (0, 0, c))), inv)
            for a, b, c in zip(first, (2, 3, 7), (4, 9, 6))]
    gammas = np.array([g for g in itertools.product(range(-3, 4), repeat=3) if any(g)])
    ops = algebra._subsum_ops(*(np.asarray(m, dtype=object) for m in mats), 3)
    mask = algebra._subsum_rows(ops, gammas)
    brute = [_has_vanishing_subsum(*(algebra.mat_vec(m, g.tolist()) for m in mats),
                                           g.tolist()) for g in gammas]
    assert mask.tolist() == brute
    assert {tuple(g) for g in gammas[mask].tolist()} == {(1, 1, 2), (-1, -1, -2)}


@pytest.fixture(scope="module")
def order4_pair():
    """(A, A^2) with A the companion matrix of x^3 - x^2 + x - 1 = (x - 1)(x^2 + 1):
    det A = 1 and A^4 = I, so many four-term relations hold for every gamma."""
    a1 = ((0, 0, 1), (1, 0, -1), (0, 1, 1))
    return algebra.matrix_pair(a1, algebra.mat_mul(a1, a1))


def test_sunit_modular_screen_matches_generic(order4_pair):
    fast = algebra.sunit_search(order4_pair, gamma_bound=1, ell_bound=1)
    slow = _brute_force_sunit(order4_pair, gamma_bound=1, ell_bound=1)
    assert (fast.n_triples, fast.n_solutions) == (36, 648)
    assert fast.n_solutions == slow.n_solutions
    assert fast.triples == slow.triples
    assert sorted(fast.solutions) == sorted(slow.solutions)


def test_sunit_routes_give_equal_capped_reports(order4_pair):
    fast = algebra.sunit_search(order4_pair, gamma_bound=2, ell_bound=1)
    slow = _brute_force_sunit(order4_pair, gamma_bound=2, ell_bound=1)
    assert fast.n_solutions == 3672 > algebra.SAMPLE_CAP
    assert len(slow.solutions) == fast.sample_cap == algebra.SAMPLE_CAP
    for name in (f.name for f in dataclasses.fields(algebra.SUnitReport)):
        assert getattr(fast, name) == getattr(slow, name), name


@pytest.fixture(scope="module")
def salem_pair():
    """(C, C - I) with C the companion matrix of the Salem quartic
    x^4 - x^3 - x^2 - x + 1: rho = 4, totally ergodic but not hyperbolic."""
    c = ((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))
    return algebra.matrix_pair(c, tuple(tuple(v - (i == j) for j, v in enumerate(row))
                                        for i, row in enumerate(c)))


@pytest.mark.parametrize("pair_name,gamma_bound,ell_bound,n_solutions",
                         [("companion2", 1, 1, 32), ("companion2", 3, 1, 192),
                          ("sl3", 1, 1, 0), ("salem", 1, 1, 160)])
def test_sunit_search_equals_brute_force(companion_pair, sl3_pair, salem_pair,
                                         pair_name, gamma_bound, ell_bound, n_solutions):
    """Every rho takes the one route; order4 is compared in the tests above."""
    pair = {"companion2": companion_pair(2), "sl3": sl3_pair, "salem": salem_pair}[pair_name]
    fast = algebra.sunit_search(pair, gamma_bound, ell_bound)
    slow = _brute_force_sunit(pair, gamma_bound, ell_bound)
    for name in (f.name for f in dataclasses.fields(algebra.SUnitReport)):
        assert getattr(fast, name) == getattr(slow, name), name
    assert fast.n_solutions == n_solutions


@pytest.fixture(scope="module")
def huge_pair():
    """(R + H, R + I) on Z^2 x Z^2, with R the quarter turn and H = [[2, 1],
    [1, 1]]^50, whose entries pass 2^64: some of its singular matrices need
    Python-integer products at gamma_bound 1."""
    h = algebra.mat_identity(2)
    for _ in range(50):
        h = algebra.mat_mul(h, ((2, 1), (1, 1)))

    def blocks(top, bottom):
        return tuple(row + (0, 0) for row in top) + tuple((0, 0) + row for row in bottom)

    quarter = ((0, -1), (1, 0))
    return algebra.matrix_pair(blocks(quarter, h), blocks(quarter, algebra.mat_identity(2)))


@pytest.mark.parametrize("rho,gamma_bound,block,tail", [
    (3, 1, 1, 1), (3, 1, 3, 1), (3, 1, 8, 1), (3, 1, 9, 2), (3, 1, 27, 3),
    (3, 2, 24, 1), (4, 1, 9, 2), (2, 0, 1, 1), (1, 3, 2, 1),
])
def test_gamma_slabs_walk_the_nonzero_box_in_order(rho, gamma_bound, block, tail,
                                                   monkeypatch):
    monkeypatch.setattr(algebra, "_GAMMA_BLOCK", block)
    slabs = [g.copy() for g in algebra._gamma_slabs(rho, gamma_bound)]
    side = 2 * gamma_bound + 1
    # side^tail rows a slab, but the one with a zero head lacks the zero row
    sizes = [side ** tail] * side ** (rho - tail)
    sizes[len(sizes) // 2] -= 1
    assert [len(g) for g in slabs] == sizes
    want = [g for g in itertools.product(range(-gamma_bound, gamma_bound + 1), repeat=rho)
            if any(g)]
    assert [tuple(g) for s in slabs for g in s.tolist()] == want
    assert all(s.dtype == np.int64 for s in slabs)


@pytest.mark.parametrize("pair_name,gamma_bound,ell_bound,block,cap", [
    ("order4", 1, 1, 3, 20), ("order4", 2, 1, 7, 700), ("companion2", 3, 1, 2, 60),
    ("salem", 1, 1, 9, 100), ("huge", 1, 1, 3, 70),
])
def test_sunit_slabs_equal_brute_force(order4_pair, companion_pair, salem_pair, huge_pair,
                                       pair_name, gamma_bound, ell_bound, block, cap,
                                       monkeypatch):
    """Small slabs and a small sample: the sample runs across slabs and
    triples, and every report field stays the brute force's."""
    pair = {"order4": order4_pair, "companion2": companion_pair(2), "salem": salem_pair,
            "huge": huge_pair}[pair_name]
    monkeypatch.setattr(algebra, "_GAMMA_BLOCK", block)
    monkeypatch.setattr(algebra, "SAMPLE_CAP", cap)
    ops = []
    kernel_op = algebra._kernel_op
    monkeypatch.setattr(algebra, "_kernel_op", lambda *a: ops.append(kernel_op(*a)) or ops[-1])
    fast = algebra.sunit_search(pair, gamma_bound, ell_bound)
    slow = _brute_force_sunit(pair, gamma_bound, ell_bound)
    for name in (f.name for f in dataclasses.fields(algebra.SUnitReport)):
        assert getattr(fast, name) == getattr(slow, name), name
    assert len(fast.solutions) == cap < fast.n_solutions
    # the sample spans two triples, and the first triple's part two slabs
    first = [g for *t, g in fast.solutions if tuple(t) == fast.solutions[0][:3]]
    assert len({s[:3] for s in fast.solutions}) >= 2
    side = 2 * gamma_bound + 1
    tail = max(k for k in range(1, pair.rho + 1) if k == 1 or side**k <= block)
    assert tail < pair.rho and len({g[:pair.rho - tail] for g in first}) >= 2
    big = [op for op in ops if getattr(op, "dtype", None) == object]
    assert bool(big) == (pair_name == "huge")


def test_sunit_search_memory_stays_flat_at_rho_4(salem_pair):
    algebra.sunit_search(salem_pair, gamma_bound=20, ell_bound=1)  # warm the power cache
    tracemalloc.start()
    try:
        rep = algebra.sunit_search(salem_pair, gamma_bound=20, ell_bound=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_solutions == 5651520
    # one byte per gamma for the primitive masks (2.7 MiB) and one slab of
    # 41^2 rows (0.3 MiB); the whole 41^4 x 4 int64 grid with its products
    # read 172.5 MiB
    assert peak < 8 * 2**20


@pytest.mark.parametrize("name", ["gamma_bound", "ell_bound"])
def test_sunit_search_refuses_a_negative_bound(sl3_pair, name):
    bounds = {"gamma_bound": 1, "ell_bound": 1, name: -1}
    with pytest.raises(ValueError, match=f"{name} must be >= 0"):
        algebra.sunit_search(sl3_pair, **bounds)


@pytest.mark.parametrize("gamma_bound,ell_bound", [(0, 0), (0, 1), (2, 0)])
def test_sunit_search_at_a_zero_bound_is_empty(order4_pair, gamma_bound, ell_bound):
    rep = algebra.sunit_search(order4_pair, gamma_bound, ell_bound)
    assert (rep.solutions, rep.n_solutions, rep.n_primitive, rep.triples, rep.n_triples) \
        == ([], 0, 0, [], 0)
    assert (rep.gamma_bound, rep.ell_bound) == (gamma_bound, ell_bound)


def test_sunit_rho_limit_is_the_float64_bound(companion_pair, monkeypatch):
    exact = [rho for rho in range(1, 12)
             if math.comb(2 * rho, rho) * (algebra._Q1 - 1) ** 2 < 2**53]
    assert exact == list(range(1, 8))
    rep = algebra.sunit_search(companion_pair(7), gamma_bound=1, ell_bound=1)
    assert rep.n_triples == 0 and rep.ell_bound == 1

    def no_work(*args):
        raise AssertionError("work done after the rho guard")

    monkeypatch.setattr(algebra, "mat_pow_pair", no_work)
    with pytest.raises(ValueError, match="rho = 8"):
        algebra.sunit_search(companion_pair(8), gamma_bound=1, ell_bound=1)
    with pytest.raises(AssertionError, match="after the rho guard"):
        algebra.sunit_search(companion_pair(7), gamma_bound=1, ell_bound=1)


def _broadcast_screen(mats, ells):
    """Reference _singular_triples: one broadcast (L, L, 3, 3) determinant per
    l1 on the i3 >= i1 half grid, zeros rechecked modulo the second prime."""
    q1, q2 = 1048573, 1048583
    powers = np.stack([mats[e] for e in ells])
    arr1, arr2 = ((powers % q).astype(np.int64) for q in (q1, q2))
    ident = np.eye(3, dtype=np.int64)
    hits = []
    for i1 in range(len(ells)):
        det = _det3_mod(arr1[i1][None, None] - arr1[:, None] + arr1[None, i1:] - ident,
                                q1)
        idx2, idx3 = np.nonzero(det == 0)
        hits.append(np.stack([np.full_like(idx2, i1), idx2, idx3 + i1], axis=1))
    i1, i2, i3 = np.concatenate(hits).T
    keep = _det3_mod(arr2[i1] - arr2[i2] + arr2[i3] - ident, q2) == 0
    half = {(ells[a], ells[b], ells[c]) for a, b, c in zip(i1[keep], i2[keep], i3[keep])}
    return half | {(e3, e2, e1) for e1, e2, e3 in half}


@pytest.mark.parametrize("pair_name,ell_bound",
                         [("sl3", b) for b in range(6)] + [("order4", b) for b in (1, 2, 3)])
def test_cofactor_screen_equals_broadcast_screen(sl3_pair, order4_pair, pair_name, ell_bound):
    pair = sl3_pair if pair_name == "sl3" else order4_pair
    ells = list(itertools.product(range(-ell_bound, ell_bound + 1), repeat=2))
    mats = {e: np.asarray(algebra.mat_pow_pair(pair, e), dtype=object) for e in ells}
    want = _broadcast_screen(mats, ells)
    assert want  # (0, 0, 0) at least: M = 0
    assert algebra._singular_triples(mats, ells) == want


def _leibniz_det(a):
    """Reference determinant: the signed sum over all permutations."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        total += (-1) ** inv * math.prod(a[i][j] for i, j in enumerate(perm))
    return total


def test_mat_det_matches_permutation_expansion():
    gen = np.random.default_rng(5)
    for n in range(1, 7):
        for scale in (2, 10**12):
            m = gen.integers(-scale, scale + 1, size=(30, n, n)).astype(object) * 7
            m[gen.random(m.shape) < 0.4] = 0  # zero pivots take the row swap
            m[:5, -1] = m[:5, 0]  # singular with no zero pivot
            for a in m.tolist():
                assert algebra.mat_det(a) == _leibniz_det(a)


def test_minor_tables_match_exact_minors():
    q = algebra._Q1
    gen = np.random.default_rng(3)
    for rho in range(2, 6):
        m = gen.integers(0, q, size=(6, rho, rho))
        m[0] = q - 1  # every residue at the boundary: products reach (q - 1)^2
        m[1, ::2] = q - 1
        m[2] = gen.integers(q - 64, q, size=(rho, rho))
        tables = algebra._minor_tables(m, q)
        assert len(tables) == rho + 1
        for k, table in enumerate(tables):
            subs = list(itertools.combinations(range(rho), k))
            assert table.shape == (len(m), len(subs), len(subs))
            for x, got in zip(m.tolist(), table.tolist()):
                want = [[algebra.mat_det([[x[i][j] for j in cols] for i in rows]) % q
                         if k else 1 for cols in subs] for rows in subs]
                assert got == want, (rho, k)


@pytest.mark.parametrize("rho", [2, 3, 4, 5])
def test_laplace_tables_give_the_determinant_of_a_sum(rho):
    q = algebra._Q1
    gen = np.random.default_rng(rho)
    b, c = gen.integers(0, q, size=(2, 8, rho, rho))
    b[0] = c[0] = q - 1
    rows = algebra._laplace_table(b, q)
    cols = algebra._laplace_table(c, q, right=True)
    assert rows.shape == cols.T.shape == (8, math.comb(2 * rho, rho))
    want = [[float(algebra.mat_det((x + y).tolist()) % q) for y in c] for x in b]
    assert algebra._det_sum_mod(rows, cols, q).tolist() == want


def test_det_sum_is_exact_at_the_residue_boundary():
    q = 1048573
    gen = np.random.default_rng(4)
    rows = np.full((6, 20), q - 1.0)
    cols = np.full((20, 5), q - 1.0)
    rows[3:] = gen.integers(q - 64, q, size=(3, 20))
    cols[:, 2:] = gen.integers(q - 64, q, size=(20, 3))
    got = algebra._det_sum_mod(rows, cols, q)
    exact = [[sum(int(a) * int(b) for a, b in zip(row, col)) for col in cols.T] for row in rows]
    assert exact[0][0] == 20 * (q - 1) ** 2 < 2**53
    assert got.tolist() == [[float(x % q) for x in row] for row in exact]
    # the widest tables the rho guard lets through: C(14, 7) terms at rho = 7
    width = math.comb(14, 7)
    rows = np.full((2, width), q - 1.0)
    rows[1] = gen.integers(q - 64, q, size=width)
    cols = np.full((width, 1), q - 1.0)
    exact = [sum(int(a) * (q - 1) for a in row) for row in rows]
    assert exact[0] == width * (q - 1) ** 2 < 2**53
    assert algebra._det_sum_mod(rows, cols, q).ravel().tolist() == [float(x % q) for x in exact]


def test_sunit_search_memory_stays_flat(sl3_pair):
    algebra.sunit_search(sl3_pair, gamma_bound=30, ell_bound=5)  # warm the power cache
    tracemalloc.start()
    try:
        algebra.sunit_search(sl3_pair, gamma_bound=30, ell_bound=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an unblocked (L, L, L) determinant table at L = 121 would add ~14 MiB,
    # and the whole 61^3 x 3 int64 gamma grid with its products ~9 MiB
    assert peak < 4 * 2**20


def test_sunit_structural_exclusions(sl3_pair):
    rep = algebra.sunit_search(sl3_pair, gamma_bound=2, ell_bound=1)
    for (e1, e2, e3, g) in rep.solutions:
        assert e1 != e2 and e2 != e3
        assert e1 != (0, 0) and e3 != (0, 0)
        assert any(g)
