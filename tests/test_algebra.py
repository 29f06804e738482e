import itertools

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


def test_char_poly_and_cyclotomics():
    assert algebra.char_poly(((2, 1), (1, 1))) == [1, -3, 1]  # x^2 - 3x + 1
    assert list(algebra.cyclotomic(1)) == [-1, 1]
    assert list(algebra.cyclotomic(2)) == [1, 1]
    assert list(algebra.cyclotomic(4)) == [1, 0, 1]
    assert list(algebra.cyclotomic(6)) == [1, -1, 1]
    assert algebra.cyclotomic_indices(3) == [1, 2, 3, 4, 6]
    assert algebra.has_root_of_unity_eigenvalue(((1, 1), (0, 1)))  # eigenvalue 1
    assert algebra.has_root_of_unity_eigenvalue(((0, -1), (1, 0)))  # eigenvalue i
    assert not algebra.has_root_of_unity_eigenvalue(((2, 1), (1, 1)))


def test_pair_validation():
    cat = ((2, 1), (1, 1))
    shear = ((1, 1), (0, 1))
    with pytest.raises(ValueError):
        algebra.matrix_pair(cat, shear)  # do not commute
    with pytest.raises(ValueError):
        algebra.matrix_pair(((2, 0), (0, 2)), ((1, 0), (0, 1)))  # det 4


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
    assert rep.commutes and rep.unimodular and rep.all_pass
    assert len(rep.per_ell) == 7 * 7 - 1
    # generator eigenvalues clear the unit circle (floating screen only)
    for moduli in rep.generator_eigen_moduli.values():
        assert all(abs(m - 1.0) > 1e-6 for m in moduli)


def test_check_pair_detects_unit_roots():
    shear = ((1, 1), (0, 1))
    rep = algebra.check_pair(algebra.matrix_pair(shear, shear), 1)
    assert rep.per_ell[(1, 0)] is False
    cat = ((2, 1), (1, 1))
    inv = algebra.mat_inverse_unimodular(cat)
    rep2 = algebra.check_pair(algebra.matrix_pair(cat, inv), 1)
    assert rep2.per_ell[(1, 1)] is False  # A^(1,1) = identity
    assert rep2.per_ell[(1, 0)] is True


def test_dual_orbit(sl3_pair):
    assert algebra.dual_orbit(sl3_pair, (0, 0, 0), (2, -1)) == (0, 0, 0)
    k = (1, 2, 3)
    assert algebra.dual_orbit(sl3_pair, k, (0, 0)) == k
    # injectivity on a sample of distinct frequencies
    freqs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, -1, 3)]
    for ell in [(1, 0), (0, 1), (2, 2), (-1, 3)]:
        images = {algebra.dual_orbit(sl3_pair, k, ell) for k in freqs}
        assert len(images) == len(freqs)


def test_toral_correlation_parseval(sl3_pair, four_term_poly):
    f = four_term_poly
    assert algebra.toral_correlation(sl3_pair, f, (0, 0)) == pytest.approx(
        f.norm_l2_sq(), abs=1e-12)


def test_toral_correlation_single_character(sl3_pair):
    g = trigpoly.cosine_polynomial([(1, 0, 0)])
    for ell in itertools.product(range(-3, 4), repeat=2):
        a = algebra.toral_correlation(sl3_pair, g, ell)
        if ell == (0, 0):
            assert a == pytest.approx(0.5)
        else:
            assert a == 0.0


def test_toral_correlation_constructed_overlap(sl3_pair):
    k0 = (1, 0, 0)
    k1 = algebra.dual_orbit(sl3_pair, k0, (1, 0))
    f = trigpoly.TrigPolynomial({
        k0: 0.5, tuple(-x for x in k0): 0.5,
        k1: 0.25, tuple(-x for x in k1): 0.25,
    })
    got = algebra.toral_correlation(sl3_pair, f, (1, 0))
    # transported k0 lands on k1; plus the conjugate pair
    assert got == pytest.approx(2 * (0.5 * 0.25), abs=1e-12)


def test_toral_correlation_symmetry(sl3_pair, four_term_poly):
    for ell in [(1, 0), (2, -1), (0, 3)]:
        mell = (-ell[0], -ell[1])
        assert algebra.toral_correlation(sl3_pair, four_term_poly, ell) == \
            pytest.approx(algebra.toral_correlation(sl3_pair, four_term_poly, mell),
                          abs=1e-12)


def test_spectral_density_bound(sl3_pair, four_term_poly):
    total = sum(abs(algebra.toral_correlation(sl3_pair, four_term_poly, ell))
                for ell in itertools.product(range(-8, 9), repeat=2))
    assert total <= four_term_poly.norm_c() ** 2 + 1e-12


def test_exact_joint_moment(sl3_pair, four_term_poly):
    f = four_term_poly
    assert algebra.exact_joint_moment(sl3_pair, f, [(3, 1)]) == 0.0  # centered
    for ell in [(0, 0), (1, 0), (1, -2)]:
        m2 = algebra.exact_joint_moment(sl3_pair, f, [ell, (0, 0)])
        assert m2 == pytest.approx(algebra.toral_correlation(sl3_pair, f, ell),
                                   abs=1e-12)
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
    # one call per distinct translated index tuple, against 729 * 15 unmemoized
    assert len(calls) == len(set(calls)) <= 1116


def test_sunit_screen_keeps_every_singular_triple(sl3_pair):
    ells = list(itertools.product(range(-2, 3), repeat=2))
    mats = {e: np.asarray(algebra.mat_pow_pair(sl3_pair, e), dtype=object) for e in ells}
    ident = np.asarray(algebra.mat_identity(3), dtype=object)
    triples = list(itertools.product(ells, repeat=3))
    combined = [mats[a] - mats[b] + mats[c] - ident for a, b, c in triples]
    exact = [algebra._exact_det3(m) for m in combined]
    singular = {t for t, d in zip(triples, exact) if d == 0}
    assert singular  # the check is not vacuous
    assert singular <= algebra._singular_triples(mats, ells)
    stack = np.stack(combined)
    for q in (1048573, 1048583):  # the int64 determinant modulo q is exact
        got = algebra._det3_mod((stack % q).astype(np.int64), q)
        assert got.tolist() == [d % q for d in exact]


def test_kernel_mask_is_exact_past_int64():
    gammas = np.array([g for g in itertools.product(range(-3, 4), repeat=3) if any(g)])
    for scale in (7, 10**20):  # int64 products, then Python integers
        d = np.asarray([[scale, -2 * scale, 0], [1, -2, 0], [0, 0, 0]], dtype=object)
        want = [int(g[0]) == 2 * int(g[1]) for g in gammas]
        assert algebra._kernel_mask(d, gammas, 3).tolist() == want
    assert not algebra._kernel_mask(np.eye(3, dtype=np.int64).astype(object),
                                    gammas, 3).any()


def test_sunit_modular_screen_matches_generic(sl3_pair):
    fast = algebra.sunit_search(sl3_pair, gamma_bound=3, ell_bound=1)
    slow = algebra._sunit_search_generic(sl3_pair, gamma_bound=3, ell_bound=1)
    assert fast.n_solutions == slow.n_solutions
    assert fast.triples == slow.triples
    assert sorted(fast.solutions) == sorted(slow.solutions)


def test_sunit_structural_exclusions(sl3_pair):
    rep = algebra.sunit_search(sl3_pair, gamma_bound=2, ell_bound=1)
    for (e1, e2, e3, g) in rep.solutions:
        assert e1 != e2 and e2 != e3
        assert e1 != (0, 0) and e3 != (0, 0)
        assert any(g)


def test_pair_serialization_round_trip(sl3_pair):
    doc = algebra.pair_to_json(sl3_pair)
    again = algebra.pair_from_json(doc)
    assert again.a1 == sl3_pair.a1 and again.a2 == sl3_pair.a2
