import pytest

from rwscenery import trigpoly


def test_validation():
    with pytest.raises(ValueError):
        trigpoly.TrigPolynomial({})
    with pytest.raises(ValueError):
        trigpoly.TrigPolynomial({(0, 0): 1.0})  # zero frequency
    with pytest.raises(ValueError):
        trigpoly.TrigPolynomial({(1, 0): 1.0})  # missing conjugate
    with pytest.raises(ValueError):
        trigpoly.TrigPolynomial({(1, 0): 1.0, (-1, 0): 2.0})  # not Hermitian


def test_norms_and_moments(four_term_poly):
    f = four_term_poly
    assert f.norm_c() == pytest.approx(2.0)
    assert f.norm_l2_sq() == pytest.approx(1.0)


def test_truncate_keeps_largest_pairs():
    f = trigpoly.cosine_polynomial([(1, 0), (0, 1), (1, 1)],
                                   amplitudes=[1.0, 0.5, 0.25])
    top2 = f.truncate_to(2)  # one conjugate pair
    assert set(top2.coeffs) == {(1, 0), (-1, 0)}
    top4 = f.truncate_to(4)
    assert set(top4.coeffs) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_list_round_trip(four_term_poly):
    items = [[[1, 0, 0], 0.5, 0.0], [[-1, 0, 0], 0.5, 0.0],
             [[0, 1, 0], 0.5, 0.0], [[0, -1, 0], 0.5, 0.0]]
    assert trigpoly.trig_from_list(items).coeffs == four_term_poly.coeffs


def test_half_support_takes_one_frequency_per_pair(four_term_poly):
    assert four_term_poly.half_support() == [((-1, 0, 0), 0.5), ((0, -1, 0), 0.5)]
