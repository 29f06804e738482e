import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwscenery import cumulant


def gaussian_moment_oracle(cov):
    """Wick/Isserlis: moments of centered jointly Gaussian variables by
    summing over pairings (independent of the partition machinery)."""

    def moment(block):
        idx = list(block)
        if len(idx) % 2:
            return 0.0
        if not idx:
            return 1.0
        i = idx[0]
        total = 0.0
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1:]
            total += cov[i - 1][j - 1] * moment(tuple(rest))
        return total

    return moment


def moment_table_oracle(table):
    return lambda block: table[tuple(sorted(block))]


def cumulants_by_subset(moment, r):
    """Cumulant s(I) of every nonempty subset I of {1..r}, each from
    ``joint_cumulant`` on the moments of the subset's variables."""
    s = {}
    for size in range(1, r + 1):
        for subset in itertools.combinations(range(1, r + 1), size):
            s[subset] = cumulant.joint_cumulant(
                lambda block: moment(tuple(subset[i - 1] for i in block)), size)
    return s


def moment_from_cumulants(cumulant_of, r):
    """E(X_1...X_r) = sum over partitions of products of block cumulants: the
    Moebius inverse of ``joint_cumulant``, the reference for its round trip."""
    total = 0.0
    for q in cumulant.set_partitions(r):
        term = 1.0
        for block in q:
            term *= cumulant_of(block)
        total += term
    return total


def test_partition_counts():
    bells = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 8: 4140}
    for r, b in bells.items():
        assert len(cumulant.set_partitions(r)) == b
    with pytest.raises(ValueError):
        cumulant.set_partitions(9)


def test_partitions_cover_and_are_disjoint():
    for q in cumulant.set_partitions(4):
        flat = [i for block in q for i in block]
        assert sorted(flat) == [1, 2, 3, 4]
    no_singletons = [q for q in cumulant.set_partitions(4)
                     if all(len(b) > 1 for b in q)]
    assert len(no_singletons) == 4


def test_order2_cumulant_is_the_covariance():
    table = {(1,): 0.0, (2,): 0.0, (1, 2): 0.73}
    assert cumulant.joint_cumulant(moment_table_oracle(table), 2) == pytest.approx(0.73)


def test_gaussian_cumulants_vanish_orders_3_and_4():
    gen = np.random.default_rng(11)
    a = gen.normal(size=(4, 4))
    cov = a @ a.T
    oracle = gaussian_moment_oracle(cov)
    assert abs(cumulant.joint_cumulant(oracle, 3)) < 1e-10
    assert abs(cumulant.joint_cumulant(oracle, 4)) < 1e-10


def test_rademacher_fourth_cumulant_exact():
    moment = lambda block: 1.0 if len(block) % 2 == 0 else 0.0
    assert cumulant.joint_cumulant(moment, 4) == -2.0
    # same number through the moment identity E Y^4 = 3 E(Y^2)^2 + C4
    assert moment((1, 2, 3, 4)) - 3.0 * moment((1, 2)) ** 2 == -2.0


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_moebius_round_trip(seed, r):
    gen = np.random.default_rng(seed)
    table = {}
    for size in range(1, r + 1):
        for sub in itertools.combinations(range(1, r + 1), size):
            table[sub] = float(gen.normal())
    moment = moment_table_oracle(table)
    s = cumulants_by_subset(moment, r)
    back = moment_from_cumulants(lambda b: s[tuple(sorted(b))], r)
    assert back == pytest.approx(table[tuple(range(1, r + 1))], abs=1e-10)


def test_cumulant_of_independent_blocks_vanishes():
    # X1, X2 independent of X3, X4: the moment oracle factorizes
    gen = np.random.default_rng(5)
    a = {(): 1.0}
    for sub in [(1,), (2,), (1, 2)]:
        a[sub] = float(gen.normal())
    b = {(): 1.0}
    for sub in [(3,), (4,), (3, 4)]:
        b[sub] = float(gen.normal())

    def moment(block):
        left = tuple(i for i in block if i <= 2)
        right = tuple(i for i in block if i > 2)
        return a[left] * b[right]

    assert abs(cumulant.joint_cumulant(moment, 4)) < 1e-12


def test_multilinearity_in_each_slot():
    gen = np.random.default_rng(7)
    t1, t2 = {}, {}
    for size in range(1, 4):
        for sub in itertools.combinations((1, 2, 3), size):
            t1[sub] = float(gen.normal())
            t2[sub] = float(gen.normal())
    alpha, beta = 0.6, -1.7

    def mixed(block):
        # replace slot 1 by alpha X + beta X' (moments mix linearly in slot 1)
        if 1 in block:
            return alpha * t1[tuple(sorted(block))] + beta * t2[tuple(sorted(block))]
        return t1[tuple(sorted(block))]

    def slot1(table):
        return lambda block: table[tuple(sorted(block))]

    c_mixed = cumulant.joint_cumulant(mixed, 3)
    c1 = cumulant.joint_cumulant(slot1(t1), 3)

    def only2(block):
        return t2[tuple(sorted(block))] if 1 in block else t1[tuple(sorted(block))]

    c2 = cumulant.joint_cumulant(only2, 3)
    assert c_mixed == pytest.approx(alpha * c1 + beta * c2, abs=1e-12)


def _k4_raw(x):
    n = x.size
    s1, s2, s3, s4 = (float(np.sum(x**k)) for k in (1, 2, 3, 4))
    num = (-6.0 * s1**4 + 12.0 * n * s1**2 * s2 - 3.0 * n * (n - 1) * s2**2
           - 4.0 * n * (n + 1) * s1 * s3 + n**2 * (n + 1) * s4)
    return num / (n * (n - 1) * (n - 2) * (n - 3))


def test_k_statistic_unbiased_exact_enumeration():
    # all Rademacher samples of size 6 are equally likely; averaging the
    # k-statistic over every one of them recovers kappa_4 = -2 exactly
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=6):
        total += _k4_raw(np.array(signs))
    assert total / 2**6 == pytest.approx(-2.0, abs=1e-10)


def test_k_statistic_matches_raw_formula():
    gen = np.random.default_rng(2)
    x = gen.normal(size=150)
    k4, _ = cumulant.univariate_cumulant4(x)
    assert k4 == pytest.approx(_k4_raw(x), rel=1e-12)


def test_k_statistic_on_samples():
    gen = np.random.default_rng(13)
    g = gen.normal(size=20000)
    k4, se = cumulant.univariate_cumulant4(g)
    assert abs(k4) < 4 * se
    r = gen.choice([-1.0, 1.0], size=20000)
    k4r, ser = cumulant.univariate_cumulant4(r)
    assert abs(k4r + 2.0) < 4 * ser
    k4c, sec = cumulant.univariate_cumulant4(np.zeros(500))
    assert k4c == 0.0 and sec == 0.0
    with pytest.raises(ValueError):
        cumulant.univariate_cumulant4(np.zeros(50))
