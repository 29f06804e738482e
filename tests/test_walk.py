import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from rwscenery import walk


def test_law_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        walk.increment_law([((0, 0), 0.5), ((1, 0), 0.6)])  # sums to 1.1
    with pytest.raises(ValueError):
        walk.increment_law([((0, 0), 0.5), ((0, 0), 0.5)])  # duplicate site
    with pytest.raises(ValueError):
        walk.increment_law([((0, 0), 1.5), ((1, 0), -0.5)])  # negative prob
    with pytest.raises(ValueError):
        walk.increment_law([((0, 0), 0.5), ((1,), 0.5)])  # mixed dimension


def test_simple_walk_lattices_and_classification(simple2d_model):
    m = simple2d_model
    assert m.classification == walk.RECURRENT
    assert m.aperiodic
    # differences generate the checkerboard sublattice of index 2
    assert not m.strongly_aperiodic
    assert m.c0 is None
    assert np.allclose(m.sigma, 0.5 * np.eye(2))


def test_lazy_walk_c0(lazy_model):
    m = lazy_model
    assert m.aperiodic and m.strongly_aperiodic
    assert m.classification == walk.RECURRENT
    assert np.allclose(m.sigma, 0.4 * np.eye(2))
    assert m.c0 == pytest.approx(5.0 / (2.0 * math.pi), rel=1e-12)


def test_deterministic_single_atom():
    m = walk.build_walk_model(walk.deterministic_law((1,)))
    assert m.classification == walk.DETERMINISTIC
    assert m.effectively_transient
    stay = walk.build_walk_model(walk.deterministic_law((0, 0)))
    assert stay.classification == walk.DETERMINISTIC
    assert not stay.effectively_transient


def test_classification_by_dimension_and_centering():
    biased_1d = walk.build_walk_model(walk.increment_law([((1,), 0.7), ((-1,), 0.3)]))
    assert biased_1d.classification == walk.TRANSIENT
    centered_1d = walk.build_walk_model(walk.increment_law([((1,), 0.5), ((-1,), 0.5)]))
    assert centered_1d.classification == walk.RECURRENT
    assert walk.build_walk_model(walk.simple_walk_law(3)).classification == walk.TRANSIENT


def test_hermite_lattice_index():
    assert walk.hermite_lattice_index([(1, 0), (0, 1)], 2) == 1
    assert walk.hermite_lattice_index([(2, 0), (0, 2), (1, 1)], 2) == 2
    assert walk.hermite_lattice_index([(2, 0), (0, 2)], 2) == 4
    assert walk.hermite_lattice_index([(1, 1)], 2) == 0  # rank deficient


def test_characteristic_fn_simple_walk(simple2d_model):
    t = (0.3, 0.7)
    psi = walk.characteristic_fn(simple2d_model, t)
    expect = (math.cos(2 * math.pi * 0.3) + math.cos(2 * math.pi * 0.7)) / 2.0
    assert psi == pytest.approx(expect, abs=1e-14)
    assert walk.characteristic_fn(simple2d_model, (0.0, 0.0)) == pytest.approx(1.0)


def test_characteristic_fn_deterministic_has_unit_modulus():
    m = walk.build_walk_model(walk.deterministic_law((1, 0)))
    for t in [(0.1, 0.9), (0.37, 0.2), (1 / 3, 0.0)]:
        psi = walk.characteristic_fn(m, t)
        assert abs(abs(psi) - 1.0) < 1e-14
        assert psi == pytest.approx(np.exp(2j * np.pi * t[0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_psi_bounds_and_conjugation(seed):
    gen = np.random.default_rng(seed)
    k = int(gen.integers(2, 6))
    sites = set()
    while len(sites) < k:
        sites.add(tuple(int(x) for x in gen.integers(-3, 4, size=2)))
    probs = gen.random(k)
    probs /= probs.sum()
    m = walk.build_walk_model(walk.increment_law(list(zip(sites, probs / probs.sum()))))
    t = gen.random(2)
    psi = walk.characteristic_fn(m, t)
    assert abs(psi) <= 1.0 + 1e-12
    assert walk.characteristic_fn(m, -t) == pytest.approx(psi.conjugate(), abs=1e-12)


def test_phi_identity_on_grid(lazy_model):
    # Phi |1 - Psi|^2 + |Psi|^2 = 1 pointwise
    grid = np.linspace(0.05, 0.95, 7)
    for t1 in grid:
        for t2 in grid:
            psi = walk.characteristic_fn(lazy_model, (t1, t2))
            phi = walk.phi_ratio(lazy_model, (t1, t2))
            assert phi * abs(1 - psi) ** 2 + abs(psi) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_phi_examples_and_pole():
    det = walk.build_walk_model(walk.deterministic_law((1, 0)))
    assert walk.phi_ratio(det, (1 / 3, 0.0)) == 0.0
    p = 0.3
    m = walk.build_walk_model(walk.increment_law([((1,), p), ((0,), 1 - p)]))
    assert walk.phi_ratio(m, (0.5,)) == pytest.approx((1 - p) / p, rel=1e-12)
    with pytest.raises(walk.PolePointError):
        walk.phi_ratio(m, (0.0,))


def test_phi_vanishes_on_difference_lattice_annulator(simple2d_model):
    # the simple walk's difference lattice misses the odd sublattice, so
    # the annulator contains (1/2, 1/2) and Phi vanishes there
    assert walk.phi_ratio(simple2d_model, (0.5, 0.5)) == 0.0
    assert walk.phi_ratio(simple2d_model, (0.5, 0.25)) > 0.0


def test_phi_positive_off_zero_set(lazy_model):
    gen = np.random.default_rng(3)
    for _ in range(50):
        t = gen.random(2)
        if min(t.min(), (1 - t).min()) < 0.02:
            continue
        assert walk.phi_ratio(lazy_model, t) > 0.0


def test_sample_path_basics(lazy_model):
    p1 = walk.sample_path(lazy_model, 1, seed=5)
    assert p1.positions.shape == (1, 2)
    assert np.all(p1.positions[0] == 0)
    p = walk.sample_path(lazy_model, 5000, seed=5)
    q = walk.sample_path(lazy_model, 5000, seed=5)
    assert np.array_equal(p.positions, q.positions)
    steps = {tuple(s) for s in np.diff(p.positions, axis=0)}
    assert steps <= set(lazy_model.law.sites)


def test_sample_path_rejects_past_max_steps(lazy_model):
    # raises before allocating the (n, d) positions; n = MAX_STEPS itself
    # would allocate 34 GB and is left to the config parser's boundary test
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        walk.sample_path(lazy_model, walk.MAX_STEPS + 1, 0)


def test_sample_path_empirical_mean(simple2d_model):
    n = 10**6
    p = walk.sample_path(simple2d_model, n, seed=1)
    incr = np.diff(p.positions, axis=0)
    sd = math.sqrt(0.5)
    assert np.all(np.abs(incr.mean(axis=0)) < 4 * sd / math.sqrt(n - 1))


def test_sample_path_chi_square(lazy_model):
    # increment frequencies against the law; 0.999 quantile, so about one
    # seed in a thousand would trip this -- the seed here is fixed
    n = 10**6
    p = walk.sample_path(lazy_model, n, seed=7)
    incr = np.diff(p.positions, axis=0)
    keys = (incr[:, 0] + 2) * 5 + (incr[:, 1] + 2)
    stat = 0.0
    for site, prob in zip(lazy_model.law.sites, lazy_model.law.probs):
        k = (site[0] + 2) * 5 + (site[1] + 2)
        obs = int(np.sum(keys == k))
        exp = prob * (n - 1)
        stat += (obs - exp) ** 2 / exp
    assert stat < chi2.ppf(0.999, df=len(lazy_model.law.sites) - 1)


def test_recurrent_walk_keeps_returning(lazy_model):
    # sanity diagnostic, not acceptance: returns to 0 keep accruing (the
    # count grows like log n for a centered planar walk), visible on average
    early = late = 0
    for seed in range(20):
        path = walk.sample_path(lazy_model, 2**16, seed=seed)
        at_zero = np.all(path.positions == 0, axis=1)
        early += int(at_zero[:2**12].sum())
        late += int(at_zero.sum())
    assert late > early >= 20


def test_green_series_deterministic_example():
    m = walk.build_walk_model(walk.deterministic_law((1,)))
    gs = walk.green_series(m, (1,), k_max=10)
    assert gs.value == pytest.approx(1.0)
    assert gs.method == "convolution"
    far = walk.green_series(m, (10**6,), k_max=10)
    assert far.value == 0.0


def test_green_series_rejects_recurrent(lazy_model):
    with pytest.raises(ValueError):
        walk.green_series(lazy_model, (0, 0), k_max=10)


def test_green_series_monte_carlo_agrees(simple3d_model):
    exact = walk.green_series(simple3d_model, (0, 0, 0), k_max=20)
    mc = walk.green_series(simple3d_model, (0, 0, 0), k_max=20, m_paths=40000,
                           seed=3, budget=1.0)
    assert mc.method == "monte_carlo"
    assert abs(mc.value - exact.value) < 4 * mc.stderr


def test_green_series_table_matches_single(simple3d_model):
    table = walk.green_series_table(simple3d_model, [(0, 0, 0), (1, 0, 0)], k_max=15)
    single = walk.green_series(simple3d_model, (1, 0, 0), k_max=15)
    assert table[(1, 0, 0)].value == pytest.approx(single.value, abs=1e-15)


def test_model_json_round_trip(lazy_model):
    doc = walk.model_to_json(lazy_model)
    again = walk.model_from_json(doc)
    assert again.law == lazy_model.law
    assert again.c0 == pytest.approx(lazy_model.c0)
    assert "strongly_aperiodic" in doc
