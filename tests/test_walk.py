import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from rwscenery import cli, walk
from rwscenery.rng import derive_seed, philox_gen


def test_law_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        walk.increment_law([((0, 0), 0.5), ((1, 0), 0.6)])  # sums to 1.1
    with pytest.raises(ValueError):
        walk.increment_law([((0, 0), 0.5), ((0, 0), 0.5)])  # duplicate site
    with pytest.raises(ValueError):
        walk.increment_law([((0, 0), 1.5), ((1, 0), -0.5)])  # negative prob
    with pytest.raises(ValueError):
        walk.increment_law([((0, 0), 0.5), ((1,), 0.5)])  # mixed dimension
    for site in ((1.5, 0), (0.2, 0), ("1", 0), (True, 0)):  # not truncated or parsed
        with pytest.raises(ValueError, match="not an integer"):
            walk.increment_law([(site, 0.5), ((-1, 0), 0.5)])


def test_simple_walk_lattices_and_classification(simple2d_model):
    m = simple2d_model
    assert m.classification == walk.RECURRENT
    assert m.aperiodic
    # period 2 (the walk alternates between the two checkerboard classes), yet
    # the local limit theorem gives C0 = 1 / (pi sqrt(det Sigma)) all the same
    assert m.c0 == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert np.allclose(m.sigma, 0.5 * np.eye(2))


def test_lazy_walk_c0(lazy_model):
    m = lazy_model
    assert m.aperiodic
    assert m.classification == walk.RECURRENT
    assert np.allclose(m.sigma, 0.4 * np.eye(2))
    assert m.c0 == pytest.approx(5.0 / (2.0 * math.pi), rel=1e-12)
    # r = 1: the rule is exactly 1 / (pi sqrt(det Sigma)), to the last bit
    assert m.c0 == 1.0 / (math.pi * math.sqrt(float(np.linalg.det(m.sigma))))


def test_simple_walk_c0_matches_exact_self_intersection_mean(simple2d_model):
    # E V_n = n + 2 sum_{d<n} (n - d) P(S_d = 0), with P(S_2k = 0) = (C(2k, k) / 4^k)^2
    n = 2**14
    d = np.arange(2, n, 2)
    k = d // 2
    half = np.cumprod((2 * k - 1) / (2 * k))  # C(2k, k) / 4^k
    mean_v = n + 2.0 * math.fsum((n - d) * half**2)
    assert 1.0 <= mean_v / (simple2d_model.c0 * n * math.log(n)) <= 1.02


PERIOD_3 = walk.increment_law([((1, 0), 1 / 3), ((0, 1), 1 / 3), ((-1, -1), 1 / 3)])
_ENTRY = st.integers(-3, 3)
_MATRIX = st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY).filter(lambda m: m[0] * m[3] != m[1] * m[2])


@given(st.sampled_from(["simple2d", "lazy2d", "period-3"]), _MATRIX)
@settings(max_examples=60, deadline=None)
def test_c0_is_invariant_under_a_linear_image(name, b):
    # V_n counts coincidences of the path, which an injective linear map keeps:
    # the lattice index grows by |det B| exactly as sqrt(det Sigma) does
    law = PERIOD_3 if name == "period-3" else cli.WALK_PRESETS[name]()
    image = walk.increment_law([((b[0] * x + b[1] * y, b[2] * x + b[3] * y), p)
                                for (x, y), p in zip(law.sites, law.probs)])
    c0 = walk.build_walk_model(law).c0
    assert walk.build_walk_model(image).c0 == pytest.approx(c0, rel=1e-12)


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


def test_classification_by_rank_of_the_support():
    # a centered walk is recurrent iff its support spans at most a plane,
    # in any Z^d; a rank-2 walk in Z^3 has det Sigma = 0 and no Green series
    def model(*sites):
        return walk.build_walk_model(walk.increment_law([(s, 1 / len(sites)) for s in sites]))

    plane_3d = model((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    assert plane_3d.classification == walk.RECURRENT
    assert not plane_3d.effectively_transient and plane_3d.c0 is None
    with pytest.raises(ValueError):
        walk.spectral_variance(plane_3d, {(0, 0, 0): 1.0})
    # a tilted plane and a line in higher dimensions
    assert model((1, 1, 0), (-1, -1, 0), (0, 1, 1), (0, -1, -1)).classification == walk.RECURRENT
    assert model((0, 0, 0, 2), (0, 0, 0, -2)).classification == walk.RECURRENT
    # rank 3, or a drift, is transient
    assert model((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 1),
                 (0, 0, -1, -1)).classification == walk.TRANSIENT
    assert model((1, 0, 0), (0, 1, 0)).classification == walk.TRANSIENT
    assert model((1, 1), (-1, -1)).classification == walk.RECURRENT
    # rank 3 (index 1), though a float64 rank takes the unit atoms for
    # roundoff next to (2^53, 2^53, 1) and reads 1
    big = 2**53
    huge = model((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (big, big, 1), (-big, -big, -1))
    assert huge.classification == walk.TRANSIENT and huge.aperiodic


def test_hermite_lattice_index():
    assert walk.hermite_lattice_index([(1, 0), (0, 1)], 2) == 1
    assert walk.hermite_lattice_index([(2, 0), (0, 2), (1, 1)], 2) == 2
    assert walk.hermite_lattice_index([(2, 0), (0, 2)], 2) == 4
    assert walk.hermite_lattice_index([(1, 1)], 2) == 0  # rank deficient


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
    # raises before allocating the n - 1 steps; n = MAX_STEPS itself would
    # allocate 2 GiB and is left to the config parser's boundary test
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


def _model(*atoms):
    return walk.build_walk_model(walk.increment_law(atoms))


def _lag(l, a=1.0):
    """The even Fourier table a at +-l, whose spectral variance is a I(l)."""
    minus = tuple(-c for c in l)
    return {l: a} if l == minus else {l: a / 2, minus: a / 2}


def _convolution_variance(model, fourier, steps, width):
    """sum_l a_l I(l) with I truncated after ``steps`` steps, from the k-fold
    convolution on the box [-width, width]^d; mass leaving the box is dropped,
    which a drifted walk's exponential tails make negligible."""
    d = model.dimension
    dist = np.zeros((2 * width + 1,) * d)
    dist[(width,) * d] = 1.0
    totals = {l: float(not any(l)) for l in fourier}
    for _ in range(steps):
        new = np.zeros_like(dist)
        for site, p in zip(model.law.sites, model.law.probs):
            src = tuple(slice(max(0, -c), 2 * width + 1 - max(0, c)) for c in site)
            dst = tuple(slice(max(0, c), 2 * width + 1 - max(0, -c)) for c in site)
            new[dst] += p * dist[src]
        dist = new
        for l in fourier:
            totals[l] += dist[tuple(width + c for c in l)] + dist[tuple(width - c for c in l)]
    return math.fsum(a * totals[l] for l, a in fourier.items())


# I(0) = 2 G(0) - 1, with G(0) the expected number of visits to the origin:
# 1.516386 for the simple walk in Z^3 (Watson 1939) and 1.239467 in Z^4
def test_spectral_variance_simple3d_is_watsons_value(simple3d_model):
    assert walk.spectral_variance(simple3d_model, {(0, 0, 0): 1.0}) == pytest.approx(
        2.032772, abs=1e-4)


def test_spectral_variance_simple4d():
    model = walk.build_walk_model(walk.simple_walk_law(4))
    assert walk.spectral_variance(model, {(0,) * 4: 1.0}) == pytest.approx(1.478934, abs=1e-4)


def test_spectral_variance_integrates_on_the_walks_own_lattice(simple3d_model):
    # +-(1,1,0), +-(1,0,1), +-(0,1,1) span an index-2 lattice; in its basis
    # they are the simple walk's steps, so I is the simple walk's I at the
    # lag's coordinates, and 0 off the lattice
    fcc = _model(*((s, 1 / 6) for s in ((1, 1, 0), (-1, -1, 0), (1, 0, 1), (-1, 0, -1),
                                         (0, 1, 1), (0, -1, -1))))
    assert walk.hermite_lattice_index(fcc.law.sites, 3) == 2
    for lag, simple_lag in (((0, 0, 0), (0, 0, 0)), ((1, 1, 0), (1, 0, 0))):
        assert walk.spectral_variance(fcc, _lag(lag)) == pytest.approx(
            walk.spectral_variance(simple3d_model, _lag(simple_lag)), abs=1e-5)
    assert walk.spectral_variance(fcc, {(0, 0, 0): 1.0}) == pytest.approx(2.032772, abs=1e-4)
    assert walk.spectral_variance(fcc, _lag((1, 0, 0))) == 0.0


# drifted walks in Z^2 and Z^3, one drifting off every axis
DRIFTED = {
    "planar": ((((1, 0), 0.4), ((-1, 0), 0.1), ((0, 1), 0.25), ((0, -1), 0.25)), 2),
    "planar-oblique": ((((1, 0), 0.4), ((0, 1), 0.3), ((-1, -1), 0.1), ((0, 0), 0.2)), 2),
    "spatial": ((((1, 0, 0), 0.35), ((-1, 0, 0), 0.05), ((0, 1, 0), 0.15),
                 ((0, -1, 0), 0.15), ((0, 0, 1), 0.15), ((0, 0, -1), 0.15)), 3),
}


@pytest.mark.parametrize("name", list(DRIFTED))
def test_spectral_variance_of_drifted_walks_matches_a_convolution(name):
    atoms, d = DRIFTED[name]
    model = _model(*atoms)
    e1, e2 = (tuple(int(i == j) for i in range(d)) for j in range(2))
    fourier = {(0,) * d: 2.0, **_lag(e1, 1.0), **_lag(e2, -0.6),
               **_lag(tuple(a + b for a, b in zip(e1, e2)), 0.4)}
    assert walk.spectral_variance(model, fourier) == pytest.approx(
        _convolution_variance(model, fourier, 300, 25), abs=1e-9)


@pytest.mark.parametrize("p", [0.7, 0.2])
def test_spectral_variance_of_a_rank_one_walk(p):
    # I(0) = 2 / |p - q| - 1 for +-1 steps; the point mass of Re 1/(1 - Psi)
    # at t = 0 alone is 1 / |p - q|, in Z and on a line of Z^2
    for model in (_model(((1,), p), ((-1,), 1 - p)), _model(((1, 0), p), ((-1, 0), 1 - p))):
        assert walk.spectral_variance(model, {(0,) * model.dimension: 1.0}) == pytest.approx(
            2 / abs(2 * p - 1) - 1, abs=1e-8)
    skew = _model(((3,), 0.5), ((-2,), 0.3), ((0,), 0.2))
    fourier = {(0,): 1.0, **_lag((1,), 0.5), **_lag((5,), -0.25)}
    assert walk.spectral_variance(skew, fourier) == pytest.approx(
        _convolution_variance(skew, fourier, 400, 400), abs=1e-8)


def test_spectral_variance_of_a_deterministic_walk():
    # the walk steps s every time, so I(l) = 1 on Z s and 0 off it
    model = walk.build_walk_model(walk.deterministic_law((2, 1)))
    for lag in ((0, 0), (2, 1), (-6, -3), (20, 10)):
        assert walk.spectral_variance(model, _lag(lag)) == pytest.approx(1.0, abs=1e-12)
    for lag in ((1, 0), (4, 1), (1, 1)):
        assert walk.spectral_variance(model, _lag(lag)) == 0.0


def test_pilot_transient_observation_is_the_spectral_variance(simple3d_model, tolerances):
    # the recorded simple3d observation is the runner's sigma^2 for an i.i.d.
    # unit-variance scenery, sum_l a_l I(l) = I(0)
    sigma2 = walk.spectral_variance(simple3d_model, {(0, 0, 0): 1.0})
    observed = tolerances["pilot_observations"]
    assert abs(observed["transient_series_i0"] - sigma2) <= 1e-12
    assert abs(observed["transient"]["series"] - sigma2) <= 1e-12


def test_spectral_variance_rejects_recurrent(lazy_model):
    with pytest.raises(ValueError):
        walk.spectral_variance(lazy_model, {(0, 0): 1.0})


def test_spectral_variance_rejects_a_lag_of_the_wrong_dimension(simple3d_model):
    with pytest.raises(ValueError, match="wrong dimension"):
        walk.spectral_variance(simple3d_model, {(0, 0, 0): 1.0, (1, 0): 0.0})


def _searchsorted_positions(model, n, seed):
    """sample_path before the column-wise sampler, verbatim."""
    d = model.dimension
    positions = np.zeros((n, d), dtype=np.int64)
    if n > 1:
        gen = philox_gen(derive_seed(seed, "walk-increments"))
        u = gen.random(n - 1)
        cdf = np.cumsum(model.law.prob_array())
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, u, side="right")
        increments = model.law.site_array()[idx]
        np.cumsum(increments, axis=0, out=positions[1:])
    return positions


def _atoms(probs, d=1):
    return walk.increment_law([((k,) + (k % 3 - 1,) * (d - 1), p)
                               for k, p in enumerate(probs)])


_CUSTOM_LAWS = {
    "16 atoms": _atoms([i / 136 for i in range(1, 17)], d=2),
    "17 atoms": _atoms([i / 153 for i in range(1, 18)], d=2),
    # float cumsum 0.9999999999999999 at the last atom, reset to 1.0
    "ten atoms of 0.1": _atoms([0.1] * 10),
    # float cumsum 1.0 one atom early: the last atom is never drawn
    "cdf hits 1 early": _atoms([0.5, 0.5, 1e-13]),
}


@pytest.mark.parametrize("name", sorted(cli.WALK_PRESETS) + sorted(_CUSTOM_LAWS))
@pytest.mark.parametrize("n", [1, 2, 4097])
def test_sample_path_matches_searchsorted_sampler(name, n):
    law = cli.WALK_PRESETS[name]() if name in cli.WALK_PRESETS else _CUSTOM_LAWS[name]
    model = walk.build_walk_model(law)
    for seed in (0, 12345):
        got = walk.sample_path(model, n, seed).positions
        want = _searchsorted_positions(model, n, seed)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["16 atoms", "17 atoms"])
@pytest.mark.parametrize("k", [-1, 0, 1, walk.STEP_CHUNK])
def test_chunked_draw_matches_one_shot_draw(name, k):
    # n - 1 steps at and around the chunk edge: the uniforms drawn chunk by
    # chunk are the one-shot stream, and only the atom indices are kept
    n = walk.STEP_CHUNK + k + 1
    model = walk.build_walk_model(_CUSTOM_LAWS[name])
    path = walk.sample_path(model, n, 3)
    u = philox_gen(derive_seed(3, "walk-increments")).random(n - 1)
    want = np.searchsorted(walk._cdf(model.law), u, side="right")
    assert path.steps.dtype == np.uint8 and path.steps.shape == (n - 1,)
    assert np.array_equal(path.steps, want)
    assert np.array_equal(path.positions, _searchsorted_positions(model, n, 3))


@pytest.mark.parametrize("name", sorted(cli.WALK_PRESETS) + ["17 atoms"])
def test_sample_path_is_prefix_stable(name):
    # one step draws one double, so a shorter path is the prefix of a longer
    # one with the same seed: ladder runners read every rung off one path
    law = cli.WALK_PRESETS[name]() if name in cli.WALK_PRESETS else _CUSTOM_LAWS[name]
    model = walk.build_walk_model(law)
    for seed in (0, 12345):
        full = walk.sample_path(model, 40, seed).positions
        for n in (1, 2, 17):
            assert np.array_equal(walk.sample_path(model, n, seed).positions, full[:n])


@pytest.mark.parametrize("name, searched", [("16 atoms", False), ("17 atoms", True)])
def test_atom_scan_threshold(name, searched, monkeypatch):
    calls = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(1) or search(*a, **k))
    walk.sample_path(walk.build_walk_model(_CUSTOM_LAWS[name]), 100, seed=1)
    assert bool(calls) is searched
