import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from rwscenery import algebra, localtime, scenery, trigpoly, walk
from rwscenery.cli import load_fixture


@pytest.fixture(scope="module")
def toral(sl3_pair, four_term_poly):
    return scenery.toral_scenery(sl3_pair, four_term_poly, q_mod=2**31 - 1)


def test_base_laws_centered_unit_variance():
    gen = np.random.default_rng(0)
    words = gen.integers(0, 2**64, size=200000, dtype=np.uint64)
    for name in ("rademacher", "uniform", "gaussian"):
        law = scenery.base_law(name)
        x = law.values(words)
        assert abs(x.mean()) < 0.02
        assert x.var() == pytest.approx(1.0, abs=0.02)
        assert law.moment(1) == 0.0
        assert law.moment(2) == pytest.approx(1.0)
    tg = scenery.base_law("truncated_gaussian", level=1.0)
    x = tg.values(words)
    assert abs(x.mean()) < 0.02
    assert x.var() == pytest.approx(1.0, abs=0.02)
    assert tg.moment(2) == pytest.approx(1.0, abs=1e-9)


def test_law_fourth_moments():
    assert scenery.base_law("rademacher").fourth_moment == 1.0
    assert scenery.base_law("uniform").fourth_moment == pytest.approx(9.0 / 5.0)
    assert scenery.base_law("gaussian").fourth_moment == 3.0


def test_gaussian_partial_moments_vs_quadrature():
    g = scenery.base_law("gaussian")
    for level in (-0.7, 0.3, 1.5):
        for k in range(5):
            direct, _ = quad(lambda x: x**k * norm.pdf(x), -40, level)
            assert g.partial_moment(k, level) == pytest.approx(direct, abs=1e-9)


def test_ma_flags():
    ma = scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): 1.0})
    assert not ma.degenerate and ma.coeff_sum == 2.0
    deg = scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): -1.0})
    assert deg.degenerate


def test_association_certificates(sl3_pair, four_term_poly):
    assert scenery.is_associated(scenery.iid_scenery("gaussian"))
    assert scenery.is_associated(scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): 2.0}))
    assert scenery.is_associated(scenery.moving_average_scenery({(0, 0): -1.0, (1, 0): -2.0}))
    assert not scenery.is_associated(scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): -2.0}))
    assert not scenery.is_associated(
        scenery.toral_scenery(sl3_pair, four_term_poly, q_mod=2**31 - 1))


def test_spectral_density_ma():
    ma1 = scenery.moving_average_scenery({(0, 0): 1.0})
    assert scenery.spectral_density(ma1).fourier == {(0, 0): 1.0}
    ma = scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): 1.0})
    sd = scenery.spectral_density(ma)
    assert sd.at_zero() == pytest.approx(4.0)
    assert sd.evaluate((0.0, 0.0)) == pytest.approx(4.0)
    t1 = 0.3
    assert sd.evaluate((t1, 0.0)) == pytest.approx(2 + 2 * math.cos(2 * math.pi * t1))
    # |sum a_q e(...)|^2 is nonnegative on a grid
    for t in np.linspace(0, 1, 23):
        assert sd.evaluate((t, 0.17)) >= -1e-9


def test_spectral_density_toral_single_character(sl3_pair):
    g = trigpoly.cosine_polynomial([(1, 0, 0)])
    tor = scenery.toral_scenery(sl3_pair, g, q_mod=2**31 - 1)
    sd = scenery.spectral_density(tor)
    assert sd.fourier == {(0, 0): 0.5}


def test_spectral_density_toral_nonnegative_on_grid(toral):
    sd = scenery.spectral_density(toral)
    for t in np.linspace(0, 1, 17):
        assert sd.evaluate((t, 0.31)) >= -1e-9


def test_orbit_exit_guard(sl3_pair, four_term_poly):
    tor = scenery.ToralScenery(pair=sl3_pair, poly=four_term_poly,
                               q_mod=2**31 - 1, orbit_box=1)
    # a box of 1 cannot certify closure (any nonzero correlation would sit
    # beyond half the box); the single-character table here is {0: ...} so
    # closure holds trivially -- force a failure with an overlap polynomial
    k0 = (1, 0, 0)
    k1 = algebra.dual_orbit(sl3_pair, k0, (1, 0))
    f = trigpoly.TrigPolynomial({k0: 0.5, tuple(-x for x in k0): 0.5,
                                 k1: 0.25, tuple(-x for x in k1): 0.25})
    bad = scenery.ToralScenery(pair=sl3_pair, poly=f, q_mod=2**31 - 1, orbit_box=1)
    with pytest.raises(scenery.OrbitExitError):
        scenery.toral_correlations(bad)
    ok = scenery.ToralScenery(pair=sl3_pair, poly=f, q_mod=2**31 - 1, orbit_box=8)
    table = scenery.toral_correlations(ok)
    assert table[(1, 0)] == pytest.approx(0.25)


def test_q_mod_validation(sl3_pair, four_term_poly):
    with pytest.raises(ValueError):
        scenery.toral_scenery(sl3_pair, four_term_poly, q_mod=2**31 - 2)  # composite
    with pytest.raises(ValueError):
        scenery.toral_scenery(sl3_pair, four_term_poly, q_mod=2**61 - 1)  # too large


def _trial_prime(n):
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("q,ok", [(1048573, False), (1048583, True),
                                  (2**31 - 1, True), (2147483659, False)])
def test_q_mod_range_boundaries(sl3_pair, four_term_poly, q, ok):
    # the primes nearest each end of (2^20, 2^31): only the range decides
    assert _trial_prime(q) and scenery._is_prime(q)
    edge = 2**20 if q < 2**21 else 2**31
    assert not any(_trial_prime(x) for x in range(min(q, edge) + 1, max(q, edge)))
    if ok:
        assert scenery.toral_scenery(sl3_pair, four_term_poly, q_mod=q).q_mod == q
    else:
        with pytest.raises(ValueError, match=r"\(2\^20, 2\^31\)"):
            scenery.toral_scenery(sl3_pair, four_term_poly, q_mod=q)


@pytest.mark.parametrize("field,value", [("orbit_box", "6"), ("orbit_box", 6.0),
                                         ("orbit_box", True), ("orbit_box", 0),
                                         ("orbit_box", -1), ("q_mod", 2147483647.0),
                                         ("q_mod", "2147483647"), ("q_mod", True)])
def test_toral_constants_must_be_integers(sl3_pair, four_term_poly, field, value):
    kw = {"q_mod": 2**31 - 1, "orbit_box": 12, field: value}
    with pytest.raises(ValueError, match=f"^{field} = "):
        scenery.ToralScenery(pair=sl3_pair, poly=four_term_poly, **kw)
    kw[field] = np.int64(2**31 - 1 if field == "q_mod" else 1)  # orbit_box 1 stays legal
    tor = scenery.ToralScenery(pair=sl3_pair, poly=four_term_poly, **kw)
    assert type(getattr(tor, field)) is int and getattr(tor, field) == kw[field]


def test_asymptotic_variance_recurrent(lazy_model):
    ma = scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): 1.0})
    est = scenery.asymptotic_variance(ma, lazy_model)
    assert est.regime == "recurrent" and est.value == pytest.approx(4.0)
    assert not est.degenerate
    iid = scenery.iid_scenery("rademacher")
    assert scenery.asymptotic_variance(iid, lazy_model).value == pytest.approx(1.0)
    deg = scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): -1.0})
    est_deg = scenery.asymptotic_variance(deg, lazy_model)
    assert est_deg.degenerate and est_deg.value == pytest.approx(0.0)


def test_asymptotic_variance_transient(simple3d_model):
    iid = scenery.iid_scenery("rademacher")
    est = scenery.asymptotic_variance(iid, simple3d_model, k_max=40)
    gs = walk.green_series(simple3d_model, (0, 0, 0), k_max=40)
    assert est.regime == "transient"
    assert est.value == pytest.approx(gs.value, abs=1e-12)
    assert est.tail_estimate == pytest.approx(gs.tail_estimate, abs=1e-12)
    assert est.value >= 1.0  # the k=0 indicator term alone contributes 1


def test_variance_identity_exhaustive_tiny(lazy_model):
    iid = scenery.iid_scenery("rademacher")
    for seed in range(5):
        path = walk.sample_path(lazy_model, 8, seed=seed)
        tab = localtime.local_times(path, (0, 8))
        weights = tab.counts
        total = 0
        for signs in itertools.product((-1, 1), repeat=len(weights)):
            s = int(np.dot(signs, weights))
            total += s * s
        exact = total / 2 ** len(weights)
        assert exact == localtime.self_intersections(path, 8)
        assert scenery.quenched_variance(iid, path, (0, 8)) == exact


def test_field_sum_constant_path():
    const = walk.build_walk_model(walk.deterministic_law((0, 0)))
    path = walk.sample_path(const, 25, seed=0)
    iid = scenery.iid_scenery("rademacher")
    s = np.cumsum(scenery.field_increments(iid, path, [1.0], [42])[0])
    assert abs(s[0]) == 25.0


def test_field_sum_cumulative_grid(lazy_model):
    iid = scenery.iid_scenery("gaussian")
    path = walk.sample_path(lazy_model, 1000, seed=8)
    full = np.cumsum(scenery.field_increments(iid, path, [0.25, 0.5, 1.0], [3])[0])
    tail = np.cumsum(scenery.field_increments(iid, path, [1.0], [3])[0])
    assert full[-1] == pytest.approx(tail[0], abs=1e-9)
    assert full.shape == (3,)


def test_ma_identity_filter_matches_iid(lazy_model):
    path = walk.sample_path(lazy_model, 500, seed=4)
    # Rademacher's bounded part at level 0 takes the values -1/2 and 1/2: Var X = 1/4
    for law in (scenery.base_law("uniform"),
                scenery.TruncationPart(scenery.base_law("rademacher"), 0.0, "bounded")):
        iid = scenery.IIDScenery(law=law)
        ma = scenery.MovingAverageScenery(law=law, coeffs={(0, 0): 1.0})
        a = scenery.field_increments(iid, path, [0.5, 1.0], range(8))
        b = scenery.field_increments(ma, path, [0.5, 1.0], range(8))
        assert np.allclose(a, b)
        assert scenery.quenched_variance(ma, path, (0, 500)) == \
            scenery.quenched_variance(iid, path, (0, 500))


_MA_FRACTIONAL = {(0, 0): 1.0, (1, 0): 0.37, (0, -1): -0.61}


def _per_visit_brute(scen, positions, x_seeds):
    """X_{Z_k} visit by visit, one hash_sites / splitmix64 / Law.values call
    per site term, accumulated from 0.0 in coeffs order."""
    from rwscenery.rng import hash_sites, splitmix64
    shifts = getattr(scen, "coeffs", {(0,) * positions.shape[1]: 1.0})
    out = np.empty((len(x_seeds), len(positions)))
    for r, seed in enumerate(x_seeds):
        for k, site in enumerate(positions):
            values = []
            for q in shifts:
                word = hash_sites(0, (site - np.asarray(q))[None, :])
                values.append(scen.law.values(splitmix64(word ^ np.uint64(seed)))[0])
            if isinstance(scen, scenery.IIDScenery):
                out[r, k] = values[0]
            else:
                y = 0.0
                for a, v in zip(shifts.values(), values):
                    y += a * v
                out[r, k] = y
    return out


@pytest.mark.parametrize("scen", [
    scenery.iid_scenery("gaussian"),
    scenery.moving_average_scenery(_MA_FRACTIONAL, law="gaussian"),
], ids=["iid-gaussian", "ma-fractional-gaussian"])
def test_site_values_per_visit_match_brute_force(lazy_model, scen):
    path = walk.sample_path(lazy_model, 300, seed=12)
    table = localtime.path_table(path)
    seeds = [3, 2**63 + 5, 977]
    got = scenery.site_values(scen, table.sites, seeds)[:, table.inverse]
    assert got.tobytes() == _per_visit_brute(scen, path.positions, seeds).tobytes()


_SPLITMIX_EDGES = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]


def _splitmix64_int(x):
    """The splitmix64 finalizer on Python integers, reduced mod 2^64 by hand."""
    mask = 2**64 - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_splitmix64_matches_python_integer_reference():
    from rwscenery.rng import splitmix64
    # the first output of the reference C generator seeded with 0
    assert _splitmix64_int(0) == 0xE220A8397B1DCDAF
    words = _SPLITMIX_EDGES + np.random.default_rng(0).integers(
        0, 2**64, size=64, dtype=np.uint64).tolist()
    got = splitmix64(np.array(words, dtype=np.uint64))
    assert got.tolist() == [_splitmix64_int(w) for w in words]


@pytest.mark.parametrize("shape", [(), (5,), (3, 5)])
def test_splitmix64_keeps_shape_and_never_writes_its_argument(shape):
    from rwscenery.rng import splitmix64
    x = np.array(_SPLITMIX_EDGES + [12345] * 10, dtype=np.uint64)[:math.prod(shape)]
    x = x.reshape(shape)
    before = x.tobytes()
    got = splitmix64(x)
    assert x.tobytes() == before
    assert np.shape(got) == shape
    assert np.ravel(got).tolist() == [_splitmix64_int(int(w)) for w in x.ravel()]
    if shape == ():
        assert isinstance(splitmix64(x[()]), np.uint64)


def test_rademacher_is_the_top_bit():
    words = np.array(_SPLITMIX_EDGES + [2**62, 2**63 + 2**62], dtype=np.uint64)
    want = np.where(words >> np.uint64(63), 1.0, -1.0)
    assert scenery.Rademacher().values(words).tobytes() == want.tobytes()


@pytest.mark.parametrize("law", ["rademacher", "gaussian"])
@pytest.mark.parametrize("m_sites, n_seeds", [
    (scenery._HASH_WORDS + 1, 3),        # more sites than a block: one row per block
    (1118, 2 * (scenery._HASH_WORDS // 1118) + 7),  # a ragged last block
    (1118, 1),
])
def test_law_values_match_row_by_row(law, m_sites, n_seeds):
    from rwscenery.rng import splitmix64
    law = scenery.base_law(law)
    gen = np.random.default_rng(m_sites + n_seeds)
    base = gen.integers(0, 2**64, size=m_sites, dtype=np.uint64)
    seeds = [int(s) for s in gen.integers(0, 2**64, size=n_seeds, dtype=np.uint64)]
    want = np.stack([law.values(splitmix64(base ^ np.uint64(s))) for s in seeds])
    assert scenery._law_values(law, base, seeds).tobytes() == want.tobytes()


def test_ma_field_increments_match_per_visit_sums(lazy_model):
    # the field sums w(l) Y_l over sites, not visits one by one: for
    # non-integer values only the rounding may differ
    scen = scenery.moving_average_scenery(_MA_FRACTIONAL, law="gaussian")
    path = walk.sample_path(lazy_model, 400, seed=13)
    seeds = [11, 12, 13, 14]
    t_grid = [0.25, 0.6, 1.0]
    inc = scenery.field_increments(scen, path, t_grid, seeds)
    visits = _per_visit_brute(scen, path.positions, seeds)
    edges = scenery.window_boundaries(path.n, t_grid)
    for row, vals in zip(inc, visits):
        for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
            want = math.fsum(vals[lo:hi])
            assert abs(row[j] - want) <= 1e-12 * math.fsum(np.abs(vals[lo:hi]))


def test_ma_correlation_identity_monte_carlo(lazy_model):
    # empirical <Xi_l, Xi_0> against sum_q a_q a_{q-l}
    coeffs = {(0, 0): 1.0, (1, 0): 0.5, (0, 1): -0.25}
    ma = scenery.moving_average_scenery(coeffs, law="gaussian")
    sd = scenery.spectral_density(ma)
    m = 40000
    gen_sites = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [-1, 0], [0, -1],
                          [2, 0], [-1, -1]], dtype=np.int64)
    from rwscenery.rng import hash_sites, splitmix64
    base = {tuple(s): hash_sites(0, s.reshape(1, 2))[0] for s in gen_sites}
    # realize Xi at l = 0 and l = (1,0) for m sceneries
    vals = {}
    for ell in [(0, 0), (1, 0)]:
        acc = np.zeros(m)
        for q, a in coeffs.items():
            site = (ell[0] - q[0], ell[1] - q[1])
            word = hash_sites(0, np.array(site, dtype=np.int64).reshape(1, 2))[0]
            seeds = np.arange(m, dtype=np.uint64)
            acc += a * ma.law.values(splitmix64(np.uint64(word) ^ seeds))
        vals[ell] = acc
    emp = float(np.mean(vals[(0, 0)] * vals[(1, 0)]))
    expect = sd.fourier[(1, 0)]
    se = float(np.std(vals[(0, 0)] * vals[(1, 0)], ddof=1) / math.sqrt(m))
    assert abs(emp - expect) < 4 * se


def test_toral_exact_phase_equality(sl3_pair, four_term_poly, toral):
    # modular evaluation and dual-orbit transport produce the same integer
    # phase mod q, hence identical values at the same rational point
    q = toral.q_mod
    p = np.array([123456789, 987654321, 555555555], dtype=np.uint64)
    for ell in [(3, -2), (5, 5), (-4, 1)]:
        m = algebra.mat_pow_pair(sl3_pair, ell)
        y = tuple(sum(int(m[i][j]) * int(p[j]) for j in range(3)) % q for i in range(3))
        for k in four_term_poly.support:
            kk = algebra.dual_orbit(sl3_pair, k, ell)
            phase_transport = sum(int(a) * int(b) for a, b in zip(kk, p)) % q
            phase_modular = sum(int(a) * int(b) for a, b in zip(k, y)) % q
            assert phase_transport == phase_modular


def _einsum_toral_values(scen, sites, x_seeds):
    """The toral kernel as one einsum over (M, h, c) phase arrays: the byte
    reference for site_values.  einsum sums a length-1 draw axis in its
    dot-product kernel, in an order set by the SIMD width, so a lone draw is
    evaluated next to a second one."""
    seeds = list(x_seeds) + [x_seeds[0] + 1] * (len(x_seeds) == 1)
    freqs = scenery._toral_transported_freqs(scen, sites)  # (M, h, rho)
    half = scen.poly.half_support()
    cre = np.asarray([2.0 * c.real for _, c in half])
    cim = np.asarray([2.0 * c.imag for _, c in half])
    q = scen.q_mod
    pts = np.stack([scenery._toral_point(scen, s) for s in seeds])
    phase = np.zeros((len(sites), len(half), len(seeds)), dtype=np.uint64)
    for j in range(scen.pair.rho):
        phase += freqs[:, :, j:j + 1] * pts[None, None, :, j]
        phase %= np.uint64(q)
    angle = phase.astype(np.float64) * (2.0 * np.pi / q)
    vals = np.einsum("h,mhc->mc", cre, np.cos(angle))
    vals -= np.einsum("h,mhc->mc", cim, np.sin(angle))
    return vals.T[:len(x_seeds)]


@pytest.fixture(scope="module")
def kernel_sites(lazy_model):
    sites = localtime.path_table(walk.sample_path(lazy_model, 20000, seed=21)).sites
    assert len(sites) >= 4000
    return sites


@pytest.fixture(scope="module")
def kernel_polys(four_term_poly):
    # truncation_ladder's polynomial has a pure-sine pair and a cosine-only rest
    ladder = trigpoly.trig_from_list(load_fixture("truncation_ladder.json")["scenery"]["poly"])
    return {"four_term": four_term_poly, "truncation_ladder": ladder}


@pytest.mark.parametrize("c", [1, 256])
@pytest.mark.parametrize("m", [1, 511, 512, 513])
@pytest.mark.parametrize("poly", ["four_term", "truncation_ladder"])
def test_toral_kernel_is_byte_identical_to_einsum(sl3_pair, kernel_sites, kernel_polys,
                                                 poly, m, c):
    scen = scenery.toral_scenery(sl3_pair, kernel_polys[poly])
    sites, seeds = kernel_sites[:m], list(range(7, 7 + c))
    got = scenery.site_values(scen, sites, seeds)
    want = _einsum_toral_values(scen, sites, seeds)
    assert got.shape == want.shape == (c, m)
    assert got.flags.f_contiguous  # the transpose of a C-ordered (M, c) array
    assert got.tobytes() == want.tobytes()


def test_toral_values_of_a_draw_do_not_depend_on_its_chunk(sl3_pair, kernel_sites,
                                                           kernel_polys):
    scen = scenery.toral_scenery(sl3_pair, kernel_polys["truncation_ladder"])
    sites, seeds = kernel_sites[:513], list(range(40, 296))
    chunk = scenery.site_values(scen, sites, seeds)
    assert scenery.site_values(scen, sites, seeds[5:6]).tobytes() == chunk[5:6].tobytes()


def test_toral_values_peak_memory(kernel_sites, toral):
    # blocked: the (M, c) result plus a few (512, c) buffers, not (M, h, c) arrays
    sites, seeds = kernel_sites[:4000], list(range(256))
    tracemalloc.start()
    try:
        scenery.site_values(toral, sites, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(sites) * len(seeds) * 8


def test_toral_values_exact_at_rho_4(companion_pair):
    # the largest rho whose rho-term phase sums stay below 2^64 unreduced
    pair = companion_pair(4)
    poly = trigpoly.TrigPolynomial({
        (1, 0, 0, 0): 0.5, (-1, 0, 0, 0): 0.5,
        (0, 1, -1, 2): 0.2 + 0.3j, (0, -1, 1, -2): 0.2 - 0.3j,
        (1, 0, 1, 0): -0.25j, (-1, 0, -1, 0): 0.25j})
    scen = scenery.toral_scenery(pair, poly)
    gen = np.random.default_rng(4)
    sites = np.vstack([[[40, 40], [-40, -40], [40, -40], [0, 0]],
                       gen.integers(-40, 41, size=(60, 2))]).astype(np.int64)
    seeds = [3, 17, 2**63 + 1]
    got = scenery.site_values(scen, sites, seeds)
    q = scen.q_mod
    for r, seed in enumerate(seeds):
        p = [int(v) for v in scenery._toral_point(scen, seed)]
        for i, ell in enumerate(sites.tolist()):
            y = [v % q for v in algebra.mat_vec(algebra.mat_pow_pair(pair, ell), p)]
            want = sum(c * cmath.exp(2j * math.pi * (sum(a * b for a, b in zip(k, y)) % q) / q)
                       for k, c in poly.coeffs.items()).real
            assert abs(got[r, i] - want) <= 1e-12


def test_toral_empirical_correlation_matches_table(sl3_pair, toral):
    # a_l = <A^l f, f> against a lattice Monte Carlo estimate
    f = toral.poly
    q = toral.q_mod
    gen = np.random.default_rng(7)
    pts = gen.integers(0, q, size=(20000, 3), dtype=np.uint64)
    v0 = f.evaluate_lattice(pts, q)
    for ell in [(0, 0), (1, 0), (2, -1)]:
        m = np.asarray(algebra.mat_pow_pair(sl3_pair, ell), dtype=object)
        moved = (pts.astype(object) @ m.T.astype(object)) % q
        vl = f.evaluate_lattice(moved.astype(np.uint64), q)
        prod = vl * v0
        se = float(prod.std(ddof=1) / math.sqrt(len(prod)))
        expect = algebra.toral_correlation(sl3_pair, f, ell)
        assert abs(float(prod.mean()) - expect) < 4 * se + 1e-9


def test_toral_quenched_variance_vs_monte_carlo(lazy_model, toral):
    path = walk.sample_path(lazy_model, 800, seed=5)
    exact = scenery.quenched_variance(toral, path, (0, 800))
    inc = scenery.field_increments(toral, path, [1.0], range(4000))
    mc = float(inc[:, 0].var(ddof=1))
    se = exact * math.sqrt(2.0 / 3999)
    assert abs(mc - exact) < 4 * se


def test_truncation_pathwise_decomposition(lazy_model):
    g = scenery.iid_scenery("gaussian")
    hat, tail = scenery.truncate_field(g, 1.0)
    path = walk.sample_path(lazy_model, 300, seed=6)
    xs = scenery.field_increments(g, path, [0.5, 1.0], range(40))
    xh = scenery.field_increments(hat, path, [0.5, 1.0], range(40))
    xt = scenery.field_increments(tail, path, [0.5, 1.0], range(40))
    assert np.allclose(xs, xh + xt, atol=1e-10)


def test_truncation_tail_variance_gaussian():
    g = scenery.iid_scenery("gaussian")
    _, tail = scenery.truncate_field(g, 1.0)
    # quadrature oracle for E[X^2; X>1] - E[X; X>1]^2
    m2, _ = quad(lambda x: x * x * norm.pdf(x), 1.0, 40.0)
    m1, _ = quad(lambda x: x * norm.pdf(x), 1.0, 40.0)
    expect = m2 - m1 * m1
    assert tail.law.variance == pytest.approx(expect, abs=1e-9)
    # Monte Carlo within 3 standard errors
    gen = np.random.default_rng(1)
    words = gen.integers(0, 2**64, size=100000, dtype=np.uint64)
    sample = tail.law.values(words)
    se = sample.var(ddof=1) * math.sqrt(2.0 / (len(sample) - 1))
    assert abs(sample.var(ddof=1) - expect) < 3 * se


def test_truncation_tail_vanishes_for_bounded_laws():
    r = scenery.iid_scenery("rademacher")
    _, tail = scenery.truncate_field(r, 2.0)
    gen = np.random.default_rng(2)
    words = gen.integers(0, 2**64, size=1000, dtype=np.uint64)
    assert np.allclose(tail.law.values(words), 0.0)
    assert tail.law.variance == pytest.approx(0.0, abs=1e-12)


def test_truncation_tail_variance_monotone_in_level():
    g = scenery.iid_scenery("gaussian")
    variances = []
    for level in (0.5, 1.0, 2.0, 3.0):
        _, tail = scenery.truncate_field(g, level)
        variances.append(tail.law.variance)
    assert all(b < a for a, b in zip(variances, variances[1:]))


def test_truncate_field_rejects_non_iid():
    ma = scenery.moving_average_scenery({(0, 0): 1.0})
    with pytest.raises(ValueError):
        scenery.truncate_field(ma, 1.0)


def test_window_boundaries_validation():
    with pytest.raises(ValueError):
        scenery.window_boundaries(100, [0.5, 0.25])
    with pytest.raises(ValueError):
        scenery.window_boundaries(100, [0.0, 0.5])
    assert scenery.window_boundaries(100, [0.25, 1.0]) == [0, 25, 100]


def test_scenery_serialization_round_trip(sl3_pair):
    # sceneries are only ever read from configs: parse a hand-written doc of each variant
    iid = scenery.scenery_from_dict({"variant": "iid", "law": {"name": "gaussian"}})
    assert isinstance(iid, scenery.IIDScenery) and isinstance(iid.law, scenery.Gaussian)
    ma = scenery.scenery_from_dict({
        "variant": "moving_average",
        "law": {"name": "truncated_gaussian", "level": 1.5},
        "coeffs": [{"q": [0, 0], "a": 1.0}, {"q": [1, 0], "a": -1.0}]})
    assert isinstance(ma, scenery.MovingAverageScenery)
    assert isinstance(ma.law, scenery.TruncatedGaussian) and ma.law.level == 1.5
    assert ma.coeffs == {(0, 0): 1.0, (1, 0): -1.0}
    toral = scenery.scenery_from_dict({
        "variant": "toral", "pair": {"a1": [list(r) for r in sl3_pair.a1],
                                     "a2": [list(r) for r in sl3_pair.a2]},
        "poly": [[[1, 0, 0], 0.5, 0.25], [[-1, 0, 0], 0.5, -0.25]],
        "q_mod": 2147483629, "orbit_box": 6})
    assert isinstance(toral, scenery.ToralScenery)
    assert toral.pair.a1 == sl3_pair.a1 and toral.pair.a2 == sl3_pair.a2
    assert toral.poly.coeffs == {(1, 0, 0): 0.5 + 0.25j, (-1, 0, 0): 0.5 - 0.25j}
    assert toral.q_mod == 2147483629 and toral.orbit_box == 6
    default_box = scenery.scenery_from_dict({
        "variant": "toral", "pair": {"a1": sl3_pair.a1, "a2": sl3_pair.a2},
        "poly": [[[0, 1, 0], 1.0, 0.0], [[0, -1, 0], 1.0, 0.0]], "q_mod": 2**31 - 1})
    assert default_box.orbit_box == 12


def test_two_primes_give_consistent_statistics(sl3_pair, four_term_poly, lazy_model):
    path = walk.sample_path(lazy_model, 600, seed=9)
    t1 = scenery.toral_scenery(sl3_pair, four_term_poly, q_mod=2**31 - 1)
    t2 = scenery.toral_scenery(sl3_pair, four_term_poly, q_mod=2147483629)
    a = scenery.field_increments(t1, path, [1.0], range(3000))
    b = scenery.field_increments(t2, path, [1.0], range(3000))
    va, vb = a.var(), b.var()
    exact = scenery.quenched_variance(t1, path, (0, 600))
    se = exact * math.sqrt(2.0 / 2999)
    assert abs(va - vb) < 6 * se


def test_field_increments_transport_toral_frequencies_once(lazy_model, toral, monkeypatch):
    # m = 2000 draws run in eight chunks of _DRAW_CHUNK; the transported
    # frequencies depend only on the sites, so one call serves every chunk
    path = walk.sample_path(lazy_model, 4096, seed=21)
    seeds = list(range(2000))
    grid = (0.25, 0.5, 1.0)
    ids, counts = localtime.window_counts(path, scenery.window_boundaries(path.n, grid))
    sites = localtime.path_table(path).sites[ids]
    chunk = scenery._DRAW_CHUNK
    want = np.concatenate([scenery.site_values(toral, sites, seeds[lo:lo + chunk])
                           @ counts.astype(np.float64) for lo in range(0, 2000, chunk)])
    calls = []
    transported = scenery._toral_transported_freqs
    monkeypatch.setattr(scenery, "_toral_transported_freqs",
                        lambda *a: calls.append(1) or transported(*a))
    got = scenery.field_increments(toral, path, grid, seeds)
    assert len(calls) == 1
    assert got.tobytes() == want.tobytes()
