import hashlib
import json
import math
import weakref

import numpy as np
import pytest

from rwscenery import cli, harness, localtime, reportio, scenery, walk


@pytest.fixture(scope="module")
def small_omegas(lazy_model):
    """The fields that tightness shares with the FCLT runner."""
    return dict(walk=lazy_model, scenery=scenery.iid_scenery("rademacher"),
                n=2**12, m_sceneries=300, n_omegas=3, seed=77)


@pytest.fixture(scope="module")
def small_config(small_omegas):
    return dict(small_omegas, t_grid=(0.5, 1.0))


def test_config_validation(lazy_model, monkeypatch):
    # a bad t_grid fails before any path is drawn
    monkeypatch.setattr(harness, "sample_path", None)
    for t_grid in [(0.5, 0.25), (0.5, 1.5), (0.0, 1.0), (0.5,), ()]:
        with pytest.raises(ValueError, match="t_grid"):
            harness.run_fclt(walk=lazy_model, scenery=scenery.iid_scenery(), n=100,
                             t_grid=t_grid, m_sceneries=100, n_omegas=2, seed=0)


def test_fclt_report_reproducible(small_config):
    a = harness.run_fclt(**small_config)
    b = harness.run_fclt(**small_config)
    assert a.to_dict() == b.to_dict()
    assert a.t_grid == (0.5, 1.0)


def test_fclt_internal_variance_cross_check(small_config):
    # Var_x(Y_n(1)) estimated from sceneries agrees with the exact count
    # identity within 4 standard errors of a variance estimate
    rep = harness.run_fclt(**small_config)
    m = small_config["m_sceneries"]
    for o in rep.per_omega:
        se = o.exact_var_y1 * math.sqrt(2.0 / (m - 1))
        assert abs(o.mc_var_y1 - o.exact_var_y1) < 4 * se


def test_fclt_requires_planar_recurrent(simple3d_model):
    with pytest.raises(ValueError):
        harness.run_fclt(walk=simple3d_model, scenery=scenery.iid_scenery(), n=256,
                         t_grid=(1.0,), m_sceneries=100, n_omegas=1, seed=1)


def test_fclt_grid_must_reach_one(lazy_model):
    with pytest.raises(ValueError):
        harness.run_fclt(walk=lazy_model, scenery=scenery.iid_scenery(), n=256,
                         t_grid=(0.5,), m_sceneries=100, n_omegas=1, seed=1)


def test_fclt_degenerate_mode(lazy_model):
    deg = scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): -1.0})
    rep = harness.run_fclt(walk=lazy_model, scenery=deg, n=2**11, t_grid=(1.0,),
                           m_sceneries=100, n_omegas=2, seed=3)
    assert rep.degenerate and rep.passed is None
    assert rep.per_omega[0].ks_pvalue == []
    assert rep.pooled_exact_var_y1 < 0.7


def test_fclt_simple2d_exact_c0(simple2d_model):
    # period 2 does not change C0 = 1 / (pi sqrt(det Sigma)) = 2 / pi
    rep = harness.run_fclt(walk=simple2d_model, scenery=scenery.iid_scenery("rademacher"),
                           n=2**12, t_grid=(1.0,), m_sceneries=100, n_omegas=3, seed=5)
    assert rep.c0_mode == "exact"
    assert rep.c0 == simple2d_model.c0 == pytest.approx(2 / math.pi, rel=1e-12)
    for o in rep.per_omega:
        assert o.exact_var_y1 == pytest.approx(
            o.window_variance[0] / (rep.c0 * 2**12 * math.log(2**12)), rel=1e-12)


def test_lln_guards(lazy_model, simple2d_model, simple3d_model):
    with pytest.raises(ValueError):
        harness.track_variance_lln(walk=simple3d_model, n_ladder=[64], p_set=[(0, 0, 0)],
                                   n_omegas=2, seed=0)
    line = walk.build_walk_model(walk.increment_law([((1, 0), 0.5), ((-1, 0), 0.5)]))
    with pytest.raises(ValueError):  # rank 1: no C0
        harness.track_variance_lln(walk=line, n_ladder=[64], p_set=[(0, 0)], n_omegas=2,
                                   seed=0)
    rep = harness.track_variance_lln(walk=simple2d_model, n_ladder=[64], p_set=[(0, 0)],
                                     n_omegas=2, seed=0)
    assert rep.c0 == pytest.approx(2 / math.pi, rel=1e-12)
    rep = harness.track_variance_lln(walk=lazy_model, n_ladder=[256, 1024], p_set=[(0, 0)],
                                     n_omegas=4, seed=0)
    assert set(rep.mean_ratio) == {(256, (0, 0)), (1024, (0, 0))}
    assert rep.max_ratio[(1024, (0, 0))] >= rep.mean_ratio[(1024, (0, 0))]


def test_orthogonality_window_validation(lazy_model, monkeypatch):
    # bad windows fail before any path is drawn
    monkeypatch.setattr(harness, "sample_path", None)
    for windows in [(0.4, 0.1, 0.6, 0.9), (0.1, 0.2, 0.3), (0.1, 0.2, 0.3, 1.0)]:
        with pytest.raises(ValueError, match="windows"):
            harness.check_increment_orthogonality(walk=lazy_model, n_ladder=[256],
                                                  windows=windows, p_set=[(0, 0)],
                                                  n_omegas=2, seed=0)


def test_orthogonality_disjoint_windows_straight_path():
    det = walk.build_walk_model(walk.deterministic_law((1, 0)))
    rep = harness.check_increment_orthogonality(walk=det, n_ladder=[512],
                                                windows=(0.1, 0.4, 0.6, 0.9), p_set=[(0, 0)],
                                                n_omegas=2, seed=0)
    assert rep.mean_normalized[(512, (0, 0))] == 0.0


def test_cross_count_monotone_in_window(lazy_model):
    path = walk.sample_path(lazy_model, 2048, seed=11)
    small = localtime.pair_count(path, (200, 800), (1200, 1800), (0, 0))
    bigger = localtime.pair_count(path, (100, 900), (1200, 1800), (0, 0))
    assert bigger >= small


def test_newman_wright_rejects_unsigned_ma(lazy_model):
    mixed = scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): -1.0})
    with pytest.raises(ValueError):
        harness.check_newman_wright(walk=lazy_model, scenery=mixed, n=128, m_sceneries=100,
                                    lambda_grid=[2.0], seed=0)


def test_newman_wright_constant_path_closed_form():
    # S_k = k X0 for the walk frozen at the origin: max |S_k| = n = ||S_n||_2,
    # so the left side is 1{lambda <= 1} and the right side 2*1{lambda <= 1+sqrt2}
    const = walk.build_walk_model(walk.deterministic_law((0, 0)))
    rep = harness.check_newman_wright(walk=const, scenery=scenery.iid_scenery("rademacher"),
                                      n=50, m_sceneries=500, lambda_grid=[0.5, 2.0, 3.0],
                                      seed=0)
    assert rep.lhs == [1.0, 0.0, 0.0]
    assert rep.rhs == [2.0, 2.0, 0.0]
    assert not any(rep.violations) and rep.passed


def test_newman_wright_small_lambda_vacuous(lazy_model):
    rep = harness.check_newman_wright(walk=lazy_model, scenery=scenery.iid_scenery("rademacher"),
                                      n=512, m_sceneries=500, lambda_grid=[1.0], seed=1)
    assert rep.rhs[0] == 2.0  # threshold below sqrt2 makes the bound vacuous
    assert not rep.violations[0]


def test_newman_wright_ma_positive_part(lazy_model):
    pos = scenery.moving_average_scenery({(0, 0): 0.5, (1, 0): 0.5})
    rep = harness.check_newman_wright(walk=lazy_model, scenery=pos, n=512, m_sceneries=1000,
                                      lambda_grid=[2.0, 3.0], seed=2)
    assert not any(rep.violations)


def test_maximal_pass_rules_are_report_properties():
    nw = harness.NewmanWrightReport(lambdas=[2.0], lhs=[0.5], rhs=[0.1], lhs_se=[0.01],
                                    rhs_se=[0.01], margins=[-0.4], violations=[True],
                                    l2_norm=1.0, m_sceneries=100)
    assert nw.passed is False and "passed" not in nw.to_dict()
    mo = dict(n=8, g0_kind="sqrt3k", super_additive=True, hypothesis_ok=True,
              hypothesis_worst=0.0, windows=[], m4_estimates=[], m4_se=[], bounds=[],
              margins=[], worst_margin_se_units=math.inf, violations=0, m_sceneries=100)
    assert harness.MoriczReport(**mo).passed is True
    assert harness.MoriczReport(**dict(mo, violations=1)).passed is False
    assert harness.MoriczReport(**dict(mo, hypothesis_ok=False)).passed is None
    assert "passed" not in harness.MoriczReport(**mo).to_dict()


def test_moricz_rademacher_exact_moments():
    det = walk.build_walk_model(walk.deterministic_law((1,)))
    path = walk.sample_path(det, 128, seed=0)
    iid = scenery.iid_scenery("rademacher")
    for k in (1, 2, 7, 32):
        m4 = harness._fourth_moment_window(path, iid.law, 0, k)
        assert m4 == 3 * k * k - 2 * k
    rep = harness.check_moricz(walk=det, scenery=iid, n=128, m_sceneries=800,
                               g0_kind="sqrt3k", seed=1)
    assert rep.super_additive and rep.hypothesis_ok
    assert rep.hypothesis_worst == pytest.approx(2.0)  # at k = 1: 3 - 1
    assert rep.violations == 0


def test_moricz_single_step_window_bound():
    # k = 1 reduces the hypothesis to E X^4 <= G0(b,1)^2
    det = walk.build_walk_model(walk.deterministic_law((1,)))
    path = walk.sample_path(det, 16, seed=0)
    iid = scenery.iid_scenery("rademacher")
    m4 = harness._fourth_moment_window(path, iid.law, 3, 1)
    assert m4 == 1.0 <= harness.MORICZ_CMAX * 3.0


def test_moricz_constant():
    assert harness.MORICZ_CMAX == pytest.approx((1 - 2 ** -0.25) ** -4)


def test_super_additivity_checker_rejects_sqrt():
    n = 16
    k = np.arange(n + 1, dtype=np.float64)
    g_bad = np.tile(np.sqrt(k), (n + 1, 1))
    assert not harness._check_super_additive(g_bad, n)
    g_good = np.tile(np.sqrt(3.0) * k, (n + 1, 1))
    assert harness._check_super_additive(g_good, n)


def test_moricz_walk_case(lazy_model):
    iid = scenery.iid_scenery("rademacher")
    rep = harness.check_moricz(walk=lazy_model, scenery=iid, n=128, m_sceneries=800,
                               g0_kind="self_intersection", seed=3)
    assert rep.super_additive and rep.hypothesis_ok
    assert rep.violations == 0
    assert rep.worst_margin_se_units > 3.0


def _reference_running_max_abs(scen, table, seeds):
    """max |S_k| and S_n as computed before the reused buffers: a fresh gather,
    cumsum and abs per 256-draw chunk."""
    max_abs, s_n = np.empty(len(seeds)), np.empty(len(seeds))
    for lo in range(0, len(seeds), 256):
        vals = scenery.site_values(scen, table.sites, seeds[lo:lo + 256])[:, table.inverse]
        cs = np.cumsum(vals, axis=1)
        max_abs[lo:lo + len(cs)] = np.max(np.abs(cs), axis=1)
        s_n[lo:lo + len(cs)] = cs[:, -1]
    return max_abs, s_n


def _reference_window_max4(scen, table, seeds, n, windows):
    """Window maxima as computed before the reused buffers: concatenated
    prefix sums and a fresh difference per window."""
    vals = scenery.site_values(scen, table.sites, seeds)[:, table.inverse[:n]]
    cs = np.concatenate([np.zeros((len(seeds), 1)), np.cumsum(vals, axis=1)], axis=1)
    return [np.max(np.abs(cs[:, b + 1:b + k + 1] - cs[:, b:b + 1]), axis=1) ** 4
            for b, k in windows]


_MAXIMAL_SCENERIES = {
    "rademacher": scenery.iid_scenery("rademacher"),
    "gaussian": scenery.iid_scenery("gaussian"),
    "ma-0.3-0.7": scenery.moving_average_scenery({(0, 0): 0.3, (1, 0): 0.7}, law="gaussian"),
}


@pytest.mark.parametrize("m", [100, 300])  # under one 256-draw chunk; a ragged last one
@pytest.mark.parametrize("name", list(_MAXIMAL_SCENERIES))
def test_maximal_checks_match_pre_change_reference(lazy_model, monkeypatch, name, m):
    scen = _MAXIMAL_SCENERIES[name]
    path = walk.sample_path(lazy_model, 700, seed=21)
    table = localtime.path_table(path)
    seeds = harness._x_seeds(5, 0, m)
    got = harness._running_max_abs(scen, table, seeds)
    want = _reference_running_max_abs(scen, table, seeds)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    fields = dict(walk=lazy_model, scenery=scen, m_sceneries=m, seed=21)
    checks = [lambda: harness.check_newman_wright(**fields, n=700,
                                                  lambda_grid=[1.0, 2.0, 3.0])]
    if isinstance(scen, scenery.IIDScenery):
        windows = [(0, 8), (8, 8), (0, 64), (64, 64), (0, 512)]
        got = harness._window_max4(scen, table, seeds, 512, windows)
        want = _reference_window_max4(scen, table, seeds, 512, windows)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        checks.append(lambda: harness.check_moricz(**fields, n=512,
                                                   g0_kind="self_intersection"))
    reports = [reportio.canonical_json(check().to_dict()) for check in checks]
    monkeypatch.setattr(harness, "_running_max_abs", _reference_running_max_abs)
    monkeypatch.setattr(harness, "_window_max4", _reference_window_max4)
    assert reports == [reportio.canonical_json(check().to_dict()) for check in checks]


def test_tightness_monotone_and_stride_stable(small_omegas):
    # halving the stride (doubling grid_points) must not change conclusions:
    # the delta-monotonicity and the ordering of the estimates are stable,
    # and the finer grid can only see more of the sup (up to window rounding)
    deltas = [0.05, 0.1, 0.2]
    rep64 = harness.estimate_tightness_modulus(**small_omegas, delta_ladder=deltas,
                                               epsilon=0.6, grid_points=64)
    rep128 = harness.estimate_tightness_modulus(**small_omegas, delta_ladder=deltas,
                                                epsilon=0.6, grid_points=128)
    assert rep64.monotone_in_delta and rep128.monotone_in_delta
    for d in rep64.delta_ladder:
        assert rep128.estimates[d] >= rep64.estimates[d] - 0.05
    anchor = harness.estimate_tightness_modulus(**small_omegas, delta_ladder=[1.0],
                                                epsilon=0.6, grid_points=64)
    assert anchor.estimates[1.0] >= rep64.estimates[0.2] - 1e-12


def test_tightness_degenerate_scenery_collapses(lazy_model):
    deg = scenery.moving_average_scenery({(0, 0): 1.0, (1, 0): -1.0})
    rep = harness.estimate_tightness_modulus(walk=lazy_model, scenery=deg, n=2**12,
                                             m_sceneries=200, n_omegas=2, seed=9,
                                             delta_ladder=[0.1], epsilon=3.0,
                                             grid_points=64)
    assert rep.estimates[0.1] == 0.0


def test_erdos_taylor_guards(simple2d_model):
    det = walk.build_walk_model(walk.deterministic_law((1, 0)))
    with pytest.raises(ValueError):
        harness.track_erdos_taylor(walk=det, n_ladder=[256], n_omegas=2, epsilon=0.1, seed=0)
    rep = harness.track_erdos_taylor(walk=simple2d_model, n_ladder=[256, 1024], n_omegas=3,
                                     epsilon=0.1, seed=0)
    assert rep.mean_log_ratio[256] > 0
    assert len(rep.quantiles_log_ratio[1024]) == 3
    for n in rep.n_ladder:
        assert len(rep.log_ratio[n]) == rep.n_omegas
        assert float(np.mean(rep.log_ratio[n])) == rep.mean_log_ratio[n]
    # per-omega ratios stay out of the payload
    assert set(rep.to_dict()) == {"n_ladder", "n_omegas", "mean_log_ratio",
                                  "quantiles_log_ratio", "mean_power_ratio",
                                  "distance_to_limit"}


def test_transient_check_guards_and_trivial_bound(simple3d_model, lazy_model):
    iid = scenery.iid_scenery("rademacher")
    with pytest.raises(ValueError):
        harness.transient_variance_check(walk=lazy_model, scenery=iid, n=256, m_sceneries=10,
                                         n_omegas=10, k_max=60, seed=0)
    rep = harness.transient_variance_check(walk=simple3d_model, scenery=iid, n=2**12,
                                           m_sceneries=100, n_omegas=4, k_max=30, seed=1)
    assert rep.exact_mean >= 1.0  # indicator term of the series
    assert rep.series_truncated >= 1.0


def test_truncation_ladder_report(lazy_model, sl3_pair):
    from rwscenery import trigpoly

    poly = trigpoly.cosine_polynomial([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                      amplitudes=[1.0, 0.5, 0.25])
    tor = scenery.toral_scenery(sl3_pair, poly, q_mod=2**31 - 1)
    rep = harness.run_truncation_ladder(walk=lazy_model, scenery=tor, n=2**10, n_omegas=2,
                                        seed=13, terms_ladder=[2, 4, 6])
    assert rep.norm_c_dropped[0] > rep.norm_c_dropped[-1] == 0.0
    assert rep.density_sup_bound == [v**2 for v in rep.norm_c_dropped]
    assert len(rep.var_y1) == 3


def _tiny(fixture, **fields):
    return dict(cli.load_fixture(fixture), **fields)


# simple2d (period 2) at its exact C0 = 2 / pi; each runner draws each path once.
# Rademacher values and integer counts keep the dgemm exact, so the bytes do not
# depend on the BLAS thread count.
ONE_DRAW = {
    "fclt-iid": (_tiny("fclt_iid.json", m_sceneries=100),
                 "14db4900561f5c567cf9148f49dd98186dea89bea1b711d4c87dd13f112b3696"),
    "tightness": (_tiny("tightness.json", m_sceneries=100),
                  "21934c83c1112bd7d725babf02c50986ae7a9c814421908ecadcb5851b589d57"),
    "truncation-ladder": (_tiny("truncation_ladder.json"),
                          "292b52420e949a71a78e708d62fd773ae63e3c5969728e2f52b5cb0f2811bf55"),
    "variance-ladder": (_tiny("ma_degenerate_ladder.json", n_ladder=[64, 256]),
                        "a83ad3b5b4212d9d456713917bd225b565bdb89d84f3fc1b5e8d32b538499751"),
}
# runners whose reports are exact counts only: a scenery draw is wasted work
NO_SCENERY_DRAWS = {"truncation-ladder", "variance-ladder"}


@pytest.mark.parametrize("name", list(ONE_DRAW))
def test_one_draw_per_omega_keeps_the_report_bytes(tmp_path, monkeypatch, name):
    doc, sha256 = ONE_DRAW[name]
    doc = dict(doc, walk={"preset": "simple2d"}, n=256, n_omegas=3)
    calls = []
    sample = harness.sample_path
    monkeypatch.setattr(harness, "sample_path",
                        lambda model, n, seed: calls.append(seed) or sample(model, n, seed))
    if name in NO_SCENERY_DRAWS:
        def no_draws(*args, **kwargs):
            raise AssertionError(f"{name} draws sceneries it never reads")
        monkeypatch.setattr(harness, "field_increments", no_draws)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) in (0, 2)
    assert calls == [harness._omega_seed(doc["seed"], i) for i in range(3)]
    assert hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest() == sha256


LADDER = {"n_ladder": [64, 256], "n_omegas": 3, "seed": 4}
ALIVE = {
    "fclt-iid-exact": _tiny("fclt_iid.json", n=256, m_sceneries=100, n_omegas=3),
    "lln-variance": _tiny("lln_variance.json", **LADDER),
    "orthogonality": _tiny("orthogonality.json", **LADDER),
    "tightness-exact": _tiny("tightness.json", n=256, m_sceneries=100, n_omegas=3),
    "erdos-taylor": _tiny("erdos_taylor.json", **LADDER),
    "transient-variance": _tiny("transient_3d.json", n=256, m_sceneries=20, n_omegas=3,
                                k_max=10),
    "truncation-ladder-exact": _tiny("truncation_ladder.json", n=256, n_omegas=3),
    "variance-ladder-exact": _tiny("ma_degenerate_ladder.json", **LADDER),
}


@pytest.mark.parametrize("name", list(ALIVE))
def test_one_path_alive_at_a_time(monkeypatch, name):
    # every omega runner draws each path once, and the previous path (with its
    # cached site table) is gone before the next one is drawn
    drawn = []
    sample = harness.sample_path

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in drawn), "an earlier path is still alive"
        path = sample(*args, **kwargs)
        drawn.append(weakref.ref(path))
        return path

    monkeypatch.setattr(harness, "sample_path", tracked)
    cli.run_experiment(ALIVE[name])
    assert len(drawn) == ALIVE[name]["n_omegas"]
    assert all(ref() is None for ref in drawn)
