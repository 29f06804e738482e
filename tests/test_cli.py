import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rwscenery import cli, harness, reportio, scenery, walk
from rwscenery.walk import MAX_STEPS


TINY_FCLT = {
    "experiment": "fclt-iid", "seed": 99,
    "walk": {"preset": "lazy2d"},
    "scenery": {"variant": "iid", "law": {"name": "rademacher"}},
    "n": 2048, "t_grid": [0.5, 1.0], "m_sceneries": 120, "n_omegas": 2,
    "output": {"charts": True},
}


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_list_catalog(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fclt-iid", "fclt-ma", "fclt-toral", "newman-wright", "moricz"):
        assert name in out


def test_list_json_round_trips(capsys):
    assert cli.main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {e["name"] for e in doc}
    assert {"fclt-iid", "fclt-ma", "fclt-toral"} <= names
    assert all(e["anchor"] for e in doc)


def test_validate_bundled_fixtures(tmp_path):
    from importlib import resources

    fixture_dir = resources.files("rwscenery.fixtures")
    checked = 0
    for entry in sorted(fixture_dir.iterdir()):
        if not entry.name.endswith(".json"):
            continue
        doc = json.loads(entry.read_text())
        if "experiment" not in doc:
            continue  # data fixtures (matrix pair, tolerances)
        cli.validate_config(doc)
        checked += 1
    assert checked >= 10


def test_validate_command(tmp_path, capsys):
    path = write_config(tmp_path, TINY_FCLT)
    assert cli.main(["validate", path]) == 0
    bad = dict(TINY_FCLT, t_grid=[0.5, 0.25, 1.0])
    path2 = write_config(tmp_path, bad, "bad.json")
    assert cli.main(["validate", path2]) == 1
    err = capsys.readouterr().err
    assert "t_grid" in err


LADDER = {"experiment": "erdos-taylor", "seed": 7, "walk": {"preset": "simple2d"},
          "n_ladder": [64, 256], "n_omegas": 2}
PATH_CHECK = {"experiment": "newman-wright", "seed": 7, "walk": {"preset": "lazy2d"},
              "scenery": {"variant": "iid", "law": {"name": "rademacher"}},
              "n": 64, "m_sceneries": 50, "lambda_grid": [1.0, 2.0]}
MIXED_MA = {"variant": "moving_average", "law": {"name": "rademacher"},
            "coeffs": [{"q": [0, 0], "a": 1.0}, {"q": [1, 0], "a": -1.0}]}
TORAL = {"variant": "toral", "pair": "bundled-sl3", "q_mod": 2**31 - 1,
         "poly": [[[s, 0, 0], 0.5, 0.0] for s in (-1, 1)]}


def _toral(**fields):
    return dict(TINY_FCLT, experiment="fclt-toral", scenery=dict(TORAL, **fields))


TIGHTNESS = dict(TINY_FCLT, experiment="tightness", t_grid=[1.0], delta_ladder=[0.1],
                 epsilon=0.5)
TRUNCATION = dict(TINY_FCLT, experiment="truncation-ladder", scenery=TORAL, terms_ladder=[2])
# centered and planar, but its support spans a line: no C0 normalizes its sums
LINE_WALK = {"atoms": [{"site": [1, 0], "prob": 0.5}, {"site": [-1, 0], "prob": 0.5}]}


# configs that would crash at run time (or, for an empty list, run a vacuous
# check): `validate` must reject each one, naming the bad field
REJECTED = [
    (dict(LADDER, epsilon="x"), "epsilon"),
    (dict(LADDER, experiment="lln-variance", p_set=[[0, 0]], n_ladder=[1]), "n_ladder[0]"),
    (dict(LADDER, experiment="lln-variance", p_set=[[0, 0]], n_ladder=[]), "n_ladder"),
    (dict(LADDER, n_ladder=[1, 64]), "n_ladder[0]"),
    (dict(TINY_FCLT, experiment="variance-ladder", t_grid=[1.0], n_ladder=[]), "n_ladder"),
    (dict(PATH_CHECK, experiment="moricz", g0_kind="foo"), "g0_kind"),
    # a variance over the scenery draws needs two of them
    (dict(PATH_CHECK, experiment="moricz", m_sceneries=1), "m_sceneries"),
    (dict(PATH_CHECK, experiment="transient-variance", walk={"preset": "simple3d"},
          m_sceneries=1), "m_sceneries"),
    (dict(TINY_FCLT, seed=True), "seed"),
    (dict(PATH_CHECK, experiment="transient-variance", n_omegas="abc"), "n_omegas"),
    (dict(PATH_CHECK, lambda_grid=[]), "lambda_grid"),
    (dict(TIGHTNESS, grid_points=0), "grid_points"),
    (dict(LADDER, walk={}), "walk"),
    (dict(LADDER, experiment="lln-variance", walk={"preset": "lazy2d"},
          p_set=[[1, 0, 0]]), "p_set[0]"),
    (dict(LADDER, experiment="orthogonality", windows=[0.1, 0.2, 0.3, 0.4],
          p_set=[[0, 0], [1]]), "p_set[1]"),
    (dict(LADDER, n_ladder=[64, MAX_STEPS + 1]), "n_ladder[1]"),
    (dict(PATH_CHECK, n=MAX_STEPS + 1), "n"),
    (dict(TINY_FCLT, n=MAX_STEPS + 1), "n"),
    (dict(LADDER, n_ladder=[256, 64]), "n_ladder"),
    (dict(LADDER, experiment="orthogonality", windows=[0.1, 0.2, 0.3, 0.4], p_set=[[0, 0]],
          n_ladder=[64, 64]), "n_ladder"),
    (dict(LADDER, experiment="orthogonality", windows=[0.4, 0.1, 0.6, 0.9], p_set=[[0, 0]]),
     "windows"),
    # the runner's own walk and scenery rules
    (dict(TINY_FCLT, walk={"preset": "simple3d"}), "walk"),
    (dict(TINY_FCLT, experiment="variance-ladder", t_grid=[1.0], n_ladder=[256, 512],
          walk={"preset": "simple3d"}), "walk"),
    (dict(LADDER, experiment="lln-variance", p_set=[[0, 0]], walk=LINE_WALK), "walk"),
    (dict(TINY_FCLT, walk=LINE_WALK), "walk"),
    *((dict(doc, walk={"preset": preset}), "walk")
      for doc in (TIGHTNESS, TRUNCATION) for preset in ("simple3d", "det1d")),
    (dict(LADDER, walk={"preset": "det1d"}), "walk"),
    (dict(PATH_CHECK, experiment="transient-variance"), "walk"),
    (dict(PATH_CHECK, scenery=MIXED_MA), "scenery"),
    (dict(PATH_CHECK, experiment="moricz", scenery=MIXED_MA), "scenery"),
    (dict(TINY_FCLT, experiment="truncation-ladder", terms_ladder=[2]), "scenery"),
    # ToralScenery's integer constants: orbit_box >= 1, q_mod a prime in (2^20, 2^31)
    *((_toral(orbit_box=v), "scenery") for v in ("6", 6.0, True, 0, -1)),
    *((_toral(q_mod=v), "scenery") for v in (2147483647.0, "2147483647", True)),
]


def _rejected_id(doc, field):
    """experiment:field, and the preset of a walk that the runner's rule rejects
    or the toral constant that the scenery rejects."""
    extra = None
    if field == "walk":
        extra = doc["walk"].get("preset", "atoms" if "atoms" in doc["walk"] else None)
    elif field == "scenery" and doc["scenery"].get("variant") == "toral":
        key = "orbit_box" if "orbit_box" in doc["scenery"] else "q_mod"
        extra = f"{key}={doc['scenery'][key]!r}"
    return f"{doc['experiment']}:{field}" + (f"={extra}" if extra else "")


@pytest.mark.parametrize("doc,field", REJECTED, ids=[_rejected_id(d, f) for d, f in REJECTED])
def test_validate_rejects_bad_field(tmp_path, capsys, doc, field):
    with pytest.raises(cli.ConfigError) as exc:
        cli.validate_config(doc)
    assert exc.value.field == field
    assert cli.main(["validate", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert f"config field {field}:" in err
    assert "required field is missing" not in err


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_runner_takes_exactly_the_config_fields(name):
    # the registry calls harness.<runner>(**parsed fields) with no adapter, and
    # each default is declared once, in the field spec
    exp = cli.EXPERIMENTS[name]
    params = inspect.signature(getattr(harness, exp.runner)).parameters
    assert all(p.kind is p.KEYWORD_ONLY and p.default is p.empty for p in params.values())
    assert set(params) == set({**cli._COMMON, **exp.fields}) - {"output"}


def test_validate_accepts_max_steps():
    # parsing only: nothing of the 2^31-step walk is allocated
    assert cli.validate_config(dict(LADDER, n_ladder=[64, MAX_STEPS])) == "erdos-taylor"
    assert cli.validate_config(dict(PATH_CHECK, n=MAX_STEPS)) == "newman-wright"
    assert cli.validate_config(dict(TINY_FCLT, n=MAX_STEPS)) == "fclt-iid"


def test_validate_variance_ladder_needs_four_fields():
    doc = {"experiment": "variance-ladder", "seed": 3, "walk": {"preset": "lazy2d"},
           "scenery": MIXED_MA, "n_ladder": [64, 256], "n_omegas": 2}
    assert cli.validate_config(doc) == "variance-ladder"
    assert set(cli.EXPERIMENTS["variance-ladder"].fields) == {"walk", "scenery", "n_ladder",
                                                               "n_omegas"}
    for field in ("walk", "scenery", "n_ladder", "n_omegas"):
        with pytest.raises(cli.ConfigError, match="required field is missing"):
            cli.validate_config({k: v for k, v in doc.items() if k != field})


def test_validate_bounds_toral_rho(tmp_path, capsys, companion_pair):
    def config(rho):
        poly = [[[s * int(i == 0) for i in range(rho)], 0.5, 0.0] for s in (-1, 1)]
        pair = companion_pair(rho)
        return dict(TINY_FCLT, experiment="fclt-toral", scenery={
            "variant": "toral", "pair": {"a1": [list(r) for r in pair.a1],
                                         "a2": [list(r) for r in pair.a2]},
            "poly": poly, "q_mod": 2**31 - 1})

    assert cli.validate_config(config(4)) == "fclt-toral"
    assert cli.main(["validate", write_config(tmp_path, config(5))]) == 1
    err = capsys.readouterr().err
    assert "config field scenery:" in err and "rho <= 4" in err


def test_defaults_stay_out_of_the_config(tmp_path):
    doc = dict(PATH_CHECK, experiment="moricz", n=16)
    before = json.dumps(doc, sort_keys=True)
    report, _, _ = cli.run_experiment(doc)
    assert report.g0_kind == "self_intersection"
    assert json.dumps(doc, sort_keys=True) == before
    out = str(tmp_path / "mo")
    assert cli.main(["run", write_config(tmp_path, doc), "--out", out]) == 0
    assert json.loads(open(os.path.join(out, "report.json")).read())["config"] == doc
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["config_hash"] == reportio.config_hash(doc)


def test_validate_reports_json_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"experiment": "fclt-iid",\n  "seed": }')
    assert cli.main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_validate_unknown_experiment(tmp_path, capsys):
    path = write_config(tmp_path, dict(TINY_FCLT, experiment="nope"))
    assert cli.main(["validate", path]) == 1
    assert "experiment" in capsys.readouterr().err


def test_run_writes_outputs_and_manifest(tmp_path):
    path = write_config(tmp_path, TINY_FCLT)
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out]) == 0
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["config_hash"] == reportio.config_hash(TINY_FCLT)
    assert manifest["master_seed"] == 99
    names = {o["path"] for o in manifest["outputs"]}
    assert "report.json" in names and "fclt_per_omega.csv" in names
    assert any(n.endswith(".svg") for n in names)
    for o in manifest["outputs"]:
        text = open(os.path.join(out, o["path"])).read()
        assert reportio.sha256_text(text) == o["sha256"]
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["experiment"] == "fclt-iid"
    assert report["passed"] in (True, False)


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, TINY_FCLT)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", path, "--out", out1]) == 0
    assert cli.main(["run", path, "--out", out2]) == 0
    m1 = json.loads(open(os.path.join(out1, "manifest.json")).read())
    m2 = json.loads(open(os.path.join(out2, "manifest.json")).read())
    assert m1["outputs"] == m2["outputs"]
    for o in m1["outputs"]:
        a = open(os.path.join(out1, o["path"]), "rb").read()
        b = open(os.path.join(out2, o["path"]), "rb").read()
        assert a == b


def test_replay_verifies_and_detects_tampering(tmp_path, capsys):
    path = write_config(tmp_path, TINY_FCLT)
    out = str(tmp_path / "orig")
    assert cli.main(["run", path, "--out", out]) == 0
    manifest_path = os.path.join(out, "manifest.json")
    assert cli.main(["replay", manifest_path, "--out", str(tmp_path / "rep")]) == 0
    doc = json.loads(open(manifest_path).read())
    doc["outputs"][0]["sha256"] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert cli.main(["replay", str(tampered), "--out", str(tmp_path / "rep2")]) == 2


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS caps its threads at the CPU count")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the float64 dgemm in scenery.field_increments rounds "
                          "with the BLAS blocking, which moves with the thread count")
def test_toral_report_does_not_depend_on_blas_threads(tmp_path):
    doc = cli.load_fixture("fclt_toral.json")
    doc.update(n_omegas=1, m_sceneries=256)
    path = write_config(tmp_path, doc)
    src = str(Path(cli.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "rwscenery.cli", "run", path,
                               "--out", str(out)], env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 2):
            pytest.fail(proc.stderr)
        hashes.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


def test_degenerate_config_reports_mode(tmp_path, capsys):
    doc = dict(TINY_FCLT, experiment="fclt-ma",
               scenery={"variant": "moving_average", "law": {"name": "rademacher"},
                        "coeffs": [{"q": [0, 0], "a": 1.0}, {"q": [1, 0], "a": -1.0}]})
    path = write_config(tmp_path, doc)
    assert cli.main(["run", path, "--out", str(tmp_path / "deg")]) == 0
    assert "degenerate-variance" in capsys.readouterr().out


def test_run_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 1
    # criterion failure propagates as exit 2

    class FailingReport:
        passed = False

        @staticmethod
        def to_dict():
            return {"passed": False}

    monkeypatch.setattr(harness, "run_fclt", lambda **fields: FailingReport)
    monkeypatch.setitem(cli.EXPERIMENTS, "fclt-iid",
                        cli.EXPERIMENTS["fclt-iid"]._replace(tables=lambda rep: ({}, {})))
    path = write_config(tmp_path, TINY_FCLT)
    assert cli.main(["run", path, "--out", str(tmp_path / "fail")]) == 2


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RWSCENERY_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, dict(TINY_FCLT, output={"charts": False}))
    assert cli.main(["run", path]) == 0
    assert os.path.exists(tmp_path / "envout" / "manifest.json")


def test_moricz_inapplicable_reports_only(tmp_path, capsys):
    # along a planar walk the windows revisit sites, so V > k and the
    # sqrt(3) k bound fails its hypothesis exactly: inapplicable, not failed
    doc = {"experiment": "moricz", "seed": 5, "walk": {"preset": "lazy2d"},
           "scenery": {"variant": "iid", "law": {"name": "rademacher"}},
           "n": 64, "g0_kind": "sqrt3k", "m_sceneries": 200}
    path = write_config(tmp_path, doc)
    assert cli.main(["run", path, "--out", str(tmp_path / "mo")]) == 0
    out = capsys.readouterr().out
    assert "report-only" in out
    report = json.loads(open(tmp_path / "mo" / "report.json").read())
    assert report["report"]["hypothesis_ok"] is False


def test_truncation_ladder_runs_the_period_2_walk_at_exact_c0(tmp_path, capsys):
    # the simple planar walk has period 2 and the exact C0 = 2 / pi all the same
    doc = dict(cli.load_fixture("truncation_ladder.json"), walk={"preset": "simple2d"},
               n=256, n_omegas=1)
    path = write_config(tmp_path, doc)
    assert cli.main(["validate", path]) == 0
    assert cli.main(["run", path, "--out", str(tmp_path / "tl")]) == 0
    report = json.loads(open(tmp_path / "tl" / "report.json").read())["report"]
    assert len(report["var_y1"]) == len(doc["terms_ladder"])
    assert all(v > 0 for v in report["var_y1"])
    # the top rung keeps all 8 terms: Var(S_n | omega) / (C0 n log n) at C0 = 2 / pi
    n = doc["n"]
    path = walk.sample_path(walk.build_walk_model(walk.simple_walk_law(2)), n,
                            harness._omega_seed(doc["seed"], 0))
    var = scenery.quenched_variance(cli._scenery("scenery", doc["scenery"]), path, (0, n))
    assert report["var_y1"][-1] == pytest.approx(var / (2 / math.pi * n * math.log(n)),
                                                 rel=1e-12)
