"""Config-driven experiment runner with reproducibility bookkeeping.

Commands:

    rwscenery run <config.json> [--out DIR]
    rwscenery list [--json]
    rwscenery validate <config.json>
    rwscenery replay <manifest.json> [--out DIR]

A run writes a canonical JSON report, CSV series, optional SVG charts, and
a manifest holding a content hash of the canonicalized config.  Reruns
with the same config and seed produce byte-identical payload files; only
the manifest's timestamp differs.  Exit codes: 0 pass (or report-only),
2 criterion failure, 1 error.  RWSCENERY_OUT sets the default output dir.

``EXPERIMENTS`` is the one registry: each entry declares its config fields
(with every default), names the ``harness`` runner that takes exactly those
fields by keyword, the tables that turn its report into CSV series and SVG
charts, and the runner's own rules, which ``validate`` applies without
running.  The report's ``passed`` decides the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from importlib import resources
from typing import Callable, NamedTuple

from . import __version__, harness, reportio, scenery, walk


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


WALK_PRESETS = {
    "lazy2d": walk.lazy_walk_law_2d,
    "simple2d": lambda: walk.simple_walk_law(2),
    "simple3d": lambda: walk.simple_walk_law(3),
    "det1d": lambda: walk.deterministic_law((1,)),
}


def load_fixture(name: str) -> dict:
    with resources.files("rwscenery.fixtures").joinpath(name).open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# field parsers: each maps (field, JSON value) to the value a runner takes, or
# raises ConfigError naming the field


def _integer(field, v):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(field, f"expected an integer, got {v!r}")
    return v


def _number(field, v):
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(field, f"expected a number, got {v!r}")
    return float(v)


def _check(parse, ok, message):
    """``parse``, then require ``ok`` of the parsed value."""
    def checked(field, v):
        v = parse(field, v)
        if not ok(v):
            raise ConfigError(field, message)
        return v
    return checked


def _at_least(lo):
    return _check(_integer, lambda v: v >= lo, f"must be an integer >= {lo}")


def _steps(lo):
    """A walk length: at least ``lo`` and at most ``walk.MAX_STEPS``."""
    return _check(_integer, lambda v: lo <= v <= walk.MAX_STEPS,
                  f"must be an integer in [{lo}, {walk.MAX_STEPS}]")


def _list(item):
    def parse(field, v):
        if not isinstance(v, list) or not v:
            raise ConfigError(field, "expected a nonempty list")
        return [item(f"{field}[{i}]", x) for i, x in enumerate(v)]
    return parse


def _object(field, v):
    if not isinstance(v, dict):
        raise ConfigError(field, "expected an object")
    return v


def _output(field, v):
    charts = _object(field, v).get("charts", False)
    if not isinstance(charts, bool):
        raise ConfigError(f"{field}.charts", "expected true or false")
    return charts


def _walk(field, doc):
    if "preset" in _object(field, doc):
        preset = doc["preset"]
        if not isinstance(preset, str) or preset not in WALK_PRESETS:
            raise ConfigError(f"{field}.preset", f"unknown preset {preset!r}")
        return walk.build_walk_model(WALK_PRESETS[preset]())
    if "atoms" not in doc:
        raise ConfigError(field, "needs 'preset' or 'atoms'")
    try:
        law = walk.increment_law([(tuple(a["site"]), a["prob"]) for a in doc["atoms"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{field}.atoms", str(exc))
    return walk.build_walk_model(law)


def _scenery(field, doc):
    if "variant" not in _object(field, doc):
        raise ConfigError(field, "needs a 'variant'")
    try:
        if doc.get("pair") == "bundled-sl3":
            doc = dict(doc, pair=load_fixture("toral_pair_sl3.json"))
        return scenery.scenery_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(field, str(exc))


_N_LADDER = _check(_list(_steps(2)),  # rungs are normalized by log n, zero at n = 1
                   lambda ns: all(a < b for a, b in zip(ns, ns[1:])), "must increase strictly")
# lags of a planar walk: both consumers (LLN, orthogonality) are 2-d only
_P_SET = _list(_check(_list(_integer), lambda p: len(p) == 2, "expected 2 integers"))

# Field specs: field -> parser (required) or (parser, JSON default).  Defaults
# are parsed like given values and never written into the config.
_COMMON = {"seed": _integer, "output": (_output, {})}
_FCLT = {"walk": _walk, "scenery": _scenery, "t_grid": _list(_number),
         "m_sceneries": _at_least(100), "n_omegas": _at_least(1),  # KS tests: 100 x-draws
         "n": _steps(2)}  # Y_n is normalized by sqrt(n log n)
_SCALED = {"walk": _walk, "scenery": _scenery, "n": _steps(2), "n_omegas": _at_least(1)}
_LADDER = {"walk": _walk, "n_ladder": _N_LADDER, "n_omegas": _at_least(1)}
_PATH = {"walk": _walk, "scenery": _scenery, "n": _steps(1),
         "m_sceneries": _at_least(1)}
# moricz and transient-variance estimate a variance over the scenery draws
# (and transient-variance its standard errors over the omegas)
_PATH_VAR = {**_PATH, "m_sceneries": _at_least(2)}


# ---------------------------------------------------------------------------
# experiment tables: report -> (series, charts)


def _fclt_tables(rep):
    rows = []
    for o in rep.per_omega:
        for j in range(len(rep.t_grid)):
            rows.append([o.omega_index, j,
                         o.ks_stat[j] if o.ks_stat else "",
                         o.ks_pvalue[j] if o.ks_pvalue else "",
                         o.variance_ratio[j], o.offdiag_max,
                         o.exact_var_y1, o.mc_var_y1])
    series = {"fclt_per_omega.csv": reportio.csv_text(
        ["omega", "window", "ks_stat", "ks_pvalue", "variance_ratio",
         "offdiag_max", "exact_var_y1", "mc_var_y1"], rows)}
    charts = {}
    if rep.per_omega and not rep.degenerate:
        xs = list(range(len(rep.t_grid)))
        charts["fclt_variance_ratio.svg"] = reportio.svg_line_chart(
            xs, {"mean ratio": [
                sum(o.variance_ratio[j] for o in rep.per_omega) / len(rep.per_omega)
                for j in xs]},
            title="window variance ratio", xlabel="window", ylabel="ratio")
    return series, charts


def _variance_ladder_tables(rep):
    ns, vals = rep.n_ladder, rep.pooled_exact_var_y1
    series = {"variance_ladder.csv": reportio.csv_text(["n", "pooled_exact_var_y1"],
                                                       list(zip(ns, vals)))}
    charts = {"variance_ladder.svg": reportio.svg_line_chart(
        [math.log2(n) for n in ns], {"Var Y_n(1)": vals},
        title="variance collapse along the ladder", xlabel="log2 n", ylabel="Var")}
    return series, charts


def _lln_tables(rep):
    rows = [[n, f"({p[0]};{p[1]})", rep.mean_ratio[(n, p)], rep.std_ratio[(n, p)],
             rep.max_ratio[(n, p)]] for n in rep.n_ladder for p in rep.p_set]
    series = {"lln_ratios.csv": reportio.csv_text(
        ["n", "p", "mean_ratio", "std_ratio", "max_ratio"], rows)}
    charts = {"lln_ratios.svg": reportio.svg_line_chart(
        [math.log2(n) for n in rep.n_ladder],
        {str(p): [rep.mean_ratio[(n, p)] for n in rep.n_ladder] for p in rep.p_set},
        title="V_n / (C0 n log n)", xlabel="log2 n", ylabel="mean ratio")}
    return series, charts


def _orthogonality_tables(rep):
    rows = [[n, f"({p[0]};{p[1]})", rep.mean_normalized[(n, p)]]
            for n in rep.n_ladder for p in rep.p_set]
    series = {"cross_counts.csv": reportio.csv_text(
        ["n", "p", "mean_normalized"], rows)}
    charts = {"cross_counts.svg": reportio.svg_line_chart(
        [math.log2(n) for n in rep.n_ladder],
        {str(p): [rep.mean_normalized[(n, p)] for n in rep.n_ladder]
         for p in rep.p_set},
        title="cross-window counts / (n log n)", xlabel="log2 n", ylabel="mean")}
    return series, charts


def _erdos_taylor_tables(rep):
    rows = [[n, rep.mean_log_ratio[n], *rep.quantiles_log_ratio[n],
             rep.mean_power_ratio[n], rep.distance_to_limit[n]]
            for n in rep.n_ladder]
    series = {"sup_local_time.csv": reportio.csv_text(
        ["n", "mean_log_ratio", "q10", "q50", "q90", "mean_power_ratio",
         "distance_to_one_over_pi"], rows)}
    charts = {"sup_local_time.svg": reportio.svg_line_chart(
        [math.log2(n) for n in rep.n_ladder],
        {"sup w / log^2 n": [rep.mean_log_ratio[n] for n in rep.n_ladder],
         "1/pi": [1.0 / math.pi] * len(rep.n_ladder)},
        title="sup local time tracker", xlabel="log2 n", ylabel="ratio")}
    return series, charts


def _newman_wright_tables(rep):
    rows = list(zip(rep.lambdas, rep.lhs, rep.rhs, rep.lhs_se, rep.rhs_se,
                    rep.margins, rep.violations))
    series = {"newman_wright.csv": reportio.csv_text(
        ["lambda", "lhs", "rhs", "lhs_se", "rhs_se", "margin", "violation"], rows)}
    return series, {}


def _moricz_tables(rep):
    rows = [[b, k, e, s, bd, mg] for (b, k), e, s, bd, mg in zip(
        [tuple(w) for w in rep.windows], rep.m4_estimates, rep.m4_se,
        rep.bounds, rep.margins)]
    series = {"moricz.csv": reportio.csv_text(
        ["b", "k", "m4_estimate", "m4_se", "bound", "margin"], rows)}
    return series, {}


def _tightness_tables(rep):
    rows = [[d, rep.estimates[d]] for d in rep.delta_ladder]
    series = {"tightness.csv": reportio.csv_text(["delta", "estimate"], rows)}
    charts = {"tightness.svg": reportio.svg_line_chart(
        rep.delta_ladder, {"mu(modulus >= eps)": [rep.estimates[d]
                                                  for d in rep.delta_ladder]},
        title="modulus of continuity", xlabel="delta", ylabel="probability")}
    return series, charts


def _transient_tables(rep):
    series = {"transient_variance.csv": reportio.csv_text(
        ["series_value", "exact_mean", "exact_se", "mc_mean", "mc_se"],
        [[rep.series_value, rep.exact_mean, rep.exact_se, rep.mc_mean, rep.mc_se]])}
    return series, {}


def _truncation_ladder_tables(rep):
    rows = list(zip(rep.terms_ladder, rep.norm_c_dropped, rep.density_sup_bound,
                    rep.var_y1))
    series = {"truncation_ladder.csv": reportio.csv_text(
        ["terms", "norm_c_dropped", "density_sup_bound", "var_y1"], rows)}
    return series, {}


class Experiment(NamedTuple):
    anchor: str        # the result the experiment exercises
    fields: dict       # field spec, on top of _COMMON
    runner: str        # harness.<runner>(**parsed fields) -> report
    tables: Callable   # tables(report) -> (series, charts)
    rules: dict        # field (or a tuple of fields, the first named on failure)
                       # -> the runner's own check of the parsed values


_PLANAR = {"walk": harness.require_planar_recurrent}
_FCLT_RULES = {**_PLANAR, ("t_grid", "n"): harness.require_t_grid}


EXPERIMENTS = {
    "fclt-iid": Experiment("quenched FCLT for i.i.d. sceneries along a planar walk",
                           _FCLT, "run_fclt", _fclt_tables, _FCLT_RULES),
    "fclt-ma": Experiment("quenched FCLT for moving-average sceneries (variance |sum a_q|^2 / (pi sqrt det Sigma))",
                          _FCLT, "run_fclt", _fclt_tables, _FCLT_RULES),
    "fclt-toral": Experiment("quenched FCLT for commuting toral automorphism fields",
                             _FCLT, "run_fclt", _fclt_tables, _FCLT_RULES),
    "variance-ladder": Experiment("variance collapse for degenerate moving averages",
                                  {**_LADDER, "scenery": _scenery}, "track_variance_ladder",
                                  _variance_ladder_tables, _PLANAR),
    "lln-variance": Experiment("law of large numbers for self-intersection counts V_n / (C0 n log n) -> 1",
                               {**_LADDER, "p_set": _P_SET}, "track_variance_lln", _lln_tables,
                               _PLANAR),
    "orthogonality": Experiment("asymptotic orthogonality of cross-interval coincidence counts",
                                {**_LADDER, "windows": _list(_number), "p_set": _P_SET},
                                "check_increment_orthogonality", _orthogonality_tables,
                                {"walk": harness.require_planar,
                                 "windows": harness.require_windows}),
    "erdos-taylor": Experiment("Erdos-Taylor / Dembo-Peres-Rosen-Zeitouni sup local time limit 1/pi",
                               {**_LADDER, "epsilon": (_number, 0.1)}, "track_erdos_taylor",
                               _erdos_taylor_tables, {"walk": harness.require_aperiodic_planar}),
    "newman-wright": Experiment("Newman-Wright maximal inequality for associated summands",
                                {**_PATH, "lambda_grid": _list(_number)}, "check_newman_wright",
                                _newman_wright_tables,
                                {"scenery": harness.require_associated,
                                 ("n", "m_sceneries"): harness.require_newman_wright_memory}),
    "moricz": Experiment("Moricz fourth-moment maximal bound with C_max = (1 - 2^-1/4)^-4",
                         # the bound is checked on dyadic windows of k >= 8 steps
                         {**_PATH_VAR, "n": _steps(8),
                          "g0_kind": (lambda field, v: v, "self_intersection")},
                         "check_moricz", _moricz_tables,
                         {"scenery": harness.require_iid, "g0_kind": harness.require_g0_kind,
                          ("n", "m_sceneries"): harness.require_moricz_memory}),
    "tightness": Experiment("modulus-of-continuity tightness estimates for the rescaled process",
                            {**_SCALED, "m_sceneries": _at_least(100),
                             "delta_ladder": _list(_number), "epsilon": _number,
                             "grid_points": (_at_least(1), 128)}, "estimate_tightness_modulus",
                            _tightness_tables, _PLANAR),
    "transient-variance": Experiment("asymptotic variance sum_l a_l I(l) of transient walks, a spectral integral",
                                     {**_PATH_VAR, "n_omegas": (_at_least(2), 10)},
                                     "transient_variance_check",
                                     _transient_tables, {"walk": harness.require_transient}),
    "truncation-ladder": Experiment("trig-polynomial approximation ladder for toral observables",
                                    {**_SCALED, "terms_ladder": _list(_at_least(1))},
                                    "run_truncation_ladder", _truncation_ladder_tables,
                                    {**_PLANAR, "scenery": harness.require_toral}),
}


def _experiment(field, v):
    if not isinstance(v, str) or v not in EXPERIMENTS:
        raise ConfigError(field, f"unknown experiment {v!r}; see 'rwscenery list'")
    return v


def _field(doc, field, spec):
    parse, *default = spec if isinstance(spec, tuple) else (spec,)
    if field in doc:
        return parse(field, doc[field])
    if not default:
        raise ConfigError(field, "required field is missing")
    return parse(field, default[0])


def _parse(doc) -> tuple:
    """(experiment name, {field: parsed value}) for every field of the spec,
    once each parsed value has passed the runner's rules for it."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "top-level config must be an object")
    name = _field(doc, "experiment", _experiment)
    spec = {**_COMMON, **EXPERIMENTS[name].fields}
    values = {f: _field(doc, f, s) for f, s in spec.items()}
    rules = dict(EXPERIMENTS[name].rules)
    if {"walk", "scenery"} <= spec.keys():  # after the runner's rules: a bad walk is named first
        rules[("scenery", "walk")] = harness.require_scenery_dimension
    for fields, rule in rules.items():
        fields = (fields,) if isinstance(fields, str) else fields
        try:
            rule(*(values[f] for f in fields))
        except ValueError as exc:
            raise ConfigError(fields[0], str(exc)) from None
    return name, values


def validate_config(doc: dict) -> str:
    """Parse every field without running; raise ConfigError naming the first
    bad field, or return the experiment name."""
    return _parse(doc)[0]


def run_experiment(doc: dict):
    """Parse ``doc`` once and run it: (report, series, charts); the charts are
    empty unless ``output.charts`` asks for them."""
    name, values = _parse(doc)
    want_charts = values.pop("output")
    exp = EXPERIMENTS[name]
    # looked up at call time, so a wrapper installed on the harness module runs
    report = getattr(harness, exp.runner)(**values)
    series, charts = exp.tables(report)
    return report, series, charts if want_charts else {}


# ---------------------------------------------------------------------------
# commands


def _out_dir(args) -> str:
    out = args.out or os.environ.get("RWSCENERY_OUT") or "rwscenery-out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_outputs(out_dir: str, doc: dict, report, series: dict, charts: dict) -> dict:
    payloads = {"report.json": reportio.canonical_json(
        {"experiment": doc["experiment"], "config": doc,
         "artifact_version": __version__, "report": report.to_dict(),
         "passed": getattr(report, "passed", None)}), **series, **charts}
    outputs = []
    for fname, text in sorted(payloads.items()):
        path = os.path.join(out_dir, fname)
        with open(path, "w") as fh:
            fh.write(text)
        outputs.append({"path": fname, "sha256": reportio.sha256_text(text)})
    manifest = {
        "artifact_version": __version__,
        "config": doc,
        "config_hash": reportio.config_hash(doc),
        "master_seed": doc["seed"],
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(reportio.canonical_json(manifest))
    return manifest


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from None


def cmd_run(args) -> int:
    doc = _read_json(args.config)
    report, series, charts = run_experiment(doc)
    out = _out_dir(args)
    _write_outputs(out, doc, report, series, charts)
    passed = getattr(report, "passed", None)
    if passed is None:
        mode = "degenerate-variance" if getattr(report, "degenerate", False) \
            else "report-only"
        print(f"{doc['experiment']}: completed ({mode}); outputs in {out}")
        return 0
    print(f"{doc['experiment']}: {'PASS' if passed else 'FAIL'}; outputs in {out}")
    return 0 if passed else 2


def cmd_list(args) -> int:
    if args.json:
        doc = [{"name": k, "anchor": e.anchor} for k, e in sorted(EXPERIMENTS.items())]
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    width = max(len(k) for k in EXPERIMENTS)
    print("experiment catalog (name -> result it exercises):")
    for name, e in sorted(EXPERIMENTS.items()):
        print(f"  {name:<{width}}  {e.anchor}")
    return 0


def cmd_validate(args) -> int:
    print(f"ok: valid {validate_config(_read_json(args.config))} config")
    return 0


def cmd_replay(args) -> int:
    manifest = _read_json(args.manifest)
    doc = manifest["config"]
    if reportio.config_hash(doc) != manifest["config_hash"]:
        print("error: manifest config hash mismatch", file=sys.stderr)
        return 1
    report, series, charts = run_experiment(doc)
    new_manifest = _write_outputs(_out_dir(args), doc, report, series, charts)
    old = {o["path"]: o["sha256"] for o in manifest["outputs"]}
    new = {o["path"]: o["sha256"] for o in new_manifest["outputs"]}
    if old == new:
        print(f"replay: byte-identical payloads ({len(new)} files)")
        return 0
    diff = sorted(set(old) ^ set(new) | {p for p in old.keys() & new.keys()
                                         if old[p] != new[p]})
    print(f"replay: MISMATCH in {diff}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rwscenery",
        description="experiment runner for random-field sums along lattice walks")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)
    p_list = sub.add_parser("list", help="print the experiment catalog")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(fn=cmd_list)
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)
    p_rep = sub.add_parser("replay", help="rerun a manifest and verify bytes")
    p_rep.add_argument("manifest")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(fn=cmd_replay)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config field {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - uniform CLI error surface
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
