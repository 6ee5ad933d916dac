"""Command-line front end: fit, simulate, risk and diagnose.

Every command is a pure function of (config file, input files, seed): outputs
are byte-identical across re-runs.  The config is a single JSON document and
command-line flags override config keys.  All CSV outputs start with a
comment line echoing the effective configuration, and simulated catalogs are
written in the input schema plus provenance columns so they can be re-read by
any command.

Exit codes: 0 ok, 2 validation/input problems, 3 fit or runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import engine, evt, gam, risk
from .catalog import MIN_TRACK_POINTS, build_grid, load_catalog, pacf, read_text
from .errors import FitError, StormError, ValidationError

log = logging.getLogger(__name__)

DEFAULT_CONFIG = {
    "paths": {"catalog": None, "bundle": "bundle.json", "output_dir": ".", "simulated": None},
    "years_of_record": None,
    "fit": {},  # FitConfig field overrides
    "simulation": {"n_storms": 1000, "seed": None, "workers": 1, "max_age": 800,
                   "hazard_region": None},
    "risk": {
        "regions": [{"name": "uk", "lon_min": -11.0, "lon_max": 2.0,
                     "lat_min": 50.0, "lat_max": 60.0}],
        "omegas": [8.0, 10.0, 12.0, 13.36],
        "return_years": [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
        "bootstrap_b": 200,
        "grid_dlon": 4.0,
        "grid_dlat": 3.0,
        "cell_omega": 13.36,
        "seed": 0,
    },
    "diagnose": {"pacf_max_lag": 10, "mrl_points": 15, "qq_points": 99, "qq_boot": 200},
}


# What a key whose default is null holds when it is set.
_SET_VALUES = {
    "paths.catalog": "", "paths.simulated": "", "years_of_record": 1.0,
    "simulation.seed": 0, "simulation.hazard_region": [(0.0, 0.0)],
    "fit.u_laplace": 1.0, "fit.censored_resolution": 1.0,
}


def _check_config(value, default, key: str) -> None:
    """Raise ValidationError naming `key` unless `value` has the JSON shape of
    its default: an object holds every key of the default object (a region
    may omit its name), a list holds items shaped like the default's first
    item, a tuple stands for a list of exactly its items, a bool for true or
    false, a float for any finite number and an int for an integer.  A key
    whose default is null may also hold the shape that `_SET_VALUES` gives
    it."""
    if default is None:
        if value is None:
            return
        default = _SET_VALUES[key]
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValidationError(f"config {key} must be an object, got {value!r:.40}")
        for k, sub in default.items():
            if k in value:
                _check_config(value[k], sub, f"{key}.{k}".lstrip("."))
            elif k != "name":
                raise ValidationError(f"config {key} is missing {k!r}")
    elif isinstance(default, (list, tuple)):
        if not isinstance(value, list) or isinstance(default, tuple) and len(value) != len(default):
            size = f" of {len(default)} items" if isinstance(default, tuple) else ""
            raise ValidationError(f"config {key} must be a list{size}, got {value!r:.40}")
        for i, item in enumerate(value):
            _check_config(item, default[i] if isinstance(default, tuple) else default[0],
                          f"{key}[{i}]")
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ValidationError(f"config {key} must be a string, got {value!r:.40}")
    elif isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValidationError(f"config {key} must be true or false, got {value!r:.40}")
    else:
        ok = isinstance(value, int) and not isinstance(value, bool)
        if isinstance(default, float) and isinstance(value, float):
            ok = math.isfinite(value)
        if not ok:
            kind = "an integer" if isinstance(default, int) else "a finite number"
            raise ValidationError(f"config {key} must be {kind}, got {value!r:.40}")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        user = json.loads(read_text(p, "config"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ValidationError(f"config {path} is not a JSON object")
    config = _merge(DEFAULT_CONFIG, user)
    _check_config(config, DEFAULT_CONFIG, "")
    if config["simulation"]["max_age"] < MIN_TRACK_POINTS:
        # no storm could reach the minimum track length
        raise ValidationError(f"config simulation.max_age must be at least {MIN_TRACK_POINTS}")
    region = config["simulation"]["hazard_region"]
    if region is not None and len(region) < 3:
        # no point is inside a polygon of fewer vertices, so the hazard would never apply
        raise ValidationError("config simulation.hazard_region must have at least 3 vertices, "
                              f"got {len(region)}")
    for key in ("qq_boot", "mrl_points"):  # no bootstrap replicate, or no MRL threshold
        if config["diagnose"][key] < 1:
            raise ValidationError(f"config diagnose.{key} must be at least 1, "
                                  f"got {config['diagnose'][key]}")
    return config


def _config_echo(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True, separators=(",", ":"))


def _write_csv(path: Path, header: list[str], rows, config: dict, extra_comments=()):
    def fmt(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [_config_echo(config)]
    lines += list(extra_comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info("wrote %s (%d rows)", path, len(rows))


def _output_dir(config: dict) -> Path:
    """The output directory, made with its parents if missing."""
    out_dir = Path(config["paths"]["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValidationError(f"output_dir {out_dir} is not a directory") from exc
    return out_dir


def _output_file(out_dir: Path, name: str, key: str) -> Path:
    """`out_dir / name`, the output named by config paths.`key`, which must
    not be a directory."""
    path = out_dir / name
    if path.is_dir():
        raise ValidationError(f"{key} path {path} is a directory")
    return path


def _require_catalog(config: dict, key: str = "catalog"):
    path = config["paths"].get(key)
    if not path:
        raise ValidationError(f"no {key} path given (config paths.{key} or flag)")
    if not Path(path).exists():
        raise ValidationError(f"{key} file not found: {path}")
    return load_catalog(path, years_of_record=config.get("years_of_record"))


def _fit_config(config: dict) -> engine.FitConfig:
    """The FitConfig of the `fit` section, whose values must have the JSON
    shape of the fields' defaults (a tuple[X, ...] field's of any length)."""
    overrides = dict(config.get("fit", {}))
    hints = typing.get_type_hints(engine.FitConfig)
    for field in dataclasses.fields(engine.FitConfig):
        if field.name in overrides:
            value = overrides[field.name]
            shape = field.default
            if typing.get_args(hints[field.name])[-1:] == (Ellipsis,):
                shape = list(shape[:1])
            _check_config(value, shape, f"fit.{field.name}")
            if isinstance(value, list):
                overrides[field.name] = tuple(value)
    try:
        fit = engine.FitConfig(**overrides)
    except TypeError as exc:
        raise ValidationError(f"bad fit config: {exc}") from exc
    except ValidationError as exc:  # an unknown or repeated covariate
        raise ValidationError(f"config fit.{exc}") from exc
    for name in ("gcv_points", "gcv_sweeps"):  # 0 would search no smoothing parameter
        if getattr(fit, name) < 1:
            raise ValidationError(f"config fit.{name} must be at least 1, got {getattr(fit, name)}")
    return fit


def cmd_fit(config: dict) -> int:
    catalog = _require_catalog(config)
    fit_cfg = _fit_config(config)
    out_dir = _output_dir(config)
    bundle_path = _output_file(out_dir, config["paths"]["bundle"], "bundle")
    bundle = engine.fit_all(catalog, fit_cfg)
    engine.save_bundle(bundle, bundle_path)

    report_path = out_dir / "fit_report.txt"
    report_path.write_text(
        _config_echo(config) + "\n" + engine.fit_report(bundle), encoding="utf-8"
    )

    w = bundle.marginal.body.samples[:, 0]  # the pooled in-window W values
    grid = np.quantile(w, np.linspace(0.5, 0.995, config["diagnose"]["mrl_points"]))
    rows = evt.mean_residual_life(w, grid)
    _write_csv(out_dir / "mrl.csv",
               ["threshold", "n_exceed", "mean_excess", "lo95", "hi95"], rows, config)
    log.info("fit complete: bundle at %s", bundle_path)
    print(f"wrote {bundle_path}, {report_path}, {out_dir / 'mrl.csv'}")
    return 0


def _write_simulated(catalog, stats, path: Path, config: dict):
    rows = []
    for storm in catalog.storms:
        for i, p in enumerate(storm.points):
            tag = storm.sampler_tags[i] if storm.sampler_tags else ""
            rows.append((storm.id, p.time_index, p.lon, p.lat, p.vorticity,
                         storm.seed_token, tag, storm.termination_cause))
    _write_csv(
        path,
        ["storm_id", "time_index", "lon", "lat", "vorticity", "seed",
         "sampler_tag", "termination_cause"],
        rows, config,
        extra_comments=[f"# years_of_record: {catalog.years_of_record!r}"],
    )


def cmd_simulate(config: dict) -> int:
    sim = config["simulation"]
    if sim.get("seed") is None:
        raise ValidationError("simulate requires an explicit seed (--seed or simulation.seed)")
    if sim["workers"] < 1:
        raise ValidationError(f"config simulation.workers must be at least 1, got {sim['workers']}")
    bundle_path = Path(config["paths"]["output_dir"]) / config["paths"]["bundle"]
    if not bundle_path.exists():
        bundle_path = Path(config["paths"]["bundle"])
    if not bundle_path.exists():
        raise ValidationError(f"bundle not found: {bundle_path}")
    bundle = engine.load_bundle(bundle_path)
    out_dir = _output_dir(config)
    out_path = _output_file(out_dir, config["paths"].get("simulated") or "simulated.csv",
                            "simulated")
    region = sim.get("hazard_region")
    catalog, stats = engine.simulate_catalog(
        bundle, n=int(sim["n_storms"]), seed=int(sim["seed"]),
        workers=int(sim.get("workers", 1)), max_age=int(sim.get("max_age", 800)),
        hazard_region=[tuple(p) for p in region] if region else None,
    )
    _write_simulated(catalog, stats, out_path, config)
    causes = " ".join(f"{k}={v}" for k, v in sorted(stats["causes"].items()))
    print(f"simulated {stats['n']} storms (seed {stats['seed']}): {causes}; "
          f"rejected attempts {stats['rejected_attempts']}; wrote {out_path}")
    return 0


def _risk_catalog(config: dict):
    paths = config["paths"]
    if paths.get("simulated") and Path(paths["simulated"]).exists():
        return load_catalog(paths["simulated"], years_of_record=None)
    return _require_catalog(config)


def cmd_risk(config: dict) -> int:
    catalog = _risk_catalog(config)
    rcfg = config["risk"]
    out_dir = _output_dir(config)
    seed = int(rcfg.get("seed", 0))
    n_boot = int(rcfg["bootstrap_b"])

    regions = [
        (r.get("name", f"region{i}"),
         risk.Region(r["lon_min"], r["lon_max"], r["lat_min"], r["lat_max"]))
        for i, r in enumerate(rcfg["regions"])
    ]

    exc_rows, lvl_rows, per_rows = [], [], []
    for name, region in regions:
        for omega in rcfg["omegas"]:
            try:
                res = risk.exceedance_prob(catalog, region, omega, n_boot=n_boot, seed=seed)
                lo, hi = res.ci if res.ci else (float("nan"), float("nan"))
                exc_rows.append((name, omega, res.estimate, lo, hi, res.n_num, res.n_den))
                per = risk.return_period(catalog, region, omega, n_boot=n_boot, seed=seed)
                plo, phi = per.ci if per.ci else (float("nan"), float("nan"))
                per_rows.append((name, omega, per.estimate, plo, phi, per.note))
            except risk.UndefinedRegionError:
                log.warning("region %s has no catalog points; writing NA row", name)
                exc_rows.append((name, omega, float("nan"), float("nan"), float("nan"), 0, 0))
                per_rows.append((name, omega, float("nan"), float("nan"), float("nan"), "undefined-region"))
        for r_years in rcfg["return_years"]:
            try:
                lvl = risk.return_level(catalog, region, r_years, n_boot=n_boot, seed=seed)
                lo, hi = lvl.ci if lvl.ci else (float("nan"), float("nan"))
                lvl_rows.append((name, r_years, lvl.estimate, lo, hi, lvl.note))
            except risk.UndefinedRegionError:
                lvl_rows.append((name, r_years, float("nan"), float("nan"), float("nan"), "undefined-region"))

    _write_csv(out_dir / "exceedance.csv",
               ["region", "omega", "prob", "lo95", "hi95", "n_exceed", "n_points"],
               exc_rows, config)
    _write_csv(out_dir / "return_periods.csv",
               ["region", "omega", "years", "lo95", "hi95", "note"], per_rows, config)
    _write_csv(out_dir / "return_levels.csv",
               ["region", "r_years", "omega", "lo95", "hi95", "note"], lvl_rows, config)

    # per-cell return-period map on the risk grid
    cell_grid = build_grid(catalog, dlon=float(rcfg["grid_dlon"]), dlat=float(rcfg["grid_dlat"]))
    omega = float(rcfg["cell_omega"])
    cell_rows = [
        (cell[0], cell[1], lon_c, lat_c, omega, years, note)
        for cell, lon_c, lat_c, years, note in risk.cell_return_periods(catalog, cell_grid, omega)
    ]
    _write_csv(out_dir / "cell_return_periods.csv",
               ["cell_i", "cell_j", "lon", "lat", "omega", "years", "note"],
               cell_rows, config)
    print(f"wrote risk tables to {out_dir}")
    return 0


def cmd_diagnose(config: dict) -> int:
    catalog = _require_catalog(config)
    dcfg = config["diagnose"]
    out_dir = _output_dir(config)

    # per-variable PACF averaged over storms long enough for the lag window
    max_lag = int(dcfg["pacf_max_lag"])
    pacf_rows = []
    for name in ("speed", "direction", "vorticity"):
        getter = risk.VARIABLE_GETTERS[name]
        vals = []
        for storm in catalog.storms:
            series = getter(storm)
            if series.size > max_lag + 1 and np.ptp(series) > 0:
                vals.append(pacf(series, max_lag))
        if vals:
            mean = np.mean(vals, axis=0)
            for lag in range(max_lag + 1):
                pacf_rows.append((name, lag, float(mean[lag]), len(vals)))
    _write_csv(out_dir / "pacf.csv", ["variable", "lag", "pacf", "n_storms"], pacf_rows, config)

    fit_cfg = _fit_config(config)
    fit_grid = build_grid(catalog, dlon=fit_cfg.grid_dlon, dlat=fit_cfg.grid_dlat,
                          lon0=fit_cfg.grid_lon0, lat0=fit_cfg.grid_lat0)
    for subset in ("all", "genesis", "lysis"):
        rows = [
            (c[0], c[1], lon, lat, dens)
            for (c, lon, lat, dens) in risk.spatial_density(catalog, fit_grid, subset=subset)
        ]
        _write_csv(out_dir / f"density_{subset}.csv",
                   ["cell_i", "cell_j", "lon", "lat", "density"], rows, config)

    # raw-vorticity mean residual life table
    w = np.concatenate([s.vorticities for s in catalog.storms])
    grid = np.quantile(w, np.linspace(0.5, 0.995, int(dcfg["mrl_points"])))
    _write_csv(out_dir / "mrl_vorticity.csv",
               ["threshold", "n_exceed", "mean_excess", "lo95", "hi95"],
               evt.mean_residual_life(w, grid), config)

    sim_path = config["paths"].get("simulated")
    if sim_path and Path(sim_path).exists():
        sim = load_catalog(sim_path, years_of_record=None)
        probs = np.linspace(0.01, 0.99, int(dcfg["qq_points"]))
        for name in risk.VARIABLE_GETTERS:
            rows = risk.catalog_qq_envelope(catalog, sim, name, probs,
                                            n_boot=int(dcfg["qq_boot"]), seed=0)
            _write_csv(out_dir / f"qq_{name}.csv",
                       ["p", "observed", "simulated", "lo95", "hi95", "inside"], rows, config)
    else:
        log.warning("no simulated catalog available; skipping QQ tables")
    print(f"wrote diagnostics to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormsim",
        description="Fit, simulate and analyse stochastic extratropical storm tracks.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fit", "fit a model bundle from a track catalog"),
        ("simulate", "simulate synthetic storms from a fitted bundle"),
        ("risk", "exceedance/return-level tables from a catalog"),
        ("diagnose", "PACF, density, MRL and QQ diagnostic tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--catalog", default=None, help="track catalog CSV")
        p.add_argument("--bundle", default=None, help="model bundle JSON path")
        p.add_argument("--output-dir", default=None, help="directory for outputs")
        p.add_argument("--simulated", default=None, help="simulated catalog CSV path")
        p.add_argument("--years", type=float, default=None, help="catalog years of record")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="simulation seed (required)")
            p.add_argument("--n-storms", type=int, default=None)
            p.add_argument("--workers", type=int, default=None)
    return parser


def _apply_flags(config: dict, args: argparse.Namespace) -> dict:
    paths = {}
    for flag, key in (("catalog", "catalog"), ("bundle", "bundle"),
                      ("output_dir", "output_dir"), ("simulated", "simulated")):
        val = getattr(args, flag, None)
        if val is not None:
            paths[key] = val
    override: dict = {"paths": paths} if paths else {}
    if getattr(args, "years", None) is not None:
        override["years_of_record"] = args.years
    sim = {}
    for flag, key in (("seed", "seed"), ("n_storms", "n_storms"), ("workers", "workers")):
        val = getattr(args, flag, None)
        if val is not None:
            sim[key] = val
    if sim:
        override["simulation"] = sim
    return _merge(config, override)


COMMANDS = {"fit": cmd_fit, "simulate": cmd_simulate, "risk": cmd_risk, "diagnose": cmd_diagnose}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _apply_flags(load_config(args.config), args)
        return COMMANDS[args.command](config)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except StormError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
