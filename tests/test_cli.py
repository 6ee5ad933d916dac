import base64
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stormsim.catalog import load_catalog, pacf
from stormsim.cli import _fit_config, main
from stormsim.engine import FitConfig, load_bundle
from stormsim.toydata import make_catalog

from conftest import fast_config


def write_toy_csv(path: Path, n_storms=120, seed=42):
    cat = make_catalog(n_storms=n_storms, seed=seed)
    lines = [f"# years_of_record: {cat.years_of_record!r}",
             "storm_id,time_index,lon,lat,vorticity"]
    for storm in cat.storms:
        for p in storm.points:
            lines.append(f"{storm.id},{p.time_index},{p.lon!r},{p.lat!r},{p.vorticity!r}")
    path.write_text("\n".join(lines) + "\n")
    return cat


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A fitted bundle plus catalog CSV shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    write_toy_csv(root / "catalog.csv")
    config = {
        "paths": {"catalog": str(root / "catalog.csv"), "output_dir": str(root),
                  "simulated": str(root / "simulated.csv")},
        "fit": {
            "gpd_threshold": 1.2, "min_preproc_points": 500, "min_condex_events": 30,
            "gcv_points": 7, "gcv_sweeps": 1, "allow_quadratic_preproc": False,
        },
        "simulation": {"n_storms": 30},
        "risk": {"omegas": [3.0, 5.0], "return_years": [0.5, 1.0, 2.0], "bootstrap_b": 200,
                 "cell_omega": 5.0},
        "diagnose": {"pacf_max_lag": 5, "mrl_points": 8, "qq_points": 19, "qq_boot": 50},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["fit", "--config", str(cfg_path)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--seed", "7"]) == 0
    return root, cfg_path


def test_fit_missing_catalog_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"paths": {"catalog": str(tmp_path / "nope.csv")}}))
    assert main(["fit", "--config", str(cfg)]) == 2
    assert "nope.csv" in capsys.readouterr().err


def test_fit_outputs(workdir):
    root, _ = workdir
    assert (root / "bundle.json").exists()
    report = (root / "fit_report.txt").read_text()
    assert "markov order k: 3" in report
    assert report.startswith("# config:")
    mrl = (root / "mrl.csv").read_text()
    assert mrl.startswith("# config:")
    assert mrl.splitlines()[1].startswith("threshold")


def test_fit_deterministic_bundle(workdir, tmp_path):
    root, cfg_path = workdir
    first = (root / "bundle.json").read_bytes()
    out2 = tmp_path / "again"
    assert main(["fit", "--config", str(cfg_path), "--output-dir", str(out2)]) == 0
    assert (out2 / "bundle.json").read_bytes() == first


def test_simulate_requires_seed(workdir, capsys):
    root, cfg_path = workdir
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_reproducible_and_counted(workdir, capsys):
    root, cfg_path = workdir
    assert main(["simulate", "--config", str(cfg_path), "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "simulated 30 storms" in out and "hazard=" in out
    first = (root / "simulated.csv").read_bytes()
    cat = load_catalog(root / "simulated.csv")
    assert len(cat) == 30
    assert main(["simulate", "--config", str(cfg_path), "--seed", "7"]) == 0
    assert (root / "simulated.csv").read_bytes() == first


def test_simulate_worker_invariance(workdir, tmp_path):
    root, cfg_path = workdir
    out1, out2 = tmp_path / "w1", tmp_path / "w4"

    def data_rows(path):
        # drop comment lines: the config echo legitimately differs (workers)
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    assert main(["simulate", "--config", str(cfg_path), "--seed", "9",
                 "--output-dir", str(out1), "--bundle", str(root / "bundle.json"),
                 "--simulated", "sim.csv"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--seed", "9", "--workers", "4",
                 "--output-dir", str(out2), "--bundle", str(root / "bundle.json"),
                 "--simulated", "sim.csv"]) == 0
    assert data_rows(out1 / "sim.csv") == data_rows(out2 / "sim.csv")


def test_risk_tables(workdir):
    root, cfg_path = workdir
    assert main(["risk", "--config", str(cfg_path)]) == 0
    for name in ("exceedance.csv", "return_periods.csv", "return_levels.csv",
                 "cell_return_periods.csv"):
        text = (root / name).read_text()
        assert text.startswith("# config:")
        assert len(text.splitlines()) > 2
    # spot-check against the risk module on the same catalog
    from stormsim.risk import Region, exceedance_prob

    cat = load_catalog(root / "simulated.csv")
    line = next(
        l for l in (root / "exceedance.csv").read_text().splitlines()
        if l.startswith("uk,3.0,")
    )
    got = float(line.split(",")[2])
    want = exceedance_prob(cat, Region(), 3.0, n_boot=0).estimate
    assert got == want


def test_risk_undefined_region_na_row_exit_0(workdir, tmp_path):
    root, cfg_path = workdir
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["risk"]["regions"] = [{"name": "nowhere", "lon_min": 150.0, "lon_max": 160.0,
                               "lat_min": -10.0, "lat_max": 0.0}]
    cfg["paths"]["output_dir"] = str(tmp_path)
    alt = tmp_path / "cfg.json"
    alt.write_text(json.dumps(cfg))
    assert main(["risk", "--config", str(alt)]) == 0
    text = (tmp_path / "exceedance.csv").read_text()
    assert "nan" in text


def test_diagnose_outputs(workdir):
    root, cfg_path = workdir
    assert main(["diagnose", "--config", str(cfg_path)]) == 0
    pacf_text = (root / "pacf.csv").read_text().splitlines()
    assert pacf_text[1] == "variable,lag,pacf,n_storms"
    for subset in ("all", "genesis", "lysis"):
        rows = (root / f"density_{subset}.csv").read_text().splitlines()[2:]
        total = sum(float(r.split(",")[4]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)
    # QQ tables exist because the simulated catalog was written earlier
    qq = (root / "qq_speed.csv").read_text().splitlines()
    assert qq[1] == "p,observed,simulated,lo95,hi95,inside"


def test_diagnose_pacf_matches_module(workdir):
    root, _ = workdir
    cat = load_catalog(root / "catalog.csv")
    rows = [l.split(",") for l in (root / "pacf.csv").read_text().splitlines()[2:]]
    speed_rows = {int(r[1]): float(r[2]) for r in rows if r[0] == "speed"}
    vals = []
    for storm in cat.storms:
        if storm.speeds.size > 6 and np.ptp(storm.speeds) > 0:
            vals.append(pacf(storm.speeds, 5))
    want = np.mean(vals, axis=0)
    for lag in range(6):
        assert speed_rows[lag] == pytest.approx(want[lag], abs=1e-12)


def test_qq_identical_samples_inside_bands(workdir, tmp_path):
    root, cfg_path = workdir
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["paths"]["simulated"] = cfg["paths"]["catalog"]  # observed vs itself
    cfg["paths"]["output_dir"] = str(tmp_path)
    alt = tmp_path / "cfg.json"
    alt.write_text(json.dumps(cfg))
    assert main(["diagnose", "--config", str(alt)]) == 0
    rows = (tmp_path / "qq_vorticity.csv").read_text().splitlines()[2:]
    inside = [r.split(",")[5] == "True" for r in rows]
    assert all(inside)


def test_bad_config_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fit", "--config", str(bad)]) == 2


def _bundle_variants(text):
    doc = json.loads(text)
    hazard = doc["hazard"]
    no_grid = {k: v for k, v in doc.items() if k != "grid"}
    packed = doc["genesis_location"]["samples"]
    n, d = packed["shape"]
    raw = base64.b64decode(packed["base64"])

    def with_samples(**fields):
        samples = {**packed, **fields}
        return json.dumps({**doc, "genesis_location": {**doc["genesis_location"],
                                                       "samples": samples}})

    def with_value(value):
        data = np.frombuffer(raw, dtype="<f8").copy()
        data[1] = value
        return with_samples(base64=base64.b64encode(data.tobytes()).decode())

    knots = hazard["bases"][0]["knots"]

    def with_basis(**fields):
        return json.dumps({**doc, "hazard": {**hazard, "bases": [{**hazard["bases"][0], **fields}]
                                                      + hazard["bases"][1:]}})

    return {
        "truncated": (text[: len(text) // 2], "not valid JSON"),
        "not-json": ("this is not a bundle\n", "not valid JSON"),
        "missing-grid": (json.dumps(no_grid), "'grid'"),
        "invalid-grid": (json.dumps({**doc, "grid": {**doc["grid"], "dlon": None}}), "'grid'"),
        "wrong-version": (json.dumps({**doc, "schema_version": 99}), "schema version 99"),
        "version-1": (json.dumps({**doc, "schema_version": 1}), "refit it from its catalog with"),
        "packed-not-string": (with_samples(base64=[1.0, 2.0]), "'genesis_location'"),
        "packed-bad-base64": (with_samples(base64="not base64!"), "'genesis_location'"),
        "packed-byte-count": (with_samples(shape=[n + 1, d]), "'genesis_location'"),
        "packed-shape-1d": (with_samples(shape=[n * d]), "'genesis_location'"),
        "packed-shape-negative": (with_samples(shape=[-n, -d]), "'genesis_location'"),
        "packed-shape-float": (with_samples(shape=[float(n), d]), "'genesis_location'"),
        "packed-empty": (with_samples(base64="", shape=[0, d]), "'genesis_location'"),
        "packed-nan": (with_value(float("nan")), "'genesis_location'"),
        "packed-inf": (with_value(-float("inf")), "'genesis_location'"),
        "empty-kernel-samples": (json.dumps(
            {**doc, "genesis_location": {**doc["genesis_location"], "samples": []}}),
            "'genesis_location'"),
        "bandwidth-shape": (json.dumps(
            {**doc, "genesis_location": {**doc["genesis_location"], "bandwidth": [[1.0]]}}),
            "'genesis_location'"),
        "no-hazard-bases": (json.dumps({**doc, "hazard": {**doc["hazard"], "bases": []}}),
                            "'hazard'"),
        "hazard-coef-count": (json.dumps({**doc, "hazard": {**doc["hazard"], "coef": [0.0]}}),
                              "'hazard'"),
        "hazard-constraint-shape": (json.dumps(
            {**doc, "hazard": {**hazard, "constraints": [[[1.0]]] + hazard["constraints"][1:]}}),
            "'hazard'"),
        "hazard-slice-width": (json.dumps(
            {**doc, "hazard": {**hazard, "slices": [[1, 2]] + hazard["slices"][1:]}}),
            "'hazard'"),
        "hazard-too-few-knots": (json.dumps(
            {**doc, "hazard": {**hazard, "bases": [{**hazard["bases"][0], "knots": [0.0, 1.0]}]
                                                + hazard["bases"][1:]}}),
            "'hazard'"),
        "condex-alpha-empty": (json.dumps({**doc, "condex": {**doc["condex"], "alpha": []}}),
                               "'condex'"),
        "condex-beta-length": (json.dumps({**doc, "condex": {**doc["condex"], "beta": [0.1]}}),
                               "'condex'"),
        "condex-order-zero": (json.dumps({**doc, "condex": {**doc["condex"], "k": 0}}),
                              "'condex'"),
        "hazard-knot-nan": (with_basis(knots=knots[:4] + [float("nan")] + knots[5:]), "'hazard'"),
        "hazard-knot-inf": (with_basis(knots=knots[:-1] + [float("inf")]), "'hazard'"),
        "hazard-degree-2": (with_basis(knots=knots[:-1], degree=2), "'hazard'"),
        "hazard-degree-4": (with_basis(knots=knots + knots[-1:], degree=4), "'hazard'"),
        "hazard-equal-knots": (with_basis(knots=[knots[0]] * len(knots)), "'hazard'"),
        "hazard-coef-nan": (json.dumps({**doc, "hazard": {**hazard, "coef": [float("nan")]
                                                          + hazard["coef"][1:]}}), "'hazard'"),
        "hazard-constraint-nan": (json.dumps({**doc, "hazard": {
            **hazard, "constraints": [[[float("nan")] + hazard["constraints"][0][0][1:]]
                                      + hazard["constraints"][0][1:]] + hazard["constraints"][1:]}}),
            "'hazard'"),
        "version-2": (json.dumps({**doc, "schema_version": 2}), "refit it from its catalog with"),
    }


@pytest.mark.parametrize("variant", ["truncated", "not-json", "missing-grid", "invalid-grid",
                                     "wrong-version", "version-1", "packed-not-string",
                                     "packed-bad-base64", "packed-byte-count", "packed-shape-1d",
                                     "packed-shape-negative", "packed-shape-float",
                                     "packed-empty", "packed-nan", "packed-inf",
                                     "empty-kernel-samples", "bandwidth-shape",
                                     "no-hazard-bases", "hazard-coef-count",
                                     "hazard-constraint-shape", "hazard-slice-width",
                                     "hazard-too-few-knots", "condex-alpha-empty",
                                     "condex-beta-length", "condex-order-zero",
                                     "hazard-knot-nan", "hazard-knot-inf", "hazard-degree-2",
                                     "hazard-degree-4", "hazard-equal-knots", "hazard-coef-nan",
                                     "hazard-constraint-nan", "version-2"])
def test_simulate_malformed_bundle_exit_2(workdir, tmp_path, capsys, variant):
    root, cfg_path = workdir
    text, named = _bundle_variants((root / "bundle.json").read_text())[variant]
    bad = tmp_path / "bad_bundle.json"
    bad.write_text(text)
    assert main(["simulate", "--config", str(cfg_path), "--seed", "1",
                 "--bundle", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (simulate):") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("column, value, named", [
    ("lon", "nan", "longitude"),
    ("lon", "inf", "longitude"),
    ("vorticity", "inf", "vorticity"),
])
@pytest.mark.parametrize("command", ["risk", "diagnose"])
def test_non_finite_catalog_value_exit_2(workdir, tmp_path, capsys, command, column, value, named):
    root, _ = workdir
    lines = (root / "catalog.csv").read_text().splitlines()
    fields = lines[2].split(",")  # the first point of the first storm
    fields[["storm_id", "time_index", "lon", "lat", "vorticity"].index(column)] = value
    lines[2] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"paths": {"catalog": str(bad), "output_dir": str(tmp_path)}}))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"storm '{fields[0]}', line 3: {named}" in err and "Traceback" not in err


@pytest.mark.parametrize("command, section, key, value, named", [
    ("risk", "risk", "bootstrap_b", "x", "risk.bootstrap_b"),
    ("diagnose", "diagnose", "qq_points", "x", "diagnose.qq_points"),
    ("risk", "risk", "omegas", ["a"], "risk.omegas[0]"),
    ("risk", "risk", "regions", [{"lon_max": 2.0, "lat_min": 50.0, "lat_max": 60.0}],
     "risk.regions[0] is missing 'lon_min'"),
    ("simulate", "simulation", "workers", "2", "simulation.workers"),
    ("simulate", "simulation", "max_age", "x", "simulation.max_age"),
    ("simulate", "simulation", "n_storms", "x", "simulation.n_storms"),
    ("simulate", "simulation", "hazard_region", [[1]], "simulation.hazard_region[0]"),
    ("simulate", "simulation", "max_age", 0, "simulation.max_age must be at least 8"),
    ("fit", "diagnose", "mrl_points", 15.0, "diagnose.mrl_points must be an integer"),
    ("fit", "fit", "k", "x", "fit.k must be an integer"),
    ("fit", "fit", "min_cell_tuples", 10.0, "fit.min_cell_tuples must be an integer"),
    ("fit", "fit", "grid_dlon", "x", "fit.grid_dlon must be a finite number"),
    ("diagnose", "fit", "grid_dlon", "x", "fit.grid_dlon must be a finite number"),
    ("fit", "fit", "gpd_threshold", float("inf"), "fit.gpd_threshold must be a finite number"),
    ("fit", "fit", "allow_quadratic_preproc", 1, "fit.allow_quadratic_preproc must be true"),
    ("fit", "fit", "window", [-60.0, 20.0, 40.0], "fit.window must be a list of 4 items"),
    ("fit", "fit", "window", [-60.0, 20.0, 40.0, "80"], "fit.window[3]"),
    ("fit", "fit", "gam_covariates", "age", "fit.gam_covariates must be a list"),
    ("fit", "fit", "gam_covariates", ["age", 1], "fit.gam_covariates[1] must be a string"),
    ("fit", "fit", "u_laplace", "x", "fit.u_laplace must be a finite number"),
    ("diagnose", "fit", "censored_resolution", [0.1], "fit.censored_resolution"),
    ("fit", "fit", "gam_covariates", ["x"], "fit.gam_covariates[0] 'x' is not one of"),
    ("diagnose", "fit", "gam_covariates", ["age", "x"], "fit.gam_covariates[1] 'x'"),
    ("fit", "fit", "gam_covariates", ["age", "lon", "age"], "fit.gam_covariates[2] repeats"),
    ("fit", "fit", "gcv_points", 0, "fit.gcv_points must be at least 1"),
    ("fit", "fit", "gcv_points", -3, "fit.gcv_points must be at least 1"),
    ("fit", "fit", "gcv_sweeps", 0, "fit.gcv_sweeps must be at least 1"),
    ("fit", None, None, None, "not a JSON object"),
    ("simulate", None, None, None, "not a JSON object"),
    ("risk", None, None, None, "not a JSON object"),
    ("diagnose", None, None, None, "not a JSON object"),
    ("simulate", "simulation", "workers", 0, "simulation.workers must be at least 1"),
    ("simulate", "simulation", "workers", -2, "simulation.workers must be at least 1"),
    ("simulate", "simulation", "hazard_region", [[0.0, 50.0]],
     "simulation.hazard_region must have at least 3 vertices, got 1"),
    ("simulate", "simulation", "hazard_region", [[0.0, 50.0], [10.0, 60.0]],
     "simulation.hazard_region must have at least 3 vertices, got 2"),
    ("diagnose", "diagnose", "qq_boot", 0, "diagnose.qq_boot must be at least 1"),
    ("diagnose", "diagnose", "qq_boot", -1, "diagnose.qq_boot must be at least 1"),
    ("fit", "diagnose", "mrl_points", 0, "diagnose.mrl_points must be at least 1"),
])
def test_malformed_config_value_exit_2(workdir, tmp_path, capsys, command, section, key, value,
                                       named):
    root, cfg_path = workdir
    cfg = json.loads(Path(cfg_path).read_text())
    if section is None:
        cfg = [cfg]
    else:
        cfg[section] = {**cfg.get(section, {}), key: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    argv = [command, "--config", str(bad), "--output-dir", str(tmp_path / "out"),
            "--bundle", str(root / "bundle.json")]
    assert main(argv + (["--seed", "1"] if command == "simulate" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ({command}):") and named in err
    assert not (tmp_path / "out" / "bundle.json").exists()  # fit stops before it fits


def test_fit_config_values_of_every_type():
    fit = {"k": 2, "gpd_threshold": 2, "allow_quadratic_preproc": True,
           "window": [-50, 10.0, 45.0, 75.0], "gam_covariates": ["age", "lon"],
           "u_laplace": None, "censored_resolution": 0.01}
    cfg = _fit_config({"fit": fit})
    assert cfg == FitConfig(**{**fit, "window": (-50, 10.0, 45.0, 75.0),
                               "gam_covariates": ("age", "lon")})


def test_diagnose_density_on_the_fit_grid(workdir, tmp_path):
    root, cfg_path = workdir
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["fit"].update(grid_lon0=-178.0, grid_lat0=-89.0)
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["fit", "--config", str(shifted), "--output-dir", str(out)]) == 0
    assert main(["diagnose", "--config", str(shifted), "--output-dir", str(out)]) == 0
    grid = load_bundle(out / "bundle.json").grid
    rows = [l.split(",") for l in (out / "density_all.csv").read_text().splitlines()[2:]]
    assert rows
    for i, j, lon, lat, _ in rows:
        assert (float(lon), float(lat)) == grid.cell_center((int(i), int(j)))
    assert {(int(r[0]), int(r[1])) for r in rows} == set(grid.active_cells)


def test_benchmark_traced_functions_exist():
    # perfbench/tracing.py wraps these attributes; a renamed or deleted one
    # would otherwise fail only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr in tracing.TARGETS:
        obj = importlib.import_module(f"stormsim.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about 0.4 s and 20 MB of start-up per process
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, stormsim.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    # scipy costs about 0.4 s and 50 MB of start-up; each command imports
    # the parts it calls when it calls them
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, stormsim, stormsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_risk_runs_without_scipy(workdir, tmp_path):
    root, _ = workdir
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["risk", "--catalog", str(root / "catalog.csv"), "--output-dir", str(tmp_path)]
    code = ("import sys; from stormsim import cli; code = cli.main(sys.argv[1:]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 []"
    assert (tmp_path / "cell_return_periods.csv").exists()


def test_simulate_loads_only_scipy_special(workdir, tmp_path):
    # the hazard's splines are numpy; scipy.interpolate would also load
    # scipy.optimize, scipy.sparse, scipy.linalg and scipy.spatial
    root, _ = workdir
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["simulate", "--bundle", str(root / "bundle.json"), "--seed", "3", "--n-storms", "5",
            "--output-dir", str(tmp_path)]
    code = ("import sys; from stormsim import cli; code = cli.main(sys.argv[1:]); "
            "print(code, sorted(m for m, mod in sys.modules.items() if m.startswith('scipy.') "
            "and m.count('.') == 1 and not m.startswith('scipy._') and hasattr(mod, '__path__')))")
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 ['scipy.special']"
    assert (tmp_path / "simulated.csv").stat().st_size > 0


def _unreadable_cases(root, tmp_path):
    """(argv, named) of each command pointed at a directory, a non-UTF-8
    file or an output directory that is a file."""
    folder = tmp_path / "folder"
    folder.mkdir()
    latin = tmp_path / "latin1.txt"
    latin.write_bytes(b"storm_id,time_index,lon,lat,vorticity\n\xe9t\xe9,0,1.0,50.0,2.0\n")
    afile = tmp_path / "afile"
    afile.write_text("x")
    out = ["--output-dir", str(tmp_path / "out")]
    catalog, bundle = str(root / "catalog.csv"), str(root / "bundle.json")
    simulate = ["simulate", "--seed", "1", "--bundle", bundle]
    cases = []
    for command in ("fit", "risk", "diagnose"):
        cases += [([command, "--catalog", str(folder), *out], "catalog"),
                  ([command, "--catalog", str(latin), *out], "not UTF-8"),
                  ([command, "--config", str(folder), "--catalog", catalog], "config"),
                  ([command, "--config", str(latin), "--catalog", catalog], "not UTF-8"),
                  ([command, "--catalog", catalog, "--output-dir", str(afile)], "output_dir")]
    for command in ("risk", "diagnose"):
        cases.append(([command, "--catalog", catalog, "--simulated", str(folder), *out],
                      "catalog"))
    cases += [(["simulate", "--seed", "1", "--bundle", str(folder), *out], "bundle"),
              (["simulate", "--seed", "1", "--bundle", str(latin), *out], "not UTF-8"),
              ([*simulate, "--config", str(folder)], "config"),
              ([*simulate, "--output-dir", str(afile)], "output_dir"),
              ([*simulate, "--output-dir", str(tmp_path), "--simulated", "folder"],
               "simulated path"),
              (["fit", "--catalog", catalog, "--output-dir", str(tmp_path), "--bundle", "folder"],
               "bundle path")]
    return cases


def test_unreadable_paths_exit_2(workdir, tmp_path, capsys):
    root, _ = workdir
    for argv, named in _unreadable_cases(root, tmp_path):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error ({argv[0]}):") and named in err, (argv, err)
