import json
from pathlib import Path

import numpy as np
import pytest

from stormsim.catalog import load_catalog, pacf
from stormsim.cli import main
from stormsim.engine import load_bundle
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
    return {
        "truncated": (text[: len(text) // 2], "not valid JSON"),
        "not-json": ("this is not a bundle\n", "not valid JSON"),
        "missing-grid": (json.dumps(no_grid), "'grid'"),
        "invalid-grid": (json.dumps({**doc, "grid": {**doc["grid"], "dlon": None}}), "'grid'"),
        "wrong-version": (json.dumps({**doc, "schema_version": 99}), "schema version 99"),
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
    }


@pytest.mark.parametrize("variant", ["truncated", "not-json", "missing-grid", "invalid-grid",
                                     "wrong-version", "empty-kernel-samples", "bandwidth-shape",
                                     "no-hazard-bases", "hazard-coef-count",
                                     "hazard-constraint-shape", "hazard-slice-width",
                                     "hazard-too-few-knots", "condex-alpha-empty",
                                     "condex-beta-length", "condex-order-zero"])
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
