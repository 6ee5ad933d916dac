"""Each output check passes on real outputs and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q

The outputs come from small runs of the same commands the benchmark times
(a 120-storm fit with a fast config, 30 simulated storms, an 80-storm risk
catalog), so the whole module takes well under a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from stormsim import cli, engine, evt, gam, toydata  # noqa: E402

FAST_FIT = {"gpd_threshold": 1.2, "min_preproc_points": 500, "min_condex_events": 30,
            "gcv_points": 7, "gcv_sweeps": 1, "allow_quadratic_preproc": False}


def _cli(args) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    d = tmp_path_factory.mktemp("fit")
    catalog = toydata.make_catalog(120, seed=42)
    run.write_catalog(catalog, d / "catalog.csv")
    conf = _write_config(d / "config.json", {
        "paths": {"catalog": str(d / "catalog.csv"), "output_dir": str(d / "out")},
        "fit": FAST_FIT})
    _cli(["fit", "--config", conf])
    text = (d / "out" / "bundle.json").read_text(encoding="utf-8")
    return catalog, json.loads(text), d


def _fit_problems(catalog, doc):
    marginal = engine.bundle_from_json(json.dumps(doc)).marginal
    cols, y = gam.storm_rows(catalog.storms, covariates=tuple(doc["hazard"]["covariates"]))
    return checks.check_fit(doc, catalog.storms, (cols, y),
                            lambda z: evt.to_laplace(z, marginal),
                            lambda s: evt.from_laplace(s, marginal))


def test_fit_checks_pass(fitted):
    catalog, doc, _ = fitted
    assert _fit_problems(catalog, doc) == []


@pytest.mark.parametrize("corrupt, topic", [
    (lambda d: d["hazard"]["coef"].__setitem__(0, d["hazard"]["coef"][0] + 0.02), "hazard"),
    (lambda d: d["preproc"]["mu_coef"].__setitem__(0, d["preproc"]["mu_coef"][0] + 0.01), "box-cox"),
    (lambda d: d["preproc"]["sigma_coef"].__setitem__(0, d["preproc"]["sigma_coef"][0] + 0.01),
     "box-cox"),
    (lambda d: d["marginal"]["gpd"].__setitem__("scale", d["marginal"]["gpd"]["scale"] * 1.1), "gpd"),
    (lambda d: d["marginal"]["gpd"].__setitem__("n_exceed", d["marginal"]["gpd"]["n_exceed"] + 1),
     "gpd"),
    (lambda d: d["marginal"]["gpd"].__setitem__(
        "exceed_rate", d["marginal"]["gpd"]["exceed_rate"] * 1.3), "laplace"),
])
def test_fit_checks_catch(fitted, corrupt, topic):
    catalog, doc, _ = fitted
    bad = copy.deepcopy(doc)
    corrupt(bad)
    assert any(p.startswith(topic) for p in _fit_problems(catalog, bad))


@pytest.fixture(scope="module")
def simulated(fitted):
    _, doc, d = fitted
    bundle_file = d / "out" / "bundle.json"
    conf = _write_config(d / "sim.json", {
        "paths": {"bundle": str(bundle_file), "output_dir": str(d / "sim")},
        "simulation": {"n_storms": 30, "seed": 5, "workers": 1}})
    _cli(["simulate", "--config", conf])
    bundle = engine.load_bundle(bundle_file)
    reference, _ = engine.simulate_catalog(bundle, 30, seed=5, workers=1)
    storms = checks.read_simulated(d / "sim" / "simulated.csv")
    tokens = [s["token"] for s in storms.values()][::10]
    replayed = {t: engine.replay_storm(bundle, t) for t in tokens}
    return storms, doc, bundle, reference.storms, replayed


def test_simulate_checks_pass(simulated):
    storms, doc, _, reference, replayed = simulated
    assert checks.check_simulated(storms, 30, doc, reference, replayed) == []


def _first(storms):
    return next(iter(storms.values()))


def _shift_point(storms):
    s = _first(storms)
    lon, lat, v = s["points"][3]
    s["points"][3] = (lon + 0.01, lat, v)


def _below_floor(storms, doc):
    s = _first(storms)
    lon, lat, _ = s["points"][2]
    s["points"][2] = (lon, lat, doc["min_vorticity"] - 0.1)


def _off_grid(storms):
    s = _first(storms)
    _, _, v = s["points"][-1]
    s["points"][-1] = (0.0, -80.0, v)


def _no_tail(storms):
    for s in storms.values():
        s["tags"] = ["body" if t == "tail" else t for t in s["tags"]]


@pytest.mark.parametrize("corrupt, topic", [
    (lambda st, doc: st.pop(next(iter(st))), "count"),
    (lambda st, doc: _first(st)["points"].__delitem__(slice(2, None)), "count"),
    (lambda st, doc: _shift_point(st), "geometry"),
    (lambda st, doc: _shift_point(st), "replay"),
    (_below_floor, "floor"),
    (lambda st, doc: _off_grid(st), "domain"),
    (lambda st, doc: _no_tail(st), "tail"),
])
def test_simulate_checks_catch(simulated, corrupt, topic):
    storms, doc, _, reference, replayed = simulated
    bad = copy.deepcopy(storms)
    corrupt(bad, doc)
    assert any(p.startswith(topic) for p in checks.check_simulated(bad, 30, doc, reference, replayed))


def test_simulate_checks_catch_other_seed(simulated):
    storms, doc, bundle, _, replayed = simulated
    other, _ = engine.simulate_catalog(bundle, 30, seed=6, workers=1)
    problems = checks.check_simulated(storms, 30, doc, other.storms, replayed)
    assert any(p.startswith("reference") for p in problems)


RISK = {**run.RISK_CONFIG, "return_years": [0.5, 1.0, 5.0]}


@pytest.fixture(scope="module")
def risked(tmp_path_factory):
    d = tmp_path_factory.mktemp("risk")
    catalog = toydata.make_catalog(80, seed=3)
    run.write_catalog(catalog, d / "catalog.csv")
    conf = _write_config(d / "config.json", {
        "paths": {"catalog": str(d / "catalog.csv"), "output_dir": str(d / "out")},
        "risk": {**RISK, "bootstrap_b": 50}})
    _cli(["risk", "--config", conf])
    return checks.read_points(d / "catalog.csv"), catalog.years_of_record, d / "out"


def test_risk_checks_pass(risked):
    points, years, out = risked
    assert checks.check_risk(points, years, RISK, out) == []


def _edit_csv(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[col] = change(fields[col])
    lines[data[row]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _nan_intervals(path: Path) -> None:
    for row in range(len(checks.read_csv(path)[1])):
        _edit_csv(path, row, 3, lambda v: "nan")


def _lower_level(points):
    # the next value below the written level breaks "at most years/r above it"
    def change(v):
        inside = sorted(p[2] for p in points
                        if -11.0 < p[0] < 2.0 and 50.0 < p[1] < 60.0 and p[2] < float(v))
        return repr(inside[-1])
    return change


@pytest.mark.parametrize("name, corrupt, topic", [
    ("exceedance.csv", lambda f, pts: _edit_csv(f, 0, 5, lambda v: str(int(v) + 1)),
     "exceedance"),
    ("exceedance.csv", lambda f, pts: _edit_csv(f, 1, 6, lambda v: str(int(v) - 1)),
     "exceedance"),
    ("return_periods.csv", lambda f, pts: _edit_csv(f, 0, 2, lambda v: repr(float(v) * 1.01)),
     "return period"),
    ("return_periods.csv", lambda f, pts: _nan_intervals(f), "bootstrap"),
    ("return_levels.csv", lambda f, pts: _edit_csv(f, 1, 2, _lower_level(pts)),
     "return level"),
    ("return_levels.csv", lambda f, pts: _edit_csv(f, 2, 2, lambda v: "3.0"), "return level"),
    ("cell_return_periods.csv", lambda f, pts: _edit_csv(f, 5, 5, lambda v: "12345.0"), "cells"),
])
def test_risk_checks_catch(risked, tmp_path, name, corrupt, topic):
    points, years, out = risked
    bad = tmp_path / "out"
    bad.mkdir()
    for f in out.iterdir():
        (bad / f.name).write_bytes(f.read_bytes())
    corrupt(bad / name, points)
    assert any(p.startswith(topic) for p in checks.check_risk(points, years, RISK, bad))

