import math

import numpy as np
import pytest
from scipy.special import expit, logit

from stormsim.catalog import StormTrack
from stormsim.errors import SeparationError, ValidationError
from stormsim.gam import (
    DEFAULT_COVARIATES,
    GamFit,
    HazardDesign,
    _constraint_null_basis,
    build_design,
    fit_gam,
    hazard,
    make_basis,
    storm_rows,
)


def make_storm(sid, n, vort=None, lon0=-30.0, lat0=50.0):
    vort = vort if vort is not None else [2.0 + 0.1 * i for i in range(n)]
    return StormTrack(
        id=sid,
        lons=[lon0 + 0.5 * i for i in range(n)],
        lats=[lat0 + 0.1 * i for i in range(n)],
        vorticities=vort[:n],
    )


def design_from_xy(x, y):
    basis = make_basis("x", x)
    B = basis.design(x)
    Z = _constraint_null_basis(B.mean(axis=0))
    X = np.column_stack([np.ones(y.size), B @ Z])
    return HazardDesign(
        matrix=X, outcomes=y.astype(float), bases=(basis,), constraints=(Z,),
        slices=(slice(1, 1 + Z.shape[1]),), covariates=("x",),
    )


# ---------------------------------------------------------------- rows

def test_rows_length_ten_storm():
    cols, y = storm_rows([make_storm("a", 10)])
    assert y.size == 3  # ages 8, 9, 10
    assert list(cols["age"]) == [8.0, 9.0, 10.0]
    assert list(y) == [0.0, 0.0, 1.0]


def test_rows_drop_uses_actual_lag():
    vort = [2.0, 2.5, 2.2, 2.8, 3.0, 2.9, 2.7, 2.0, 1.5, 1.2]
    cols, _ = storm_rows([make_storm("a", 10, vort=vort)])
    assert cols["drop"][0] == pytest.approx(vort[6] - vort[7])
    assert cols["drop"][2] == pytest.approx(vort[8] - vort[9])


def test_rows_hand_count(toy_catalog):
    cols, y = storm_rows(toy_catalog.storms)
    want = sum(max(0, len(s) - 7) for s in toy_catalog.storms if len(s) >= 9)
    assert y.size == want
    assert int(y.sum()) == sum(1 for s in toy_catalog.storms if len(s) >= 9)


def test_rows_exclude_eight_point_storms(caplog):
    with caplog.at_level("WARNING"):
        cols, y = storm_rows([make_storm("a", 8), make_storm("b", 12)])
    assert y.size == 5  # only storm b contributes (ages 8..12)
    assert any("excluded 1 storm" in r.getMessage() for r in caplog.records)


def test_rows_censored_storm_has_no_event():
    cols, y = storm_rows([make_storm("a", 10)], terminal=[False])
    assert y.size == 3 and y.sum() == 0.0


def test_rows_match_per_point_reference(toy_catalog):
    storms = toy_catalog.storms
    terminal = [i % 3 != 0 for i in range(len(storms))]
    want = {name: [] for name in DEFAULT_COVARIATES}
    want_y = []
    for storm, is_terminal in zip(storms, terminal):
        pts = storm.points
        for i in range(7, len(pts) if len(pts) >= 9 else 0):
            values = {"vorticity": pts[i].vorticity, "drop": pts[i - 1].vorticity - pts[i].vorticity,
                      "age": float(i + 1), "lon": pts[i].lon, "lat": pts[i].lat}
            for name in DEFAULT_COVARIATES:
                want[name].append(values[name])
            want_y.append(1.0 if is_terminal and i == len(pts) - 1 else 0.0)
    cols, y = storm_rows(storms, terminal=terminal)
    assert y.tolist() == want_y
    assert {name: c.tolist() for name, c in cols.items()} == want


# ---------------------------------------------------------------- fitting

def test_null_model_intercept():
    rng = np.random.default_rng(0)
    y = (rng.uniform(size=5000) < 0.3).astype(float)
    design = HazardDesign(
        matrix=np.ones((y.size, 1)), outcomes=y, bases=(), constraints=(),
        slices=(), covariates=(),
    )
    fit = fit_gam(design)
    assert fit.coef[0] == pytest.approx(logit(y.mean()), abs=1e-6)


def test_sin_hazard_recovery():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3.0, 3.0, 20_000)
    p = expit(np.sin(x))
    y = (rng.uniform(size=x.size) < p).astype(float)
    fit = fit_gam(design_from_xy(x, y))
    grid = np.linspace(-2.7, 2.7, 101)
    eta = fit.coef[0] + fit.smooth_effect("x", grid)
    assert np.max(np.abs(eta - np.sin(grid))) < 0.15


def test_large_penalty_collapses_to_linear():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 10.0, 8000)
    y = (rng.uniform(size=x.size) < expit(0.4 * x - 2.0)).astype(float)
    fit = fit_gam(design_from_xy(x, y), gcv_grid=np.array([1e12]), sweeps=1)
    grid = np.linspace(0.5, 9.5, 60)
    eff = fit.smooth_effect("x", grid)
    resid = eff - np.polyval(np.polyfit(grid, eff, 1), grid)
    assert np.max(np.abs(resid)) < 1e-3 * (np.ptp(eff) + 1e-9)


def test_score_equation_counts():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, 6000)
    y = (rng.uniform(size=x.size) < expit(x - 1.0)).astype(float)
    fit = fit_gam(design_from_xy(x, y))
    p = expit(fit.coef[0] + fit.smooth_effect("x", x))
    assert float(p.sum()) == pytest.approx(float(y.sum()), rel=1e-6)


def test_gcv_selected_is_grid_minimum():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, 4000)
    y = (rng.uniform(size=x.size) < expit(np.sin(x))).astype(float)
    grid = np.logspace(-3, 3, 13)
    design = design_from_xy(x, y)
    fit = fit_gam(design, gcv_grid=grid, sweeps=2)
    for lam in grid:
        refit = fit_gam(design, gcv_grid=np.array([lam]), sweeps=1)
        assert fit.gcv_score <= refit.gcv_score + 1e-9


# Smoothing parameters and GCV score chosen by an exhaustive coordinate-wise
# scan (a full IRLS fit at every grid value; 21-point grid on [1e-4, 1e4],
# 2 sweeps) on the hazard design of make_catalog(n, seed=101): the grid
# index of each smooth's lambda, and the score.
GRID_SCAN_OPTIMUM = {
    400: ([5, 0, 10, 10, 13], 0.2797547943684869),
    1200: ([10, 0, 3, 10, 8], 0.2844279160120647),
}


@pytest.mark.parametrize("n_storms", sorted(GRID_SCAN_OPTIMUM))
def test_fixed_weight_scan_finds_grid_scan_optimum(n_storms, monkeypatch):
    import stormsim.gam as gam_mod
    from stormsim.toydata import make_catalog

    calls = []
    irls = gam_mod._irls
    monkeypatch.setattr(gam_mod, "_irls", lambda *a, **k: calls.append(1) or irls(*a, **k))
    design = build_design(make_catalog(n_storms, seed=101).storms)
    grid = np.logspace(-4.0, 4.0, 21)
    fit = fit_gam(design, gcv_grid=grid, sweeps=2)
    index, score = GRID_SCAN_OPTIMUM[n_storms]
    np.testing.assert_array_equal(fit.smoothing, grid[index])
    assert fit.gcv_score <= score * (1.0 + 1e-9)
    assert len(calls) <= 1 + 3 * 2 * len(design.bases)


def test_full_fits_per_gam_fit_bounded(monkeypatch):
    import stormsim.gam as gam_mod

    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, 4000)
    y = (rng.uniform(size=x.size) < expit(np.sin(x))).astype(float)
    calls = []
    irls = gam_mod._irls
    monkeypatch.setattr(gam_mod, "_irls", lambda *a, **k: calls.append(1) or irls(*a, **k))
    for sweeps in (1, 3):
        calls.clear()
        fit_gam(design_from_xy(x, y), gcv_grid=np.logspace(-3, 3, 13), sweeps=sweeps)
        assert 1 < len(calls) <= 1 + 3 * sweeps


def test_single_class_outcomes_rejected():
    x = np.linspace(0, 1, 500)
    with pytest.raises(ValidationError, match="single-class"):
        fit_gam(design_from_xy(x, np.zeros(500)))


def test_separation_detected():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-3, -0.5, 400), rng.uniform(0.5, 3, 400)])
    y = (x > 0).astype(float)
    with pytest.raises(SeparationError):
        fit_gam(design_from_xy(x, y), gcv_grid=np.array([1e-4]), sweeps=1)


# ---------------------------------------------------------------- hazard

def zero_fit():
    basis = make_basis("age", np.linspace(8, 60, 200))
    Z = _constraint_null_basis(basis.design(np.linspace(8, 60, 200)).mean(axis=0))
    return GamFit(
        covariates=("age",), bases=(basis,), constraints=(Z,),
        slices=(slice(1, 1 + Z.shape[1]),), coef=np.zeros(1 + Z.shape[1]),
        smoothing=np.ones(1), gcv_score=0.0, aic=0.0, edf=1.0, deviance=0.0,
        n_rows=0, converged=True,
    )


def test_hazard_zero_before_min_age():
    fit = zero_fit()
    assert hazard(fit, {"age": 5.0}, age=5) == 0.0
    assert hazard(fit, {"age": 7.9}, age=7) == 0.0


def test_hazard_logistic_of_zero_is_half():
    fit = zero_fit()
    assert hazard(fit, {"age": 20.0}, age=20) == pytest.approx(0.5, abs=1e-12)


def test_hazard_monotone_with_age_effect(toy_catalog):
    design = build_design(toy_catalog.storms, covariates=("age",), n_interior=6)
    fit = fit_gam(design, gcv_grid=np.logspace(-2, 3, 8), sweeps=1)
    ages = np.arange(8, 45, dtype=float)
    hz = np.array([hazard(fit, {"age": a}, age=a) for a in ages])
    assert hz[-5:].mean() > hz[:5].mean()  # toy hazard rises with age
    assert np.all(hz > 0.0) and np.all(hz < 1.0)


def test_build_design_full_covariates(toy_catalog):
    design = build_design(toy_catalog.storms)
    assert design.covariates == DEFAULT_COVARIATES
    fit = fit_gam(design, gcv_grid=np.logspace(-2, 2, 5), sweeps=1)
    p = expit(np.clip(design.matrix @ fit.coef, -30, 30))
    assert float(p.sum()) == pytest.approx(design.outcomes.sum(), rel=1e-6)
    assert fit.gcv_score > 0.0 and fit.edf > 1.0


def test_basis_linear_extrapolation():
    x = np.random.default_rng(6).uniform(0, 10, 500)
    basis = make_basis("x", x)
    Z = _constraint_null_basis(basis.design(x).mean(axis=0))
    g = np.array([12.0, 14.0, 16.0])  # beyond the knot range
    vals = basis.design(g) @ Z
    slopes = np.diff(vals, axis=0)
    np.testing.assert_allclose(slopes[0], slopes[1], atol=1e-10)


def test_partition_of_unity_within_support():
    x = np.random.default_rng(7).uniform(-5, 5, 300)
    basis = make_basis("x", x)
    inside = np.linspace(x.min(), x.max(), 50)
    np.testing.assert_allclose(basis.design(inside).sum(axis=1), 1.0, atol=1e-12)


def test_tabulated_predictor_matches_linear_predictor(toy_catalog):
    design = build_design(toy_catalog.storms, n_interior=6)
    fit = fit_gam(design, gcv_grid=np.logspace(-2, 2, 5), sweeps=1)
    rng = np.random.default_rng(8)
    probes = {}
    for name, basis in zip(fit.covariates, fit.bases):
        a, b = basis.bounds
        width = b - a
        probes[name] = np.concatenate([
            rng.uniform(a, b, 200),  # inside the knot range
            np.unique(basis.knots),  # at the knots, both ends included
            [np.nextafter(a, -np.inf), np.nextafter(b, np.inf)],
            rng.uniform(a - 2.0 * width, a, 50),  # beyond both ends
            rng.uniform(b, b + 2.0 * width, 50),
        ])
    for name, xs in probes.items():
        for x in xs:
            values = {other: float(rng.choice(probes[other])) for other in fit.covariates}
            values[name] = float(x)
            want = fit.linear_predictor(values)[0]
            got = fit.predictor_at(values)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            if name == "age" and values["age"] >= fit.min_age:
                assert hazard(fit, values, age=values["age"]) == pytest.approx(
                    float(expit(want)), rel=1e-12, abs=1e-300)


def test_tabulated_hazard_zero_before_min_age(toy_catalog):
    design = build_design(toy_catalog.storms, n_interior=6)
    fit = fit_gam(design, gcv_grid=np.logspace(-2, 2, 5), sweeps=1)
    values = {"vorticity": 4.0, "drop": 0.2, "age": 3.0, "lon": -20.0, "lat": 55.0}
    for age in (1, 5, 7, 7.999):
        assert hazard(fit, values, age=age) == 0.0
    assert 0.0 < hazard(fit, values, age=8) < 1.0
    assert not fit.__dataclass_fields__["_tables"].compare
