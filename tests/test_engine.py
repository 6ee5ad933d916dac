import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from stormsim import evt, kde
from stormsim.catalog import grid_cell
from stormsim.engine import (
    FitConfig,
    _recenter_window,
    bundle_from_json,
    bundle_to_json,
    fit_all,
    fit_report,
    propagate_step,
    replay_storm,
    residual_tracks,
    simulate_catalog,
    simulate_genesis,
    simulate_storm,
    vorticity_step,
)
from stormsim.errors import InsufficientTailError, StormError, ValidationError
from stormsim.gam import GamFit, make_basis, _constraint_null_basis
from stormsim.toydata import make_catalog

from conftest import fast_config


def constant_hazard_fit(eta):
    basis = make_basis("age", np.linspace(8, 80, 100))
    Z = _constraint_null_basis(basis.design(np.linspace(8, 80, 100)).mean(axis=0))
    coef = np.zeros(1 + Z.shape[1])
    coef[0] = eta
    return GamFit(
        covariates=("age",), bases=(basis,), constraints=(Z,),
        slices=(slice(1, 1 + Z.shape[1]),), coef=coef, smoothing=np.ones(1),
        gcv_score=0.0, aic=0.0, edf=1.0, deviance=0.0, n_rows=0, converged=True,
    )


# ---------------------------------------------------------------- fitting

def test_bundle_composition(fitted_bundle):
    b = fitted_bundle
    assert b.k == 3
    assert len(b.grid.active_cells) > 5
    assert b.marginal.gpd.n_exceed >= 30
    assert b.condex.n_events >= 30
    assert b.u_laplace == pytest.approx(
        float(evt.to_laplace(b.config.gpd_threshold, b.marginal)), abs=1e-12
    )
    assert b.preproc.w_sd == pytest.approx(1.0, abs=0.02)


def test_fit_deterministic_and_serialization_round_trip():
    cat = make_catalog(n_storms=80, seed=7)
    cfg = fast_config(gcv_points=5)
    a = bundle_to_json(fit_all(cat, cfg))
    b = bundle_to_json(fit_all(cat, cfg))
    assert a == b
    restored = bundle_from_json(a)
    assert bundle_to_json(restored) == a


def test_single_storm_catalog_insufficient():
    cat = make_catalog(n_storms=1, seed=3)
    with pytest.raises((ValidationError, InsufficientTailError)):
        fit_all(cat, fast_config())


def test_loaded_bundle_simulates(fitted_bundle, tmp_path):
    from stormsim.engine import load_bundle, save_bundle

    path = tmp_path / "bundle.json"
    save_bundle(fitted_bundle, path)
    loaded = load_bundle(path)
    cat, stats = simulate_catalog(loaded, n=5, seed=99)
    assert len(cat) == 5


def test_fit_report_contents(fitted_bundle):
    text = fit_report(fitted_bundle)
    assert "markov order k: 3" in text
    assert "gpd tail" in text and "alpha=" in text


# ---------------------------------------------------------------- genesis

def test_genesis_draws_in_active_cells(fitted_bundle):
    rng = np.random.default_rng(0)
    for _ in range(300):
        gen = simulate_genesis(fitted_bundle, rng)
        assert gen is not None
        (lon, lat), v, theta, omega = gen
        assert grid_cell((lon, lat), fitted_bundle.grid) in fitted_bundle.grid.active_cells
        assert v > 0 and omega > 0
        assert -math.pi <= theta <= math.pi


def test_genesis_matches_location_kernel_ks(fitted_bundle):
    # oracle: the sampler's law is the location KDE restricted to active
    # cells; build that density by quadrature on a fine grid and compare the
    # empirical CDF of the draws to its cumulative sums (2-D KS)
    rng = np.random.default_rng(1)
    draws = np.array([simulate_genesis(fitted_bundle, rng)[0] for _ in range(10_000)])
    model = fitted_bundle.genesis_location
    gx = np.linspace(draws[:, 0].min() - 6, draws[:, 0].max() + 6, 160)
    gy = np.linspace(draws[:, 1].min() - 4, draws[:, 1].max() + 4, 100)
    cx = (gx[:-1] + gx[1:]) / 2
    cy = (gy[:-1] + gy[1:]) / 2
    nodes = np.array([(x, y) for x in cx for y in cy])
    pdf = np.zeros(len(nodes))
    for center in model.samples:
        pdf += multivariate_normal(mean=center, cov=model.bandwidth).pdf(nodes)
    pdf /= model.n
    active = np.array([
        grid_cell(p, fitted_bundle.grid) in fitted_bundle.grid.active_cells for p in nodes
    ])
    pdf = (pdf * active).reshape(len(cx), len(cy))
    mass = pdf * np.diff(gx)[:, None] * np.diff(gy)[None, :]
    cdf = np.cumsum(np.cumsum(mass, axis=0), axis=1)
    cdf /= cdf[-1, -1]
    ks = 0.0
    for i in range(7, len(cx), 8):
        for j in range(7, len(cy), 8):
            ecdf = np.mean((draws[:, 0] <= gx[i + 1]) & (draws[:, 1] <= gy[j + 1]))
            ks = max(ks, abs(ecdf - cdf[i, j]))
    assert ks < 0.02


def test_genesis_deterministic(fitted_bundle):
    a = simulate_genesis(fitted_bundle, np.random.default_rng(5))
    b = simulate_genesis(fitted_bundle, np.random.default_rng(5))
    assert a == b


# ---------------------------------------------------------------- stepping

def test_recenter_window_anchoring():
    win = _recenter_window([3.0, -3.0, 3.3], anchor=2)
    assert win[2] == pytest.approx(3.3 - 2 * math.pi)  # wrapped into [-pi, pi)
    steps = np.diff(win)
    assert np.all(np.abs(steps) < math.pi)  # continuous across the seam
    # a window that never crosses the seam is untouched apart from the anchor wrap
    plain = _recenter_window([0.5, 0.7, 0.6], anchor=2)
    np.testing.assert_allclose(plain, [0.5, 0.7, 0.6], atol=1e-12)


def test_propagate_step_early_history(fitted_bundle):
    rng = np.random.default_rng(2)
    gen = simulate_genesis(fitted_bundle, rng)
    (lon, lat), v, theta, omega = gen
    out = propagate_step(fitted_bundle, (lon, lat), [theta], [v], rng)
    assert out is not None
    th, spd, nxt = out
    assert spd > 0
    assert grid_cell(nxt, fitted_bundle.grid) in fitted_bundle.grid.active_cells


def test_propagate_geographic_termination(fitted_bundle):
    # shrink the domain to a sliver: every 3-hour displacement exits, so all
    # 10 retries fail and the step signals geographic termination
    rng = np.random.default_rng(3)
    gen = simulate_genesis(fitted_bundle, rng)
    (lon, lat), v, theta, omega = gen
    tiny = replace(
        fitted_bundle.grid,
        extent=(lon - 0.05, lon + 0.05, lat - 0.05, lat + 0.05),
    )
    squeezed = replace(fitted_bundle, grid=tiny)
    assert propagate_step(squeezed, (lon, lat), [theta], [v], rng) is None


def test_vorticity_step_body_branch(fitted_bundle):
    rng = np.random.default_rng(4)
    gen = simulate_genesis(fitted_bundle, rng)
    (lon, lat), v, theta, omega = gen
    u = fitted_bundle.marginal.gpd.threshold
    omega, w, tag = vorticity_step(
        fitted_bundle, (lon, lat), [omega], [u - 2.0], theta, v, rng
    )
    assert tag == "body"
    assert omega > 0


def test_vorticity_step_tail_branch(fitted_bundle):
    rng = np.random.default_rng(5)
    u = fitted_bundle.marginal.gpd.threshold
    pos = fitted_bundle.grid.cell_center(next(iter(fitted_bundle.vorticity_body.models)))
    omega_hist = [2.0, 2.2, 3.5]
    w_hist = [u - 1.0, u - 0.5, u + 0.8]  # below, below, above -> order 1
    tags = set()
    for _ in range(20):
        omega, w, tag = vorticity_step(
            fitted_bundle, pos, omega_hist, w_hist, 0.8, 12.0, rng
        )
        tags.add(tag)
        assert omega > 0
    assert "tail" in tags


# ---------------------------------------------------------------- storms

def test_forced_hazard_gives_eight_point_storms(fitted_bundle):
    forced = replace(fitted_bundle, hazard_fit=constant_hazard_fit(40.0))
    cat, stats = simulate_catalog(forced, n=20, seed=1)
    assert all(len(s) == 8 for s in cat.storms)
    assert stats["causes"] == {"hazard": 20}


def test_zero_hazard_hits_age_cap(fitted_bundle):
    forced = replace(fitted_bundle, hazard_fit=constant_hazard_fit(-40.0))
    cat, stats = simulate_catalog(forced, n=20, seed=2, max_age=25)
    assert "hazard" not in stats["causes"]
    assert stats["causes"].get("max-age", 0) >= 12  # geographic exits possible
    for s in cat.storms:
        if s.termination_cause == "max-age":
            assert len(s) == 25


def test_simulated_points_in_active_cells(fitted_bundle):
    cat, _ = simulate_catalog(fitted_bundle, n=30, seed=3)
    for storm in cat.storms:
        assert len(storm) >= 8
        for pt in storm.points:
            assert grid_cell((pt.lon, pt.lat), fitted_bundle.grid) in fitted_bundle.grid.active_cells
        if storm.termination_cause == "hazard":
            assert len(storm) >= 8


def test_worker_count_invariance(fitted_bundle):
    a, _ = simulate_catalog(fitted_bundle, n=24, seed=4, workers=1)
    b, _ = simulate_catalog(fitted_bundle, n=24, seed=4, workers=3)
    for sa, sb in zip(a.storms, b.storms):
        assert sa.points == sb.points
        assert sa.seed_token == sb.seed_token


def test_rerun_determinism_and_years(fitted_bundle):
    a, _ = simulate_catalog(fitted_bundle, n=15, seed=5)
    b, _ = simulate_catalog(fitted_bundle, n=15, seed=5)
    assert all(x.points == y.points for x, y in zip(a.storms, b.storms))
    assert a.years_of_record == pytest.approx(15 / fitted_bundle.storms_per_year)


def test_replay_reproduces_storm(fitted_bundle):
    cat, _ = simulate_catalog(fitted_bundle, n=6, seed=6)
    for storm in cat.storms[:3]:
        again = replay_storm(fitted_bundle, storm.seed_token)
        assert again.points == storm.points
        assert again.sampler_tags == storm.sampler_tags


def test_tail_branch_activation_rate(fitted_bundle):
    cat, _ = simulate_catalog(fitted_bundle, n=150, seed=7)
    w_tracks = residual_tracks(fitted_bundle.preproc, cat)
    w_all = np.concatenate([w[np.isfinite(w)] for w in w_tracks])
    sim_rate = float(np.mean(w_all > fitted_bundle.marginal.gpd.threshold))
    train_rate = fitted_bundle.marginal.gpd.exceed_rate
    assert 0.5 * train_rate <= sim_rate <= 1.5 * train_rate
    tags = [t for s in cat.storms for t in s.sampler_tags]
    assert tags.count("tail") > 0


def test_simulated_w_respects_endpoint(fitted_bundle):
    gpd = fitted_bundle.marginal.gpd
    if gpd.shape >= 0:
        pytest.skip("toy fit has a non-negative shape; no finite endpoint")
    cat, _ = simulate_catalog(fitted_bundle, n=100, seed=8)
    w_tracks = residual_tracks(fitted_bundle.preproc, cat)
    w_max = max(np.nanmax(w) for w in w_tracks)
    assert w_max <= gpd.upper_endpoint + 1e-9


def test_tail_chain_without_laplace_excess_uses_body(toy_catalog):
    # u_laplace one unit above the Laplace image of the GPD threshold: a run
    # of W excesses need not hold a Laplace excess, so the step falls back
    # to the body sampler instead of failing
    bundle = fit_all(toy_catalog, fast_config(u_laplace=2.4365))
    cat, stats = simulate_catalog(bundle, 200, seed=0)
    assert len(cat) == 200
    tags = [t for s in cat.storms for t in s.sampler_tags]
    assert tags.count("tail") > 0 and tags.count("body") > 0


def test_bundle_from_json_names_missing_nested_field(fitted_bundle):
    import json

    doc = json.loads(bundle_to_json(fitted_bundle))
    del doc["marginal"]["gpd"]["shape"]
    with pytest.raises(ValidationError, match="'marginal' is missing 'shape'"):
        bundle_from_json(json.dumps(doc))


def test_warm_caches_do_not_change_a_slot(fitted_bundle):
    text = bundle_to_json(fitted_bundle)
    want, _ = simulate_catalog(bundle_from_json(text), n=10, seed=9)
    assert any("tail" in s.sampler_tags for s in want.storms)
    warmed = bundle_from_json(text)
    simulate_catalog(warmed, n=12, seed=3)  # other storms fill the kernel and hazard caches
    got, _ = simulate_catalog(warmed, n=10, seed=9)
    for a, b in zip(got.storms, want.storms):
        assert a.points == b.points and a.sampler_tags == b.sampler_tags
        assert np.array_equal(a.speeds, b.speeds) and np.array_equal(a.bearings, b.bearings)
    assert bundle_to_json(warmed) == text


def test_each_w_value_mapped_to_laplace_once(fitted_bundle, monkeypatch):
    mapped = []
    to_laplace = evt.to_laplace

    def counting(z, m):
        mapped.extend(np.atleast_1d(z).tolist())
        return to_laplace(z, m)

    monkeypatch.setattr(evt, "to_laplace", counting)
    cat, _ = simulate_catalog(fitted_bundle, n=40, seed=7)
    w_tracks = residual_tracks(fitted_bundle.preproc, cat)
    assert 0 < len(mapped) <= sum(int(np.isfinite(w).sum()) for w in w_tracks)
    assert len(set(mapped)) == len(mapped)
