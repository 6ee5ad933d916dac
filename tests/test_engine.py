import base64
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import multivariate_normal

from stormsim import engine, evt, gam, kde
from stormsim.catalog import grid_cell
from stormsim.engine import (
    FitConfig,
    _point_in_polygon,
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
        gcv_score=0.0, aic=0.0, edf=1.0, deviance=0.0, n_rows=0,
    )


# ---------------------------------------------------------------- fitting

def test_bundle_composition(fitted_bundle):
    b = fitted_bundle
    assert b.condex.k == 3
    assert len(b.grid.active_cells) > 5
    assert b.marginal.gpd.n_exceed >= 30
    assert b.condex.n_events >= 30
    assert b.condex.u_laplace == pytest.approx(
        float(evt.to_laplace(b.config.gpd_threshold, b.marginal)), abs=1e-12
    )
    assert b.preproc.w_sd == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("overrides", [
    {},
    {"min_cell_tuples": 10**6},  # no cell has its own model: no cell assigned, all global
    {"grid_dlon": 8},  # an int-valued grid size stays an int
], ids=["default", "all-global", "int-dlon"])
def test_fit_deterministic_and_serialization_round_trip(overrides):
    cat = make_catalog(n_storms=80, seed=7)
    cfg = fast_config(gcv_points=5, **overrides)
    a = bundle_to_json(fit_all(cat, cfg))
    b = bundle_to_json(fit_all(cat, cfg))
    assert a == b
    restored = bundle_from_json(a)
    assert bundle_to_json(restored) == a
    if "min_cell_tuples" in overrides:
        cells = restored.direction
        assert cells.models == {} and cells.assignment == {}
        for cell in restored.grid.active_cells:
            assert cells.lookup(cell) is cells.global_model


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
    # no active cell: every 3-hour displacement leaves the domain, so all
    # 10 retries fail and the step signals geographic termination
    rng = np.random.default_rng(3)
    gen = simulate_genesis(fitted_bundle, rng)
    (lon, lat), v, theta, omega = gen
    squeezed = replace(fitted_bundle, grid=replace(fitted_bundle.grid, active_cells=frozenset()))
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


def test_pool_workers_read_tables_built_before_the_fork(fitted_bundle):
    # the tables every storm reads are built in the parent, so forked workers
    # share them instead of each building (and importing scipy for) its own
    text = bundle_to_json(fitted_bundle)
    serial, serial_stats = simulate_catalog(bundle_from_json(text), n=12, seed=2, workers=1)
    bundle = bundle_from_json(text)
    assert not bundle.marginal._table and not bundle.hazard_fit._tables
    pooled, pooled_stats = simulate_catalog(bundle, n=12, seed=2, workers=2)
    assert bundle.marginal._table and bundle.hazard_fit._tables
    assert pooled_stats == serial_stats
    for a, b in zip(pooled.storms, serial.storms):
        assert a.points == b.points and a.sampler_tags == b.sampler_tags
        assert np.array_equal(a.speeds, b.speeds) and np.array_equal(a.bearings, b.bearings)


class RecordingPool:
    """A stand-in for multiprocessing.Pool that records its size and runs
    the work in this process."""

    sizes: list = []

    def __init__(self, processes, initializer, initargs):
        self.sizes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items, chunksize=1):
        return [func(item) for item in items]


@pytest.mark.parametrize("workers, n, cpus, started", [
    (100_000, 5, 4, [4]),
    (100_000, 3, 64, [3]),
    (3, 40, 64, [3]),
    (100_000, 5, 1, []),
    (2, 1, 64, []),
])
def test_pool_size_bounded_by_storms_and_cpus(fitted_bundle, monkeypatch, workers, n, cpus,
                                              started):
    want, want_stats = simulate_catalog(fitted_bundle, n=n, seed=8, workers=1)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(engine, "Pool", RecordingPool)
    monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
    got, got_stats = simulate_catalog(fitted_bundle, n=n, seed=8, workers=workers)
    assert RecordingPool.sizes == started
    assert got_stats == want_stats
    assert [s.points for s in got.storms] == [s.points for s in want.storms]


def test_draw_fallbacks_independent_of_workers(toy_catalog):
    # a narrow direction kernel: histories often leave its numerical support
    bundle = fit_all(toy_catalog, fast_config(bw_direction=0.05))
    counts = []
    for workers in (1, 2):
        before = engine.DRAW_FALLBACKS["count"]
        _, stats = simulate_catalog(bundle, n=30, seed=1, workers=workers)
        assert engine.DRAW_FALLBACKS["count"] - before == stats["draw_fallbacks"]
        counts.append(stats["draw_fallbacks"])
    assert counts[0] == counts[1] > 0


def test_tail_chain_fallbacks_counted(toy_catalog, caplog):
    # a narrow residual kernel: the tail chain's conditioning residuals often
    # leave its numerical support, and the residual falls back to its marginal
    bundle = fit_all(toy_catalog, fast_config(bw_residuals=0.05))
    counts = []
    for workers in (1, 2):
        before = engine.DRAW_FALLBACKS["count"]
        with caplog.at_level("WARNING", logger="stormsim"):
            caplog.clear()
            _, stats = simulate_catalog(bundle, n=60, seed=1, workers=workers)
        assert not caplog.records
        assert engine.DRAW_FALLBACKS["count"] - before == stats["draw_fallbacks"]
        counts.append(stats["draw_fallbacks"])
    assert counts[0] == counts[1] > 0


def test_rerun_determinism_and_years(fitted_bundle):
    a, _ = simulate_catalog(fitted_bundle, n=15, seed=5)
    b, _ = simulate_catalog(fitted_bundle, n=15, seed=5)
    assert all(x.points == y.points for x, y in zip(a.storms, b.storms))
    assert a.years_of_record == pytest.approx(15 / fitted_bundle.storms_per_year)


def test_replay_reproduces_storm(fitted_bundle, toy_catalog, monkeypatch):
    # oracle for the lock-step batches: every storm of a catalog equals its
    # replay, a batch of one; the wide speed kernel and sparse grid make the
    # catalog hit a tail step, a positivity redraw, a propagation retry and
    # a rejected attempt
    events = {"positivity": 0, "retry": 0}
    eventful = fit_all(toy_catalog, fast_config(bw_speed=3.0, grid_min_count=4))
    speed_models = set(map(id, eventful.speed.models.values()))
    draw, step = kde.draw, engine.destination_point

    def counting_draw(model, key, values, rng):
        x = yield from draw(model, key, values, rng)
        if (id(model) in speed_models or key == ((1, 2), (0,))) and x <= 0.0:
            events["positivity"] += 1
        return x

    def counting_step(*args, **kwargs):
        q = step(*args, **kwargs)
        events["retry"] += grid_cell(q, eventful.grid) not in eventful.grid.active_cells
        return q

    monkeypatch.setattr(kde, "draw", counting_draw)
    monkeypatch.setattr(engine, "destination_point", counting_step)
    for bundle, n, seed in [(fitted_bundle, 6, 6), (eventful, 50, 3)]:
        cat, stats = simulate_catalog(bundle, n=n, seed=seed)
        for storm in cat.storms:
            again = replay_storm(bundle, storm.seed_token)
            assert again.points == storm.points
            assert again.sampler_tags == storm.sampler_tags
            assert np.array_equal(again.speeds, storm.speeds)
            assert np.array_equal(again.bearings, storm.bearings)
    assert events["positivity"] > 0 and events["retry"] > 0
    assert stats["rejected_attempts"] > 0
    assert any("tail" in s.sampler_tags for s in cat.storms)
    pooled, pooled_stats = simulate_catalog(eventful, n=n, seed=seed, workers=2)
    assert pooled_stats == stats
    for a, b in zip(pooled.storms, cat.storms):
        assert a.points == b.points and a.sampler_tags == b.sampler_tags
        assert np.array_equal(a.speeds, b.speeds) and np.array_equal(a.bearings, b.bearings)


def test_point_in_concave_polygon():
    u_shape = [(0, 0), (10, 0), (10, 10), (7, 10), (7, 3), (3, 3), (3, 10), (0, 10)]
    for p in [(1, 5), (8, 8), (5, 1), (9.9, 9.9)]:
        assert _point_in_polygon(p, u_shape)
    for p in [(5, 5), (5, 9), (11, 5), (-1, 5), (5, 11), (5, -1)]:  # (5, 5): in the notch
        assert not _point_in_polygon(p, u_shape)


def test_hazard_region_covering_the_domain_changes_nothing(fitted_bundle):
    domain = [(-180.0, -90.0), (180.0, -90.0), (180.0, 90.0), (-180.0, 90.0)]
    want, _ = simulate_catalog(fitted_bundle, n=40, seed=3)
    got, _ = simulate_catalog(fitted_bundle, n=40, seed=3, hazard_region=domain)
    for a, b in zip(got.storms, want.storms):
        assert a.points == b.points and a.seed_token == b.seed_token


def test_hazard_region_away_from_tracks_disables_the_hazard(fitted_bundle):
    far = [(100.0, -10.0), (110.0, -10.0), (110.0, 0.0), (100.0, 0.0)]
    cat, stats = simulate_catalog(fitted_bundle, n=40, seed=3, max_age=60, hazard_region=far)
    assert "hazard" not in stats["causes"] and stats["causes"].get("max-age", 0) > 0
    for s in cat.storms:
        assert s.termination_cause in ("max-age", "geographic")
        assert (len(s) == 60) == (s.termination_cause == "max-age")


def test_hazard_region_entered_part_way(fitted_bundle, monkeypatch):
    # toy storms start near 45W and drift east: most enter this region only
    # after genesis.  Per-point reference: the hazard is evaluated at exactly
    # the points from max(age 8, first point inside the region) to the last
    # one, so no storm ends by the hazard before it has entered
    region = [(-30.0, 30.0), (40.0, 30.0), (40.0, 80.0), (-30.0, 80.0)]
    evaluated: dict = {}
    hazard = gam.hazard

    def recording(fit, covariates, age):
        evaluated.setdefault((covariates["lon"], covariates["lat"]), []).append(age)
        return hazard(fit, covariates, age)

    monkeypatch.setattr(gam, "hazard", recording)
    cat, stats = simulate_catalog(fitted_bundle, n=40, seed=11, max_age=80,
                                  hazard_region=region)
    assert stats["causes"].get("hazard", 0) >= 20
    late = 0
    for storm in cat.storms:
        inside = [_point_in_polygon((p.lon, p.lat), region) for p in storm.points]
        first = inside.index(True) if any(inside) else len(storm)
        late += first > 0
        want = list(range(max(gam.MIN_AGE - 1, first), len(storm)))
        got = [j for j, p in enumerate(storm.points) if j + 1 in evaluated.get((p.lon, p.lat), ())]
        assert got == want
        if storm.termination_cause == "hazard":
            assert len(storm) - 1 >= first
        again = replay_storm(fitted_bundle, storm.seed_token, max_age=80, hazard_region=region)
        assert again.points == storm.points and again.sampler_tags == storm.sampler_tags
    assert late >= 30


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
    doc = json.loads(bundle_to_json(fitted_bundle))
    del doc["marginal"]["gpd"]["shape"]
    with pytest.raises(ValidationError, match="'marginal' is missing 'shape'"):
        bundle_from_json(json.dumps(doc))


def test_bundle_json_layout(fitted_bundle):
    doc = json.loads(bundle_to_json(fitted_bundle))
    # each fitted value is written once: k and u_laplace only in condex, the
    # residual vectors only as the residual kernel's samples, and the fit
    # settings only in config
    assert set(doc) == {"grid", "storms_per_year", "min_vorticity", "min_speed",
                        "genesis_location", "genesis_conditions", "direction", "speed",
                        "vorticity_body", "preproc", "marginal", "condex", "hazard", "config",
                        "schema_version"}
    assert doc["schema_version"] == 3
    assert set(doc["direction"]) == {"models", "assignment", "global"}
    # the lazily built sampler cache (_samplers) is not written
    assert set(doc["genesis_location"]) == {"samples", "bandwidth", "circular_dims"}
    assert set(doc["condex"]) == {"k", "u_laplace", "alpha", "beta", "residual_kde", "n_events"}
    assert set(doc["grid"]) == {"lon0", "lat0", "dlon", "dlat", "active_cells"}
    assert set(doc["hazard"]["bases"][0]) == {"covariate", "knots", "degree"}
    samples = fitted_bundle.genesis_location.samples
    assert doc["genesis_location"]["samples"] == {
        "base64": base64.b64encode(samples.astype("<f8").tobytes()).decode(),
        "shape": list(samples.shape),
    }
    cell, target = next(iter(doc["direction"]["assignment"].items()))
    assert target in doc["direction"]["models"] and len(cell.split(",")) == 2
    assert doc["grid"]["active_cells"] == sorted(map(list, fitted_bundle.grid.active_cells))
    assert doc["hazard"]["slices"] == [[s.start, s.stop] for s in fitted_bundle.hazard_fit.slices]


def _first_cell(cell_set):
    return sorted(cell_set["assignment"])[0]


def _mangle_samples(doc, **fields):
    doc["genesis_location"]["samples"].update(fields)


def _set_first_sample(doc, value):
    packed = next(iter(doc["direction"]["models"].values()))["samples"]
    data = np.frombuffer(base64.b64decode(packed["base64"]), dtype="<f8").copy()
    data[0] = value
    packed["base64"] = base64.b64encode(data.tobytes()).decode()


def _first_basis(doc):
    return doc["hazard"]["bases"][0]


@pytest.mark.parametrize("field, mangle", [
    ("direction", lambda d: d["direction"]["assignment"].__setitem__(
        _first_cell(d["direction"]), "x")),
    ("direction", lambda d: d["direction"]["models"].pop(
        d["direction"]["assignment"][_first_cell(d["direction"])])),
    ("preproc", lambda d: d["preproc"].__setitem__("lam", "x")),
    ("condex", lambda d: d["condex"].__setitem__("alpha", None)),
    ("genesis_location", lambda d: d["genesis_location"].__setitem__("samples", [])),
    ("genesis_location", lambda d: d["genesis_location"].__setitem__("bandwidth", [[1.0]])),
    ("hazard", lambda d: d["hazard"].__setitem__("bases", [])),
    ("hazard", lambda d: d["hazard"].__setitem__("coef", [0.0])),
    ("genesis_location", lambda d: _mangle_samples(d, base64=12)),
    ("genesis_location", lambda d: _mangle_samples(d, base64="*" * 16)),
    ("genesis_location", lambda d: _mangle_samples(d, base64="AAAAAAAAAAA=")),
    ("genesis_location", lambda d: _mangle_samples(d, shape=[2])),
    ("genesis_location", lambda d: _mangle_samples(d, shape=[-1, 2])),
    ("genesis_location", lambda d: _mangle_samples(d, shape=[1, True])),
    ("genesis_location", lambda d: _mangle_samples(d, shape=None)),
    ("genesis_location", lambda d: _mangle_samples(d, base64="", shape=[0, 2])),
    ("direction", lambda d: _set_first_sample(d, float("nan"))),
    ("direction", lambda d: _set_first_sample(d, float("inf"))),
    ("hazard", lambda d: _first_basis(d)["knots"].__setitem__(4, float("nan"))),
    ("hazard", lambda d: _first_basis(d)["knots"].__setitem__(-1, float("inf"))),
    ("hazard", lambda d: _first_basis(d).update(degree=2, knots=_first_basis(d)["knots"][:-1])),
    ("hazard", lambda d: _first_basis(d).update(degree=4, knots=_first_basis(d)["knots"]
                                                + _first_basis(d)["knots"][-1:])),
    ("hazard", lambda d: _first_basis(d).update(knots=[1.0] * len(_first_basis(d)["knots"]))),
    ("hazard", lambda d: d["hazard"]["coef"].__setitem__(1, float("nan"))),
    ("hazard", lambda d: d["hazard"]["constraints"][0][0].__setitem__(0, float("nan"))),
], ids=["unknown-assignment", "assigned-model-missing", "string-number", "null-array",
        "empty-kernel-samples", "bandwidth-shape", "no-hazard-bases", "hazard-coef-count",
        "packed-not-string", "packed-bad-base64", "packed-byte-count", "packed-shape-1d",
        "packed-shape-negative", "packed-shape-bool", "packed-shape-null", "packed-empty",
        "packed-nan", "packed-inf", "knot-nan", "knot-inf", "degree-2", "degree-4",
        "equal-knots", "coef-nan", "constraint-nan"])
def test_bundle_from_json_rejects_mangled_values(fitted_bundle, field, mangle):
    doc = json.loads(bundle_to_json(fitted_bundle))
    mangle(doc)
    with pytest.raises(ValidationError, match=f"bundle field '{field}' is invalid"):
        bundle_from_json(json.dumps(doc))


_EDGE_FLOATS = np.array([-0.0, 5e-324, -2.2250738585072e-308, np.finfo(float).max,
                         -np.finfo(float).max, 0.0])  # signed zero, subnormals, +-max


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(_EDGE_FLOATS.reshape(3, 2))
@example(_EDGE_FLOATS.reshape(1, 6)[:, ::-1])  # not C-contiguous
def test_packed_matrix_round_trips_bit_for_bit(matrix):
    back = engine._decode(kde.PackedMatrix, json.loads(json.dumps(
        engine._encode(matrix, kde.PackedMatrix))))
    assert back.dtype == np.float64 and back.shape == matrix.shape
    assert back.tobytes() == np.ascontiguousarray(matrix).tobytes()
    assert back.flags.c_contiguous and back.flags.writeable


def test_fields_the_benchmark_reads_stay_json_lists(fitted_bundle):
    # perfbench's checks read these as nested lists; only kernel samples are packed
    doc = json.loads(bundle_to_json(fitted_bundle))
    p, h = doc["preproc"], doc["hazard"]
    lists = [p["mu_coef"], p["sigma_coef"], p["col_mean"], p["col_scale"], h["coef"],
             h["constraints"], h["slices"], doc["grid"]["active_cells"],
             *(basis["knots"] for basis in h["bases"])]
    for value in lists:
        assert isinstance(value, list) and value
        assert all(isinstance(v, (list, int, float)) for v in value)


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
