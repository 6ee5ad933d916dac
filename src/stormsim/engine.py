"""Fit the full storm model and simulate synthetic tracks.

Fitting composes the submodels on an artificial lon/lat grid: a genesis
location kernel, per-cell kernels for the genesis conditions and for the
direction, speed and vorticity transitions, the Box-Cox preprocessing with
its GPD/kernel mixture marginal and conditional-extremes tail chain on the
residual scale, and the logistic hazard for termination.

Per-cell kernels share the pooled tuple covariance in Scott's rule (with the
cell's own sample count), so sparse cells stay usable; cells below the tuple
minimum borrow the nearest eligible cell's model by great-circle distance
between cell centres.

Simulation walks genesis -> propagate -> vorticity -> termination.  Direction
windows are handled on an unwrapped (continuous) angle scale anchored at the
most recent value, which is how the training tuples are built as well; the
kernel's +-2pi replication absorbs the remaining one-period ambiguity.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import types
import typing
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from . import condex as condex_mod
from . import evt, gam, kde, preprocess
from .catalog import (
    Catalog,
    GridSpec,
    PoleDegeneracyError,
    StormTrack,
    STEP_SECONDS,
    build_grid,
    destination_point,
    grid_cell,
    great_circle_distance,
    wrap_angle,
)
from .errors import (
    FitError,
    InvalidInverseError,
    UnsupportedConditioningError,
    ValidationError,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
GENESIS_ATTEMPTS = 100
PROPAGATION_ATTEMPTS = 10  # chances to find a trajectory into an active cell
POSITIVITY_ATTEMPTS = 100


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit_all`; defaults follow the reference configuration."""

    k: int = 3
    gpd_threshold: float = 1.5  # on the preprocessed W scale
    u_laplace: float | None = None  # default: Laplace image of gpd_threshold
    grid_dlon: float = 8.0
    grid_dlat: float = 4.0
    grid_lon0: float = -180.0
    grid_lat0: float = -90.0
    grid_min_count: int = 1
    window: tuple[float, float, float, float] = preprocess.DEFAULT_WINDOW
    bw_genesis_location: float = 1.0
    bw_genesis_conditions: float = 1.0
    bw_direction: float = 1.0
    bw_speed: float = 1.0
    bw_vorticity: float = 1.0
    bw_marginal_body: float = 1.0
    bw_residuals: float = 1.0
    min_cell_tuples: int = 10
    allow_quadratic_preproc: bool = True
    min_preproc_points: int = 1000
    min_condex_events: int = 50
    gam_covariates: tuple[str, ...] = gam.DEFAULT_COVARIATES
    gam_knots: int = 10
    gcv_points: int = 41
    gcv_sweeps: int = 2
    censored_resolution: float | None = None


@dataclass
class CellKdeSet:
    """Per-cell kernel models with nearest-cell fallback assignment."""

    models: dict[tuple[int, int], kde.KdeModel]
    assignment: dict[tuple[int, int], tuple[int, int] | str]
    global_model: kde.KdeModel | None

    def __post_init__(self):
        for cell, key in self.assignment.items():
            if key not in self.models and (key != "__global__" or self.global_model is None):
                raise ValidationError(f"cell {cell} is assigned {key!r}, which has no model")

    def lookup(self, cell) -> kde.KdeModel:
        key = self.assignment.get(cell, "__global__")
        if key == "__global__":
            if self.global_model is None:
                raise ValidationError(f"no kernel model available for cell {cell}")
            return self.global_model
        return self.models[key]

    def counts(self) -> dict[tuple[int, int], int]:
        return {cell: model.n for cell, model in self.models.items()}


@dataclass
class ModelBundle:
    """Every fitted submodel needed to simulate synthetic storms."""

    k: int
    grid: GridSpec
    storms_per_year: float
    min_vorticity: float
    min_speed: float
    genesis_location: kde.KdeModel
    genesis_conditions: CellKdeSet
    direction: CellKdeSet
    speed: CellKdeSet
    vorticity_body: CellKdeSet
    preproc: preprocess.PreprocFit
    marginal: evt.MixtureMarginal
    condex: condex_mod.CondExFit
    hazard_fit: gam.GamFit
    config: FitConfig
    u_laplace: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.condex.k != self.k:
            raise ValidationError(
                f"conditional-extremes order {self.condex.k} differs from the bundle's k={self.k}"
            )


@dataclass(frozen=True, eq=False)
class SyntheticTrack(StormTrack):
    """A simulated storm with its sampled kinematics and provenance."""

    speeds: np.ndarray = dataclasses.field(kw_only=True, repr=False)
    bearings: np.ndarray = dataclasses.field(kw_only=True, repr=False)
    seed_token: str = ""
    sampler_tags: tuple[str, ...] = ()
    termination_cause: str = ""


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def _recenter_window(values, anchor: int) -> np.ndarray:
    """Unwrap an angle window to a continuous path with values[anchor] in [-pi, pi)."""
    rep = np.asarray(values, dtype=float)
    out = np.empty_like(rep)
    out[anchor] = wrap_angle(rep[anchor])
    for i in range(anchor - 1, -1, -1):
        out[i] = out[i + 1] - wrap_angle(rep[i + 1] - rep[i])
    for i in range(anchor + 1, rep.size):
        out[i] = out[i - 1] + wrap_angle(rep[i] - rep[i - 1])
    return out


def _pooled_cov(rows: np.ndarray) -> np.ndarray:
    cov = np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        cov = cov + 1e-9 * np.eye(cov.shape[0]) * max(float(np.max(np.diag(cov))), 1e-12)
    return cov


def _fit_cell_set(
    tuples_by_cell: dict,
    grid: GridSpec,
    scale: float,
    min_tuples: int,
    circular_dims=(),
    independent_dims=(),
) -> CellKdeSet:
    all_rows = np.vstack([rows for rows in tuples_by_cell.values() if len(rows)])
    cov = _pooled_cov(all_rows)

    def fit(rows):
        return kde.fit_kde(
            rows, structure="oriented", scale=scale, cov=cov,
            circular_dims=circular_dims, independent_dims=independent_dims,
        )

    models = {}
    for cell, rows in tuples_by_cell.items():
        rows = np.asarray(rows, dtype=float)
        if len(rows) >= max(min_tuples, 1):
            models[cell] = fit(rows)
    global_model = fit(all_rows) if not models else None

    assignment: dict = {}
    eligible = list(models)
    centers = {c: grid.cell_center(c) for c in eligible}
    for cell in grid.active_cells:
        if cell in models:
            assignment[cell] = cell
        elif eligible:
            assignment[cell] = min(
                eligible,
                key=lambda c: great_circle_distance(grid.cell_center(cell), centers[c]),
            )
        else:
            assignment[cell] = "__global__"
    return CellKdeSet(models=models, assignment=assignment, global_model=global_model)


def _arrival_covariates(storm: StormTrack):
    """Per-point covariates (lon, lat, arriving bearing, arriving speed), t >= 1."""
    lon = storm.lons[1:]
    lat = storm.lats[1:]
    bearing = storm.bearings
    speed = storm.speeds
    return lon, lat, bearing, speed


def residual_tracks(preproc: preprocess.PreprocFit, catalog: Catalog) -> list[np.ndarray]:
    """Per-storm preprocessed W series (NaN where preprocessing does not apply)."""
    w_tracks = []
    for storm in catalog.storms:
        w = np.full(len(storm), np.nan)
        lon, lat, bearing, speed = _arrival_covariates(storm)
        inside = preprocess.in_window(lon, lat, preproc.window)
        if np.any(inside):
            w[1:][inside] = preprocess.to_residual(
                storm.vorticities[1:][inside],
                (lon[inside], lat[inside], bearing[inside], speed[inside]),
                preproc,
            )
        w_tracks.append(w)
    return w_tracks


def _laplace_of(w_tracks, marginal: evt.MixtureMarginal) -> list[np.ndarray]:
    s_tracks = []
    for w in w_tracks:
        s = np.full(w.size, np.nan)
        finite = np.isfinite(w)
        if np.any(finite):
            s[finite] = evt.to_laplace(w[finite], marginal)
        s_tracks.append(s)
    return s_tracks


def laplace_tracks(bundle: ModelBundle, catalog: Catalog):
    """Per-storm W and S series (NaN where preprocessing does not apply)."""
    w_tracks = residual_tracks(bundle.preproc, catalog)
    return w_tracks, _laplace_of(w_tracks, bundle.marginal)


def fit_all(catalog: Catalog, config: FitConfig = FitConfig()) -> ModelBundle:
    """Fit every submodel on the catalog and assemble the bundle.

    Raises the failing submodel's error unchanged (insufficient tail events,
    too few in-window points, degenerate kernels, ...).
    """
    if len(catalog.storms) < 2:
        raise ValidationError(
            f"catalog has {len(catalog.storms)} storm(s); fitting needs at least 2"
        )
    k = config.k
    grid = build_grid(
        catalog,
        dlon=config.grid_dlon, dlat=config.grid_dlat,
        lon0=config.grid_lon0, lat0=config.grid_lat0,
        min_count=config.grid_min_count,
    )

    genesis_rows = []
    genesis_by_cell: dict = {}
    theta_by_cell: dict = {}
    speed_by_cell: dict = {}
    vort_by_cell: dict = {}
    for storm in catalog.storms:
        b, v, w = storm.bearings, storm.speeds, storm.vorticities
        cells = [grid_cell(p, grid) for p in zip(storm.lons.tolist(), storm.lats.tolist())]
        genesis_rows.append((storm.lons[0], storm.lats[0]))
        genesis_by_cell.setdefault(cells[0], []).append((v[0], b[0], w[0]))

        for t in range(k, len(b)):  # direction / speed transitions at time t
            window = _recenter_window(b[t - k : t + 1], anchor=k - 1)
            theta_by_cell.setdefault(cells[t], []).append(window)
            speed_by_cell.setdefault(cells[t], []).append(
                np.concatenate([v[t - k : t], [b[t]], [v[t]]])
            )
        for t in range(k, len(w)):  # vorticity transitions at time t
            vort_by_cell.setdefault(cells[t], []).append(
                np.concatenate([w[t - k : t], [b[t - 1]], [w[t]]])
            )

    genesis_location = kde.fit_kde(
        np.asarray(genesis_rows, dtype=float),
        structure="oriented", scale=config.bw_genesis_location,
    )
    genesis_conditions = _fit_cell_set(
        genesis_by_cell, grid, config.bw_genesis_conditions, config.min_cell_tuples,
        circular_dims=(1,), independent_dims=(1,),
    )
    direction = _fit_cell_set(
        theta_by_cell, grid, config.bw_direction, config.min_cell_tuples,
        circular_dims=tuple(range(k + 1)),
    )
    speed = _fit_cell_set(
        speed_by_cell, grid, config.bw_speed, config.min_cell_tuples,
        circular_dims=(k,), independent_dims=(k,),
    )
    vorticity_body = _fit_cell_set(
        vort_by_cell, grid, config.bw_vorticity, config.min_cell_tuples,
        circular_dims=(k,), independent_dims=(k,),
    )

    omega_all, lon_all, lat_all, bear_all, speed_all = [], [], [], [], []
    for storm in catalog.storms:
        lon, lat, bearing, spd = _arrival_covariates(storm)
        omega_all.append(storm.vorticities[1:])
        lon_all.append(lon)
        lat_all.append(lat)
        bear_all.append(bearing)
        speed_all.append(spd)
    preproc = preprocess.fit_preprocess(
        np.concatenate(omega_all), np.concatenate(lon_all), np.concatenate(lat_all),
        np.concatenate(bear_all), np.concatenate(speed_all),
        window=config.window,
        allow_quadratic=config.allow_quadratic_preproc,
        min_points=config.min_preproc_points,
    )

    # W series feed the marginal, which then maps them onto Laplace margins
    w_tracks = residual_tracks(preproc, catalog)
    pooled_w = np.concatenate([w[np.isfinite(w)] for w in w_tracks])
    marginal = evt.fit_mixture(
        pooled_w, config.gpd_threshold,
        body_scale=config.bw_marginal_body,
        censored_resolution=config.censored_resolution,
    )

    u_laplace = (
        float(config.u_laplace)
        if config.u_laplace is not None
        else float(evt.to_laplace(config.gpd_threshold, marginal))
    )
    condex = condex_mod.fit_condex(
        _laplace_of(w_tracks, marginal), k=k, u_laplace=u_laplace,
        min_events=config.min_condex_events, residual_scale=config.bw_residuals,
    )

    design = gam.build_design(
        catalog.storms, covariates=config.gam_covariates, n_interior=config.gam_knots
    )
    hazard_fit = gam.fit_gam(
        design, gcv_grid=np.logspace(-4, 4, config.gcv_points), sweeps=config.gcv_sweeps
    )

    all_speeds = np.concatenate([s.speeds for s in catalog.storms])
    return ModelBundle(
        k=k,
        grid=grid,
        storms_per_year=catalog.storms_per_year,
        min_vorticity=float(min(np.min(s.vorticities) for s in catalog.storms)),
        min_speed=float(all_speeds[all_speeds > 0].min()) if np.any(all_speeds > 0) else 0.1,
        genesis_location=genesis_location,
        genesis_conditions=genesis_conditions,
        direction=direction,
        speed=speed,
        vorticity_body=vorticity_body,
        preproc=preproc,
        marginal=marginal,
        condex=condex,
        hazard_fit=hazard_fit,
        config=config,
        u_laplace=u_laplace,
    )


# --------------------------------------------------------------------------
# simulation
# --------------------------------------------------------------------------

def _point_in_polygon(p, polygon) -> bool:
    x, y = p
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
            if x < xc:
                inside = not inside
    return inside


DRAW_FALLBACKS = {"count": 0}  # diagnostic counter, reset freely


def _draw(model, given, rng, target):
    """Conditional draw with a marginal fallback when the history has wandered
    outside the cell kernel's numerical support (rare, after tail excursions)."""
    try:
        return kde.sample_conditional(model, given, rng, target_dims=target)
    except UnsupportedConditioningError:
        DRAW_FALLBACKS["count"] += 1
        log.debug("conditioning outside kernel support; falling back to marginal draw")
        return kde.sample_conditional(model, {}, rng, target_dims=target)


def simulate_genesis(bundle: ModelBundle, rng: np.random.Generator):
    """Draw genesis location and conditions: (lon, lat), v0, theta0, omega0.

    The location is resampled until it falls in an active cell; the joint
    (v0, theta0, omega0) draw is resampled until speed and vorticity are
    positive.  Returns None after 100 failed attempts (genesis failure).
    """
    cell = None
    for _ in range(GENESIS_ATTEMPTS):
        loc = kde.sample_joint(bundle.genesis_location, rng)
        cell = grid_cell((loc[0], loc[1]), bundle.grid)
        if cell is not None and cell in bundle.grid.active_cells:
            break
    else:
        return None
    model = bundle.genesis_conditions.lookup(cell)
    for _ in range(GENESIS_ATTEMPTS):
        v, theta, omega = kde.sample_joint(model, rng)
        if v > 0.0 and omega > 0.0:
            return (float(loc[0]), float(loc[1])), float(v), float(theta), float(omega)
    return None


def propagate_step(bundle: ModelBundle, pos, theta_hist, speed_hist, rng, genesis_omega=None):
    """Draw (theta_j, v_j) at `pos` and step to the next position.

    Conditions the direction on its recent (unwrapped) window and the speed
    on its own lags plus the new direction, within the current cell's models.
    A destination in an inactive or out-of-domain cell (or at a pole) is
    retried up to 10 times; returns None to signal geographic termination.

    At genesis (empty histories) the pair is redrawn from the genesis-cell
    kernel conditional on `genesis_omega` instead.
    """
    k = bundle.k
    cell = grid_cell(pos, bundle.grid)
    n_lags = min(k, len(theta_hist))
    if n_lags:
        dir_model = bundle.direction.lookup(cell)
        spd_model = bundle.speed.lookup(cell)
        theta_window = _recenter_window(np.asarray(theta_hist[-n_lags:]), anchor=n_lags - 1)
        theta_given = {k - n_lags + i: theta_window[i] for i in range(n_lags)}
        speed_lags = {k - n_lags + i: speed_hist[-n_lags:][i] for i in range(n_lags)}
    else:
        gen_model = bundle.genesis_conditions.lookup(cell)

    for _ in range(PROPAGATION_ATTEMPTS):
        if n_lags:
            theta = wrap_angle(float(_draw(dir_model, theta_given, rng, (k,))[0]))
            given = dict(speed_lags)
            given[k] = theta
            v = float(_draw(spd_model, given, rng, (k + 1,))[0])
        else:
            given = {2: genesis_omega}
            pair = _draw(gen_model, given, rng, (0, 1))
            v, theta = float(pair[0]), wrap_angle(float(pair[1]))
        if v <= 0.0:
            for _ in range(POSITIVITY_ATTEMPTS):
                if n_lags:
                    v = float(_draw(spd_model, given, rng, (k + 1,))[0])
                else:
                    v = float(_draw(gen_model, {1: theta, 2: genesis_omega}, rng, (0,))[0])
                if v > 0.0:
                    break
            else:
                v = bundle.min_speed
        try:
            nxt = destination_point(pos, v, theta, STEP_SECONDS)
        except PoleDegeneracyError:
            continue
        ncell = grid_cell(nxt, bundle.grid)
        if ncell is not None and ncell in bundle.grid.active_cells:
            return theta, v, nxt
    return None


def vorticity_step(bundle: ModelBundle, pos, omega_hist, w_hist, theta_prev, speed_prev, rng,
                   laplace: dict | None = None):
    """Draw omega at `pos` given the recent vorticity history.

    Uses the cell's conditional kernel when the recent preprocessed values sit
    below the tail threshold (or the point is outside the preprocessing
    window); otherwise steps the Laplace-scale tail chain at the effective
    order (the run of consecutive excesses on the W scale, equivalent to the
    Laplace scale by monotonicity) and back-transforms.  An invalid Box-Cox
    inversion triggers one redraw and then the body branch.  Draws below the
    smallest observed training vorticity (unobservable under the tracking
    threshold that defines the input data) are reflected back across it,
    the mirror boundary correction for Gaussian kernels.

    `laplace` maps positions in `w_hist` to their Laplace values; the step
    adds the ones it maps, so a caller that keeps one dict per storm maps
    each W value once (the transform is elementwise, so this is exact).

    Returns (omega, w, tag) where w is NaN outside the window.
    """
    k = bundle.k
    cell = grid_cell(pos, bundle.grid)
    model = bundle.vorticity_body.lookup(cell)
    recent_w = np.asarray(w_hist[-k:], dtype=float)
    inside = bool(preprocess.in_window(pos[0], pos[1], bundle.preproc.window))
    nu = (pos[0], pos[1], theta_prev, speed_prev)

    tag = "body"
    omega = None
    floor = bundle.min_vorticity
    l = condex_mod.effective_order(recent_w, bundle.marginal.gpd.threshold, k)
    if inside and l >= 1:
        laplace = {} if laplace is None else laplace
        start = len(w_hist) - recent_w.size
        todo = [i for i in range(recent_w.size)
                if start + i not in laplace and math.isfinite(recent_w[i])]
        if todo:
            mapped = evt.to_laplace(recent_w[todo], bundle.marginal).tolist()
            laplace.update(zip((start + i for i in todo), mapped))
        s_window = np.array([laplace.get(start + i, math.nan) for i in range(recent_w.size)])
        # with u_laplace above the Laplace image of the GPD threshold, a W
        # excess need not be a Laplace excess; the body sampler then draws
        laplace_excess = condex_mod.effective_order(s_window, bundle.condex.u_laplace, k) >= 1
        for _ in range(2 if laplace_excess else 0):  # one redraw on an invalid or sub-floor inversion
            s_new = condex_mod.step_tail_chain(bundle.condex, s_window, rng)
            w_new = float(evt.from_laplace(s_new, bundle.marginal))
            try:
                cand = float(preprocess.from_residual(w_new, nu, bundle.preproc))
            except InvalidInverseError:
                continue
            omega = cand if cand >= floor else 2.0 * floor - cand
            tag = "tail"
            break

    if omega is None:
        n_lags = min(k, len(omega_hist))
        given = {k - n_lags + i: omega_hist[-n_lags:][i] for i in range(n_lags)}
        given[k] = theta_prev
        # vorticity below the smallest observed value is unobservable under
        # the tracking threshold that defines the data; reflect kernel mass
        # that falls below the floor back across it (mirror boundary
        # correction), so the chain neither leaks nor piles up there
        omega = float(_draw(model, given, rng, (k + 1,))[0])
        if omega < floor:
            omega = 2.0 * floor - omega
        tag = "body"

    w_val = float(preprocess.to_residual(omega, nu, bundle.preproc)) if inside else math.nan
    return omega, w_val, tag


def simulate_storm(bundle: ModelBundle, rng: np.random.Generator,
                   max_age: int = 800, hazard_region=None):
    """Simulate one storm; returns (track fields, cause) or (None, reason).

    The hazard applies from age 8 (and only once the track has entered
    `hazard_region`, when given); geographic termination before 8 points
    discards the storm.
    """
    gen = simulate_genesis(bundle, rng)
    if gen is None:
        return None, "genesis-failure"
    (x0, y0), v0, theta0, omega0 = gen

    lons, lats = [x0], [y0]
    thetas, speeds = [theta0], [v0]
    omegas = [omega0]
    ws = [math.nan]
    laplace: dict[int, float] = {}  # Laplace values of the entries of ws, once mapped
    tags = ["genesis"]
    entered = hazard_region is None or _point_in_polygon((x0, y0), hazard_region)
    cause = None

    j = 0
    while True:
        age = j + 1
        if age >= gam.MIN_AGE and entered:
            hz = gam.hazard(
                bundle.hazard_fit,
                {
                    "vorticity": omegas[j],
                    "drop": omegas[j - 1] - omegas[j],
                    "age": float(age),
                    "lon": lons[j],
                    "lat": lats[j],
                },
                age=age,
            )
            if rng.random() < hz:
                cause = "hazard"
                break
        if age >= max_age:
            cause = "max-age"
            break

        if j == 0:
            step = propagate_step(bundle, (lons[0], lats[0]), [], [], rng, genesis_omega=omega0)
            if step is not None:
                theta0_new, v0_new, nxt = step
                thetas[0], speeds[0] = theta0_new, v0_new
        else:
            step = propagate_step(bundle, (lons[j], lats[j]), thetas, speeds, rng)
            if step is not None:
                theta, v, nxt = step
                thetas.append(theta)
                speeds.append(v)
        if step is None:
            cause = "geographic"
            break

        omega, w_val, tag = vorticity_step(
            bundle, nxt, omegas, ws, thetas[j], speeds[j], rng, laplace
        )
        lons.append(nxt[0])
        lats.append(nxt[1])
        omegas.append(omega)
        ws.append(w_val)
        tags.append(tag)
        j += 1
        if not entered and _point_in_polygon((lons[j], lats[j]), hazard_region):
            entered = True

    n_points = j + 1
    if n_points < 8:
        return None, "short-geographic"
    return (
        {
            "lons": lons, "lats": lats, "omegas": omegas,
            "thetas": thetas[: n_points - 1], "speeds": speeds[: n_points - 1],
            "tags": tags, "cause": cause,
        },
        cause,
    )


def _build_track(sid: str, fields: dict, token: str) -> SyntheticTrack:
    return SyntheticTrack(
        id=sid,
        lons=fields["lons"],
        lats=fields["lats"],
        vorticities=fields["omegas"],
        speeds=np.asarray(fields["speeds"]),
        bearings=np.asarray(fields["thetas"]),
        seed_token=token,
        sampler_tags=tuple(fields["tags"]),
        termination_cause=fields["cause"],
    )


def _slot_rng(seed: int, slot: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(slot, attempt)))


def _simulate_slot(args):
    bundle, seed, slot, max_age, hazard_region = args
    for attempt in range(1000):
        rng = _slot_rng(seed, slot, attempt)
        fields, cause = simulate_storm(bundle, rng, max_age=max_age, hazard_region=hazard_region)
        if fields is not None:
            token = f"{seed}-{slot}-{attempt}"
            return _build_track(f"sim{slot:06d}", fields, token), cause, attempt
    raise FitError(f"slot {slot}: no valid storm in 1000 attempts")


_WORKER_STATE: dict = {}


def _init_worker(bundle, seed, max_age, hazard_region):
    _WORKER_STATE["args"] = (bundle, seed, max_age, hazard_region)


def _worker_run(slot):
    bundle, seed, max_age, hazard_region = _WORKER_STATE["args"]
    return _simulate_slot((bundle, seed, slot, max_age, hazard_region))


def simulate_catalog(bundle: ModelBundle, n: int, seed: int, workers: int = 1,
                     max_age: int = 800, hazard_region=None):
    """Simulate exactly `n` accepted storms.

    Each accepted-storm slot draws from its own deterministic stream family
    (seed, slot, attempt), so results do not depend on the worker count.
    Returns (catalog, stats) where stats holds the termination-cause
    histogram and rejection counts.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 storms, got {n}")
    results = []
    if workers > 1:
        with Pool(processes=workers, initializer=_init_worker,
                  initargs=(bundle, seed, max_age, hazard_region)) as pool:
            results = pool.map(_worker_run, range(n), chunksize=max(1, n // (workers * 8)))
    else:
        for slot in range(n):
            results.append(_simulate_slot((bundle, seed, slot, max_age, hazard_region)))

    tracks = tuple(r[0] for r in results)
    causes: dict[str, int] = {}
    rejected = 0
    for track, cause, attempt in results:
        causes[cause] = causes.get(cause, 0) + 1
        rejected += attempt
    catalog = Catalog(storms=tracks, years_of_record=n / bundle.storms_per_year)
    stats = {"causes": causes, "rejected_attempts": rejected, "n": n, "seed": seed}
    return catalog, stats


def replay_storm(bundle: ModelBundle, token: str, max_age: int = 800, hazard_region=None):
    """Re-simulate the storm identified by a 'seed-slot-attempt' token."""
    seed, slot, attempt = (int(x) for x in token.split("-"))
    rng = _slot_rng(seed, slot, attempt)
    fields, cause = simulate_storm(bundle, rng, max_age=max_age, hazard_region=hazard_region)
    if fields is None:
        raise ValidationError(f"token {token} does not reproduce a valid storm")
    return _build_track(f"replay-{slot}", fields, token)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

# bundle fields whose JSON key differs from the attribute name
_RENAMED = {"bandwidth_scale": "scale", "global_model": "global", "hazard_fit": "hazard"}
# JSON types accepted for each scalar field type.  Numbers keep their JSON
# type, and any number passes: fit settings from a config file are not
# type-checked, so an int field of a written bundle may hold 10.0
_SCALARS = {float: (int, float), int: (int, float), bool: (int, float), str: str}


@functools.cache
def _fields(cls) -> tuple:
    """(attribute, JSON key, type hint) of each serialized dataclass field.

    Fields whose names start with '_' are lazily built caches and are skipped.
    """
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, _RENAMED.get(f.name, f.name), hints[f.name])
        for f in dataclasses.fields(cls) if not f.name.startswith("_")
    )


def _encode(value):
    """JSON form of a bundle value.

    Dataclasses become objects, arrays nested lists, tuples lists, frozensets
    sorted lists and slices [start, stop]; a cell index used as a dict key or
    value becomes the string "i,j".
    """
    if dataclasses.is_dataclass(value):
        return {key: _encode(getattr(value, name)) for name, key, _ in _fields(type(value))}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_encode(v) for v in value)
    if isinstance(value, slice):
        return [value.start, value.stop]
    if isinstance(value, dict):
        return {_encode_in_dict(k): _encode_in_dict(v) for k, v in value.items()}
    return value


def _encode_in_dict(value):
    return f"{value[0]},{value[1]}" if isinstance(value, tuple) else _encode(value)


def _decode(hint, value):
    """Rebuild a value of type `hint` from its JSON form (inverse of _encode).

    Dataclasses are rebuilt through their constructors, so their checks run.
    """
    if dataclasses.is_dataclass(hint):
        return hint(**{name: _decode(h, value[key]) for name, key, h in _fields(hint)})
    if hint in _SCALARS:
        if not isinstance(value, _SCALARS[hint]):
            raise TypeError(f"expected {hint.__name__}, got {value!r:.40}")
        return value
    if hint is np.ndarray:
        arr = np.array(value)
        if not isinstance(value, list) or arr.dtype.kind not in "biuf":
            raise ValueError(f"expected a numeric array, got {value!r:.40}")
        return arr if arr.dtype == bool else arr.astype(float, copy=False)
    if hint is slice:
        start, stop = (_decode(int, v) for v in value)
        return slice(start, stop)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        *options, last = (a for a in args if a is not type(None))
        for option in options:
            try:
                return _decode(option, value)
            except (TypeError, ValueError):
                pass
        return _decode(last, value)
    if origin is tuple:
        if isinstance(value, str):  # a cell index written as "i,j"
            i, j = value.split(",")
            return (int(i), int(j))
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(h, v) for h, v in zip(args, value, strict=True))
    if origin is frozenset:
        return frozenset(_decode(args[0], v) for v in value)
    if origin is dict:
        return {_decode(args[0], k): _decode(args[1], v) for k, v in value.items()}
    raise TypeError(f"no JSON decoding for {hint!r}")


def bundle_to_json(bundle: ModelBundle) -> str:
    """Canonical (sorted-key, repr-float) JSON for the bundle; byte-stable."""
    return json.dumps(_encode(bundle), sort_keys=True, separators=(",", ":"))


def bundle_from_json(text: str) -> ModelBundle:
    """Inverse of :func:`bundle_to_json`.

    Raises:
        ValidationError: the text is not JSON, has another schema version, or
            misses or mangles a field (the message names it).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("bundle is not a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"bundle schema version {version} != {SCHEMA_VERSION}")
    parts = {}
    for name, key, hint in _fields(ModelBundle):
        if key not in doc:
            raise ValidationError(f"bundle is missing field {key!r}")
        try:
            parts[name] = _decode(hint, doc[key])
        except KeyError as exc:
            raise ValidationError(f"bundle field {key!r} is missing {exc.args[0]!r}") from exc
        except (TypeError, ValueError, AttributeError, IndexError, ValidationError) as exc:
            raise ValidationError(f"bundle field {key!r} is invalid: {exc}") from exc
    return ModelBundle(**parts)


def save_bundle(bundle: ModelBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bundle_to_json(bundle))


def load_bundle(path) -> ModelBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return bundle_from_json(fh.read())


def fit_report(bundle: ModelBundle, stats: dict | None = None) -> str:
    """Human-readable fitting report."""
    gpd = bundle.marginal.gpd
    lines = [
        "stormsim fit report",
        "===================",
        f"markov order k: {bundle.k}",
        f"grid: {bundle.grid.dlon} x {bundle.grid.dlat} deg, "
        f"{len(bundle.grid.active_cells)} active cells",
        f"storms/year: {bundle.storms_per_year:.3f}",
        "",
        "per-cell kernel tuple counts (cells with own model):",
        f"  genesis: {len(bundle.genesis_conditions.models)} cells, "
        f"{sum(bundle.genesis_conditions.counts().values())} tuples",
        f"  direction: {len(bundle.direction.models)} cells, "
        f"{sum(bundle.direction.counts().values())} tuples",
        f"  speed: {len(bundle.speed.models)} cells, "
        f"{sum(bundle.speed.counts().values())} tuples",
        f"  vorticity: {len(bundle.vorticity_body.models)} cells, "
        f"{sum(bundle.vorticity_body.counts().values())} tuples",
        "",
        f"preprocessing: lambda={bundle.preproc.lam:.4f} quadratic={bundle.preproc.quadratic} "
        f"(W mean {bundle.preproc.w_mean:+.4f}, sd {bundle.preproc.w_sd:.4f}, n={bundle.preproc.n})",
        f"gpd tail: u={gpd.threshold} scale={gpd.scale:.4f} shape={gpd.shape:.4f} "
        f"rate(kernel)={gpd.exceed_rate:.5f} rate(empirical)={gpd.empirical_rate:.5f} "
        f"n_exceed={gpd.n_exceed} converged={gpd.converged}",
        f"laplace threshold: {bundle.u_laplace:.4f}",
        "conditional extremes: alpha=" + np.array2string(bundle.condex.alpha, precision=4)
        + " beta=" + np.array2string(bundle.condex.beta, precision=4)
        + f" events={bundle.condex.n_events}",
        f"hazard gam: gcv={bundle.hazard_fit.gcv_score:.5f} aic={bundle.hazard_fit.aic:.2f} "
        f"edf={bundle.hazard_fit.edf:.2f} rows={bundle.hazard_fit.n_rows}",
    ]
    if stats:
        lines += ["", f"run stats: {stats}"]
    return "\n".join(lines) + "\n"
