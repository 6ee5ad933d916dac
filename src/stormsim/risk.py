"""Risk analytics over storm catalogs.

Exceedance probabilities condition on track points falling inside a lon/lat
region (optionally collapsed to one indicator per storm), return periods and
levels invert the empirical annual exceedance-rate step function, and all
interval estimates come from one storm-level nonparametric bootstrap.  QQ
tolerance envelopes resample the simulated sample at the observed size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, GridSpec, cell_counts
from .errors import UndefinedRegionError, ValidationError

UK_REGION_BOUNDS = (-11.0, 2.0, 50.0, 60.0)


@dataclass(frozen=True)
class Region:
    """Axis-aligned lon/lat box; default is the UK study region."""

    lon_min: float = UK_REGION_BOUNDS[0]
    lon_max: float = UK_REGION_BOUNDS[1]
    lat_min: float = UK_REGION_BOUNDS[2]
    lat_max: float = UK_REGION_BOUNDS[3]

    def __post_init__(self):
        if not (self.lon_min < self.lon_max and self.lat_min < self.lat_max):
            raise ValidationError(f"degenerate region {self}")

    def contains(self, lon, lat):
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        return (
            (lon > self.lon_min) & (lon < self.lon_max)
            & (lat > self.lat_min) & (lat < self.lat_max)
        )


@dataclass(frozen=True)
class RiskResult:
    estimate: float
    ci: tuple[float, float] | None
    n_num: int
    n_den: int
    note: str = ""


def _region_points(catalog: Catalog, region: Region):
    """Columns of the catalog and the mask of its points inside the region.

    Raises:
        UndefinedRegionError: no catalog point falls inside the region.
    """
    cols = catalog.columns
    inside = region.contains(cols.lon, cols.lat)
    if not inside.any():
        raise UndefinedRegionError(f"no catalog points in region {region}")
    return cols, inside


def _per_storm_counts(catalog: Catalog, region: Region, omega: float):
    """Per-storm (exceedances in region, points in region) sufficient statistics."""
    cols, inside = _region_points(catalog, region)
    n = len(catalog.storms)
    num = np.bincount(cols.storm[inside & (cols.vorticity > omega)], minlength=n)
    den = np.bincount(cols.storm[inside], minlength=n)
    return num, den


def _percentile(reps, q):
    with np.errstate(invalid="ignore"):
        value = float(np.percentile(reps, q))
    if math.isnan(value) and not np.isnan(reps).any():
        # numpy interpolates next to an infinite replicate as inf - inf =
        # NaN, even at zero weight; replicates are never -inf, so the limit
        # is what "higher" picks: +inf, or the value itself at zero weight
        value = float(np.percentile(reps, q, method="higher"))
    return value


def _percentile_interval(reps, level):
    # replicates may hold inf (zero exceedances), which bounds the interval
    # at +inf, or NaN (undefined resample), which propagates by design
    alpha = (1.0 - level) / 2.0
    return _percentile(reps, 100 * alpha), _percentile(reps, 100 * (1 - alpha))


def _bootstrap_ci(n, n_boot, level, seed, replicate):
    """Percentile interval of `replicate(idx)` over `n_boot` storm-level
    resamples, each drawing n storm indices with replacement; None when
    `n_boot` <= 0."""
    if n_boot <= 0:
        return None
    rng = np.random.default_rng(seed)
    reps = np.empty(n_boot)
    for b in range(n_boot):
        reps[b] = replicate(rng.integers(0, n, size=n))
    return _percentile_interval(reps, level)


def _ratio_bootstrap_ci(num, den, n_boot, level, seed):
    def ratio(idx):
        d = den[idx].sum()
        return num[idx].sum() / d if d > 0 else np.nan

    return _bootstrap_ci(len(num), n_boot, level, seed, ratio)


def exceedance_prob(catalog: Catalog, region: Region, omega: float,
                    n_boot: int = 200, level: float = 0.95, seed: int = 0) -> RiskResult:
    """Probability that an in-region track point exceeds vorticity `omega`.

    Counts every point: sum of in-region exceedances over the count of
    in-region points.  The CI bootstraps storms, not points.

    Raises:
        UndefinedRegionError: no catalog point falls inside the region.
    """
    num, den = _per_storm_counts(catalog, region, omega)
    return RiskResult(
        estimate=float(num.sum() / den.sum()),
        ci=_ratio_bootstrap_ci(num, den, n_boot, level, seed),
        n_num=int(num.sum()),
        n_den=int(den.sum()),
    )


def max_exceedance_prob(catalog: Catalog, region: Region, omega: float,
                        n_boot: int = 200, level: float = 0.95, seed: int = 0) -> RiskResult:
    """Per-storm variant: a storm counts once if its in-region maximum exceeds."""
    num, den = _per_storm_counts(catalog, region, omega)
    storm_hit = (num > 0).astype(float)
    storm_in = (den > 0).astype(float)
    return RiskResult(
        estimate=float(storm_hit.sum() / storm_in.sum()),
        ci=_ratio_bootstrap_ci(storm_hit, storm_in, n_boot, level, seed),
        n_num=int(storm_hit.sum()),
        n_den=int(storm_in.sum()),
    )


def return_period(catalog: Catalog, region: Region, omega: float,
                  n_boot: int = 200, level: float = 0.95, seed: int = 0) -> RiskResult:
    """Years per expected exceedance of `omega` inside the region.

    1 / (annual exceedance rate); infinite when nothing in the record
    exceeds `omega` (note "infinite-period").  A bootstrap replicate with no
    exceedance is infinite too, which can make the upper bound +inf.
    """
    num, den = _per_storm_counts(catalog, region, omega)
    years = catalog.years_of_record
    count, n_in = int(num.sum()), int(den.sum())
    if count == 0:
        return RiskResult(math.inf, None, 0, n_in, note="infinite-period")

    def period(idx):
        c = num[idx].sum()
        return years / c if c > 0 else np.inf

    ci = _bootstrap_ci(len(num), n_boot, level, seed, period)
    return RiskResult(float(years / count), ci, count, n_in)


def return_level(catalog: Catalog, region: Region, r_years: float,
                 n_boot: int = 200, level: float = 0.95, seed: int = 0) -> RiskResult:
    """Vorticity exceeded on average once every `r_years` inside the region.

    Inverts the empirical annual exceedance-count step function (lower
    envelope: the smallest vorticity whose exceedance rate is <= 1/r).  When
    fewer than one exceedance is expected in the record (r > years), returns
    NaN with note "extrapolation-unsupported".
    """
    if r_years <= 0:
        raise ValidationError(f"return period must be positive, got {r_years}")
    cols, inside = _region_points(catalog, region)
    order = np.argsort(cols.vorticity[inside])
    vals = cols.vorticity[inside][order]
    years = catalog.years_of_record
    target = years / r_years  # allowed number of exceedances in the record
    if target < 1.0:
        return RiskResult(math.nan, None, 0, vals.size, note="extrapolation-unsupported")

    def level_of(sorted_vals):
        n = sorted_vals.size
        # count strictly above each candidate, scanning from the top
        m = min(int(math.floor(target)) + 1, n)
        for i in range(m, 0, -1):
            candidate = sorted_vals[n - i]
            above = n - np.searchsorted(sorted_vals, candidate, side="right")
            if above <= target:
                return float(candidate)
        return float(sorted_vals[-1])

    est = level_of(vals)
    owner = cols.storm[inside][order]
    n = len(catalog.storms)

    def resampled_level(idx):
        # a resample's sorted values are the sorted in-region values, each
        # repeated as often as its storm was drawn
        resampled = np.repeat(vals, np.bincount(idx, minlength=n)[owner])
        return level_of(resampled) if resampled.size else np.nan

    ci = _bootstrap_ci(n, n_boot, level, seed, resampled_level)
    return RiskResult(est, ci, int(np.sum(vals > est)), vals.size)


def cell_return_periods(catalog: Catalog, grid: GridSpec, omega: float):
    """Return period of `omega` in each active cell of `grid`, without bootstrap.

    Each cell is the open box of `Region` around its centre, so a point on a
    cell edge belongs to no cell.  Points are sorted by longitude once; a
    column of cells shares one longitude slice, sorted by latitude, and each
    cell is then a latitude range of it.  Returns rows (cell, lon_center,
    lat_center, years, note) in cell order, with the notes of
    :func:`return_period` and NaN / "undefined-region" for an empty cell.
    """
    cols = catalog.columns
    by_lon = np.argsort(cols.lon)
    lons = cols.lon[by_lon]
    years = catalog.years_of_record
    rows = []
    by_column: dict = {}
    for cell in sorted(grid.active_cells):
        by_column.setdefault(cell[0], []).append(cell)
    for cells in by_column.values():
        lon_c, _ = grid.cell_center(cells[0])
        a = np.searchsorted(lons, lon_c - grid.dlon / 2, side="right")
        z = np.searchsorted(lons, lon_c + grid.dlon / 2, side="left")
        pts = by_lon[a:z]
        by_lat = np.argsort(cols.lat[pts])
        lats = cols.lat[pts][by_lat]
        exceed = np.concatenate([[0], np.cumsum(cols.vorticity[pts][by_lat] > omega)])
        for cell in cells:
            lon_c, lat_c = grid.cell_center(cell)
            lo = np.searchsorted(lats, lat_c - grid.dlat / 2, side="right")
            hi = np.searchsorted(lats, lat_c + grid.dlat / 2, side="left")
            count = int(exceed[hi] - exceed[lo])
            if hi == lo:
                rows.append((cell, lon_c, lat_c, math.nan, "undefined-region"))
            elif count == 0:
                rows.append((cell, lon_c, lat_c, math.inf, "infinite-period"))
            else:
                rows.append((cell, lon_c, lat_c, float(years / count), ""))
    return rows


def spatial_density(catalog: Catalog, grid: GridSpec, subset: str = "all"):
    """Normalized per-cell density of track points.

    `subset` selects all points, genesis (first) or lysis (last) points.
    Returns rows (cell, lon_center, lat_center, density) summing to 1.
    """
    if subset not in ("all", "genesis", "lysis"):
        raise ValidationError(f"unknown subset {subset!r}")
    if subset == "all":
        lons, lats = catalog.columns.lon, catalog.columns.lat
    else:
        end = 0 if subset == "genesis" else -1
        lons = np.array([s.lons[end] for s in catalog.storms])
        lats = np.array([s.lats[end] for s in catalog.storms])
    counts = cell_counts(lons, lats, grid)
    total = float(sum(counts.values()))
    return [(cell, *grid.cell_center(cell), counts[cell] / total) for cell in sorted(counts)]


VARIABLE_GETTERS = {
    "speed": lambda s: s.speeds,
    "direction": lambda s: s.bearings,
    "vorticity": lambda s: s.vorticities,
    "lifetime": lambda s: np.array([float(len(s))]),
}


def catalog_qq_envelope(observed: Catalog, simulated: Catalog, variable,
                        probs=None, level: float = 0.95, n_boot: int = 200,
                        seed: int = 0):
    """QQ envelope between catalogs with storm-level tolerance bands.

    Values within a storm are serially dependent, so each band replicate is a
    resampled set of whole storms from the simulated catalog, of the same
    storm count as the observed catalog (the construction behind
    observed-versus-simulated track comparisons).  `variable` is one of
    "speed", "direction", "vorticity", "lifetime" or a callable
    storm -> values.  Returns rows (p, observed_q, simulated_q, lo, hi,
    inside).
    """
    get = VARIABLE_GETTERS[variable] if isinstance(variable, str) else variable
    if probs is None:
        probs = np.linspace(0.01, 0.99, 99)
    probs = np.asarray(probs, dtype=float)
    obs = np.concatenate([get(s) for s in observed.storms])
    sim = np.concatenate([get(s) for s in simulated.storms])
    obs_q = np.quantile(obs, probs)
    sim_q = np.quantile(sim, probs)
    rng = np.random.default_rng(seed)
    storms = simulated.storms
    reps = np.empty((n_boot, probs.size))
    for b in range(n_boot):
        idx = rng.integers(0, len(storms), size=len(observed.storms))
        reps[b] = np.quantile(np.concatenate([get(storms[i]) for i in idx]), probs)
    alpha = (1.0 - level) / 2.0
    lo = np.percentile(reps, 100 * alpha, axis=0)
    hi = np.percentile(reps, 100 * (1 - alpha), axis=0)
    return [
        (float(p), float(o), float(s), float(a), float(z), bool(a <= o <= z))
        for p, o, s, a, z in zip(probs, obs_q, sim_q, lo, hi)
    ]
