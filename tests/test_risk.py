import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormsim.catalog import Catalog, GridSpec, StormTrack, build_grid, grid_cell
from stormsim.errors import UndefinedRegionError
from stormsim.risk import (
    Region,
    _percentile_interval,
    catalog_qq_envelope,
    cell_return_periods,
    exceedance_prob,
    max_exceedance_prob,
    return_level,
    return_period,
    spatial_density,
)


def storm_from_arrays(sid, lons, lats, vorts):
    return StormTrack(id=sid, lons=lons, lats=lats, vorticities=vorts)


def random_catalog(rng, n_storms=25, years=10.0):
    storms = []
    for i in range(n_storms):
        n = rng.integers(8, 20)
        lons = rng.uniform(-20.0, 10.0, n)
        lats = rng.uniform(45.0, 65.0, n)
        vorts = rng.gamma(3.0, 1.0, n) + 0.5
        storms.append(storm_from_arrays(f"s{i}", lons, lats, vorts))
    return Catalog(storms=tuple(storms), years_of_record=years)


def brute_exceedance(catalog, region, omega):
    """Independent double-loop recount of the exceedance probability."""
    num = den = 0
    for storm in catalog.storms:
        for p in storm.points:
            if region.lon_min < p.lon < region.lon_max and region.lat_min < p.lat < region.lat_max:
                den += 1
                if p.vorticity > omega:
                    num += 1
    return num, den


def brute_max_exceedance(catalog, region, omega):
    num = den = 0
    for storm in catalog.storms:
        in_pts = [
            p for p in storm.points
            if region.lon_min < p.lon < region.lon_max and region.lat_min < p.lat < region.lat_max
        ]
        if in_pts:
            den += 1
            if max(p.vorticity for p in in_pts) > omega:
                num += 1
    return num, den


UK = Region()


# ------------------------------------------------------------- exceedance

def test_exceedance_toy_hand_count():
    storm = storm_from_arrays(
        "a",
        [-5.0, -4.0, -3.0, 20.0, 21.0, 22.0, 23.0, 24.0],
        [55.0, 55.0, 55.0, 55.0, 55.0, 55.0, 55.0, 55.0],
        [5.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0],
    )
    cat = Catalog(storms=(storm,), years_of_record=1.0)
    res = exceedance_prob(cat, UK, omega=2.0, n_boot=0)
    assert res.estimate == pytest.approx(1.0 / 3.0)
    assert (res.n_num, res.n_den) == (1, 3)


def test_exceedance_below_all_values():
    rng = np.random.default_rng(0)
    cat = random_catalog(rng)
    res = exceedance_prob(cat, UK, omega=0.0, n_boot=0)
    assert res.estimate == 1.0


def test_exceedance_matches_brute_force_on_random_catalogs():
    rng = np.random.default_rng(1)
    for trial in range(100):
        cat = random_catalog(rng, n_storms=int(rng.integers(3, 12)))
        omega = float(rng.uniform(0.5, 8.0))
        region = Region(
            lon_min=float(rng.uniform(-20, -5)), lon_max=float(rng.uniform(0, 10)),
            lat_min=float(rng.uniform(45, 52)), lat_max=float(rng.uniform(55, 65)),
        )
        num, den = brute_exceedance(cat, region, omega)
        if den == 0:
            with pytest.raises(UndefinedRegionError):
                exceedance_prob(cat, region, omega, n_boot=0)
            continue
        res = exceedance_prob(cat, region, omega, n_boot=0)
        assert res.estimate == num / den
        assert (res.n_num, res.n_den) == (num, den)


def test_exceedance_undefined_region():
    rng = np.random.default_rng(2)
    cat = random_catalog(rng)
    far = Region(lon_min=100.0, lon_max=110.0, lat_min=0.0, lat_max=10.0)
    with pytest.raises(UndefinedRegionError):
        exceedance_prob(cat, far, omega=1.0, n_boot=0)


# ---------------------------------------------------------- per-storm max

def test_max_exceedance_counts_storm_once():
    storm = storm_from_arrays(
        "a", [-5.0] * 8, [55.0] * 8, [9.0, 9.0, 9.0, 9.0, 9.0, 1.0, 1.0, 1.0]
    )
    cat = Catalog(storms=(storm,), years_of_record=1.0)
    res = max_exceedance_prob(cat, UK, omega=2.0, n_boot=0)
    assert res.estimate == 1.0
    assert res.n_num == 1 and res.n_den == 1


def test_max_exceedance_equals_pointwise_when_single_points():
    rng = np.random.default_rng(3)
    storms = []
    for i in range(30):
        lons = np.concatenate([[-5.0], np.full(7, 50.0)])  # one in-region point
        lats = np.full(8, 55.0)
        vorts = rng.gamma(3.0, 1.0, 8) + 0.5
        storms.append(storm_from_arrays(f"s{i}", lons, lats, vorts))
    cat = Catalog(storms=tuple(storms), years_of_record=5.0)
    a = exceedance_prob(cat, UK, omega=3.0, n_boot=0)
    b = max_exceedance_prob(cat, UK, omega=3.0, n_boot=0)
    assert a.estimate == b.estimate


def test_max_exceedance_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(30):
        cat = random_catalog(rng, n_storms=int(rng.integers(3, 10)))
        omega = float(rng.uniform(1.0, 8.0))
        num, den = brute_max_exceedance(cat, UK, omega)
        if den == 0:
            continue
        res = max_exceedance_prob(cat, UK, omega, n_boot=0)
        assert res.estimate == num / den


# ------------------------------------------------------- periods / levels

def test_return_period_definition():
    # 10 years of record, 5 exceedances -> 2-year return period
    lons = np.full(10, -5.0)
    lats = np.full(10, 55.0)
    vorts = [9.0, 9.0, 9.0, 9.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    cat = Catalog(storms=(storm_from_arrays("a", lons, lats, vorts),), years_of_record=10.0)
    res = return_period(cat, UK, omega=2.0, n_boot=0)
    assert res.estimate == pytest.approx(2.0)


def test_return_period_infinite_marker():
    rng = np.random.default_rng(5)
    cat = random_catalog(rng)
    res = return_period(cat, UK, omega=1e9, n_boot=0)
    assert math.isinf(res.estimate) and res.note == "infinite-period"


def test_return_level_round_trip():
    rng = np.random.default_rng(6)
    cat = random_catalog(rng, n_storms=40, years=20.0)
    for r in (0.5, 1.0, 2.0, 5.0):
        lvl = return_level(cat, UK, r, n_boot=0)
        m = lvl.n_num + 1
        per = return_period(cat, UK, lvl.estimate, n_boot=0)
        assert per.estimate >= r * (1 - 1.0 / m) - 1e-9
        # the step inverse can only overshoot by one exceedance step
        assert per.estimate <= cat.years_of_record


def test_return_level_extrapolation_marker():
    rng = np.random.default_rng(7)
    cat = random_catalog(rng, years=10.0)
    res = return_level(cat, UK, r_years=50.0, n_boot=0)
    assert math.isnan(res.estimate) and res.note == "extrapolation-unsupported"


def test_return_level_monotone_in_r():
    rng = np.random.default_rng(8)
    cat = random_catalog(rng, n_storms=60, years=30.0)
    levels = [return_level(cat, UK, r, n_boot=0).estimate for r in (0.5, 1, 2, 5, 10)]
    assert all(a <= b + 1e-12 for a, b in zip(levels, levels[1:]))


def test_return_period_monotone_in_omega():
    rng = np.random.default_rng(9)
    cat = random_catalog(rng, n_storms=60, years=30.0)
    periods = [return_period(cat, UK, w, n_boot=0).estimate for w in (1.0, 3.0, 5.0, 8.0)]
    assert all(a <= b + 1e-12 for a, b in zip(periods, periods[1:]))


# ------------------------------------------------------------- densities

def test_spatial_density_single_point():
    cat = Catalog(
        storms=(storm_from_arrays("a", [-5.0] * 8, [55.0] * 8, [2.0] * 8),),
        years_of_record=1.0,
    )
    grid = GridSpec(lon0=-180.0, lat0=-90.0, dlon=8.0, dlat=4.0)
    rows = spatial_density(cat, grid, subset="genesis")
    assert len(rows) == 1
    assert rows[0][3] == 1.0


def test_spatial_density_sums_to_one(toy_catalog):
    grid = build_grid(toy_catalog)
    for subset in ("all", "genesis", "lysis"):
        rows = spatial_density(toy_catalog, grid, subset=subset)
        assert sum(r[3] for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_spatial_density_matches_per_point_reference(toy_catalog):
    grid = build_grid(toy_catalog, dlon=4.0, dlat=3.0)
    for subset, pick in (("all", slice(None)), ("genesis", slice(0, 1)), ("lysis", slice(-1, None))):
        counts = {}
        for storm in toy_catalog.storms:
            for p in storm.points[pick]:
                cell = grid_cell((p.lon, p.lat), grid)
                counts[cell] = counts.get(cell, 0) + 1
        w = {c: float(n) for c, n in counts.items()}
        total = sum(w.values())
        want = [(c, *grid.cell_center(c), w[c] / total) for c in sorted(w)]
        assert spatial_density(toy_catalog, grid, subset=subset) == want


def test_spatial_density_genesis_lysis_partition(toy_catalog):
    grid = build_grid(toy_catalog)
    n = len(toy_catalog.storms)
    for subset in ("genesis", "lysis"):
        rows = spatial_density(toy_catalog, grid, subset=subset)
        counts = [round(r[3] * n) for r in rows]
        assert sum(counts) == n


# ------------------------------------------------------------- bootstrap

def test_bootstrap_coverage_of_known_probability():
    # desk-scale version of the coverage experiment (full run in acceptance)
    rng = np.random.default_rng(10)
    true_p = 0.3
    cover = 0
    n_rep = 60
    for rep in range(n_rep):
        storms = []
        for i in range(40):
            n = 10
            lons = np.full(n, -5.0)
            lats = np.full(n, 55.0)
            vorts = np.where(rng.uniform(size=n) < true_p, 5.0, 1.0) + rng.uniform(0, 0.1, n)
            storms.append(storm_from_arrays(f"s{i}", lons, lats, vorts))
        cat = Catalog(storms=tuple(storms), years_of_record=10.0)
        res = exceedance_prob(cat, UK, omega=3.0, n_boot=200, seed=rep)
        if res.ci[0] <= true_p <= res.ci[1]:
            cover += 1
    assert cover / n_rep >= 0.85


# ------------------------------------------------------------- envelopes

def test_qq_identical_samples_inside():
    cat = random_catalog(np.random.default_rng(11), n_storms=150)
    rows = catalog_qq_envelope(cat, cat, "vorticity", n_boot=200, seed=0)
    assert all(r[5] for r in rows)


def test_qq_shifted_sample_detected():
    cat = random_catalog(np.random.default_rng(12), n_storms=150)
    shifted = Catalog(
        storms=tuple(storm_from_arrays(s.id, s.lons, s.lats, s.vorticities + 3.0)
                     for s in cat.storms),
        years_of_record=cat.years_of_record,
    )
    rows = catalog_qq_envelope(cat, shifted, "vorticity", n_boot=200, seed=0)
    outside = sum(1 for r in rows if not r[5])
    assert outside > len(rows) / 2


def test_qq_band_width_tracks_monte_carlo_error():
    # bands resample whole simulated storms at the observed storm count, so
    # their width is the Monte Carlo error of that many storms: ~1/sqrt(n_obs)
    rng = np.random.default_rng(13)
    sim = random_catalog(rng, n_storms=2000)
    width = lambda rows: np.mean([r[4] - r[3] for r in rows])
    w_small = width(catalog_qq_envelope(random_catalog(rng, n_storms=30), sim, "vorticity",
                                        n_boot=200, seed=1))
    w_big = width(catalog_qq_envelope(random_catalog(rng, n_storms=960), sim, "vorticity",
                                      n_boot=200, seed=1))
    assert w_big < w_small / 3.0  # expect ~1/sqrt(32) ~ 0.18 ratio


# ------------------------------------------- intervals with infinite replicates

def test_percentile_interval_finite_replicates_match_numpy():
    reps = np.random.default_rng(14).gamma(2.0, 1.0, 200)
    assert _percentile_interval(reps, 0.95) == (
        float(np.percentile(reps, 2.5)), float(np.percentile(reps, 97.5)))


def test_percentile_interval_infinite_tail_is_inf():
    reps = np.concatenate([np.linspace(1.0, 2.0, 190), np.full(10, np.inf)])
    lo, hi = _percentile_interval(reps, 0.95)
    assert lo == float(np.percentile(reps, 2.5)) and hi == math.inf
    assert _percentile_interval(np.full(5, np.inf), 0.95) == (math.inf, math.inf)
    # the median of three sits on the middle value with zero weight on the
    # infinite neighbour, where numpy's interpolation gives NaN
    assert _percentile_interval(np.array([1.0, 2.0, np.inf]), 0.0) == (2.0, 2.0)


def test_percentile_interval_nan_replicate_propagates():
    reps = np.concatenate([np.linspace(1.0, 2.0, 199), [np.nan]])
    lo, hi = _percentile_interval(reps, 0.95)
    assert math.isnan(lo) and math.isnan(hi)


def test_return_period_upper_bound_unbounded_is_inf():
    from stormsim.toydata import make_catalog

    res = return_period(make_catalog(1000, seed=7), Region(), 6.0, n_boot=200, seed=0)
    assert res.ci[0] == pytest.approx(2.083, abs=1e-3)
    assert res.ci[1] == math.inf


# ------------------- per-storm reference for the sufficient-statistic estimators
#
# The estimators work on flat point columns and per-storm counts.  These
# references walk storms and points one at a time, as the estimators are
# defined, with the same random draws, so estimates and intervals must agree
# exactly.  Interval bounds go through the module's percentile rule, which is
# tested on its own above.

def ref_in_region(region, p):
    return region.lon_min < p.lon < region.lon_max and region.lat_min < p.lat < region.lat_max


def ref_storm_counts(catalog, region, omega):
    counts = []
    for storm in catalog.storms:
        inside = [p for p in storm.points if ref_in_region(region, p)]
        counts.append((sum(1 for p in inside if p.vorticity > omega), len(inside)))
    return counts


def ref_ratio(counts, n_boot, seed):
    num = sum(c[0] for c in counts)
    den = sum(c[1] for c in counts)
    if den == 0:
        raise UndefinedRegionError("empty")
    ci = None
    if n_boot > 0:
        rng = np.random.default_rng(seed)
        reps = []
        for _ in range(n_boot):
            idx = rng.integers(0, len(counts), size=len(counts))
            d = sum(counts[i][1] for i in idx)
            reps.append(sum(counts[i][0] for i in idx) / d if d > 0 else math.nan)
        ci = _percentile_interval(np.array(reps), 0.95)
    return num / den, ci, num, den


def ref_exceedance_prob(catalog, region, omega, n_boot, seed):
    return ref_ratio(ref_storm_counts(catalog, region, omega), n_boot, seed)


def ref_max_exceedance_prob(catalog, region, omega, n_boot, seed):
    counts = [(int(n > 0), int(d > 0)) for n, d in ref_storm_counts(catalog, region, omega)]
    return ref_ratio(counts, n_boot, seed)


def ref_return_period(catalog, region, omega, n_boot, seed):
    counts = ref_storm_counts(catalog, region, omega)
    n_in = sum(c[1] for c in counts)
    if n_in == 0:
        raise UndefinedRegionError("empty")
    count = sum(c[0] for c in counts)
    years = catalog.years_of_record
    if count == 0:
        return math.inf, None, 0, n_in
    ci = None
    if n_boot > 0:
        rng = np.random.default_rng(seed)
        reps = []
        for _ in range(n_boot):
            idx = rng.integers(0, len(counts), size=len(counts))
            c = sum(counts[i][0] for i in idx)
            reps.append(years / c if c > 0 else math.inf)
        ci = _percentile_interval(np.array(reps), 0.95)
    return years / count, ci, count, n_in


def ref_return_level(catalog, region, r_years, n_boot, seed):
    per_storm = [[p.vorticity for p in s.points if ref_in_region(region, p)]
                 for s in catalog.storms]
    vals = np.sort([v for vs in per_storm for v in vs])
    if vals.size == 0:
        raise UndefinedRegionError("empty")
    target = catalog.years_of_record / r_years
    if target < 1.0:
        return math.nan, None, 0, vals.size

    def level_of(sorted_vals):
        n = sorted_vals.size
        for i in range(min(int(math.floor(target)) + 1, n), 0, -1):
            candidate = sorted_vals[n - i]
            if n - np.searchsorted(sorted_vals, candidate, side="right") <= target:
                return float(candidate)
        return float(sorted_vals[-1])

    est = level_of(vals)
    ci = None
    if n_boot > 0:
        rng = np.random.default_rng(seed)
        reps = []
        for _ in range(n_boot):
            idx = rng.integers(0, len(per_storm), size=len(per_storm))
            v = [x for i in idx for x in per_storm[i]]
            reps.append(level_of(np.sort(v)) if v else math.nan)
        ci = _percentile_interval(np.array(reps), 0.95)
    return est, ci, int(np.sum(vals > est)), vals.size


def same(a, b):
    """Exact equality that lets NaN equal NaN."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


# Coordinates and vorticities from small sets, so points land on region and
# cell edges and vorticities tie with each other and with the thresholds.
EDGE_LONS = [-12.0, -11.0, -8.0, -6.0, -4.0, -2.0, 0.0, 2.0]
EDGE_LATS = [48.0, 50.0, 51.0, 54.0, 55.5, 57.0, 60.0]
VORTS = [1.0, 2.0, 2.5, 3.0, 4.0, 7.5]
coord_lon = st.one_of(st.sampled_from(EDGE_LONS), st.floats(-14.0, 4.0))
coord_lat = st.one_of(st.sampled_from(EDGE_LATS), st.floats(46.0, 62.0))
vort = st.one_of(st.sampled_from(VORTS), st.floats(0.5, 9.0))


@st.composite
def catalogs(draw, lon=coord_lon, lat=coord_lat):
    storms = []
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(8, 11))
        storms.append(storm_from_arrays(
            f"s{i}", draw(st.lists(lon, min_size=n, max_size=n)),
            draw(st.lists(lat, min_size=n, max_size=n)),
            draw(st.lists(vort, min_size=n, max_size=n))))
    years = draw(st.sampled_from([0.5, 1.0, 2.5, 10.0]))
    return Catalog(storms=tuple(storms), years_of_record=years)


@st.composite
def regions(draw):
    lons = sorted(draw(st.lists(st.sampled_from(EDGE_LONS), min_size=2, max_size=2, unique=True)))
    lats = sorted(draw(st.lists(st.sampled_from(EDGE_LATS), min_size=2, max_size=2, unique=True)))
    return Region(lons[0], lons[1], lats[0], lats[1])


def as_tuple(res):
    return res.estimate, res.ci, res.n_num, res.n_den


def check_against_reference(estimator, reference, cat, region, x, n_boot, seed):
    try:
        want = reference(cat, region, x, n_boot, seed)
    except UndefinedRegionError:
        with pytest.raises(UndefinedRegionError):
            estimator(cat, region, x, n_boot=n_boot, seed=seed)
        return
    assert same(as_tuple(estimator(cat, region, x, n_boot=n_boot, seed=seed)), want)


n_boots = st.sampled_from([0, 1, 7, 40])
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(catalogs(), regions(), st.sampled_from(VORTS + [0.0, 9.5]), n_boots, seeds)
def test_exceedance_probs_match_per_storm_reference(cat, region, omega, n_boot, seed):
    check_against_reference(exceedance_prob, ref_exceedance_prob, cat, region, omega, n_boot, seed)
    check_against_reference(max_exceedance_prob, ref_max_exceedance_prob,
                            cat, region, omega, n_boot, seed)


@settings(max_examples=60, deadline=None)
@given(catalogs(), regions(), st.sampled_from(VORTS + [0.0, 9.5]), n_boots, seeds)
def test_return_period_matches_per_storm_reference(cat, region, omega, n_boot, seed):
    check_against_reference(return_period, ref_return_period, cat, region, omega, n_boot, seed)


@settings(max_examples=60, deadline=None)
@given(catalogs(), regions(), st.sampled_from([0.8, 1.0, 1.5, 2.0, 3.0, 6.0, 40.0]), n_boots, seeds)
def test_return_level_matches_per_storm_reference(cat, region, exceedances, n_boot, seed):
    # r_years allowing about `exceedances` values above the level in the record
    r_years = cat.years_of_record / exceedances
    check_against_reference(return_level, ref_return_level, cat, region, r_years, n_boot, seed)


@st.composite
def gridded_catalogs(draw):
    """A grid spacing and a catalog with many points on its cells' box edges."""
    dlon = draw(st.sampled_from([4.0, 3.0, 2.5, 0.7]))
    dlat = draw(st.sampled_from([3.0, 2.0, 0.7]))
    # cell box edges as the map computes them, from the cell centres
    lon_edges = [-180.0 + (i + 0.5) * dlon + s * dlon / 2
                 for i in range(int(170 // dlon) - 3, int(190 // dlon)) for s in (-1, 1)]
    lat_edges = [-90.0 + (j + 0.5) * dlat + s * dlat / 2
                 for j in range(int(136 // dlat), int(152 // dlat)) for s in (-1, 1)]
    lon = st.one_of(st.sampled_from(lon_edges), st.floats(-14.0, 10.0))
    lat = st.one_of(st.sampled_from(lat_edges), st.floats(46.0, 62.0))
    return draw(catalogs(lon=lon, lat=lat)), dlon, dlat


@settings(max_examples=60, deadline=None)
@given(gridded_catalogs(), st.sampled_from(VORTS + [0.0, 9.5]))
def test_cell_map_matches_return_period_per_cell(gridded, omega):
    cat, dlon, dlat = gridded
    grid = build_grid(cat, dlon=dlon, dlat=dlat)
    rows = cell_return_periods(cat, grid, omega)
    assert [r[0] for r in rows] == sorted(grid.active_cells)
    for cell, lon_c, lat_c, years, note in rows:
        assert (lon_c, lat_c) == grid.cell_center(cell)
        region = Region(lon_c - dlon / 2, lon_c + dlon / 2, lat_c - dlat / 2, lat_c + dlat / 2)
        try:
            per = return_period(cat, region, omega, n_boot=0)
            want = (per.estimate, per.note)
        except UndefinedRegionError:
            want = (math.nan, "undefined-region")
        assert same((years, note), want)


def test_cell_map_edge_point_belongs_to_no_cell():
    # one point on a vertical edge between cells, the rest inside one cell
    lons = [-8.0] + [-9.5] * 7
    cat = Catalog(storms=(storm_from_arrays("a", lons, [55.0] * 8, [5.0] * 8),),
                  years_of_record=1.0)
    grid = build_grid(cat, dlon=4.0, dlat=3.0)
    rows = {r[0]: r[3:] for r in cell_return_periods(cat, grid, 4.0)}
    # -8.0 lies on the west edge of cell 43, which then holds no point
    assert same(rows[(43, 48)], (math.nan, "undefined-region"))
    assert rows[(42, 48)] == (1.0 / 7, "")
