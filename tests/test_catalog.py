import math

import numpy as np
import pytest

from stormsim.catalog import (
    EARTH_RADIUS_M,
    STEP_SECONDS,
    Catalog,
    GridSpec,
    PoleDegeneracyError,
    StormTrack,
    TrackPoint,
    UndefinedBearingError,
    build_grid,
    destination_point,
    grid_cell,
    great_circle_distance,
    initial_bearing,
    _derive_kinematics,
    load_catalog,
    normalize_lon,
    pacf,
)
from stormsim.errors import ParseError, ValidationError


# ---------------------------------------------------------------- oracles

def haversine_oracle(p, q):
    """Independent haversine implementation (different formula path)."""
    lon1, lat1, lon2, lat2 = map(math.radians, (p[0], p[1], q[0], q[1]))
    a = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def bearing_oracle(p, q):
    """Bearing via 3-D tangent vectors, independent of the atan2 trig identity."""
    lon1, lat1 = math.radians(p[0]), math.radians(p[1])
    lon2, lat2 = math.radians(q[0]), math.radians(q[1])
    u = np.array([math.cos(lon1) * math.cos(lat1), math.sin(lon1) * math.cos(lat1), math.sin(lat1)])
    v = np.array([math.cos(lon2) * math.cos(lat2), math.sin(lon2) * math.cos(lat2), math.sin(lat2)])
    north = np.array([-math.cos(lon1) * math.sin(lat1), -math.sin(lon1) * math.sin(lat1), math.cos(lat1)])
    east = np.array([-math.sin(lon1), math.cos(lon1), 0.0])
    t = v - (v @ u) * u  # tangent at p pointing toward q
    return math.atan2(t @ east, t @ north)


def pacf_ols_oracle(z, max_lag):
    """PACF as the last coefficient of successive least-squares AR(h) fits."""
    z = np.asarray(z, dtype=float)
    z = z - z.mean()
    out = [1.0]
    for h in range(1, max_lag + 1):
        y = z[h:]
        X = np.column_stack([z[h - j : len(z) - j] for j in range(1, h + 1)])
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        out.append(coef[-1])
    return np.array(out)


# ---------------------------------------------------------------- geometry

def test_distance_identity():
    assert great_circle_distance((12.3, 45.6), (12.3, 45.6)) == 0.0


def test_distance_quarter_circumference():
    d = great_circle_distance((0.0, 0.0), (0.0, 90.0 - 1e-12))
    assert abs(d - 10_007_543.0) < 1.0


def test_distance_matches_haversine_oracle():
    d = great_circle_distance((-75.0, 40.0), (0.0, 51.0))
    assert d == pytest.approx(haversine_oracle((-75.0, 40.0), (0.0, 51.0)), rel=1e-6)


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(42)
    for _ in range(200):
        pts = [(float(lon), float(lat)) for lon, lat in zip(rng.uniform(-180, 180, 3), rng.uniform(-89, 89, 3))]
        a, b, c = pts
        dab = great_circle_distance(a, b)
        assert dab == pytest.approx(great_circle_distance(b, a), rel=1e-12)
        assert dab >= 0.0
        assert dab <= math.pi * EARTH_RADIUS_M * (1 + 1e-12)
        assert dab <= great_circle_distance(a, c) + great_circle_distance(c, b) + 1e-6


def test_bearing_cardinal_directions():
    assert initial_bearing((0.0, 0.0), (0.0, 10.0)) == pytest.approx(0.0, abs=1e-12)
    assert initial_bearing((0.0, 0.0), (10.0, 0.0)) == pytest.approx(math.pi / 2, abs=1e-12)


def test_bearing_matches_vector_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = (float(rng.uniform(-180, 180)), float(rng.uniform(-85, 85)))
        q = (float(rng.uniform(-180, 180)), float(rng.uniform(-85, 85)))
        if p == q:
            continue
        assert initial_bearing(p, q) == pytest.approx(bearing_oracle(p, q), abs=1e-9)


def test_bearing_undefined_for_coincident_points():
    with pytest.raises(UndefinedBearingError):
        initial_bearing((1.0, 2.0), (1.0, 2.0))


def test_destination_zero_speed():
    assert destination_point((10.0, 50.0), 0.0, 1.0) == (10.0, 50.0)


def test_destination_equatorial_arc():
    # 111 195 m along the equator is one degree of longitude
    lon, lat = destination_point((0.0, 0.0), 111_195.0 / STEP_SECONDS, math.pi / 2)
    assert lon == pytest.approx(1.0, abs=1e-6)
    assert lat == pytest.approx(0.0, abs=1e-6)


def test_destination_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(500):
        p = (float(rng.uniform(-180, 180)), float(rng.uniform(-80, 80)))
        speed = float(rng.uniform(0.5, 40.0))
        bearing = float(rng.uniform(-math.pi, math.pi))
        q = destination_point(p, speed, bearing)
        d = great_circle_distance(p, q)
        assert d == pytest.approx(speed * STEP_SECONDS, rel=1e-6)
        assert initial_bearing(p, q) == pytest.approx(bearing, abs=1e-6)


def test_destination_pole_degeneracy():
    # 10 degrees of latitude straight north from 80N lands on the pole
    with pytest.raises(PoleDegeneracyError):
        destination_point((10.0, 80.0), 10.0 * 111_194.926644 / STEP_SECONDS, 0.0)


# ---------------------------------------------------------------- grid

def test_grid_origin_cell():
    g = GridSpec(lon0=-180.0, lat0=-90.0, dlon=8.0, dlat=4.0)
    assert grid_cell((-180.0, -90.0 + 1e-9), g) == (0, 0)


def test_grid_half_open_edges():
    g = GridSpec(lon0=0.0, lat0=0.0, dlon=8.0, dlat=4.0)
    # a point on a shared edge belongs to the cell to the east/north
    assert grid_cell((8.0, 2.0), g) == (1, 0)
    assert grid_cell((3.0, 4.0), g) == (0, 1)
    assert grid_cell((7.999999, 3.999999), g) == (0, 0)


def test_grid_extent_marker():
    g = GridSpec(lon0=0.0, lat0=0.0, dlon=8.0, dlat=4.0, extent=(0.0, 40.0, 0.0, 20.0))
    assert grid_cell((50.0, 5.0), g) is None
    assert grid_cell((5.0, 5.0), g) == (0, 1)


def test_grid_partition(toy_catalog):
    g = build_grid(toy_catalog, dlon=8.0, dlat=4.0)
    counts = {}
    total = 0
    for storm in toy_catalog.storms:
        for pt in storm.points:
            cell = grid_cell((pt.lon, pt.lat), g)
            assert cell is not None
            counts[cell] = counts.get(cell, 0) + 1
            total += 1
    assert set(counts) == set(g.active_cells)
    assert sum(counts.values()) == total == toy_catalog.n_points()


# ---------------------------------------------------------------- loading

HEADER = "storm_id,time_index,lon,lat,vorticity\n"


def write_csv(tmp_path, body, name="cat.csv", header=HEADER):
    path = tmp_path / name
    path.write_text(header + body)
    return path


def test_load_rejects_short_only_storm(tmp_path):
    body = "".join(f"s1,{t},{t:.1f},50.0,2.0\n" for t in range(3))
    with pytest.raises(ValidationError, match="shorter"):
        load_catalog(write_csv(tmp_path, body), years_of_record=1.0)


def test_load_two_storms(tmp_path):
    body = "".join(f"a,{t},{t:.1f},50.0,2.0\n" for t in range(10))
    body += "".join(f"b,{t},{t:.1f},40.0,3.0\n" for t in range(10))
    cat = load_catalog(write_csv(tmp_path, body), years_of_record=2.0)
    assert len(cat) == 2
    for storm in cat.storms:
        assert len(storm.speeds) == 9
        assert len(storm.bearings) == 9
    assert cat.storms_per_year == pytest.approx(1.0)


def test_load_duplicate_time_index(tmp_path):
    body = "".join(f"a,{t},{t:.1f},50.0,2.0\n" for t in range(10))
    body += "a,4,99.0,10.0,1.0\n"
    with pytest.raises(ValidationError, match="duplicate"):
        load_catalog(write_csv(tmp_path, body), years_of_record=1.0)


def test_load_non_contiguous_names_storm(tmp_path):
    body = "".join(f"bad,{t},{t:.1f},50.0,2.0\n" for t in [0, 1, 2, 3, 5, 6, 7, 8, 9])
    with pytest.raises(ValidationError, match="bad"):
        load_catalog(write_csv(tmp_path, body), years_of_record=1.0)


def test_load_malformed_row_reports_line(tmp_path):
    body = "".join(f"a,{t},{t:.1f},50.0,2.0\n" for t in range(9))
    body += "a,9,not-a-number,50.0,2.0\n"
    with pytest.raises(ParseError, match="line 11"):
        load_catalog(write_csv(tmp_path, body), years_of_record=1.0)


def test_load_short_track_warning_count(tmp_path, caplog):
    body = "".join(f"a,{t},{t:.1f},50.0,2.0\n" for t in range(10))
    body += "tiny,0,0.0,50.0,2.0\n"
    with caplog.at_level("WARNING"):
        cat = load_catalog(write_csv(tmp_path, body), years_of_record=1.0)
    assert len(cat) == 1
    assert any("1 track" in rec.getMessage() for rec in caplog.records)


def test_load_years_from_header_comment(tmp_path):
    body = "".join(f"a,{t},{t:.1f},50.0,2.0\n" for t in range(10))
    path = write_csv(tmp_path, body, header="# years_of_record: 4.5\n" + HEADER)
    cat = load_catalog(path)
    assert cat.years_of_record == 4.5


def test_load_requires_positive_vorticity(tmp_path):
    body = "".join(f"a,{t},{t:.1f},50.0,2.0\n" for t in range(9))
    body += "a,9,9.0,50.0,-0.5\n"
    with pytest.raises(ValidationError, match="vorticity"):
        load_catalog(write_csv(tmp_path, body), years_of_record=1.0)


# ----------------------------------------------------- derived kinematics

def test_kinematics_consistency(toy_catalog):
    # stepping from each point with the derived speed/bearing reproduces the next point
    for storm in toy_catalog.storms[:20]:
        for i in range(len(storm) - 1):
            p = (storm.points[i].lon, storm.points[i].lat)
            q = (storm.points[i + 1].lon, storm.points[i + 1].lat)
            if storm.speeds[i] == 0.0:
                continue
            r = destination_point(p, storm.speeds[i], storm.bearings[i])
            err = great_circle_distance(q, r)
            assert err <= 1e-6 * max(1.0, storm.speeds[i] * STEP_SECONDS)


def test_kinematics_derived_lazily_equal_eager(toy_catalog, tmp_path):
    path = tmp_path / "toy.csv"
    lines = ["storm_id,time_index,lon,lat,vorticity"]
    for s in toy_catalog.storms[:15]:
        lines += [f"{s.id},{p.time_index},{p.lon!r},{p.lat!r},{p.vorticity!r}" for p in s.points]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_catalog(path, years_of_record=1.0)
    for storm in loaded.storms:
        assert storm.__dict__["_speeds"] is None and storm.__dict__["_bearings"] is None
        speeds, bearings = _derive_kinematics(storm.points)
        assert np.array_equal(storm.bearings, bearings)
        assert np.array_equal(storm.speeds, speeds)


def test_given_kinematics_are_kept():
    pts = tuple(TrackPoint(lon=-20.0 + i, lat=50.0, time_index=i, vorticity=3.0) for i in range(8))
    speeds = np.arange(7.0)
    storm = StormTrack(id="a", points=pts, speeds=speeds)
    assert storm.speeds is speeds
    assert np.array_equal(storm.bearings, _derive_kinematics(pts)[1])


# ---------------------------------------------------------------- pacf

def test_pacf_lag_zero_convention():
    rng = np.random.default_rng(0)
    assert pacf(rng.normal(size=100), 5)[0] == 1.0


def test_pacf_white_noise_null_band():
    rng = np.random.default_rng(3)
    z = rng.normal(size=10_000)
    vals = pacf(z, 10)
    assert np.all(np.abs(vals[1:]) < 2.0 / math.sqrt(z.size))


def test_pacf_ar1_matches_theory_and_ols_oracle():
    rng = np.random.default_rng(5)
    n = 10_000
    z = np.empty(n)
    z[0] = 0.0
    eps = rng.normal(size=n)
    for t in range(1, n):
        z[t] = 0.8 * z[t - 1] + eps[t]
    vals = pacf(z, 5)
    assert vals[1] == pytest.approx(0.8, abs=0.03)
    assert abs(vals[2]) < 0.03
    oracle = pacf_ols_oracle(z, 5)
    np.testing.assert_allclose(vals[1:], oracle[1:], atol=0.02)


def test_pacf_constant_series_error():
    with pytest.raises(ValidationError, match="constant"):
        pacf(np.ones(50), 3)


def test_pacf_bounds():
    rng = np.random.default_rng(9)
    vals = pacf(np.cumsum(rng.normal(size=500)), 8)
    assert np.all(vals >= -1.0) and np.all(vals <= 1.0)


def test_normalize_lon():
    assert normalize_lon(180.0) == -180.0
    assert normalize_lon(-180.0) == -180.0
    assert normalize_lon(190.0) == pytest.approx(-170.0)
