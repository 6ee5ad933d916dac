"""Track catalogs, derived kinematics, spherical geometry and spatial gridding.

Tracks are sequences of 3-hourly positions with a vorticity value at each
point.  From consecutive positions we derive the translation speed (m/s) and
the initial bearing (radians, 0 = due north, pi/2 = due east).  All geometry
treats the Earth as a sphere of radius 6371 km.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, StormError, ValidationError

log = logging.getLogger(__name__)

EARTH_RADIUS_M = 6_371_000.0
STEP_SECONDS = 10_800.0  # 3-hourly track points
MIN_TRACK_POINTS = 8  # tracks shorter than 24 h are not usable

CSV_FIELDS = ("storm_id", "time_index", "lon", "lat", "vorticity")


class UndefinedBearingError(ValidationError):
    """Bearing requested between two identical points."""


class PoleDegeneracyError(StormError):
    """A destination point landed on (or numerically at) a pole."""


def normalize_lon(lon: float) -> float:
    """Map a longitude in degrees into [-180, 180)."""
    return (lon + 180.0) % 360.0 - 180.0


def wrap_angle(theta: float) -> float:
    """Map an angle in radians into [-pi, pi)."""
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def great_circle_distance(p, q) -> float:
    """Great-circle distance in metres between two (lon, lat) points in degrees.

    Uses the atan2 form of the spherical distance, which is accurate for both
    antipodal and nearby points.  Symmetric, non-negative and at most pi*R.
    """
    lon1, lat1 = math.radians(p[0]), math.radians(p[1])
    lon2, lat2 = math.radians(q[0]), math.radians(q[1])
    dlon = lon2 - lon1
    cos2 = math.cos(lat2)
    cos1 = math.cos(lat1)
    sin1 = math.sin(lat1)
    sin2 = math.sin(lat2)
    y = math.hypot(cos2 * math.sin(dlon), cos1 * sin2 - sin1 * cos2 * math.cos(dlon))
    x = sin1 * sin2 + cos1 * cos2 * math.cos(dlon)
    return EARTH_RADIUS_M * math.atan2(y, x)


def initial_bearing(p, q) -> float:
    """Initial bearing in radians from p to q, measured clockwise from north.

    Result lies in (-pi, pi]; 0 is due north and pi/2 due east.

    Raises:
        UndefinedBearingError: if p and q coincide.
    """
    if p[0] == q[0] and p[1] == q[1]:
        raise UndefinedBearingError(f"bearing undefined for coincident points {p}")
    lon1, lat1 = math.radians(p[0]), math.radians(p[1])
    lon2, lat2 = math.radians(q[0]), math.radians(q[1])
    dlon = lon2 - lon1
    y = math.sin(dlon) * math.cos(lat2)
    x = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon)
    return math.atan2(y, x)


def destination_point(p, speed: float, bearing: float, dt: float = STEP_SECONDS):
    """Destination (lon, lat) after travelling at `speed` along `bearing` for `dt` seconds.

    Standard spherical destination formulas with the longitude increment given
    by the four-quadrant inverse tangent.

    Raises:
        PoleDegeneracyError: if the destination is numerically at a pole,
            where the longitude is undefined.
    """
    if speed < 0:
        raise ValidationError(f"speed must be non-negative, got {speed}")
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if speed == 0.0:
        return (p[0], p[1])
    delta = speed * dt / EARTH_RADIUS_M  # angular distance
    lon1, lat1 = math.radians(p[0]), math.radians(p[1])
    sin_lat2 = math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(bearing)
    sin_lat2 = min(1.0, max(-1.0, sin_lat2))
    lat2 = math.asin(sin_lat2)
    # asin(1 - eps) ~ pi/2 - sqrt(2 eps): a mathematically polar destination
    # lands ~1e-8 rad short of pi/2 in floating point
    if abs(lat2) >= math.pi / 2.0 - 1e-7:
        raise PoleDegeneracyError(f"destination at a pole from {p}, bearing {bearing}")
    dlon = math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * sin_lat2,
    )
    return (normalize_lon(math.degrees(lon1 + dlon)), math.degrees(lat2))


@dataclass(frozen=True)
class TrackPoint:
    """A single 3-hourly observation of a storm centre."""

    lon: float  # degrees in [-180, 180)
    lat: float  # degrees strictly inside (-90, 90)
    time_index: int
    vorticity: float  # relative vorticity, units of 1e-5 s^-1


@dataclass(frozen=True)
class StormTrack:
    """A time-ordered storm track with derived per-step kinematics.

    `speeds[i]` and `bearings[i]` describe the step from `points[i]` to
    `points[i+1]`, so both have length ``len(points) - 1``.  A zero-length
    step keeps the previous bearing (0.0 if it is the first step).  When not
    given, they are derived from the points on first access.
    """

    id: str
    points: tuple[TrackPoint, ...]
    speeds: np.ndarray = field(repr=False, compare=False, default=None)
    bearings: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(self.points) < MIN_TRACK_POINTS:
            raise ValidationError(
                f"storm {self.id!r}: {len(self.points)} points, "
                f"need at least {MIN_TRACK_POINTS} (24 h lifespan)"
            )
        t = [p.time_index for p in self.points]
        if any(b - a != 1 for a, b in zip(t, t[1:])):
            raise ValidationError(f"storm {self.id!r}: time_index not contiguous")

    def __len__(self):
        return len(self.points)

    @property
    def vorticities(self) -> np.ndarray:
        return np.array([p.vorticity for p in self.points])

    @property
    def lons(self) -> np.ndarray:
        return np.array([p.lon for p in self.points])

    @property
    def lats(self) -> np.ndarray:
        return np.array([p.lat for p in self.points])


class _Kinematics:
    """A per-step array of a track, stored as given or derived on first access."""

    def __init__(self, slot: str):
        self.slot = slot

    def __get__(self, track, owner=None):
        if track is None:
            return None
        state = track.__dict__
        if state.get(self.slot) is None:
            for slot, derived in zip(("_speeds", "_bearings"), _derive_kinematics(track.points)):
                if state.get(slot) is None:
                    state[slot] = derived
        return state[self.slot]

    def __set__(self, track, value):
        track.__dict__[self.slot] = value


# loading a catalog for risk analytics never reads speeds or bearings
StormTrack.speeds = _Kinematics("_speeds")
StormTrack.bearings = _Kinematics("_bearings")


def _derive_kinematics(points):
    n = len(points)
    speeds = np.empty(n - 1)
    bearings = np.empty(n - 1)
    prev_bearing = 0.0
    for i in range(n - 1):
        p = (points[i].lon, points[i].lat)
        q = (points[i + 1].lon, points[i + 1].lat)
        d = great_circle_distance(p, q)
        speeds[i] = d / STEP_SECONDS
        if d > 0.0:
            prev_bearing = initial_bearing(p, q)
        bearings[i] = prev_bearing
    return speeds, bearings


@dataclass(frozen=True)
class CatalogColumns:
    """Every track point of a catalog as flat arrays, in storm order."""

    lon: np.ndarray
    lat: np.ndarray
    vorticity: np.ndarray
    storm: np.ndarray  # index into Catalog.storms of each point


@dataclass(frozen=True)
class Catalog:
    """A set of storm tracks spanning `years_of_record` years."""

    storms: tuple[StormTrack, ...]
    years_of_record: float

    def __post_init__(self):
        if not self.storms:
            raise ValidationError("catalog has no storms")
        if not (self.years_of_record > 0 and math.isfinite(self.years_of_record)):
            raise ValidationError(f"years_of_record must be positive, got {self.years_of_record}")

    def __len__(self):
        return len(self.storms)

    @property
    def storms_per_year(self) -> float:
        return len(self.storms) / self.years_of_record

    def n_points(self) -> int:
        return sum(len(s) for s in self.storms)

    @functools.cached_property
    def columns(self) -> CatalogColumns:
        """Columnar view of the track points, built on first use."""
        points = [p for s in self.storms for p in s.points]
        return CatalogColumns(
            lon=np.array([p.lon for p in points]),
            lat=np.array([p.lat for p in points]),
            vorticity=np.array([p.vorticity for p in points]),
            storm=np.repeat(np.arange(len(self.storms)), [len(s) for s in self.storms]),
        )


def load_catalog(path, years_of_record: float | None = None) -> Catalog:
    """Load a track catalog from CSV.

    Expected header: ``storm_id,time_index,lon,lat,vorticity`` (extra columns
    are ignored).  Rows are grouped by storm id and sorted by time index;
    tracks with fewer than 8 points are dropped with a logged warning count.

    A comment line ``# years_of_record: <x>`` before the header supplies the
    record length when the `years_of_record` argument is None.

    Raises:
        ParseError: malformed row (reported with its line number).
        ValidationError: duplicate or non-contiguous time indices, bad
            coordinates, non-positive vorticity, or no usable storms.
    """
    rows: dict[str, dict[int, TrackPoint]] = {}
    header: list[str] | None = None
    col: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw:
                continue
            if raw[0].lstrip().startswith("#"):
                text = ",".join(raw).lstrip("# ").strip()
                if text.startswith("years_of_record:") and years_of_record is None:
                    try:
                        years_of_record = float(text.split(":", 1)[1])
                    except ValueError:
                        raise ParseError("unreadable years_of_record comment", line=lineno)
                continue
            if header is None:
                header = [h.strip() for h in raw]
                missing = [c for c in CSV_FIELDS if c not in header]
                if missing:
                    raise ParseError(f"missing columns {missing}", line=lineno)
                col = {c: header.index(c) for c in CSV_FIELDS}
                continue
            try:
                sid = raw[col["storm_id"]].strip()
                t = int(raw[col["time_index"]])
                lon = normalize_lon(float(raw[col["lon"]]))
                lat = float(raw[col["lat"]])
                vort = float(raw[col["vorticity"]])
            except (ValueError, IndexError) as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if not -90.0 < lat < 90.0:
                raise ValidationError(f"storm {sid!r}: latitude {lat} not inside (-90, 90)")
            if not vort > 0.0:
                raise ValidationError(f"storm {sid!r}: vorticity must be positive, got {vort}")
            storm = rows.setdefault(sid, {})
            if t in storm:
                raise ValidationError(f"storm {sid!r}: duplicate time_index {t}")
            storm[t] = TrackPoint(lon=lon, lat=lat, time_index=t, vorticity=vort)
    if header is None:
        raise ParseError("empty file", line=0)
    if years_of_record is None:
        raise ValidationError("years_of_record not given and not present in the file header")

    storms = []
    n_short = 0
    for sid, by_time in rows.items():
        points = tuple(by_time[t] for t in sorted(by_time))
        if len(points) < MIN_TRACK_POINTS:
            n_short += 1
            continue
        storms.append(StormTrack(id=sid, points=points))
    if n_short:
        log.warning("rejected %d track(s) shorter than %d points", n_short, MIN_TRACK_POINTS)
    if not storms:
        raise ValidationError(
            f"no usable storms: all {n_short} track(s) shorter than {MIN_TRACK_POINTS} points"
        )
    return Catalog(storms=tuple(storms), years_of_record=years_of_record)


@dataclass(frozen=True)
class GridSpec:
    """Regular lon/lat grid with half-open cells.

    Cell (i, j) covers ``[lon0 + i*dlon, lon0 + (i+1)*dlon)`` by
    ``[lat0 + j*dlat, lat0 + (j+1)*dlat)``, so boundary points belong to the
    cell to the east/north.  `active_cells` are the indices with observed
    storm activity; `extent`, when given, is a (lon_min, lon_max, lat_min,
    lat_max) outer bound and points outside map to no cell.
    """

    lon0: float
    lat0: float
    dlon: float
    dlat: float
    active_cells: frozenset[tuple[int, int]] = frozenset()
    min_count: int = 1
    extent: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.dlon <= 0 or self.dlat <= 0:
            raise ValidationError("grid cell sizes must be positive")

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        i, j = cell
        return (self.lon0 + (i + 0.5) * self.dlon, self.lat0 + (j + 0.5) * self.dlat)


def grid_cell(p, grid: GridSpec):
    """Cell index of point p, or None when p is outside the grid extent."""
    lon, lat = normalize_lon(p[0]), p[1]
    if grid.extent is not None:
        lon_min, lon_max, lat_min, lat_max = grid.extent
        if not (lon_min <= lon < lon_max and lat_min <= lat < lat_max):
            return None
    i = math.floor((lon - grid.lon0) / grid.dlon)
    j = math.floor((lat - grid.lat0) / grid.dlat)
    return (i, j)


def build_grid(
    catalog: Catalog,
    dlon: float = 8.0,
    dlat: float = 4.0,
    lon0: float = -180.0,
    lat0: float = -90.0,
    min_count: int = 1,
    extent=None,
) -> GridSpec:
    """Impose a grid on the catalog domain and mark cells with enough points active."""
    base = GridSpec(lon0=lon0, lat0=lat0, dlon=dlon, dlat=dlat, min_count=min_count, extent=extent)
    counts: dict[tuple[int, int], int] = {}
    for storm in catalog.storms:
        for pt in storm.points:
            cell = grid_cell((pt.lon, pt.lat), base)
            if cell is None:
                continue
            counts[cell] = counts.get(cell, 0) + 1
    active = frozenset(c for c, n in counts.items() if n >= min_count)
    return GridSpec(
        lon0=lon0, lat0=lat0, dlon=dlon, dlat=dlat,
        active_cells=active, min_count=min_count, extent=extent,
    )


def pacf(series, max_lag: int) -> np.ndarray:
    """Partial autocorrelations at lags 0..max_lag via the Durbin-Levinson recursion.

    Lag 0 is 1 by convention.  Used as the diagnostic supporting the choice of
    Markov order for the per-variable step series.

    Raises:
        ValidationError: series too short for `max_lag`, or constant (the
            autocorrelation is undefined).
    """
    z = np.asarray(series, dtype=float)
    if z.ndim != 1:
        raise ValidationError("pacf expects a 1-D series")
    n = z.size
    if max_lag < 1:
        raise ValidationError("max_lag must be at least 1")
    if n <= max_lag + 1:
        raise ValidationError(f"series length {n} too short for max_lag {max_lag}")
    z = z - z.mean()
    denom = float(z @ z)
    if denom <= 0.0 or not np.isfinite(denom):
        raise ValidationError("constant series: partial autocorrelation undefined")
    r = np.empty(max_lag + 1)
    r[0] = 1.0
    for h in range(1, max_lag + 1):
        r[h] = float(z[: n - h] @ z[h:]) / denom

    out = np.empty(max_lag + 1)
    out[0] = 1.0
    phi = np.zeros(max_lag + 1)  # phi[j] = phi_{h,j} for the current order h
    for h in range(1, max_lag + 1):
        if h == 1:
            phi_hh = r[1]
        else:
            prev = phi[1:h]
            num = r[h] - float(prev @ r[1:h][::-1])
            den = 1.0 - float(prev @ r[1:h])
            if den <= 0.0:
                raise ValidationError("degenerate autocorrelation sequence")
            phi_hh = num / den
            phi[1:h] = prev - phi_hh * prev[::-1]
        phi[h] = phi_hh
        out[h] = min(1.0, max(-1.0, phi_hh))
    return out
