"""Track catalogs, derived kinematics, spherical geometry and spatial gridding.

Tracks are sequences of 3-hourly positions with a vorticity value at each
point, stored as lon/lat/vorticity columns; a catalog concatenates them into
flat columns for risk analytics.  From consecutive positions we derive the
translation speed (m/s) and the initial bearing (radians, 0 = due north,
pi/2 = due east).  All geometry treats the Earth as a sphere of radius
6371 km.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import logging
import math
from dataclasses import dataclass, replace

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


@dataclass(frozen=True, eq=False)
class StormTrack:
    """A time-ordered storm track stored as columns.

    `lons`, `lats` and `vorticities` are float arrays holding one value per
    3-hourly point, and point i has time index ``t0 + i``.  `speeds[i]` and
    `bearings[i]` describe the step from point i to point i+1, so both have
    length ``len(track) - 1``; a zero-length step keeps the previous bearing
    (0.0 if it is the first step).  They are derived from the positions on
    first access, which loading a catalog for risk analytics never makes.
    The arrays are shared, not copied: treat them as read-only.
    """

    id: str
    lons: np.ndarray
    lats: np.ndarray
    vorticities: np.ndarray
    t0: int = 0

    def __post_init__(self):
        for name in ("lons", "lats", "vorticities"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.lons)
        if not len(self.lats) == len(self.vorticities) == n:
            raise ValidationError(f"storm {self.id!r}: lon, lat and vorticity lengths differ")
        if n < MIN_TRACK_POINTS:
            raise ValidationError(
                f"storm {self.id!r}: {n} points, need at least {MIN_TRACK_POINTS} (24 h lifespan)"
            )

    def __len__(self):
        return len(self.lons)

    @property
    def points(self) -> tuple[TrackPoint, ...]:
        """The points as records, built from the columns on each access."""
        cols = zip(self.lons.tolist(), self.lats.tolist(), self.vorticities.tolist())
        return tuple(TrackPoint(x, y, self.t0 + i, w) for i, (x, y, w) in enumerate(cols))

    @functools.cached_property
    def _kinematics(self) -> tuple[np.ndarray, np.ndarray]:
        return _derive_kinematics(self.lons.tolist(), self.lats.tolist())

    # not data descriptors, so a subclass may store these as dataclass fields
    speeds = functools.cached_property(lambda self: self._kinematics[0])
    bearings = functools.cached_property(lambda self: self._kinematics[1])


def _derive_kinematics(lons: list[float], lats: list[float]):
    n = len(lons)
    speeds = np.empty(n - 1)
    bearings = np.empty(n - 1)
    prev_bearing = 0.0
    for i in range(n - 1):
        p = (lons[i], lats[i])
        q = (lons[i + 1], lats[i + 1])
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
        """The tracks' columns concatenated, built on first use."""
        return CatalogColumns(
            lon=np.concatenate([s.lons for s in self.storms]),
            lat=np.concatenate([s.lats for s in self.storms]),
            vorticity=np.concatenate([s.vorticities for s in self.storms]),
            storm=np.repeat(np.arange(len(self.storms)), [len(s) for s in self.storms]),
        )


@contextlib.contextmanager
def _reading(path, what: str):
    """Raise ValidationError naming the input file (`what` at `path`) when
    it is a directory, cannot be read, or is not UTF-8 text."""
    try:
        yield
    except (IsADirectoryError, PermissionError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def read_text(path, what: str) -> str:
    """The text of the UTF-8 input file `path` (`what` names it in errors).

    Raises:
        ValidationError: `path` is a directory, cannot be read, or is not
            UTF-8 text.
    """
    with _reading(path, what), open(path, encoding="utf-8") as fh:
        return fh.read()


def load_catalog(path, years_of_record: float | None = None) -> Catalog:
    """Load a track catalog from CSV.

    Expected header: ``storm_id,time_index,lon,lat,vorticity`` (extra columns
    are ignored).  Rows are grouped by storm id and sorted by time index;
    tracks with fewer than 8 points are dropped with a logged warning count.

    A comment line ``# years_of_record: <x>`` before the header supplies the
    record length when the `years_of_record` argument is None.

    Raises:
        ParseError: malformed row (reported with its line number).
        ValidationError: a directory, unreadable or non-UTF-8 file,
            duplicate or non-contiguous time indices, bad or non-finite
            coordinates, non-positive or non-finite vorticity, or no usable
            storms.
    """
    rows: dict[str, dict[int, tuple[float, float, float]]] = {}
    header: list[str] | None = None
    col: dict[str, int] = {}
    with _reading(path, "catalog"), open(path, newline="", encoding="utf-8") as fh:
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
                lon = float(raw[col["lon"]])
                lat = float(raw[col["lat"]])
                vort = float(raw[col["vorticity"]])
            except (ValueError, IndexError) as exc:
                raise ParseError(str(exc), line=lineno) from exc
            where = f"storm {sid!r}, line {lineno}"
            if not math.isfinite(lon):
                raise ValidationError(f"{where}: longitude {lon} is not finite")
            if not -90.0 < lat < 90.0:
                raise ValidationError(f"{where}: latitude {lat} not inside (-90, 90)")
            if not 0.0 < vort < math.inf:
                raise ValidationError(f"{where}: vorticity must be positive and finite, got {vort}")
            storm = rows.setdefault(sid, {})
            if t in storm:
                raise ValidationError(f"{where}: duplicate time_index {t}")
            storm[t] = (normalize_lon(lon), lat, vort)
    if header is None:
        raise ParseError("empty file", line=0)
    if years_of_record is None:
        raise ValidationError("years_of_record not given and not present in the file header")

    storms = []
    n_short = 0
    for sid, by_time in rows.items():
        times = sorted(by_time)
        if len(times) < MIN_TRACK_POINTS:
            n_short += 1
            continue
        if times[-1] - times[0] != len(times) - 1:  # the times are distinct
            raise ValidationError(f"storm {sid!r}: time_index not contiguous")
        lons, lats, vorts = np.array([by_time[t] for t in times]).T
        storms.append(StormTrack(sid, lons, lats, vorts, t0=times[0]))
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
    storm activity.  The grid covers the globe: every point lies in a cell.
    """

    lon0: float
    lat0: float
    dlon: float
    dlat: float
    active_cells: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        if self.dlon <= 0 or self.dlat <= 0:
            raise ValidationError("grid cell sizes must be positive")

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        i, j = cell
        return (self.lon0 + (i + 0.5) * self.dlon, self.lat0 + (j + 0.5) * self.dlat)


def grid_cell(p, grid: GridSpec) -> tuple[int, int]:
    """Cell index of point p (longitude normalized first)."""
    lon, lat = normalize_lon(p[0]), p[1]
    i = math.floor((lon - grid.lon0) / grid.dlon)
    j = math.floor((lat - grid.lat0) / grid.dlat)
    return (i, j)


def cell_counts(lons: np.ndarray, lats: np.ndarray, grid: GridSpec) -> dict[tuple[int, int], int]:
    """Points per cell of `grid`, in order of first appearance."""
    counts: dict[tuple[int, int], int] = {}
    for p in zip(lons.tolist(), lats.tolist()):
        cell = grid_cell(p, grid)
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def build_grid(
    catalog: Catalog,
    dlon: float = 8.0,
    dlat: float = 4.0,
    lon0: float = -180.0,
    lat0: float = -90.0,
    min_count: int = 1,
) -> GridSpec:
    """Impose a grid on the catalog domain and mark cells with at least
    `min_count` points active."""
    base = GridSpec(lon0=lon0, lat0=lat0, dlon=dlon, dlat=dlat)
    counts = cell_counts(catalog.columns.lon, catalog.columns.lat, base)
    return replace(base, active_cells=frozenset(c for c, n in counts.items() if n >= min_count))


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
