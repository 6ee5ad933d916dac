"""Output checks for the benchmark workloads.

Each check recomputes what the program wrote from the inputs, with code
written here (a haversine, a Box-Cox design, a B-spline design, loops over
points), or tests a property the method must have.  None compares against a
stored copy of earlier output.  Every function returns a list of problems;
an empty list means the outputs passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.interpolate import BSpline
from scipy.special import expit
from scipy.stats import genpareto

EARTH_RADIUS_M = 6_371_000.0
STEP_SECONDS = 10_800.0
MIN_POINTS = 8
IRLS_TOL = 1e-8  # gam._irls stops once the deviance moves by less than this share


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a stormsim CSV, skipping `#` comment lines."""
    header, rows = None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if header is None:
            header = fields
        else:
            rows.append(fields)
    return header or [], rows


def normalize_lon(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


def haversine(p, q) -> float:
    lon1, lat1, lon2, lat2 = map(math.radians, (p[0], p[1], q[0], q[1]))
    a = (math.sin((lat2 - lat1) / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def bearing(p, q) -> float:
    lon1, lat1, lon2, lat2 = map(math.radians, (p[0], p[1], q[0], q[1]))
    y = math.sin(lon2 - lon1) * math.cos(lat2)
    x = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    return math.atan2(y, x)


def angle_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------

def training_w(doc: dict, storms) -> tuple[np.ndarray, np.ndarray]:
    """In-window training residuals W and their scales, from the bundle's
    Box-Cox coefficients: (boxcox(omega) - mu(nu)) / sigma(nu)."""
    p = doc["preproc"]
    lon_min, lon_max, lat_min, lat_max = p["window"]
    cols = {k: [] for k in ("omega", "lon", "lat", "bearing", "speed")}
    for s in storms:
        cols["omega"].append(s.vorticities[1:])
        cols["lon"].append(s.lons[1:])
        cols["lat"].append(s.lats[1:])
        cols["bearing"].append(s.bearings)
        cols["speed"].append(s.speeds)
    omega, lon, lat, bear, speed = (np.concatenate(cols[k]) for k in cols)
    keep = (lon > lon_min) & (lon < lon_max) & (lat > lat_min) & (lat < lat_max)
    omega, lon, lat, bear, speed = (a[keep] for a in (omega, lon, lat, bear, speed))
    design = [np.ones_like(lon), lon, lat, np.sin(bear), np.cos(bear), speed]
    if p["quadratic"]:
        design += [lon ** 2, lat ** 2]
    x = (np.column_stack(design) - np.array(p["col_mean"])) / np.array(p["col_scale"])
    lam = p["lam"]
    y = np.log(omega) if abs(lam) < 1e-8 else (omega ** lam - 1.0) / lam
    sd = np.exp(x @ np.array(p["sigma_coef"]))
    return (y - x @ np.array(p["mu_coef"])) / sd, sd


def hazard_probabilities(doc: dict, cols: dict) -> np.ndarray:
    """Fitted termination probabilities on training rows, from the bundle's
    knots, constraints and coefficients (training rows lie inside the knots)."""
    h = doc["hazard"]
    coef = np.array(h["coef"])
    eta = np.full(len(next(iter(cols.values()))), coef[0])
    for name, basis, z, (a, b) in zip(h["covariates"], h["bases"], h["constraints"], h["slices"]):
        design = BSpline.design_matrix(cols[name], np.array(basis["knots"]), basis["degree"])
        eta += design.toarray() @ (np.array(z) @ coef[a:b])
    return expit(np.clip(eta, -30.0, 30.0))


def check_fit(doc: dict, storms, rows, to_laplace, from_laplace) -> list[str]:
    """`rows` is (covariate columns, outcomes) from gam.storm_rows; the
    Laplace maps are the program's, bound to the bundle's marginal."""
    problems = []

    cols, y = rows
    prob = hazard_probabilities(doc, cols)
    weight = float(np.sum(prob * (1.0 - prob)))
    # at the stopping point the next Newton step would lower the deviance by
    # at most IRLS_TOL * (D + 1); that decrement bounds score^2 / information
    tol = 2.0 * math.sqrt(weight * IRLS_TOL * (doc["hazard"]["deviance"] + 1.0))
    score = float(np.sum(y) - np.sum(prob))
    if not abs(score) <= tol:
        problems.append(f"hazard: fitted probabilities sum to {np.sum(prob):.6f}, "
                        f"{int(np.sum(y))} terminations (|score| {abs(score):.3g} > {tol:.3g})")

    w, sd = training_w(doc, storms)
    mean_w = float(np.sum(w / sd) / np.sum(1.0 / sd))
    mean_sq = float(np.mean(w * w))
    if not (abs(mean_w) <= 1e-4 and abs(mean_sq - 1.0) <= 1e-4):
        problems.append(f"box-cox: scale-weighted mean W {mean_w:.3g} (want 0), "
                        f"mean square {mean_sq:.8f} (want 1)")

    g = doc["marginal"]["gpd"]
    excess = w[w > g["threshold"]] - g["threshold"]
    if excess.size != g["n_exceed"]:
        problems.append(f"gpd: {excess.size} excesses above {g['threshold']}, "
                        f"bundle says {g['n_exceed']}")
    ll_fit = float(np.sum(genpareto.logpdf(excess, g["shape"], scale=g["scale"])))
    c, _, scale = genpareto.fit(excess, floc=0)
    ll_ref = float(np.sum(genpareto.logpdf(excess, c, scale=scale)))
    if not ll_fit >= ll_ref - 1e-6 * max(1.0, abs(ll_ref)):
        problems.append(f"gpd: log-likelihood {ll_fit:.6f} below scipy's {ll_ref:.6f}")

    sample = np.unique(np.concatenate([np.quantile(w, np.linspace(0.0, 1.0, 41)),
                                       np.sort(w)[-5:]]))
    s = np.asarray(to_laplace(sample))
    if not np.all(np.diff(s) > 0.0):
        problems.append("laplace: to_laplace is not increasing on training values")
    back = np.asarray(from_laplace(s))
    gap = np.abs(back - sample) / (1.0 + np.abs(sample))
    if not np.all(gap <= 1e-6):
        worst = int(np.argmax(gap))
        problems.append(f"laplace: from_laplace(to_laplace({sample[worst]:.6f})) = "
                        f"{back[worst]:.6f}")
    return problems


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def read_simulated(path) -> dict[str, dict]:
    """Storms of a simulated CSV, in file order: id -> points, token, tags."""
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    storms: dict[str, dict] = {}
    for r in rows:
        s = storms.setdefault(r[col["storm_id"]], {"points": [], "t": [], "tags": [],
                                                   "token": r[col["seed"]]})
        s["t"].append(int(r[col["time_index"]]))
        s["points"].append((float(r[col["lon"]]), float(r[col["lat"]]),
                            float(r[col["vorticity"]])))
        s["tags"].append(r[col["sampler_tag"]])
    return storms


def _points(track) -> list[tuple[float, float, float]]:
    return [(p.lon, p.lat, p.vorticity) for p in track.points]


def check_simulated(storms: dict, n: int, doc: dict, reference, replayed: dict) -> list[str]:
    """`reference` holds the tracks of a one-worker library run with the same
    bundle and seed (with their stored speeds and bearings); `replayed` maps
    sampled seed tokens to the program's replay of them."""
    problems = []
    if len(storms) != n:
        problems.append(f"count: {len(storms)} storms, want {n}")
    for sid, s in storms.items():
        if len(s["points"]) < MIN_POINTS or s["t"] != list(range(len(s["t"]))):
            problems.append(f"count: storm {sid} has {len(s['points'])} points "
                            f"or non-contiguous time indices")

    g = doc["grid"]
    active = {tuple(c) for c in g["active_cells"]}
    floor = doc["min_vorticity"]
    for sid, s in storms.items():
        pts = s["points"]
        for lon, lat, _ in pts:
            cell = (math.floor((normalize_lon(lon) - g["lon0"]) / g["dlon"]),
                    math.floor((lat - g["lat0"]) / g["dlat"]))
            if cell not in active:
                problems.append(f"domain: storm {sid} point ({lon}, {lat}) in inactive cell {cell}")
                break
        if any(v < floor for _, _, v in pts[1:]):
            problems.append(f"floor: storm {sid} has vorticity below {floor}")

    by_token = {s["token"]: (sid, s) for sid, s in storms.items()}
    ref_tokens = [t.seed_token for t in reference]
    if ref_tokens != [s["token"] for s in storms.values()]:
        problems.append("reference: storms or seed tokens differ from the one-worker run")
    for track in reference:
        sid, s = by_token.get(track.seed_token, (None, None))
        if s is None:
            continue
        if _points(track) != s["points"]:
            problems.append(f"reference: storm {sid} differs from the one-worker run")
        pts = s["points"]
        if len(track.speeds) != len(pts) - 1:
            continue
        for j in range(len(pts) - 1):
            d = haversine(pts[j], pts[j + 1])
            want = float(track.speeds[j]) * STEP_SECONDS
            if abs(d - want) > 1e-6 * want + 1e-3:
                problems.append(f"geometry: storm {sid} step {j} covers {d:.3f} m, "
                                f"speed x 3 h = {want:.3f} m")
                break
            if d > 1.0 and angle_gap(bearing(pts[j], pts[j + 1]), float(track.bearings[j])) > 1e-6:
                problems.append(f"geometry: storm {sid} step {j} bearing differs from stored")
                break

    for token, track in replayed.items():
        sid, s = by_token.get(token, (None, None))
        if s is None or _points(track) != s["points"]:
            problems.append(f"replay: token {token} does not reproduce storm {sid}")

    if not any("tail" in s["tags"] for s in storms.values()):
        problems.append("tail: no step took the tail branch")
    return problems


# --------------------------------------------------------------------------
# risk
# --------------------------------------------------------------------------

def read_points(path) -> list[tuple[float, float, float]]:
    """(lon, lat, vorticity) of every row of an input catalog CSV."""
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    return [(normalize_lon(float(r[col["lon"]])), float(r[col["lat"]]),
             float(r[col["vorticity"]])) for r in rows]


def _inside(box, lon, lat) -> bool:
    lon_min, lon_max, lat_min, lat_max = box
    return lon_min < lon < lon_max and lat_min < lat < lat_max


def _same(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def check_risk(points, years: float, rcfg: dict, out_dir) -> list[str]:
    """`points` are the input catalog's points; `rcfg` the risk config."""
    problems = []
    out_dir = Path(out_dir)
    regions = {r["name"]: (r["lon_min"], r["lon_max"], r["lat_min"], r["lat_max"])
               for r in rcfg["regions"]}

    def counts(box, omega):
        n_points = n_exceed = 0
        for lon, lat, v in points:
            if _inside(box, lon, lat):
                n_points += 1
                if v > omega:
                    n_exceed += 1
        return n_exceed, n_points

    _, rows = read_csv(out_dir / "exceedance.csv")
    if len(rows) != len(regions) * len(rcfg["omegas"]):
        problems.append(f"exceedance: {len(rows)} rows")
    for name, omega, prob, _, _, n_exc, n_pts in rows:
        want_exc, want_pts = counts(regions[name], float(omega))
        want_prob = want_exc / want_pts if want_pts else math.nan
        if (int(n_exc), int(n_pts)) != (want_exc, want_pts) or not _same(float(prob), want_prob):
            problems.append(f"exceedance: {name} omega {omega}: {n_exc}/{n_pts} = {prob}, "
                            f"brute force {want_exc}/{want_pts}")

    _, rows = read_csv(out_dir / "return_periods.csv")
    bootstrapped = False
    for name, omega, yrs, lo, hi, _ in rows:
        n_exc, _ = counts(regions[name], float(omega))
        want = years / n_exc if n_exc else math.inf
        if not _same(float(yrs), want):
            problems.append(f"return period: {name} omega {omega}: {yrs}, want {want}")
        if math.isfinite(float(yrs)) and math.isfinite(float(lo)) and math.isfinite(float(hi)):
            bootstrapped = True
    if not bootstrapped:
        problems.append("bootstrap: no finite return period with a finite interval")

    _, rows = read_csv(out_dir / "return_levels.csv")
    for name, r_years, level, _, _, note in rows:
        target = years / float(r_years)
        level = float(level)
        if target < 1.0:
            if not (math.isnan(level) and note == "extrapolation-unsupported"):
                problems.append(f"return level: {name} r {r_years} should be unsupported")
            continue
        vals = [v for lon, lat, v in points if _inside(regions[name], lon, lat)]
        above = sum(1 for v in vals if v > level)
        at_or_above = sum(1 for v in vals if v >= level)
        if not (above <= target < at_or_above):
            problems.append(f"return level: {name} r {r_years}: {level} has {above} values "
                            f"above and {at_or_above} at or above, {target:.4f} allowed")

    # every cell of the risk grid that holds a point, with its own count
    dlon, dlat = float(rcfg["grid_dlon"]), float(rcfg["grid_dlat"])
    cell_omega = float(rcfg["cell_omega"])
    cells: dict[tuple[int, int], list[int]] = {}
    for lon, lat, v in points:
        i, j = math.floor((lon + 180.0) / dlon), math.floor((lat + 90.0) / dlat)
        lon_c, lat_c = -180.0 + (i + 0.5) * dlon, -90.0 + (j + 0.5) * dlat
        tally = cells.setdefault((i, j), [0, 0])
        if _inside((lon_c - dlon / 2, lon_c + dlon / 2, lat_c - dlat / 2, lat_c + dlat / 2), lon, lat):
            tally[0] += 1
            tally[1] += v > cell_omega
    _, rows = read_csv(out_dir / "cell_return_periods.csv")
    listed = [(int(r[0]), int(r[1])) for r in rows]
    if listed != sorted(cells):
        problems.append(f"cells: {len(listed)} cells listed, {len(cells)} hold points")
    for r in rows:
        n_in, n_exc = cells.get((int(r[0]), int(r[1])), (0, 0))
        want = math.nan if n_in == 0 else (years / n_exc if n_exc else math.inf)
        if not _same(float(r[5]), want):
            problems.append(f"cells: cell ({r[0]}, {r[1]}) return period {r[5]}, want {want}")
    return problems
