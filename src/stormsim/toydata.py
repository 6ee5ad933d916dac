"""Procedural toy catalogs.

These generators build plausible mid-latitude storm tracks directly from
simple stochastic recursions, without touching any of the fitted-model
machinery.  They exist so demos, tests and self-recovery experiments have a
catalog with realistic spatial structure: a genesis corridor, a prevailing
north-easterly drift, vorticity lifecycles with occasional intense storms,
and age/intensity-dependent termination.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Catalog, PoleDegeneracyError, StormTrack, destination_point, wrap_angle


def make_catalog(n_storms: int = 300, seed: int = 0, years_of_record: float | None = None) -> Catalog:
    """Generate a synthetic catalog of `n_storms` tracks.

    `years_of_record` defaults to n_storms / 80, i.e. roughly eighty storms
    per season as in a North Atlantic winter climatology.
    """
    rng = np.random.default_rng(seed)
    storms = tuple(_make_storm(f"toy{i:05d}", rng) for i in range(n_storms))
    years = years_of_record if years_of_record is not None else n_storms / 80.0
    return Catalog(storms=storms, years_of_record=years)


def _make_storm(storm_id: str, rng: np.random.Generator, max_steps: int = 60) -> StormTrack:
    lon = float(np.clip(-45.0 + 10.0 * rng.standard_normal(), -58.0, 5.0))
    lat = float(np.clip(50.0 + 4.0 * rng.standard_normal(), 42.0, 62.0))
    v = max(2.0, 11.0 + 3.0 * rng.standard_normal())
    theta = wrap_angle(math.pi / 3.0 + 0.5 * rng.standard_normal())
    omega = 1.4 + 0.8 * abs(rng.standard_normal())
    peak = 1.5 + rng.gamma(2.0, 0.8)

    points = [(lon, lat, omega)]
    for age in range(2, max_steps + 1):
        theta_pref = math.pi / 2.0 - 0.02 * (lat - 40.0) - 0.004 * (lon + 60.0)
        v_pref = 12.0 + 0.08 * (lon + 60.0) - 0.15 * abs(lat - 52.0)
        omega_pref = 1.2 + peak * math.exp(-(((age - 10.0) / 9.0) ** 2)) * (1.0 + 0.15 * math.sin(lat / 5.0))

        theta = wrap_angle(theta + 0.25 * (theta_pref - theta) + 0.18 * rng.standard_normal())
        v = max(1.0, v + 0.3 * (v_pref - v) + 1.2 * rng.standard_normal())
        omega = max(1.02, omega + 0.3 * (omega_pref - omega) + 0.25 * rng.standard_normal())
        try:
            lon, lat = destination_point((lon, lat), v, theta)
        except PoleDegeneracyError:
            break
        points.append((lon, lat, omega))

        if age >= 8:
            hazard = 1.0 / (1.0 + math.exp(-(-5.0 + 0.08 * (age - 8.0) + 0.6 * max(0.0, 2.0 - omega))))
            if rng.uniform() < hazard:
                break
    lons, lats, omegas = np.transpose(points)
    return StormTrack(id=storm_id, lons=lons, lats=lats, vorticities=omegas)
