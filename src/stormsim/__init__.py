"""Stochastic simulation of extratropical cyclone tracks.

Fits a storm-track model (kernel genesis and propagation, extreme-value
vorticity tails with Markov tail chains, spline hazard termination) to an
observed catalog and Monte-Carlo simulates synthetic storms for risk
analysis: return levels, return periods and spatial densities.
"""

from . import catalog, condex, engine, errors, evt, gam, kde, preprocess, risk, toydata
from .catalog import (
    Catalog,
    GridSpec,
    StormTrack,
    TrackPoint,
    build_grid,
    destination_point,
    great_circle_distance,
    grid_cell,
    initial_bearing,
    load_catalog,
    pacf,
)
from .engine import (
    FitConfig,
    ModelBundle,
    SyntheticTrack,
    fit_all,
    load_bundle,
    save_bundle,
    simulate_catalog,
    simulate_storm,
)
from .risk import Region, RiskResult, exceedance_prob, return_level, return_period

__version__ = "0.1.0"

__all__ = [
    "Catalog", "GridSpec", "StormTrack", "TrackPoint", "SyntheticTrack",
    "FitConfig", "ModelBundle", "Region", "RiskResult",
    "build_grid", "destination_point", "great_circle_distance", "grid_cell",
    "initial_bearing", "load_catalog", "pacf",
    "fit_all", "load_bundle", "save_bundle", "simulate_catalog", "simulate_storm",
    "exceedance_prob", "return_level", "return_period",
    "catalog", "condex", "engine", "errors", "evt", "gam", "kde",
    "preprocess", "risk", "toydata",
]
