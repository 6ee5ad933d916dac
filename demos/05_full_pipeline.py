"""End to end: fit a model bundle, simulate a synthetic catalog, analyse risk.

The same flow is available from the command line:

    stormsim fit      --config config.json
    stormsim simulate --config config.json --seed 7
    stormsim risk     --config config.json
    stormsim diagnose --config config.json

This script does it in-process on a procedural toy catalog (a few minutes).
"""

import numpy as np

from stormsim.engine import FitConfig, fit_all, fit_report, simulate_catalog
from stormsim.risk import Region, catalog_qq_envelope, exceedance_prob, return_level, return_period
from stormsim.toydata import make_catalog

catalog = make_catalog(n_storms=400, seed=11)
print(f"training catalog: {len(catalog)} storms over {catalog.years_of_record:.1f} years")

config = FitConfig(
    gpd_threshold=1.3,
    gcv_points=9, gcv_sweeps=1,  # light smoothing search for the demo
    allow_quadratic_preproc=False,
    bw_genesis_conditions=0.4, bw_direction=0.4, bw_speed=0.4, bw_vorticity=0.4,
)
bundle = fit_all(catalog, config)
print()
print(fit_report(bundle))

synth, stats = simulate_catalog(bundle, n=800, seed=7)
print(f"simulated {len(synth)} storms ({synth.years_of_record:.0f} synthetic years); "
      f"termination causes: {stats['causes']}")

print()
print("marginal agreement (quantiles of observed vs simulated)")
rows = catalog_qq_envelope(catalog, synth, "vorticity",
                           probs=np.array([0.5, 0.9, 0.99, 0.999]), n_boot=200)
for p, obs_q, sim_q, lo, hi, inside in rows:
    print(f"  p={p:<6} observed {obs_q:6.3f} simulated {sim_q:6.3f} "
          f"band [{lo:6.3f}, {hi:6.3f}] {'ok' if inside else 'OUT'}")

print()
print("risk in a target region")
region = Region(lon_min=-10.0, lon_max=5.0, lat_min=48.0, lat_max=60.0)
for omega in (4.0, 6.0, 8.0):
    res = exceedance_prob(synth, region, omega, n_boot=200)
    per = return_period(synth, region, omega, n_boot=0)
    print(f"  P(vorticity > {omega} | in region) = {res.estimate:.5f} "
          f"[{res.ci[0]:.5f}, {res.ci[1]:.5f}]; return period {per.estimate:.1f} y")
for r in (1.0, 10.0, 100.0):
    lvl = return_level(synth, region, r, n_boot=0)
    print(f"  {r:>5}-year return level: {lvl.estimate:.3f} {lvl.note}")
print()
print("the synthetic record extends return periods far beyond the "
      f"{catalog.years_of_record:.0f}-year training record")
