"""Extremal dependence and tail-chain simulation on Laplace margins.

Fits the conditional-extremes model to serially dependent series, then walks
an extremal Markov chain: each step anchors on the last run of threshold
excesses (the effective order) and draws a residual from the kernel-smoothed
residual law conditioned on the intervening values.  Chains drift back to the
body, where control would return to the kernel sampler.
"""

import math

import numpy as np
from scipy.stats import norm

from stormsim.condex import effective_order, fit_condex, step_tail_chain

rng = np.random.default_rng(2)


def to_laplace_margin(p):
    p = np.asarray(p, dtype=float)
    return np.where(p < 0.5, np.log(2 * p), -np.log(2 * (1 - p)))


# AR(1)-in-Gaussian tracks mapped onto Laplace margins
rho = 0.7
tracks = []
for _ in range(4000):
    z = [rng.standard_normal()]
    for _ in range(5):
        z.append(rho * z[-1] + math.sqrt(1 - rho * rho) * rng.standard_normal())
    tracks.append(to_laplace_margin(norm.cdf(np.array(z))))

u = -math.log(2 * 0.05)  # 95% Laplace quantile
fit = fit_condex(tracks, k=3, u_laplace=u)
print(f"fitted on {fit.n_events} conditioning events above u = {u:.3f}")
print(f"alpha by lag: {fit.alpha.round(3)}  (Gaussian-copula theory: rho^(2j))")
print(f"beta  by lag: {fit.beta.round(3)}   (theory: 1/2)")

print()
print("effective order")
print("---------------")
for recent in ([4.0, 4.5, 5.0], [1.0, 0.5, 4.0], [4.0, 0.5, 0.2]):
    l = effective_order(recent, u, 3)
    label = f"order {l}" if l else "body sampler"
    print(f"recent window {recent} -> {label}")

print()
print("a chain started in an extreme state")
print("-----------------------------------")
window = [5.5, 5.6, 5.8]
path = list(window)
for _ in range(40):
    s = step_tail_chain(fit, window, rng)
    path.append(s)
    window = window[1:] + [s]
    if s <= u:  # back in the body: the kernel sampler takes over
        break
steps = " -> ".join(f"{v:.2f}" for v in path)
print(steps)
print(f"returned below u = {u:.2f} after {len(path) - 3} steps "
      "(negative drift: alpha < 1)")
