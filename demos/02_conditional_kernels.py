"""Joint and conditional sampling from multivariate Gaussian kernel models.

The simulator's propagation and genesis draws all reduce to one primitive:
pick a training tuple by kernel weight, then draw from that tuple's Gaussian
conditional.  This demo fits a small correlated model, draws jointly and
conditionally, and shows the circular handling used for bearings.
"""

import math

import numpy as np

from stormsim.kde import (
    conditional_density,
    conditional_info,
    density,
    fit_kde,
    sample_conditional,
    sample_joint,
)

rng = np.random.default_rng(0)

print("a correlated speed/vorticity kernel")
print("-----------------------------------")
cov = np.array([[9.0, 2.0], [2.0, 1.0]])
train = rng.multivariate_normal([12.0, 2.5], cov, size=400)  # (speed, vorticity)
model = fit_kde(train)
print(f"{model.n} tuples, bandwidth:\n{model.bandwidth.round(3)}")

draws = sample_joint(model, rng, size=5000)
print(f"joint draws: speed mean {draws[:, 0].mean():.2f} (train {train[:, 0].mean():.2f}), "
      f"vorticity mean {draws[:, 1].mean():.2f} (train {train[:, 1].mean():.2f})")

print()
print("conditioning on a fast-moving storm (speed = 20 m/s)")
info = conditional_info(model, {0: 20.0})
print(f"effective tuples: {(info.weights > 1e-4).sum()} carry weight > 1e-4")
print(f"conditional mean vorticity: {info.mean[0]:.2f} "
      f"(unconditional {train[:, 1].mean():.2f}; correlation pulls it up)")
cond = sample_conditional(model, {0: 20.0}, rng, size=5000)
print(f"conditional draws: mean {cond.mean():.2f}, sd {cond.std():.2f}")

print()
print("densities and identities")
print("------------------------")
z = [14.0, 2.8]
joint = density(model, z)
marg = density(model, [z[0]], dims=(0,))
cond_d = conditional_density(model, {1: z[1]}, {0: z[0]})
print(f"f(speed, vort) = {joint:.5f};  f(speed) = {marg:.5f}")
print(f"f(vort | speed) = {cond_d:.5f}  equals joint/marginal = {joint / marg:.5f}")

print()
print("circular bearings")
print("-----------------")
# bearings concentrated near the +-pi seam; the kernel is replicated at
# +-2*pi shifts so the density is continuous across the seam
theta = rng.vonmises(3.05, 8.0, size=300)
circ = fit_kde(theta[:, None], circular_dims=(0,))
print(f"density at -pi: {density(circ, [-math.pi]):.5f}")
print(f"density at +pi: {density(circ, [math.pi]):.5f}  (identical by construction)")
wrapped = sample_joint(circ, rng, size=2000)
print(f"draws wrapped into [-pi, pi): min {wrapped.min():.3f}, max {wrapped.max():.3f}")
