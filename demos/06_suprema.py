"""Majorizing-measure bounds for the expected supremum of a process.

A process with psi_2 increments on a finite metric space has its expected
supremum controlled by a ball-mass integral under any probe measure. We
compare that bound against a seeded Monte Carlo estimate of the true
supremum and then let two optimizers shrink the probe measure's integral.
"""

import numpy as np

from genbound import (FiniteMeasure, FiniteMetricSpace, Selector, ball_mass,
                      expected_sup_mc, ft_sup_bound, gaussian_from_metric,
                      majorizing_integral, optimize_mu)

points = np.array([0.0, 0.7, 1.6, 2.4])
dist = np.abs(points[:, None] - points[None, :])
space = FiniteMetricSpace(dist)
uniform = FiniteMeasure(np.full(space.size, 1.0 / space.size))

print(f"metric space: {space.size} points on a line, diameter {dist.max():.2f}")
print("ball masses around the first point under the uniform probe:")
for eps in (0.0, 0.7, 1.6, 2.4):
    print(f"  radius {eps:.1f}: mass = {ball_mass(uniform, space, 0, eps):.3f}")

integral = majorizing_integral(uniform, uniform, space, p=2.0)
bound = ft_sup_bound(uniform, space, p=2.0)
print(f"\nmajorizing integral (uniform probe) = {integral:.6f}")
print(f"expected-sup bound                  = {bound:.6f}")

proc = gaussian_from_metric(space)
est, stderr = expected_sup_mc(proc, space, Selector("argmax"),
                              samples=200_000, seed=11)
print(f"Monte Carlo E[sup X] = {est:.6f} +- {stderr:.6f} "
      f"(bound holds: {est - 4 * stderr <= bound})")

for method in ("grid", "eg"):
    probe, value = optimize_mu(uniform, space, p=2.0, method=method)
    print(f"optimized probe ({method:4s}): bound = {value:.6f}, "
          f"mu = {np.round(probe.weights, 3).tolist()}")
