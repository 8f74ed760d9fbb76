"""Majorizing-measure bounds for the expected supremum of a process.

A process with psi_2 increments on a finite metric space has its expected
supremum controlled by a ball-mass integral under any probe measure. We
compare that bound against a seeded Monte Carlo estimate of the true
supremum and then let two optimizers shrink the probe measure's integral.
A Rademacher process has finitely many paths, so its expected supremum is an
exact sum, which expected_sup_mc returns without drawing.
"""

import itertools

import numpy as np

from genbound import (FiniteMeasure, FiniteMetricSpace, Selector, ball_mass,
                      expected_sup_mc, ft_sup_bound, gaussian_from_metric,
                      majorizing_integral, optimize_mu, tabulated_process)

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

# X_t = <eps, a_t>, eps uniform on {-1, 1}^3: eight equally likely paths. Its
# increments satisfy E exp((X_u - X_v)^2 / d^2) <= 2 at d = sqrt(8/3) |a_u - a_v|.
anchors = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0], [0.3, 1.1, 0.4], [0.8, 0.5, 1.2]])
signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
rad_space = FiniteMetricSpace(np.sqrt(8.0 / 3.0)
                              * np.linalg.norm(anchors[:, None] - anchors[None], axis=2))
rad = tabulated_process(rad_space, signs @ anchors.T, np.full(len(signs), 1.0 / len(signs)))
exact, stderr = expected_sup_mc(rad, rad_space, Selector("argmax"), samples=1, seed=0)
assert (exact, stderr) == (rad.weights @ rad.paths.max(axis=1), 0.0)  # a sum, no draws
print(f"\nRademacher process on {rad_space.size} points, {len(signs)} paths:")
print(f"  exact E[sup X]     = {exact:.6f} (stderr {stderr:g})")
print(f"  expected-sup bound = {ft_sup_bound(uniform, rad_space, p=2.0):.6f}")

for method in ("grid", "eg"):
    probe, value = optimize_mu(uniform, space, p=2.0, method=method)
    print(f"optimized probe ({method:4s}): bound = {value:.6f}, "
          f"mu = {np.round(probe.weights, 3).tolist()}")
