"""Exact optimal transport: distances, plans, and displacement geodesics.

All supports are finite, so each Wasserstein distance is a small linear
program solved exactly. A geodesic interpolates two measures through
transport atoms and moves at constant speed, which the bound built on it
relies on.
"""

import numpy as np

from genbound import (FiniteMeasure, LearningProblem,
                      bound_wasserstein_geodesic, consecutive_couplings,
                      euclidean_cost, geodesic, gibbs_algorithm,
                      loss_embedding, wasserstein)
from genbound.transport import EmbeddedSupport

emb = EmbeddedSupport([[0.0], [1.0], [3.0]])
cost = euclidean_cost(emb, emb)
mu = FiniteMeasure([0.7, 0.3, 0.0])
nu = FiniteMeasure([0.1, 0.2, 0.7])

dist, plan = wasserstein(mu, nu, cost, p=2.0)
print(f"W2(mu, nu) = {dist:.6f} on points {emb.points.ravel().tolist()}")
print("optimal plan (rows mu, cols nu):")
print(np.array_str(plan.weights, precision=3, suppress_small=True))

path = geodesic(mu, nu, emb, times=[0.0, 0.25, 0.5, 0.75, 1.0])
print("\ndisplacement geodesic, mass by location:")
for t, point in zip(path.times, path.points):
    atoms = {f"{x[0]:.3f}": f"{m:.3f}"
             for x, m in zip(point.support.points, point.measure.weights)}
    print(f"  t = {t:.2f}: {atoms}")

speeds = []
for k, step_plan in enumerate(consecutive_couplings(path)):
    dt = path.times[k + 1] - path.times[k]
    step_cost = euclidean_cost(path.points[k].support, path.points[k + 1].support)
    w2_step = np.sqrt((step_plan.weights * step_cost.entries ** 2).sum())
    speeds.append(w2_step / dt)
print(f"constant speed: per-step speeds = "
      f"{[f'{s:.6f}' for s in speeds]} (endpoint distance = {dist:.6f})")

loss = np.array([[0.0, 0.4, 1.0],
                 [0.3, 0.1, 0.8],
                 [0.9, 0.5, 0.2],
                 [0.6, 0.7, 0.35]])
p_z = FiniteMeasure([0.5, 0.3, 0.2])
bare = LearningProblem(loss, p_z, n=2, bound=1.0)
prob = LearningProblem(loss, p_z, n=2, bound=1.0, embedding=loss_embedding(bare))
alg = gibbs_algorithm(prob, 3.0)

print("\ngeneralization bound along posterior-to-prior geodesics:")
print("(constant speed makes the step sum independent of the refinement,")
print(" so it is evaluated in closed form, without a step count)")
report = bound_wasserstein_geodesic(prob, alg)
print(f"  rhs = {report.rhs:.6f} "
      f"(endpoint = {report.components['endpoint']:.6f}, "
      f"steps = {report.components['steps']:.6f})")
