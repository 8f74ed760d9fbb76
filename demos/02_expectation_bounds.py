"""Every expectation bound on one small problem, next to the exact value.

The problem is tiny enough to enumerate: 4 hypotheses, 3 outcomes, 2 draws.
The left-hand side E|gen(W, S)| is an exact sum over all (sample, hypothesis)
pairs, so the printed slack is real, not an estimate.
"""

import numpy as np

from genbound import (FiniteMeasure, LearningProblem, bound_cmi,
                      bound_coupling, bound_coupling_simplified, bound_density,
                      bound_mi, bound_wasserstein_geodesic, expected_gen,
                      erm_algorithm, gibbs_algorithm, ignore_algorithm,
                      loss_embedding, subgaussian_sigma)

loss = np.array([[0.0, 0.4, 1.0],
                 [0.3, 0.1, 0.8],
                 [0.9, 0.5, 0.2],
                 [0.6, 0.7, 0.35]])
p_z = FiniteMeasure([0.5, 0.3, 0.2])
bare = LearningProblem(loss, p_z, n=2, bound=1.0)
# the loss-vector embedding lets the transport bounds use exact couplings
prob = LearningProblem(loss, p_z, n=2, bound=1.0, embedding=loss_embedding(bare))
print(f"problem: {loss.shape[0]} hypotheses, {loss.shape[1]} outcomes, "
      f"n = {prob.n}, subgaussian sigma = {subgaussian_sigma(prob):.4f}")

algorithms = [
    ("ignore", ignore_algorithm(prob)),
    ("gibbs beta=1", gibbs_algorithm(prob, 1.0)),
    ("gibbs beta=10", gibbs_algorithm(prob, 10.0)),
    ("erm", erm_algorithm(prob)),
]

bounds = [
    ("density", lambda a: bound_density(prob, a)),
    ("mi", lambda a: bound_mi(prob, a)),
    ("cmi", lambda a: bound_cmi(prob, a)),
    ("coupling", lambda a: bound_coupling(prob, a)),
    ("coupling_simplified", lambda a: bound_coupling_simplified(prob, a)),
    ("wasserstein", lambda a: bound_wasserstein_geodesic(prob, a)),
]

for alg_name, alg in algorithms:
    exact = expected_gen(prob, alg).absolute
    print(f"\n{alg_name}: exact E|gen| = {exact:.6f}")
    for bound_name, fn in bounds:
        report = fn(alg)
        parts = ", ".join(f"{k}={v:.4f}" for k, v in report.components.items())
        print(f"  {bound_name:20s} rhs = {report.rhs:10.6f}  "
              f"slack = {report.rhs - report.lhs:10.6f}  ({parts})")
