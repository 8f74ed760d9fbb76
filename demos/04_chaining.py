"""Chaining: refine the hypothesis set level by level and sum the steps.

A partition hierarchy over hypotheses turns one decorrelation step into a
telescoping sum of cheaper ones. We compare the single-step coupling bound
with a two-level chain, show the metric the increments must respect, and run
the same chain through the stochastic variant driven by information terms.
"""

import numpy as np

from genbound import (FiniteMeasure, LearningProblem, bound_chain,
                      bound_coupling_simplified, bound_stochastic_chain,
                      chain_from_partitions, chain_metric, dyadic_partitions,
                      gibbs_algorithm, increment_check, markov_slack)

loss = np.array([[0.0, 0.4, 1.0],
                 [0.3, 0.1, 0.8],
                 [0.9, 0.5, 0.2],
                 [0.6, 0.7, 0.35]])
prob = LearningProblem(loss, FiniteMeasure([0.5, 0.3, 0.2]), n=2, bound=1.0)
alg = gibbs_algorithm(prob, 5.0)

metric = chain_metric(prob)
print("canonical pseudometric on hypotheses (sup gap over outcome pairs):")
print(np.array_str(metric, precision=3))
print(f"increments admissible: worst moment slack = "
      f"{increment_check(prob, metric):.3e} (<= 0 passes)")

partitions = dyadic_partitions(loss.shape[0])
print(f"\ndyadic hierarchy over 4 hypotheses: "
      f"{[len(set(p)) for p in partitions]} cells per level")

single = bound_coupling_simplified(prob, alg)
chain = chain_from_partitions(prob, alg, partitions)
chained = bound_chain(prob, alg, chain)
print(f"single step rhs = {single.rhs:.6f}")
print(f"chained rhs     = {chained.rhs:.6f}")
for name, value in chained.components.items():
    print(f"  {name}: {value:.6f}")

with_metric = bound_chain(prob, alg, chain, metric)
print(f"metric-form rhs = {with_metric.rhs:.6f} "
      f"(loss form of the same telescope = "
      f"{with_metric.details['loss_form_rhs']:.6f})")

stoch = bound_stochastic_chain(prob, alg, chain)
print(f"\npartition chain: markov slack = {markov_slack(prob, chain):.3e}")
print(f"stochastic chain rhs = {stoch.rhs:.6f} "
      f"(information form = {stoch.details['mi_form_rhs']:.6f})")
print(f"exact lhs = {stoch.lhs:.6f}")
