"""Exact verification of information-theoretic generalization bounds.

Finite learning problems are enumerated outright, so every bound's left-hand
side is a sum, not an estimate; the package then evaluates each bound's
right-hand side with explicit constants and reports the slack. Supporting
layers: an Orlicz psi_p calculus with a decorrelation inequality, exact
discrete optimal transport with displacement geodesics, chaining
constructions, majorizing-measure bounds for expected suprema, and
seeded Monte Carlo with counter-based substreams.
"""

from .bounds import (BoundReport, ChainSpec, PairList, TailReport,
                     bound_chain, bound_cmi, bound_coupling,
                     bound_coupling_simplified, bound_density, bound_mi,
                     bound_stochastic_chain, bound_wasserstein_geodesic,
                     chain_from_partitions, chain_metric, coupling_chain,
                     dyadic_partitions,
                     hypothesis_marginal, increment_check, loss_embedding,
                     markov_slack, optimal_couplings,
                     tail_pac_bayes, tail_pointwise_check, tail_transductive)
from .errors import (AbsoluteContinuityError, ConfigurationError, DomainError,
                     GenboundError, InvalidProcessError,
                     UnsupportedGeometryError)
from .learning import (Algorithm, GenEstimate, LearningProblem,
                       algorithm_from_json, delta_bound, erm_algorithm,
                       exact_joint, expected_gen, gibbs_algorithm,
                       ignore_algorithm, problem_from_json, subgaussian_sigma)
from .measures import (FiniteMeasure, JointMeasure, MarkovKernel,
                       conditional_divergence, conditional_mutual_information,
                       kl_divergence, mutual_information)
from .orlicz import (DecorrelationTerms, DiscreteRandomVariable,
                     PsiPropertyResult, StepFunction, check_psi_kl,
                     check_psi_properties, check_sum_to_integral,
                     decorrelation_terms, orlicz_norm, orlicz_norms, psi, psi_inv)
from .suprema import (FiniteMetricSpace, ProcessSpec, Selector, ball_mass,
                      expected_sup_mc, ft_bound, ft_sup_bound,
                      gaussian_from_metric, gaussian_process,
                      majorizing_integral, optimize_mu, process_from_json,
                      tabulated_process)
from .transport import (CostMatrix, EmbeddedSupport, Geodesic, GeodesicPoint,
                        TransportPlan, consecutive_couplings,
                        displacement_interpolation, euclidean_cost, geodesic,
                        wasserstein, wasserstein_batch)
from .verify import (SuiteResult, run_golden_suite, run_lemma_suite,
                     run_psi_suite, run_suite, run_transport_suite)

__version__ = "0.1.0"
