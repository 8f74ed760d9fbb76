import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import rel_entr

from genbound import (Algorithm, ChainSpec, ConfigurationError, DiscreteRandomVariable,
                      DomainError, FiniteMeasure, LearningProblem, MarkovKernel,
                      bound_chain, bound_cmi, bound_coupling,
                      bound_coupling_simplified, bound_density, bound_mi,
                      bound_stochastic_chain, bound_wasserstein_geodesic,
                      chain_from_partitions, chain_metric, coupling_chain, delta_bound,
                      dyadic_partitions, erm_algorithm, exact_joint,
                      expected_gen, gibbs_algorithm, hypothesis_marginal,
                      ignore_algorithm, increment_check, kl_divergence,
                      loss_embedding, markov_slack, mutual_information,
                      optimal_couplings, orlicz_norm, orlicz_norms, psi_inv,
                      subgaussian_sigma, tail_pac_bayes, tail_pointwise_check,
                      tail_transductive)
from genbound import bounds, errors
from genbound.bounds import _psi2_inv_ratio
from genbound.learning import joint_cells
from genbound.errors import MEMORY_BUDGET, block_rows
from genbound.orlicz import NORM_REL_TOL
from genbound.transport import TransportPlan, displacement_interpolation

from conftest import algorithm_family, random_problem

DELTAS = (0.05, 0.1, 0.25)


def xor_problem(embed=False):
    loss = np.array([[0.0, 1.0], [1.0, 0.0]])
    emb = None
    if embed:
        prob = LearningProblem(loss, FiniteMeasure([0.5, 0.5]), n=1, bound=1.0)
        emb = loss_embedding(prob)
    return LearningProblem(loss, FiniteMeasure([0.5, 0.5]), n=1, bound=1.0,
                           embedding=emb)


def constant_problem():
    return LearningProblem(np.full((3, 2), 0.5), FiniteMeasure([0.25, 0.75]),
                           n=2, bound=1.0)


def dense_step(chain, k):
    """Reference: step k of a chain as the dense (S, N, N) coupling and (N, N)
    reference that a chain held before its steps were pair lists."""
    S, N = chain.kernels[0].matrix.shape
    (u, v, w), ref = chain.couplings[k], chain.references[k]
    joint, dense_ref = np.zeros((S, N, N)), np.zeros((N, N))
    joint[:, u, v], dense_ref[u, v] = w, ref
    return joint, dense_ref


def dense_sq_dists(prob):
    """Reference: dsl2[s, u, v], the (S, N, N) empirical squared distances, draws
    in sorted order."""
    g = prob.loss_differences
    return np.stack([(g[:, :, np.sort(z)] ** 2).mean(axis=2) for z in prob.samples])


# ---------------------------------------------------------------------------
# density bound
# ---------------------------------------------------------------------------

def test_density_ignoring_hand_value(small_problem, ignoring_alg):
    report = bound_density(small_problem, ignoring_alg)
    sigma = subgaussian_sigma(small_problem)
    expect = math.sqrt(12 * sigma**2 / small_problem.n) * (math.sqrt(math.log(2)) + 1)
    assert abs(report.rhs - expect) < 1e-12
    assert report.lhs <= report.rhs
    assert abs(sum(report.components.values()) - report.rhs) < 1e-9


def test_density_sigma_zero():
    prob = constant_problem()
    report = bound_density(prob, ignore_algorithm(prob))
    assert report.rhs == 0.0
    assert report.lhs == 0.0
    assert report.details["sigma"] == 0.0


def test_tails_take_rounding_noise_for_zero():
    # sigma = 0 puts both thresholds at 0, and loss @ p_z misses 0.7 by an ulp
    p_z = FiniteMeasure([0.4927471760914686, 0.38320546088691965, 0.1240473630216118])
    prob = LearningProblem(np.full((2, 3), 0.7), p_z, n=1, bound=1.0)
    alg = erm_algorithm(prob)
    assert 0.0 < np.abs(prob.gen_matrix).max() < 1e-15
    for report in (tail_pointwise_check(prob, alg, 0.05), tail_pac_bayes(prob, alg, 0.05)):
        assert report.violation == 0.0


def test_density_escapes_on_null_prior():
    prob = xor_problem()
    report = bound_density(prob, erm_algorithm(prob),
                           q_w=FiniteMeasure([1.0, 0.0]))
    assert report.rhs == math.inf
    assert not report.details["absolutely_continuous"]


def test_density_random_slack():
    gen = np.random.default_rng(31)
    for _ in range(20):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            report = bound_density(prob, alg)
            assert report.rhs - report.lhs >= -1e-9


def test_density_relaxation_and_mi_dominance():
    # E psi_2^{-1}(density) <= sqrt(KL-rate + 1), and the mutual-information
    # bound dominates the relaxed density bound at the exact marginal prior
    gen = np.random.default_rng(32)
    for _ in range(10):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            sigma = subgaussian_sigma(prob)
            scale = math.sqrt(12 * sigma**2 / prob.n)
            joint = exact_joint(prob, alg)
            mi = mutual_information(joint)
            marginal = hypothesis_marginal(prob, alg)
            priors = [marginal, FiniteMeasure(np.full(prob.num_hypotheses,
                                                      1 / prob.num_hypotheses))]
            for q_w in priors:
                report = bound_density(prob, alg, q_w=q_w)
                rate = mi + kl_divergence(marginal, q_w)
                relaxed = scale * (math.sqrt(rate + 1) + 1)
                assert report.rhs <= relaxed + 1e-9
            assert bound_mi(prob, alg).rhs >= bound_density(prob, alg).rhs - 1e-9


# ---------------------------------------------------------------------------
# mutual information and conditional mutual information bounds
# ---------------------------------------------------------------------------

def test_mi_ignoring_hand_value(small_problem, ignoring_alg):
    report = bound_mi(small_problem, ignoring_alg)
    sigma = subgaussian_sigma(small_problem)
    assert abs(report.rhs - math.sqrt(96 * sigma**2 / small_problem.n)) < 1e-12


def test_mi_erm_entropy_oracle():
    prob = xor_problem()
    report = bound_mi(prob, erm_algorithm(prob))
    expect = math.sqrt(24 * 0.25 * (math.log(2) + 4) / 1)
    assert abs(report.rhs - expect) < 1e-12
    assert report.lhs <= report.rhs


def test_cmi_ignoring_hand_value(small_problem, ignoring_alg):
    report = bound_cmi(small_problem, ignoring_alg)
    pz = small_problem.p_z.weights
    dsq = float(pz @ delta_bound(small_problem)**2 @ pz)
    assert report.details["cmi"] == 0.0
    assert abs(report.rhs - math.sqrt(24 * dsq * 4 / small_problem.n)) < 1e-12


def test_cmi_ceiling_and_slack(small_problem):
    ceiling = small_problem.n * math.log(2)
    for alg in algorithm_family(small_problem):
        report = bound_cmi(small_problem, alg)
        assert report.details["cmi"] <= ceiling + 1e-12
        assert report.details["cmi_within_ceiling"]
        assert report.rhs - report.lhs >= -1e-9
        assert report.details["fine_rhs"] - report.lhs >= -1e-9


def test_cmi_delta_sq_oracle(small_problem, gibbs_alg):
    report = bound_cmi(small_problem, gibbs_alg)
    pz = small_problem.p_z.weights
    assert abs(report.details["delta_sq_mean"]
               - float(pz @ delta_bound(small_problem)**2 @ pz)) < 1e-15


# ---------------------------------------------------------------------------
# coupling bounds
# ---------------------------------------------------------------------------

def test_coupling_ignoring_is_exactly_zero():
    gen = np.random.default_rng(33)
    prob = random_problem(gen)
    alg = ignore_algorithm(prob)
    for fn in (bound_coupling, bound_coupling_simplified):
        report = fn(prob, alg)
        assert report.rhs == 0.0
        assert abs(report.lhs) < 1e-12


def test_coupling_zero_with_explicit_diagonal():
    # no embedding: hand the bound the diagonal couplings and a sample-free
    # reference; everything still cancels exactly
    prob = xor_problem()
    q_w = FiniteMeasure([0.5, 0.5])
    alg = ignore_algorithm(prob, row=q_w)
    diag = np.diag(q_w.weights)
    couplings = [diag] * prob.num_samples
    for fn in (bound_coupling, bound_coupling_simplified):
        report = fn(prob, alg, q_w=q_w, couplings=couplings, mu_uv=diag)
        assert report.rhs == 0.0


def test_coupling_product_fallback_slack():
    prob = xor_problem()
    alg = gibbs_algorithm(prob, 1.0)
    for fn in (bound_coupling, bound_coupling_simplified):
        report = fn(prob, alg)
        assert math.isfinite(report.rhs)
        assert report.rhs - report.lhs >= -1e-9


def test_coupling_random_slack_and_density_band():
    # the coupling route should track the density bound within a modest
    # constant factor; observed ratios stay under two, assert a loose eight
    gen = np.random.default_rng(34)
    for _ in range(15):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            c = bound_coupling(prob, alg)
            cs = bound_coupling_simplified(prob, alg)
            d = bound_density(prob, alg)
            assert c.rhs - c.lhs >= -1e-9
            assert cs.rhs - cs.lhs >= -1e-9
            if d.rhs > 0:
                assert c.rhs <= 8 * d.rhs


def test_coupling_escapes_on_bad_reference():
    prob = xor_problem()
    alg = gibbs_algorithm(prob, 1.0)
    q_w = hypothesis_marginal(prob, alg)
    mu = np.zeros((2, 2))
    mu[0, 1] = 1.0  # the product couplings also charge (0, 0), (1, 0) and (1, 1)
    for fn in (bound_coupling, bound_coupling_simplified):
        report = fn(prob, alg, q_w=q_w, mu_uv=mu)
        assert report.rhs == math.inf
        assert report.components["decorrelation"] == math.inf
        assert not report.details["absolutely_continuous"]
        assert 0.0 < report.components["reference"] < math.inf
    reference = bound_coupling(prob, alg, q_w=q_w, mu_uv=mu).components["reference"]
    assert reference == pytest.approx(dense_coupling_terms(prob, alg, q_w=q_w, mu_uv=mu)[1],
                                      rel=1e-12, abs=0)


def test_coupling_rejects_wrong_marginals():
    prob = xor_problem()
    alg = gibbs_algorithm(prob, 1.0)
    q_w = hypothesis_marginal(prob, alg)
    bad = [np.full((2, 2), 0.25)] * prob.num_samples
    with pytest.raises(ConfigurationError):
        bound_coupling(prob, alg, q_w=q_w, couplings=bad)


def dense_coupling_terms(prob, alg, **kwargs):
    """Reference: bound_coupling's (decorrelation, reference) components from the
    whole (N, N, S, S, n) ghost-pair tensor, the way they were first computed."""
    pi, mu = dense_step(coupling_chain(prob, alg, **kwargs), 0)
    p_s = prob.sample_probs
    per_draw = prob.loss_differences[:, :, prob.samples]  # (N, N, S, n)
    diff = per_draw[:, :, :, None, :] - per_draw[:, :, None, :, :]  # train s, ghost s'
    sq_sig = (diff**2).sum(axis=4)
    inv, escape = _psi2_inv_ratio(pi, mu[None, :, :])
    mean_sig_ghost = np.einsum("uvst,t->suv", np.sqrt(sq_sig), p_s)
    term1 = math.inf if escape else float(
        np.einsum("s,suv,suv,suv->", p_s, pi, inv, mean_sig_ghost))
    term2 = float(p_s @ np.sqrt(np.einsum("uv,uvst->st", mu, sq_sig)) @ p_s)
    scale = np.sqrt(24.0) / prob.n
    return scale * term1, scale * term2


def assert_coupling_matches_dense(prob, alg, **kwargs):
    report = bound_coupling(prob, alg, **kwargs)
    decorrelation, reference = dense_coupling_terms(prob, alg, **kwargs)
    assert report.components["decorrelation"] == pytest.approx(decorrelation, rel=1e-12, abs=0)
    assert report.components["reference"] == pytest.approx(reference, rel=1e-12, abs=0)
    assert report.rhs == pytest.approx(decorrelation + reference, rel=1e-12, abs=0)
    return report


def test_coupling_matches_dense_ghost_pair_tensor():
    gen = np.random.default_rng(35)
    for _ in range(12):  # W_2 plans on the loss embedding
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            assert_coupling_matches_dense(prob, alg)
    for _ in range(6):  # dense product couplings: no embedding
        prob = random_problem(gen, embed=False)
        for alg in algorithm_family(prob):
            assert_coupling_matches_dense(prob, alg)
    prob = xor_problem()
    for alg in algorithm_family(prob):
        assert_coupling_matches_dense(prob, alg)
    for prob in (random_problem(gen), random_problem(gen), xor_problem(True)):
        report = assert_coupling_matches_dense(prob, ignore_algorithm(prob))
        assert report.rhs == 0.0


def test_coupling_memory_stays_off_the_ghost_pair_tensor():
    # N=16, m=4, n=4: the dense (N, N, S, S, n) tensor alone is 537 MB
    gen = np.random.default_rng(36)
    loss = gen.uniform(0.0, 1.0, size=(16, 4))
    base = LearningProblem(loss, FiniteMeasure(gen.dirichlet(np.ones(4))), 4, bound=1.0)
    prob = LearningProblem(base.loss, base.p_z, 4, bound=1.0, embedding=loss_embedding(base))
    alg = gibbs_algorithm(prob, 1.0)
    tracemalloc.start()
    try:
        report = bound_coupling(prob, alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(report.rhs)
    assert peak < 64 * 2**20


def test_warm_coupling_and_geodesic_peaks_stay_under_two_mib():
    # the same N=16, m=4, n=4 problem; the warm-up call solves the W_2 plans (and
    # imports HiGHS), so the traced call holds only the bound's own working set: the
    # ghost-pair sums' two buffers, or the geodesic's merged plans and one block of
    # rel_entr temporaries. With 8 MiB blocks and one unblocked divergence these
    # peaked at 10.6 and 2.6 MiB
    gen = np.random.default_rng(36)
    loss = gen.uniform(0.0, 1.0, size=(16, 4))
    base = LearningProblem(loss, FiniteMeasure(gen.dirichlet(np.ones(4))), 4, bound=1.0)
    prob = LearningProblem(base.loss, base.p_z, 4, bound=1.0, embedding=loss_embedding(base))
    alg = gibbs_algorithm(prob, 1.0)
    for bound in (bound_coupling, bound_wasserstein_geodesic):
        warm = bound(prob, alg)
        tracemalloc.start()
        try:
            report = bound(prob, alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.rhs == warm.rhs
        assert peak <= 2 * 2**20, (bound.__name__, peak)


def looped_ghost_pair_sum(prob, table, keys, train, weights):
    """Reference: _ghost_pair_sum with each draw gathered into an (entries, S)
    table and added to an accumulator, as it was computed before the outer sum."""
    z, p_s, S = prob.samples, prob.sample_probs, prob.num_samples
    total, step = 0.0, block_rows(8 * S, "bound_coupling")
    for lo in range(0, len(weights), step):
        k, s = keys[lo:lo + step], train[lo:lo + step]
        sq = np.zeros((len(k), S))
        for i in range(prob.n):
            sq += table[k, z[s, i]][:, z[:, i]]
        total += float(weights[lo:lo + step] @ (np.sqrt(sq) @ p_s))
    return total


def test_coupling_sums_match_the_per_draw_loop_bits(monkeypatch):
    gen = np.random.default_rng(61)
    cases = [(m, n, embed) for m in (1, 2, 3) for n in range(1, 6) for embed in (True, False)]
    for m, n, embed in cases:
        loss = gen.uniform(0.0, 1.0, size=(5, m))
        prob = LearningProblem(loss, FiniteMeasure(gen.dirichlet(np.ones(m))), n, bound=1.0)
        if embed:  # W_2 plans; without an embedding, product couplings
            prob = LearningProblem(loss, prob.p_z, n, bound=1.0, embedding=loss_embedding(prob))
        alg = gibbs_algorithm(prob, 1.0)
        pi = coupling_chain(prob, alg).couplings[0].weights
        if (m, n, embed) == (3, 5, False):  # a partial last block reuses the buffers
            assert np.count_nonzero(pi) % block_rows(8 * prob.num_samples, "bound_coupling") > 0
            assert np.count_nonzero(pi) > block_rows(8 * prob.num_samples, "bound_coupling")
        report = bound_coupling(prob, alg)
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_ghost_pair_sum", looped_ghost_pair_sum)
            looped = bound_coupling(prob, alg)
        for term in ("decorrelation", "reference"):
            assert math.isfinite(report.components[term]), (m, n, embed)
            assert report.components[term] == looped.components[term], (m, n, embed, term)


def test_ghost_pair_sums_add_the_draws_in_order():
    # one entry and one ghost per call, so each call returns a single sqrt of a
    # sum over draws, with no ghost or entry sum to round a change of order away
    gen = np.random.default_rng(62)
    prob = LearningProblem(gen.uniform(0.0, 1.0, size=(2, 3)),
                           FiniteMeasure([0.2, 0.3, 0.5]), 4, bound=1.0)
    table = 10.0 ** gen.uniform(-8.0, 0.0, size=(2, 3, 3))  # terms over eight decades
    for ghost in range(prob.num_samples):
        one_ghost = SimpleNamespace(samples=prob.samples, n=prob.n,
                                    num_samples=prob.num_samples,
                                    num_outcomes=prob.num_outcomes,
                                    sample_probs=np.eye(prob.num_samples)[ghost])
        for key, train in ((0, 0), (1, 40), (0, 80)):
            args = (one_ghost, table, np.array([key]), np.array([train]), np.ones(1))
            assert bounds._ghost_pair_sum(*args) == looped_ghost_pair_sum(*args), (ghost, key)


def test_warm_tail_pointwise_holds_one_threshold_table():
    # with the density, gen and cell tables built, the tail holds its (S, N) threshold,
    # |gen| and the bool mask: about 2.1 tables of 8 S N bytes (4.2 when it held four)
    gen = np.random.default_rng(46)
    prob = LearningProblem(gen.uniform(0.0, 1.0, size=(200, 2)), FiniteMeasure([0.4, 0.6]), 10,
                           bound=1.0)
    alg = gibbs_algorithm(prob, 5.0)
    warm = tail_pointwise_check(prob, alg, 0.05)
    tracemalloc.start()
    try:
        report = tail_pointwise_check(prob, alg, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violation == warm.violation
    assert peak < 2.5 * 8 * prob.num_samples * prob.num_hypotheses


def test_coupling_refuses_too_many_ghost_pairs_before_allocating():
    # product couplings fill all N^2 entries of every sample: 2187 * 256 support
    # entries times 2187 ghosts times 7 draws is 8.6e9 > 2e8. At N = 88, n = 10 the
    # (S, N, N) product is 63 MB, and np.nonzero then built three more of 63 MB
    # before the cap was read: the support is counted first
    gen = np.random.default_rng(37)
    for (N, m, n), limit in (((16, 3, 7), 32 * 2**20), ((88, 2, 10), MEMORY_BUDGET)):
        prob = LearningProblem(gen.uniform(0.0, 1.0, size=(N, m)),
                               FiniteMeasure(gen.dirichlet(np.ones(m))), n, bound=1.0)
        alg = gibbs_algorithm(prob, 5.0 if N == 88 else 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="too many ghost pairs"):
                bound_coupling(prob, alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (N, peak)


# ---------------------------------------------------------------------------
# chained bounds
# ---------------------------------------------------------------------------

def test_single_step_chain_equals_simplified_coupling():
    gen = np.random.default_rng(35)
    prob = random_problem(gen)
    alg = gibbs_algorithm(prob, 1.0)
    q_w = hypothesis_marginal(prob, alg)
    pi = optimal_couplings(prob, alg, q_w)
    mu = np.einsum("s,suv->uv", prob.sample_probs, pi)
    spec = ChainSpec(kernels=(MarkovKernel.constant(q_w, prob.num_samples),
                              alg.kernel),
                     couplings=(pi,), references=(mu,))
    rhs = bound_coupling_simplified(prob, alg).rhs
    assert bound_chain(prob, alg, spec).rhs == rhs
    assert bound_chain(prob, alg, coupling_chain(prob, alg)).rhs == rhs


def test_chain_duplicate_level_is_free():
    gen = np.random.default_rng(36)
    prob = None
    while prob is None or prob.num_hypotheses < 4:
        prob = random_problem(gen)
    alg = gibbs_algorithm(prob, 1.0)
    parts = dyadic_partitions(prob.num_hypotheses)
    padded = list(parts[:2]) + [parts[1]] + list(parts[2:])
    metric = chain_metric(prob)
    for m in (None, metric):
        base = bound_chain(prob, alg, chain_from_partitions(prob, alg, parts), m)
        dup = bound_chain(prob, alg, chain_from_partitions(prob, alg, padded), m)
        assert base.rhs == dup.rhs


def test_chain_slack_both_forms():
    gen = np.random.default_rng(37)
    for _ in range(10):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            parts = dyadic_partitions(prob.num_hypotheses)
            spec = chain_from_partitions(prob, alg, parts)
            plain = bound_chain(prob, alg, spec)
            assert plain.rhs - plain.lhs >= -1e-9
            metric = bound_chain(prob, alg, spec, chain_metric(prob))
            assert metric.rhs - metric.lhs >= -1e-9
            assert metric.details["loss_form_rhs"] - metric.lhs >= -1e-9


def test_chain_validation_errors():
    prob = xor_problem()
    alg = gibbs_algorithm(prob, 1.0)
    q_w = hypothesis_marginal(prob, alg)
    pi = optimal_couplings(prob, alg, q_w)
    mu = np.einsum("s,suv->uv", prob.sample_probs, pi)
    good = (MarkovKernel.constant(q_w, prob.num_samples), alg.kernel)
    with pytest.raises(ConfigurationError):
        # sample-dependent coarsest level
        bound_chain(prob, alg, ChainSpec((alg.kernel, alg.kernel), (pi,), (mu,)))
    with pytest.raises(ConfigurationError):
        # finest level is not the algorithm
        bound_chain(prob, alg, ChainSpec((good[0], good[0]), (pi,), (mu,)))
    with pytest.raises(ConfigurationError):
        # coupling marginals disagree with the kernels
        wrong = np.broadcast_to(np.full((2, 2), 0.25), pi.shape).copy()
        bound_chain(prob, alg, ChainSpec(good, (wrong,), (mu,)))
    with pytest.raises(ConfigurationError, match="kernels"):
        # a root with one row too many hit a numpy broadcast
        root = MarkovKernel.constant(q_w, prob.num_samples + 1)
        bound_chain(prob, alg, ChainSpec((root, alg.kernel), (pi,), (mu,)))


def test_bounds_check_the_ends_of_a_well_formed_chain(small_problem, gibbs_alg):
    # a chain checks its own structure when built; whether it fits a (problem,
    # algorithm), and starts at a sample-free root, only the bound can tell
    prob, alg = small_problem, gibbs_alg
    parts = dyadic_partitions(prob.num_hypotheses)
    other = LearningProblem(prob.loss, prob.p_z, prob.n + 1, bound=prob.bound)
    wrong_shape = chain_from_partitions(other, gibbs_algorithm(other, 1.0), parts)
    wrong_last = chain_from_partitions(prob, gibbs_algorithm(prob, 5.0), parts)
    below_root = chain_from_partitions(prob, alg, parts[1:])

    def transductive(prob, alg, chain):
        return tail_transductive(prob, alg, chain, 0.05)

    for fn in (bound_chain, transductive, bound_stochastic_chain):
        with pytest.raises(ConfigurationError, match=r"need \(9, 4\) kernels"):
            fn(prob, alg, wrong_shape)
        with pytest.raises(ConfigurationError, match="must equal the algorithm"):
            fn(prob, alg, wrong_last)
    for fn in (bound_chain, transductive):
        with pytest.raises(ConfigurationError, match="must not depend on the sample"):
            fn(prob, alg, below_root)
    # the stochastic chain prepends its own prior draw, so it takes a chain below the root
    assert bound_stochastic_chain(prob, alg, below_root).details["levels"] == len(parts) - 1


MALFORMED_STEPS = ("nan coupling", "nan reference", "coupling shape", "reference shape",
                   "reference mass")


def malformed_step(prob, alg, q_w, kind):
    """The default coupling step with one defect that ChainSpec must refuse."""
    pi = np.array(optimal_couplings(prob, alg, q_w))
    mu = np.einsum("s,suv->uv", prob.sample_probs, pi)
    if kind == "nan coupling":
        pi[0, 0, 0] = np.nan
    elif kind == "nan reference":
        mu[0, 0] = np.nan
    elif kind == "coupling shape":
        pi = np.pad(pi, ((0, 0), (0, 1), (0, 1)))
    elif kind == "reference shape":
        mu = np.pad(mu, ((0, 1), (0, 1)))
    else:
        mu = 0.01 * mu
    return pi, mu


@pytest.mark.parametrize("kind", MALFORMED_STEPS)
def test_malformed_coupling_step_is_refused(kind):
    # nan passed every `max() > tol` test, a bad shape hit a numpy broadcast,
    # and the coupling bounds took a reference of any mass
    prob = xor_problem()
    alg = gibbs_algorithm(prob, 1.0)
    q_w = hypothesis_marginal(prob, alg)
    pi, mu = malformed_step(prob, alg, q_w, kind)
    with pytest.raises(ConfigurationError, match="chain"):
        ChainSpec((MarkovKernel.constant(q_w, prob.num_samples), alg.kernel), (pi,), (mu,))
    for fn in (bound_coupling, bound_coupling_simplified):
        with pytest.raises(ConfigurationError, match="chain"):
            fn(prob, alg, q_w=q_w, couplings=list(pi), mu_uv=mu)


def test_coupling_refuses_ragged_or_miscounted_tables():
    prob = xor_problem()
    alg = gibbs_algorithm(prob, 1.0)
    q_w = hypothesis_marginal(prob, alg)
    pi = optimal_couplings(prob, alg, q_w)
    for couplings in (list(pi)[:-1], [pi[0], np.full((3, 3), 1 / 9)]):
        with pytest.raises(ConfigurationError):
            bound_coupling(prob, alg, q_w=q_w, couplings=couplings)


def test_default_coupling_chain_is_one_table(small_problem, gibbs_alg):
    chain = coupling_chain(small_problem, gibbs_alg)
    assert coupling_chain(small_problem, gibbs_alg) is chain
    # the store is keyed on the kernel object: an equal kernel built anew gets its
    # own chain, with equal values
    again = coupling_chain(small_problem, gibbs_algorithm(small_problem, 1.0))
    assert again is not chain
    assert all(np.array_equal(a, b) for a, b in zip(dense_step(again, 0), dense_step(chain, 0)))
    q_w = hypothesis_marginal(small_problem, gibbs_alg)
    assert coupling_chain(small_problem, gibbs_alg, q_w=q_w) is chain
    assert np.array_equal(dense_step(chain, 0)[0], optimal_couplings(small_problem, gibbs_alg, q_w))
    uniform = FiniteMeasure(np.full(small_problem.num_hypotheses, 0.25))
    assert coupling_chain(small_problem, gibbs_alg, q_w=uniform) is not chain


def test_one_hypothesis_reads_the_zero_step_chain():
    # the root alone is the chain; tail_transductive divided by K = 0 levels
    prob = LearningProblem(np.array([[0.2, 0.9]]), FiniteMeasure([0.5, 0.5]), n=2, bound=1.0)
    alg = gibbs_algorithm(prob, 1.0)
    assert [labels.tolist() for labels in dyadic_partitions(1)] == [[0]]
    chain = chain_from_partitions(prob, alg, dyadic_partitions(1))
    assert len(chain.kernels) == 1 and chain.couplings == chain.references == ()
    for metric in (None, chain_metric(prob)):
        report = bound_chain(prob, alg, chain, metric)
        assert report.rhs == 0.0
        assert report.components == {}
    tail = tail_transductive(prob, alg, chain, 0.05)
    assert tail.violation == 0.0
    assert tail.details["levels"] == 0


def test_chain_metric_is_a_pseudometric():
    gen = np.random.default_rng(38)
    prob = random_problem(gen)
    d = chain_metric(prob)
    assert np.allclose(np.diag(d), 0.0)
    assert np.allclose(d, d.T)
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_chain_metric_ignores_constant_shifts():
    loss = np.array([[0.125, 0.25, 0.5], [0.375, 0.5, 0.75], [0.9, 0.2, 0.4]])
    prob = LearningProblem(loss, FiniteMeasure([0.2, 0.3, 0.5]), n=1, bound=1.0)
    d = chain_metric(prob)
    assert d[0, 1] == 0.0
    assert d[0, 2] > 0.0


def test_increment_check_accepts_and_rejects():
    prob = xor_problem()
    d = chain_metric(prob)
    worst = increment_check(prob, d)
    assert worst <= 0.0
    with pytest.raises(DomainError):
        increment_check(prob, 0.4 * d)


def test_increment_check_tolerates_the_rounding_of_gen():
    # gen is 0 here up to the rounding of large losses averaged over n draws: the
    # absolute tolerance refused the chain metric by 2.3e-2 and by 8.7e+136
    for loss, p_z, n in (([[1.1e13, 1.1e13], [0, 0]], [0.3, 0.7], 10),
                         ([[1e150], [0]], [1.0], 100)):
        prob = LearningProblem(loss, FiniteMeasure(p_z), n, bound=max(map(max, loss)))
        assert increment_check(prob, chain_metric(prob)) > 0.0
    # a metric that is really too small is still refused at that scale
    prob = LearningProblem([[1.1e13, 0.0], [0.0, 1.1e13]], FiniteMeasure([0.3, 0.7]), 10,
                           bound=1.1e13)
    increment_check(prob, chain_metric(prob))
    with pytest.raises(DomainError, match="metric too small"):
        increment_check(prob, 0.4 * chain_metric(prob))


def test_increment_check_single_hypothesis_has_no_pairs():
    prob = LearningProblem(np.array([[0.2, 0.7]]), FiniteMeasure([0.5, 0.5]), n=2,
                           bound=1.0)
    assert increment_check(prob, np.zeros((1, 1))) == -np.inf


def scalar_orlicz_norm(values, law, p):
    """Reference: a one-variable bisection, the form orlicz_norm took before all
    rows were bisected at once."""
    live = law.weights > 0.0
    vals, mass = np.abs(values[live]), law.weights[live]
    vmax = vals.max()
    if vmax == 0.0:
        return 0.0
    lo = vmax / psi_inv(1.0 / mass.min(), p)
    hi = vmax / psi_inv(1.0, p)
    while hi - lo > NORM_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore"):
            moment = float(mass @ np.expm1((vals / mid) ** p))
        lo, hi = (lo, mid) if moment <= 1.0 else (mid, hi)
    return hi


def looped_pair_norms(prob):
    """Reference: pair_norms from one scalar bisection per pair u < v."""
    law = FiniteMeasure(prob.sample_probs)
    out = np.zeros((prob.num_hypotheses, prob.num_hypotheses))
    for u, v in zip(*np.triu_indices(prob.num_hypotheses, 1)):
        sums = prob.n * (prob.gen_matrix[v] - prob.gen_matrix[u])
        out[u, v] = out[v, u] = scalar_orlicz_norm(sums, law, 2.0)
    return out


def test_increment_check_matches_the_pairwise_loop(small_problem):
    prob = small_problem
    metric = chain_metric(prob)
    law = FiniteMeasure(prob.sample_probs)
    worst = -np.inf
    for u in range(prob.num_hypotheses):
        for v in range(prob.num_hypotheses):
            if u != v:
                sums = prob.n * (prob.gen_matrix[v] - prob.gen_matrix[u])
                norm = scalar_orlicz_norm(sums, law, 2.0)
                worst = max(worst, norm - np.sqrt(prob.n) * metric[u, v])
    assert increment_check(prob, metric) == worst


def test_pair_norms_match_the_scalar_loop():
    gen = np.random.default_rng(39)
    probs = [random_problem(gen, m_max=4, n_max=4, big_n_max=8) for _ in range(15)]
    loss = gen.uniform(size=(5, 3))
    probs.append(LearningProblem(loss, FiniteMeasure([0.3, 0.0, 0.7]), n=3, bound=1.0))
    # 3^11 samples: the 10 pairs are bisected in blocks of 2^20 // 3^11 = 5
    probs.append(LearningProblem(gen.uniform(size=(5, 3)), FiniteMeasure(gen.dirichlet(np.ones(3))),
                                 n=11, bound=1.0))
    for prob in probs:
        ref = looped_pair_norms(prob)
        assert np.all(np.abs(prob.pair_norms - ref) <= NORM_REL_TOL * ref)
    var = DiscreteRandomVariable(gen.normal(size=6), FiniteMeasure(gen.dirichlet(np.ones(6))))
    for p in (1.0, 2.0, 3.0):
        assert orlicz_norm(var, p) == orlicz_norms(var.values[None, :], var.law, p)[0]


def test_problem_tables_are_cached_and_read_only(small_problem, gibbs_alg):
    prob = small_problem
    for name in ("loss_differences", "population_dists", "pair_norms"):
        table = getattr(prob, name)
        assert getattr(prob, name) is table
        assert not table.flags.writeable
    assert np.array_equal(prob.pair_norms, prob.pair_norms.T)
    q_w = hypothesis_marginal(prob, gibbs_alg)
    table = prob.w2_plans(gibbs_alg.kernel, q_w)
    assert prob.w2_plans(gibbs_alg.kernel, hypothesis_marginal(prob, gibbs_alg)) is table
    again = gibbs_algorithm(prob, 1.0)  # an equal kernel: its own table, equal values
    rebuilt = prob.w2_plans(again.kernel, hypothesis_marginal(prob, again))
    assert rebuilt is not table
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt, table))
    dist, plans = table
    assert dist.shape == (prob.num_samples,)
    assert plans.shape == (prob.num_samples, prob.num_hypotheses, prob.num_hypotheses)
    assert not dist.flags.writeable and not plans.flags.writeable
    assert optimal_couplings(prob, gibbs_alg, q_w) is plans


@pytest.mark.parametrize("partitions", [
    [[[0, 1], [1, 2, 3]]],  # cells overlap
    [[[0, 1], [2]]],  # hypothesis 3 sits in no cell
    [np.array([0, 0, 1])],  # label array of the wrong length
    [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])],  # second level does not refine
    [],  # empty hierarchy
])
def test_chain_from_partitions_rejects_bad_hierarchies(small_problem, gibbs_alg, partitions):
    with pytest.raises(ConfigurationError):
        chain_from_partitions(small_problem, gibbs_alg, partitions)


def test_partition_hierarchy_is_markov_and_validated(small_problem, gibbs_alg):
    parts = dyadic_partitions(small_problem.num_hypotheses)[1:]
    chain = chain_from_partitions(small_problem, gibbs_alg, parts)
    assert markov_slack(small_problem, chain) <= 1e-12
    assert np.array_equal(chain.kernels[-1].matrix, gibbs_alg.matrix)
    non_refining = [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])]
    with pytest.raises(ConfigurationError):
        chain_from_partitions(small_problem, gibbs_alg, non_refining)


def product_chain(prob, alg):
    """Coarsest dyadic projection, then the algorithm, coupled independently per
    sample: the older level's law given the newer one still depends on the sample."""
    coarse = chain_from_partitions(prob, alg,
                                   dyadic_partitions(prob.num_hypotheses)[1:]).kernels[0]
    joint = alg.matrix[:, :, None] * coarse.matrix[:, None, :]
    return ChainSpec((coarse, alg.kernel), (joint,),
                     (np.einsum("s,suv->uv", prob.sample_probs, joint),))


def looped_markov_slack(prob, chain):
    """Reference: markov_slack as a loop over (sample, newer-level hypothesis) of
    each step's pair list, its sums added in pair order."""
    worst = 0.0
    for u, _, w in chain.couplings:
        mix = prob.sample_probs @ w
        mix_new = np.zeros(prob.num_hypotheses)
        for p in range(u.size):
            mix_new[u[p]] += mix[p]
        for s in range(prob.num_samples):
            if prob.sample_probs[s] == 0.0:
                continue
            row_new = np.zeros(prob.num_hypotheses)
            for p in range(u.size):
                row_new[u[p]] += w[s, p]
            for a in np.nonzero((row_new > 0) & (mix_new > 0))[0]:
                pairs = u == a
                worst = max(worst, float(np.abs(w[s, pairs] / row_new[a]
                                                - mix[pairs] / mix_new[a]).max()))
    return worst


def dense_markov_slack(prob, chain):
    """Reference: markov_slack over each step's dense (S, N, N) coupling."""
    p_s, worst = prob.sample_probs, 0.0
    for k in range(len(chain.couplings)):
        joint = dense_step(chain, k)[0]
        mix = np.einsum("s,suv->uv", p_s, joint)
        row, mix_row = joint.sum(axis=2), mix.sum(axis=1)
        s, u = np.nonzero((p_s[:, None] > 0) & (row > 0) & (mix_row[None, :] > 0))
        if s.size:
            gap = joint[s, u] / row[s, u][:, None] - mix[u] / mix_row[u][:, None]
            worst = max(worst, float(np.abs(gap).max()))
    return worst


def test_markov_slack_matches_the_loop():
    gen = np.random.default_rng(42)
    for _ in range(10):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            for parts in (dyadic_partitions(prob.num_hypotheses)[1:],
                          dyadic_partitions(prob.num_hypotheses)):
                chain = chain_from_partitions(prob, alg, parts)
                assert markov_slack(prob, chain) == looped_markov_slack(prob, chain)
            chain = product_chain(prob, alg)
            assert markov_slack(prob, chain) == looped_markov_slack(prob, chain)


def dense_chain_steps(prob, chain, metric=None):
    """Reference: bound_chain's step components from dense (S, N, N) couplings and
    distances, the loss form or, given a metric, the metric form; inf on escape."""
    p_s, dl = prob.sample_probs, prob.population_dists
    dsl = np.sqrt(dense_sq_dists(prob))
    steps, escape = [], False
    for k in range(len(chain.couplings)):
        joint, ref = dense_step(chain, k)
        inv, escaped = _psi2_inv_ratio(joint, ref[None, :, :])
        escape = escape or escaped
        if metric is None:
            cross = np.einsum("s,suv,suv->", p_s, joint * inv, dl[None, :, :] + dsl)
            steps.append(np.sqrt(48.0 / prob.n) * (cross + (ref * dl).sum()))
        else:
            cross = np.einsum("s,suv,uv->", p_s, joint * inv, metric)
            steps.append(np.sqrt(2.0 / prob.n) * (cross + (ref * metric).sum()))
    return [math.inf] * len(steps) if escape else steps


def dense_stochastic_chain(prob, alg, chain):
    """Reference: bound_stochastic_chain's step components and mi_form_rhs from the
    dense (S, N, N) prior draw and couplings."""
    d, p_s = chain_metric(prob), prob.sample_probs
    first = chain.kernels[0].matrix[:, :, None] * hypothesis_marginal(prob, alg).weights
    form1, form2 = [], []
    for k, kernel in enumerate(chain.kernels):
        joint = first if k == 0 else dense_step(chain, k - 1)[0]
        tab = p_s[:, None] * kernel.matrix
        col = tab.sum(axis=0)
        div = rel_entr(tab / np.where(col > 0, col, 1.0), p_s[:, None]).sum(axis=0)
        form1.append(np.einsum("s,suv,uv->", p_s, joint,
                               d * (np.sqrt(np.maximum(div, 0.0))[:, None] + 1.0)))
        mix = np.einsum("s,suv->uv", p_s, joint)
        mi = rel_entr(tab, np.outer(tab.sum(axis=1), col)).sum()
        form2.append(np.sqrt((mix * d**2).sum()) * (np.sqrt(max(0.0, mi)) + 2.0))
    scale = np.sqrt(2.0 / prob.n)
    return [scale * t for t in form1], scale * sum(form2)


def assert_dense_close(got, want):
    """Pair list against dense reference: within 1e-12 relative, 1e-15 absolute below
    1e-4, and inf exactly where the reference is inf."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isinf(got), np.isinf(want)), (got, want)
    fin = np.isfinite(want)
    tol = np.where(np.abs(want[fin]) < 1e-4, 1e-15, 1e-12 * np.abs(want[fin]))
    assert np.all(np.abs(got[fin] - want[fin]) <= tol), (got, want)


def assert_chain_matches_dense(prob, alg, chain, below_root=None):
    """Every pair-list reader of `chain` against its dense formula; `below_root`, the
    chain without its root, for the stochastic chain."""
    metric = chain_metric(prob)
    loss = bound_chain(prob, alg, chain, metric)
    assert_dense_close(list(loss.details["loss_form"].components.values()),
                       dense_chain_steps(prob, chain))
    assert_dense_close(list(loss.components.values()), dense_chain_steps(prob, chain, metric))
    assert_dense_close(markov_slack(prob, chain), dense_markov_slack(prob, chain))
    tail = tail_transductive(prob, alg, chain, 0.1)
    assert_dense_close(tail.details["per_pair_rhs"], dense_transductive_rhs(prob, chain, 0.1))
    if below_root is not None and markov_slack(prob, below_root) <= 1e-9:
        report = bound_stochastic_chain(prob, alg, below_root)
        steps, mi_form = dense_stochastic_chain(prob, alg, below_root)
        assert_dense_close(list(report.components.values()), steps)
        assert_dense_close(report.details["mi_form_rhs"], mi_form)


def test_pair_lists_match_the_dense_formulas_on_the_criterion_04_family():
    gen = np.random.default_rng(20260815)  # the acceptance suite's domination family
    for _ in range(200):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            parts = dyadic_partitions(prob.num_hypotheses)
            root, leaf = (chain_from_partitions(prob, alg, p) for p in (parts, parts[1:]))
            assert markov_slack(prob, root) == markov_slack(prob, leaf) == 0.0
            assert_chain_matches_dense(prob, alg, root, leaf)
            simplified = bound_coupling_simplified(prob, alg)
            assert_dense_close([simplified.rhs],
                               dense_chain_steps(prob, coupling_chain(prob, alg)))


def dense_chain(chain, first=0):
    """The chain from level `first` on, given to ChainSpec as dense tables."""
    steps = [dense_step(chain, k) for k in range(first, len(chain.couplings))]
    return ChainSpec(chain.kernels[first:], tuple(j for j, _ in steps),
                     tuple(r for _, r in steps))


def test_dense_chains_from_python_match_the_dense_formulas():
    gen = np.random.default_rng(43)
    for _ in range(10):
        prob = random_problem(gen, embed=False)
        for alg in algorithm_family(prob):
            parts = dyadic_partitions(prob.num_hypotheses)
            chain = chain_from_partitions(prob, alg, parts)
            # the dense tables of the partition chain, below its root, and with a level twice
            assert_chain_matches_dense(prob, alg, dense_chain(chain), dense_chain(chain, 1))
            twice = chain_from_partitions(prob, alg, [*parts[:2], *parts[1:]])
            assert_chain_matches_dense(prob, alg, dense_chain(twice), dense_chain(twice, 1))
            # product couplings: the default coupling chain without an embedding, and the
            # coarsest projection then the algorithm (its older level depends on the sample)
            assert_chain_matches_dense(prob, alg, coupling_chain(prob, alg))
            coarse = chain.kernels[1]
            joint = alg.matrix[:, :, None] * coarse.matrix[:, None, :]
            product = ChainSpec((chain.kernels[0], coarse, alg.kernel),
                                (dense_step(chain, 0)[0], joint),
                                (dense_step(chain, 0)[1],
                                 np.einsum("s,suv->uv", prob.sample_probs, joint)))
            assert_chain_matches_dense(prob, alg, product)


def test_zero_mass_outcomes_escape_on_both_paths():
    # outcome 2 has no mass, so the samples that hold it weigh nothing in the references:
    # ERM picks hypothesis 0 only there, and its coupling mass escapes the reference
    loss = np.array([[0.9, 0.9, 0.0], [0.2, 0.6, 0.5], [0.7, 0.1, 0.5], [0.5, 0.4, 0.6]])
    prob = LearningProblem(loss, FiniteMeasure([0.5, 0.5, 0.0]), n=2, bound=1.0)
    alg = erm_algorithm(prob)
    chain = chain_from_partitions(prob, alg, dyadic_partitions(4))
    report = bound_chain(prob, alg, chain)
    assert report.rhs == math.inf and not report.details["absolutely_continuous"]
    assert_chain_matches_dense(prob, alg, chain)
    assert_chain_matches_dense(prob, alg, dense_chain(chain))
    assert tail_transductive(prob, alg, chain, 0.1).details["per_pair_rhs"].max() == math.inf


def test_stochastic_chain_rejects_a_non_markov_chain(small_problem, gibbs_alg):
    chain = product_chain(small_problem, gibbs_alg)
    assert markov_slack(small_problem, chain) > 1e-3
    with pytest.raises(ConfigurationError, match="not Markov"):
        bound_stochastic_chain(small_problem, gibbs_alg, chain)


def test_stochastic_chain_single_level_oracle(small_problem, gibbs_alg):
    # one level, the identity partition: the bound reduces to a prior-draw
    # term computable directly from the joint law
    prob, alg = small_problem, gibbs_alg
    chain = chain_from_partitions(prob, alg, [np.arange(prob.num_hypotheses)])
    report = bound_stochastic_chain(prob, alg, chain)
    assert report.details["levels"] == 1

    d = chain_metric(prob)
    p_s = prob.sample_probs
    p_w = hypothesis_marginal(prob, alg).weights
    tab = p_s[:, None] * alg.matrix
    col = tab.sum(axis=0)
    sqrt_div = np.zeros(prob.num_hypotheses)
    for u in range(prob.num_hypotheses):
        if col[u] > 0:
            cond = tab[:, u] / col[u]
            mask = cond > 0
            sqrt_div[u] = math.sqrt(float(
                (cond[mask] * np.log(cond[mask] / p_s[mask])).sum()))
    inner = np.einsum("su,v,uv->", tab, p_w, d * (sqrt_div[:, None] + 1.0))
    expect = math.sqrt(2.0 / prob.n) * inner
    assert abs(report.rhs - expect) < 1e-12

    mi = float((tab * np.log(tab / np.outer(p_s, col))).sum())
    mix = np.einsum("su,v->uv", tab, p_w)
    expect_mi = math.sqrt(2.0 / prob.n) * math.sqrt((mix * d**2).sum()) * (math.sqrt(mi) + 2.0)
    assert abs(report.details["mi_form_rhs"] - expect_mi) < 1e-12


def test_stochastic_chain_ignoring_drops_divergence(small_problem, ignoring_alg):
    prob, alg = small_problem, ignoring_alg
    parts = dyadic_partitions(prob.num_hypotheses)[1:]
    report = bound_stochastic_chain(prob, alg, chain_from_partitions(prob, alg, parts))
    d = chain_metric(prob)
    p_w = hypothesis_marginal(prob, alg).weights
    # each level maps a hypothesis to the lowest index of its cell
    reps = [np.array([np.nonzero(lab == lab[w])[0].min() for w in range(len(lab))])
            for lab in parts]
    # level 1: independent draw of the coarsest projection against the prior;
    # deeper levels couple projections of the same draw; divergences vanish
    total = float(np.einsum("w,v,wv->", p_w, p_w, d[reps[0]]))
    for k in range(1, len(reps)):
        new_rep, old_rep = reps[k], reps[k - 1]
        total += float((p_w * d[new_rep, old_rep]).sum())
    expect = math.sqrt(2.0 / prob.n) * total
    assert abs(report.rhs - expect) < 1e-12


def test_stochastic_chain_random_slack():
    gen = np.random.default_rng(39)
    for _ in range(10):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            parts = dyadic_partitions(prob.num_hypotheses)[1:]
            report = bound_stochastic_chain(prob, alg, chain_from_partitions(prob, alg, parts))
            assert report.rhs - report.lhs >= -1e-9
            assert report.details["mi_form_rhs"] - report.lhs >= -1e-9


# ---------------------------------------------------------------------------
# transport-geodesic bound
# ---------------------------------------------------------------------------

def test_wasserstein_ignoring_is_exactly_zero():
    gen = np.random.default_rng(40)
    prob = random_problem(gen)
    report = bound_wasserstein_geodesic(prob, ignore_algorithm(prob))
    assert report.rhs == 0.0
    assert report.details["expected_w2"] == 0.0


def test_wasserstein_requires_embedding():
    prob = xor_problem(embed=False)
    with pytest.raises(ConfigurationError):
        bound_wasserstein_geodesic(prob, erm_algorithm(prob))


def step_registry_geodesic(prob, alg, steps):
    """Reference: the geodesic bound's (endpoint, steps) terms summed over a uniform
    split of every per-sample displacement geodesic. Each step's couplings live on
    a shared registry of (start, end) atom coordinates rounded to 12 places."""
    q_w = hypothesis_marginal(prob, alg)
    p_s = prob.sample_probs
    times = np.linspace(0.0, 1.0, steps + 1)
    live = np.nonzero(p_s > 0)[0]
    dist, plans = prob.w2_plans(alg.kernel, q_w)
    geos = {}
    for s in live:
        plan = TransportPlan(plans[s], FiniteMeasure(alg.matrix[s]), q_w)
        geos[s] = displacement_interpolation(plan, dist[s], prob.embedding, times)
    expected_w2 = float(sum(p_s[s] * geos[s].distance for s in live))
    step_sum = 0.0
    for k in range(1, steps + 1):
        registry, keyed = {}, {}
        for s in live:
            geo = geos[s]
            prev = np.round(geo.points[k - 1].support.points[geo.atom_to_point[k - 1]], 12)
            cur = np.round(geo.points[k].support.points[geo.atom_to_point[k]], 12)
            keyed[s] = [registry.setdefault((tuple(a), tuple(b)), len(registry))
                        for a, b in zip(prev, cur)]
        mix, vecs = np.zeros(len(registry)), {}
        for s in live:
            vecs[s] = np.zeros(len(registry))
            np.add.at(vecs[s], keyed[s], geos[s].atom_mass)
            mix += p_s[s] * vecs[s]
        for s in live:
            length = (times[k] - times[k - 1]) * geos[s].distance
            if length > 0.0:
                div = float(rel_entr(vecs[s], mix).sum())
                step_sum += p_s[s] * length * np.sqrt(max(div, 0.0))
    scale = np.sqrt(2.0 / prob.n)
    return scale * 2.0 * expected_w2, scale * step_sum


def assert_geodesic_matches_step_registry(prob, alg):
    report = bound_wasserstein_geodesic(prob, alg)
    for steps in (1, 2, 4):
        endpoint, step_term = step_registry_geodesic(prob, alg, steps)
        assert abs(report.components["endpoint"] - endpoint) <= 1e-12 * endpoint
        assert abs(report.components["steps"] - step_term) <= 1e-12 * step_term
    return report


def test_wasserstein_step_counts_and_slack():
    gen = np.random.default_rng(41)
    for _ in range(5):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            report = assert_geodesic_matches_step_registry(prob, alg)
            assert report.rhs - report.lhs >= -1e-9
            assert abs(report.components["endpoint"]
                       + report.components["steps"] - report.rhs) < 1e-9


def test_wasserstein_divergence_blocks_keep_the_one_block_bits(monkeypatch):
    # each sample's divergence is its own row sum, so any row blocking gives the
    # bits of one block over all samples: at most 3 rows per block, or all of them
    gen = np.random.default_rng(47)
    for _ in range(4):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            reports = []
            for rows in (3, 2**30):
                with monkeypatch.context() as patch:
                    patch.setattr(errors, "BLOCK_BYTES", rows * 5 * 8 * prob.num_hypotheses**2)
                    reports.append(bound_wasserstein_geodesic(prob, alg))
            assert reports[0].components == reports[1].components
            assert reports[0].rhs == reports[1].rhs


def test_wasserstein_merges_hypotheses_at_one_point():
    loss = np.array([[0.2, 0.7, 0.4], [0.9, 0.1, 0.5], [0.2, 0.7, 0.4], [0.6, 0.3, 0.8]])
    plain = LearningProblem(loss, FiniteMeasure([0.5, 0.3, 0.2]), n=2, bound=1.0)
    prob = LearningProblem(loss, FiniteMeasure([0.5, 0.3, 0.2]), n=2, bound=1.0,
                           embedding=loss_embedding(plain))
    for alg in algorithm_family(prob):
        assert_geodesic_matches_step_registry(prob, alg)


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def test_tail_pointwise_sigma_zero_never_violates():
    prob = constant_problem()
    for alg in algorithm_family(prob):
        report = tail_pointwise_check(prob, alg, 0.05)
        assert report.violation == 0.0
        assert report.passed


def test_tail_pointwise_delta_edges(small_problem, gibbs_alg):
    report = tail_pointwise_check(small_problem, gibbs_alg, 1.0)
    assert report.passed
    for bad in (0.0, 1.5, -0.1):
        with pytest.raises(DomainError):
            tail_pointwise_check(small_problem, gibbs_alg, bad)


def looped_pointwise_frequency(prob, alg, delta, sigma):
    # the pointwise tail as a loop: the mass of each (sample, hypothesis) cell whose
    # |gen| exceeds its threshold, by the 2-D index, summed exactly
    inv, _ = bounds._density_table(prob, alg, None)
    threshold = sigma * np.sqrt(6.0 / prob.n) * (inv + np.sqrt(np.log(1.0 / delta)))
    cells, floor = joint_cells(prob, alg), bounds._gen_rounding(prob)
    return math.fsum(cells[s, w] for s in range(prob.num_samples)
                     for w in range(prob.num_hypotheses)
                     if abs(prob.gen_matrix[w, s]) > max(threshold[s, w], floor))


def test_tail_pointwise_mc_hits_equal_the_looped_lookup():
    # the tail has no Monte Carlo form: its violation is the exact mass the loop sums
    gen = np.random.default_rng(77)
    seen = set()
    for _ in range(6):
        prob = random_problem(gen, m_max=4, n_max=3)
        for alg in algorithm_family(prob):
            for sigma in (0.01, 0.1):  # small sigmas make a tail that is often exceeded
                report = tail_pointwise_check(prob, alg, 0.9, sigma=sigma)
                want = looped_pointwise_frequency(prob, alg, 0.9, sigma)
                assert report.violation == pytest.approx(want, abs=1e-14)
                seen.add(0.0 < want < 1.0)
    assert seen == {True, False}
    with pytest.raises(TypeError):
        tail_pointwise_check(prob, alg, 0.9, sigma=0.1, mc=(9000, 5))


def test_tail_pac_bayes_delta_edges(small_problem, gibbs_alg):
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            tail_pac_bayes(small_problem, gibbs_alg, bad)


def test_density_readers_refuse_a_q_w_of_the_wrong_size():
    # the tails broadcast a 1-atom q_w (violation 0.0) and died in numpy on a 2-atom one
    prob = constant_problem()
    alg = gibbs_algorithm(prob, 1.0)
    for q_w in (FiniteMeasure([1.0]), FiniteMeasure([0.5, 0.5])):
        for tail in (tail_pointwise_check, tail_pac_bayes):
            with pytest.raises(ConfigurationError, match="q_w has"):
                tail(prob, alg, 0.05, q_w=q_w)
        with pytest.raises(ConfigurationError, match="q_w has"):
            bound_density(prob, alg, q_w=q_w)


def test_tail_pac_bayes_ignoring_threshold(small_problem, ignoring_alg):
    delta = 0.05
    report = tail_pac_bayes(small_problem, ignoring_alg, delta)
    sigma = subgaussian_sigma(small_problem)
    expect = math.sqrt(24 * sigma**2 / small_problem.n) * (
        math.sqrt(math.log(2)) + 1 + math.sqrt(math.log(2 / delta)))
    rhs = report.details["per_sample_rhs"]
    assert np.ptp(rhs) == 0.0
    assert abs(rhs[0] - expect) < 1e-12
    assert report.violation == 0.0


def test_tail_pac_bayes_sigma_zero():
    prob = constant_problem()
    report = tail_pac_bayes(prob, gibbs_algorithm(prob, 1.0), 0.1)
    assert np.allclose(report.details["per_sample_lhs"], 0.0)
    assert report.violation == 0.0


def test_tail_transductive_ignoring_and_weights(small_problem, ignoring_alg):
    parts = dyadic_partitions(small_problem.num_hypotheses)
    chain = chain_from_partitions(small_problem, ignoring_alg, parts)
    report = tail_transductive(small_problem, ignoring_alg, chain, 0.1)
    assert report.violation == 0.0
    explicit = tail_transductive(small_problem, ignoring_alg, chain, 0.1,
                                 level_weights=np.array([0.5, 0.5]))
    assert explicit.violation == report.violation
    with pytest.raises(DomainError):
        tail_transductive(small_problem, ignoring_alg, chain, 0.1,
                          level_weights=np.array([0.7, 0.7]))
    with pytest.raises(DomainError):
        tail_transductive(small_problem, ignoring_alg, chain, 0.1,
                          level_weights=np.array([1.2, -0.2]))


def dense_transductive_rhs(prob, chain, delta):
    """Reference: tail_transductive's (ghost, train) rhs from the dense loop over
    every (ghost, u, v) cell of each train sample."""
    K = len(chain.couplings)
    dsl2 = dense_sq_dists(prob)
    rhs = np.zeros((prob.num_samples, prob.num_samples))
    for joint, ref in map(lambda k: dense_step(chain, k), range(K)):
        inv, escape = _psi2_inv_ratio(joint, ref[None, :, :])
        if escape:
            return np.full_like(rhs, np.inf)
        log_term = np.sqrt(np.log(2.0 / (delta / K)))
        ref_dot = np.einsum("uv,suv->s", ref, dsl2)
        rhs += np.sqrt(0.5 * (ref_dot[:, None] + ref_dot[None, :]))
        for s in range(prob.num_samples):
            d = np.sqrt(0.5 * (dsl2 + dsl2[s][None, :, :]))
            rhs[:, s] += np.einsum("uv,guv->g", joint[s] * inv[s], d)
            rhs[:, s] += log_term * np.einsum("uv,guv->g", joint[s], d)
    return rhs * np.sqrt(96.0 / prob.n)


def looped_transductive(prob, alg, chain, delta):
    """Reference: tail_transductive's (ghost, train) rhs and violation from one
    column per train sample on each step's pair list, no equal columns shared."""
    K = len(chain.couplings)
    q_w = chain.kernels[0].matrix[0]
    S, p_s = prob.num_samples, prob.sample_probs
    contrast = alg.matrix - q_w[None, :]
    emp = prob.empirical_matrix
    lhs = emp.T @ contrast.T - np.einsum("sw,ws->s", contrast, emp)[None, :]
    rhs = np.zeros((S, S))
    for (u, v, w), ref in zip(chain.couplings, chain.references):
        inv, escape = _psi2_inv_ratio(w, ref[None, :])
        if escape:
            rhs[:] = np.inf
            break
        dsl2 = prob.pair_sq_dists(u, v)
        log_term = np.sqrt(np.log(2.0 / (1.0 / K * delta)))  # uniform level weights
        ref_dot = dsl2 @ ref
        rhs += np.sqrt(0.5 * (ref_dot[:, None] + ref_dot[None, :]))
        for s in range(S):
            sup = np.flatnonzero(w[s])
            d = np.sqrt(0.5 * (dsl2[:, sup] + dsl2[s, sup]))
            rhs[:, s] += d @ (w[s, sup] * (inv[s, sup] + log_term))
    rhs *= np.sqrt(96.0 / prob.n)
    return rhs, float((p_s[:, None] * p_s[None, :])[lhs > rhs].sum())


def test_tail_transductive_matches_the_per_sample_loop_bits():
    # a random kernel (every row distinct), a kernel whose repeated rows ignore
    # the sample's type (so equal couplings do not imply equal distances), and Gibbs
    gen = np.random.default_rng(40)
    for _ in range(8):
        prob = random_problem(gen, m_max=3, n_max=4, big_n_max=6)
        S, N = prob.num_samples, prob.num_hypotheses
        distinct = gen.dirichlet(np.ones(N), size=S)
        repeated = gen.dirichlet(np.ones(N), size=3)[gen.integers(0, 3, size=S)]
        for alg in (Algorithm(MarkovKernel(distinct), kind="table"),
                    Algorithm(MarkovKernel(repeated), kind="table"), gibbs_algorithm(prob, 2.0)):
            chain = chain_from_partitions(prob, alg, dyadic_partitions(N))
            for delta in DELTAS:
                report = tail_transductive(prob, alg, chain, delta)
                rhs, violation = looped_transductive(prob, alg, chain, delta)
                assert np.array_equal(report.details["per_pair_rhs"], rhs)
                assert report.violation == violation


def test_tail_transductive_matches_the_dense_loop():
    gen = np.random.default_rng(38)
    for _ in range(10):
        prob = random_problem(gen)
        q_w = FiniteMeasure(gen.dirichlet(np.ones(prob.num_hypotheses)))
        for alg in algorithm_family(prob) + [ignore_algorithm(prob, row=q_w)]:
            chain = chain_from_partitions(prob, alg, dyadic_partitions(prob.num_hypotheses))
            contrast = alg.matrix - chain.kernels[0].matrix[0][None, :]
            emp = prob.empirical_matrix
            lhs = emp.T @ contrast.T - np.einsum("sw,ws->s", contrast, emp)[None, :]
            p_pair = prob.sample_probs[:, None] * prob.sample_probs[None, :]
            for delta in DELTAS:
                report = tail_transductive(prob, alg, chain, delta)
                dense = dense_transductive_rhs(prob, chain, delta)
                np.testing.assert_allclose(report.details["per_pair_rhs"], dense,
                                           rtol=1e-12, atol=0)
                assert report.violation == float(p_pair[lhs > dense].sum())

def test_tail_suite_holds_at_spec_deltas(small_problem):
    for alg in algorithm_family(small_problem):
        parts = dyadic_partitions(small_problem.num_hypotheses)
        chain = chain_from_partitions(small_problem, alg, parts)
        for delta in DELTAS:
            assert tail_pointwise_check(small_problem, alg, delta).passed
            assert tail_pac_bayes(small_problem, alg, delta).passed
            assert tail_transductive(small_problem, alg, chain, delta).passed


def test_tail_report_accessors(small_problem, gibbs_alg):
    report = tail_pointwise_check(small_problem, gibbs_alg, 0.25)
    assert report.lhs == report.violation
    assert report.rhs == 0.25
    assert abs(report.slack - (0.25 - report.violation)) < 1e-15
