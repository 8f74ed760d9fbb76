import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import rel_entr

from genbound import (ChainSpec, ConfigurationError, DiscreteRandomVariable,
                      DomainError, FiniteMeasure, LearningProblem, MarkovKernel,
                      bound_chain, bound_cmi, bound_coupling,
                      bound_coupling_simplified, bound_density, bound_mi,
                      bound_stochastic_chain, bound_wasserstein_geodesic,
                      chain_from_partitions, chain_metric, delta_bound,
                      dyadic_partitions, erm_algorithm, exact_joint,
                      expected_gen, gibbs_algorithm, hypothesis_marginal,
                      ignore_algorithm, increment_check, kl_divergence,
                      loss_embedding, markov_slack, mutual_information,
                      optimal_couplings, orlicz_norm, subgaussian_sigma,
                      tail_pac_bayes, tail_pointwise_check, tail_transductive)
from genbound.bounds import _coupling_and_reference, _coupling_arrays, _psi2_inv_ratio
from genbound.transport import displacement_interpolation

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
    pi, mu = _coupling_and_reference(prob, alg, kwargs.get("q_w"), kwargs.get("couplings"),
                                     kwargs.get("mu_uv"))
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


def test_coupling_refuses_too_many_ghost_pairs_before_allocating():
    # product couplings fill all N^2 entries of every sample: 2187 * 256 support
    # entries times 2187 ghosts times 7 draws is 8.6e9 > 2e8
    gen = np.random.default_rng(37)
    prob = LearningProblem(gen.uniform(0.0, 1.0, size=(16, 3)),
                           FiniteMeasure(gen.dirichlet(np.ones(3))), 7, bound=1.0)
    alg = gibbs_algorithm(prob, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="too many ghost pairs"):
            bound_coupling(prob, alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# chained bounds
# ---------------------------------------------------------------------------

def test_single_step_chain_equals_simplified_coupling():
    gen = np.random.default_rng(35)
    prob = random_problem(gen)
    alg = gibbs_algorithm(prob, 1.0)
    q_w = hypothesis_marginal(prob, alg)
    pi = _coupling_arrays(prob, alg, q_w, optimal_couplings(prob, alg, q_w))
    mu = np.einsum("s,suv->uv", prob.sample_probs, pi)
    spec = ChainSpec(kernels=(MarkovKernel.constant(q_w, prob.num_samples),
                              alg.kernel),
                     couplings=(pi,), references=(mu,))
    assert bound_chain(prob, alg, spec).rhs == bound_coupling_simplified(prob, alg).rhs


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
        base = bound_chain(prob, alg, chain_from_partitions(prob, alg, parts, metric=m))
        dup = bound_chain(prob, alg, chain_from_partitions(prob, alg, padded, metric=m))
        assert base.rhs == dup.rhs


def test_chain_slack_both_forms():
    gen = np.random.default_rng(37)
    for _ in range(10):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            parts = dyadic_partitions(prob.num_hypotheses)
            plain = bound_chain(prob, alg, chain_from_partitions(prob, alg, parts))
            assert plain.rhs - plain.lhs >= -1e-9
            spec = chain_from_partitions(prob, alg, parts,
                                         metric=chain_metric(prob))
            metric = bound_chain(prob, alg, spec)
            assert metric.rhs - metric.lhs >= -1e-9
            assert metric.details["loss_form_rhs"] - metric.lhs >= -1e-9


def test_chain_validation_errors():
    prob = xor_problem()
    alg = gibbs_algorithm(prob, 1.0)
    q_w = hypothesis_marginal(prob, alg)
    pi = _coupling_arrays(prob, alg, q_w, optimal_couplings(prob, alg, q_w))
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


def test_increment_check_single_hypothesis_has_no_pairs():
    prob = LearningProblem(np.array([[0.2, 0.7]]), FiniteMeasure([0.5, 0.5]), n=2,
                           bound=1.0)
    assert increment_check(prob, np.zeros((1, 1))) == -np.inf


def test_increment_check_matches_the_pairwise_loop(small_problem):
    prob = small_problem
    metric = chain_metric(prob)
    law = FiniteMeasure(prob.sample_probs)
    worst = -np.inf
    for u in range(prob.num_hypotheses):
        for v in range(prob.num_hypotheses):
            if u != v:
                sums = prob.n * (prob.gen_matrix[v] - prob.gen_matrix[u])
                norm = orlicz_norm(DiscreteRandomVariable(sums, law), 2.0)
                worst = max(worst, norm - np.sqrt(prob.n) * metric[u, v])
    assert increment_check(prob, metric) == worst


def test_problem_tables_are_cached_and_read_only(small_problem, gibbs_alg):
    prob = small_problem
    for name in ("loss_differences", "population_dists", "empirical_sq_dists",
                 "empirical_dists", "pair_norms"):
        table = getattr(prob, name)
        assert getattr(prob, name) is table
        assert not table.flags.writeable
    q_w = hypothesis_marginal(prob, gibbs_alg)
    row = FiniteMeasure(gibbs_alg.matrix[0])
    assert prob.w2_plan(row, q_w) is prob.w2_plan(FiniteMeasure(gibbs_alg.matrix[0]), q_w)
    plans = optimal_couplings(prob, gibbs_alg, q_w)
    assert plans[0] is prob.w2_plan(row, q_w)[1]


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
    parts = dyadic_partitions(small_problem.num_hypotheses, include_root=False)
    chain = chain_from_partitions(small_problem, gibbs_alg, parts)
    assert markov_slack(small_problem, chain) <= 1e-12
    assert np.array_equal(chain.kernels[-1].matrix, gibbs_alg.matrix)
    non_refining = [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])]
    with pytest.raises(ConfigurationError):
        chain_from_partitions(small_problem, gibbs_alg, non_refining)


def product_chain(prob, alg):
    """Coarsest dyadic projection, then the algorithm, coupled independently per
    sample: the older level's law given the newer one still depends on the sample."""
    coarse = chain_from_partitions(prob, alg, dyadic_partitions(
        prob.num_hypotheses, include_root=False)).kernels[0]
    joint = alg.matrix[:, :, None] * coarse.matrix[:, None, :]
    return ChainSpec((coarse, alg.kernel), (joint,),
                     (np.einsum("s,suv->uv", prob.sample_probs, joint),))


def looped_markov_slack(prob, chain):
    """Reference: markov_slack as a loop over (sample, newer-level hypothesis)."""
    worst = 0.0
    for joint in chain.couplings:
        mix = np.einsum("s,suv->uv", prob.sample_probs, joint)
        mix_new = mix.sum(axis=1)
        for s in range(prob.num_samples):
            if prob.sample_probs[s] == 0.0:
                continue
            row_new = joint[s].sum(axis=1)
            for u in np.nonzero((row_new > 0) & (mix_new > 0))[0]:
                worst = max(worst, float(np.abs(joint[s, u] / row_new[u]
                                                - mix[u] / mix_new[u]).max()))
    return worst


def test_markov_slack_matches_the_loop():
    gen = np.random.default_rng(42)
    for _ in range(10):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            for parts in (dyadic_partitions(prob.num_hypotheses, include_root=False),
                          dyadic_partitions(prob.num_hypotheses)):
                chain = chain_from_partitions(prob, alg, parts)
                assert markov_slack(prob, chain) == looped_markov_slack(prob, chain)
            chain = product_chain(prob, alg)
            assert markov_slack(prob, chain) == looped_markov_slack(prob, chain)


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
    parts = dyadic_partitions(prob.num_hypotheses, include_root=False)
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
            parts = dyadic_partitions(prob.num_hypotheses, include_root=False)
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
    geos = {}
    for s in live:
        dist, plan = prob.w2_plan(FiniteMeasure(alg.matrix[s]), q_w)
        geos[s] = displacement_interpolation(plan, dist, prob.embedding, times)
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


def test_tail_pac_bayes_delta_edges(small_problem, gibbs_alg):
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            tail_pac_bayes(small_problem, gibbs_alg, bad)


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
    dsl2 = prob.empirical_sq_dists
    rhs = np.zeros((prob.num_samples, prob.num_samples))
    for joint, ref in zip(chain.couplings, chain.references):
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
