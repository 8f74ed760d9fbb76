import dataclasses
import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from genbound import (Algorithm, ConfigurationError, DomainError, FiniteMeasure, LearningProblem,
                      MarkovKernel, algorithm_from_json, delta_bound,
                      erm_algorithm, exact_joint, expected_gen,
                      bound_cmi, gibbs_algorithm, ignore_algorithm, mutual_information,
                      loss_embedding, orlicz_norm, problem_from_json, subgaussian_sigma)
from genbound import learning, mc
from genbound.bounds import _psi2_inv_ratio, _supersample_index
from genbound.errors import BLOCK_BYTES
from genbound.measures import DRIFT_TOL, logsumexp, rel_entr
from genbound.orlicz import DiscreteRandomVariable

from conftest import algorithm_family, random_problem


def xor_problem():
    # two hypotheses, two outcomes, each hypothesis perfect on one outcome
    return LearningProblem(loss=np.array([[0.0, 1.0], [1.0, 0.0]]),
                           p_z=FiniteMeasure([0.5, 0.5]), n=1, bound=1.0)


def test_problem_shapes_and_enumeration(small_problem):
    prob = small_problem
    assert prob.num_hypotheses == 4
    assert prob.num_outcomes == 3
    assert prob.num_samples == 9
    assert prob.samples.shape == (9, 2)
    # lexicographic enumeration
    assert prob.samples[0].tolist() == [0, 0]
    assert prob.samples[1].tolist() == [0, 1]
    assert prob.samples[-1].tolist() == [2, 2]
    assert prob.samples[np.ravel_multi_index((2, 1), (3, 3))].tolist() == [2, 1]
    assert abs(prob.sample_probs.sum() - 1.0) < 1e-12
    # one outcome, one draw, and more draws than numpy has dimensions
    for m, n in ((1, 1), (1, 70), (2, 1), (3, 4), (2, 9)):
        prob = LearningProblem(np.zeros((2, m)), FiniteMeasure.uniform(m), n)
        ref = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int64)
        assert prob.samples.dtype == np.int64 and np.array_equal(prob.samples, ref)


def test_problem_over_the_cap_is_refused_when_built():
    # the table store checked the cap after the samples, risks and kernel were
    # built; a huge n must not build m^n either, nor, with one outcome, (1, n) samples
    tracemalloc.start()
    try:
        for m, n in ((2, 21), (2, 10**12), (2, 1e12), (1, 10**12), (1, 2**23 + 1)):
            obj = {"m": m, "N": 2, "n": n, "loss": [[1] * m, [0] * m], "p_z": [1 / m] * m}
            with pytest.raises(ConfigurationError,
                               match=f"\\({m}\\^{int(n)}, {int(n)}\\) table .* MEMORY_BUDGET"):
                problem_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert LearningProblem(np.zeros((2, 1)), FiniteMeasure([1.0]), 2**23).num_samples == 1


def test_store_reads_copy_nothing():
    # the store was keyed on matrix.tobytes(), so every read copied the whole kernel
    gen = np.random.default_rng(45)
    prob = LearningProblem(gen.uniform(size=(64, 2)), FiniteMeasure([0.4, 0.6]), 10, bound=1.0)
    alg = gibbs_algorithm(prob, 5.0)
    assert alg.matrix.nbytes == 512 * 1024
    cells = learning.joint_cells(prob, alg)
    tracemalloc.start()
    try:
        assert learning.joint_cells(prob, alg) is cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_pair_sq_dists_streams_blocks_of_block_bytes():
    # the dense table's block was 4096 samples whatever N and n: (24, 24, 4096, 12)
    # floats, 226 MB; on the list of all 576 pairs the gather streams the same way
    gen = np.random.default_rng(24)
    prob = LearningProblem(gen.uniform(0.0, 1.0, size=(24, 2)), FiniteMeasure([0.3, 0.7]), 12)
    u, v = np.divmod(np.arange(24 * 24), 24)
    _ = prob.samples, prob.loss_differences  # built before the trace: not part of the stream
    tracemalloc.start()
    try:
        table = prob.pair_sq_dists(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 4096 * 24 * 24 * 8
    assert peak <= table.nbytes + BLOCK_BYTES
    g = prob.loss_differences
    dense = np.stack([(g[:, :, np.sort(z)] ** 2).mean(axis=2) for z in prob.samples])
    assert np.array_equal(table, dense.reshape(prob.num_samples, -1))


def test_population_and_empirical_oracle(small_problem):
    prob = small_problem
    pop = prob.loss @ prob.p_z.weights
    assert np.allclose(prob.population_risks, pop)
    # empirical risk of hypothesis 0 on sample (z0, z2) is (0.0 + 1.0) / 2
    s = np.ravel_multi_index((0, 2), (3, 3))
    assert abs(prob.empirical_matrix[0, s] - 0.5) < 1e-12
    assert np.allclose(prob.gen_matrix,
                       prob.population_risks[:, None] - prob.empirical_matrix)


def test_problem_rejects_out_of_range_loss():
    with pytest.raises(Exception):
        LearningProblem(np.array([[0.0, 1.5]]), FiniteMeasure([0.5, 0.5]),
                        n=1, bound=1.0)


def test_same_type_samples_share_rows_bit_for_bit():
    # samples with the same outcome counts (type) get identical bits in every
    # per-sample table, which is what lets optimal_couplings solve one block per type
    gen = np.random.default_rng(21)
    probs = [random_problem(gen, m_max=4, n_max=4) for _ in range(12)]
    loss = gen.uniform(size=(4, 3))
    probs.append(LearningProblem(loss, FiniteMeasure([0.5, 0.0, 0.5]), n=4, bound=1.0))
    for prob in probs:
        _, types = np.unique(np.sort(prob.samples, axis=1), axis=0, return_inverse=True)
        all_pairs = np.divmod(np.arange(prob.num_hypotheses ** 2), prob.num_hypotheses)
        rows = {"emp": prob.empirical_matrix.T, "dsl2": prob.pair_sq_dists(*all_pairs),
                "gibbs": gibbs_algorithm(prob, 3.0).matrix, "erm": erm_algorithm(prob).matrix}
        for t in range(types.max() + 1):
            members = np.flatnonzero(types.reshape(-1) == t)
            for name, table in rows.items():
                assert all(np.array_equal(table[s], table[members[0]]) for s in members), name


def test_problem_json_roundtrip(small_problem):
    blob = small_problem.to_json()
    back = problem_from_json(blob)
    assert np.allclose(back.loss, small_problem.loss)
    assert np.allclose(back.p_z.weights, small_problem.p_z.weights)
    assert back.n == small_problem.n
    assert back.bound == small_problem.bound
    assert np.allclose(back.embedding.points, small_problem.embedding.points)


def test_gibbs_zero_beta_returns_prior(small_problem):
    prior = FiniteMeasure([0.1, 0.2, 0.3, 0.4])
    alg = gibbs_algorithm(small_problem, 0.0, prior=prior)
    assert np.allclose(alg.matrix, np.tile(prior.weights, (9, 1)))


def test_gibbs_hand_softmax():
    prob = xor_problem()
    alg = gibbs_algorithm(prob, 1.0)
    # sample z=0: empirical risks (0, 1), weights prop to (1, e^{-1})
    w0 = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(alg.matrix[0, 0] - w0) < 1e-12
    assert abs(alg.matrix[0, 1] - (1.0 - w0)) < 1e-12
    assert abs(alg.matrix[1, 1] - w0) < 1e-12


def test_gibbs_rows_stay_stochastic_at_large_loss_scales():
    # logits - logsumexp keeps only the absolute precision of ulp(beta n L): from about
    # L = 2e7 exp of it put a row's mass off 1 by more than DRIFT_TOL, and the kernel
    # refused three equal loss rows [0, L] at L = 2e7, 1e8 and 1e9
    for scale in (1e7, 2e7, 1e8, 1e9):
        prob = LearningProblem(np.array([[0.0, scale]] * 3), FiniteMeasure([0.5, 0.5]), n=1)
        alg = gibbs_algorithm(prob, 1.0)
        assert np.abs(alg.matrix - 1.0 / 3.0).max() <= 1e-15, scale
        logits = np.log(np.full(3, 1.0 / 3.0))[None, :] - prob.empirical_matrix.T
        raw = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        drifted = np.abs(raw.sum(axis=1) - 1.0) > DRIFT_TOL
        assert drifted.any() == (scale > 1e7), scale
        # a row within DRIFT_TOL keeps the bits the kernel built it with
        assert np.array_equal(alg.matrix[~drifted], MarkovKernel(raw[~drifted]).matrix), scale


def test_gibbs_large_beta_concentrates(small_problem):
    alg = gibbs_algorithm(small_problem, 1e3)
    emp = small_problem.empirical_matrix
    for s in range(small_problem.num_samples):
        minimizers = np.isclose(emp[:, s], emp[:, s].min(), atol=1e-12)
        assert alg.matrix[s, minimizers].sum() >= 1.0 - 1e-6


def test_erm_identity_on_separating_problem():
    prob = xor_problem()
    assert np.allclose(erm_algorithm(prob).matrix, np.eye(2))


def test_erm_ties_go_to_lowest_index():
    prob = LearningProblem(np.array([[0.3, 0.3], [0.3, 0.3], [0.9, 0.1]]),
                           FiniteMeasure([0.5, 0.5]), n=1, bound=1.0)
    alg = erm_algorithm(prob)
    # on z=0 hypotheses 0 and 1 tie at 0.3; on z=1 hypothesis 2 wins alone
    assert np.allclose(alg.matrix[0], [1.0, 0.0, 0.0])
    assert np.allclose(alg.matrix[1], [0.0, 0.0, 1.0])


def test_erm_scan_oracle(small_problem):
    alg = erm_algorithm(small_problem)
    emp = small_problem.empirical_matrix
    for s in range(small_problem.num_samples):
        winner = int(np.argmin(emp[:, s]))
        expect = np.zeros(4)
        expect[winner] = 1.0
        assert np.allclose(alg.matrix[s], expect)


def test_ignore_algorithm_rows(small_problem):
    alg = ignore_algorithm(small_problem)
    assert np.allclose(alg.matrix, 0.25)
    row = FiniteMeasure([0.7, 0.1, 0.1, 0.1])
    alg2 = ignore_algorithm(small_problem, row=row)
    assert np.allclose(alg2.matrix, np.tile(row.weights, (9, 1)))


def test_algorithm_from_json_kinds(small_problem):
    gibbs = algorithm_from_json(small_problem, {"kind": "gibbs", "beta": 2.5})
    assert gibbs.kind == "gibbs"
    assert np.allclose(gibbs.matrix, gibbs_algorithm(small_problem, 2.5).matrix)
    erm = algorithm_from_json(small_problem, {"kind": "erm"})
    assert np.allclose(erm.matrix, erm_algorithm(small_problem).matrix)
    ignore = algorithm_from_json(
        small_problem, {"kind": "ignore", "prior": [0.7, 0.1, 0.1, 0.1]})
    assert np.allclose(ignore.matrix[0], [0.7, 0.1, 0.1, 0.1])
    with pytest.raises(Exception):
        algorithm_from_json(small_problem, {"kind": "mystery"})


def test_exact_joint_rows_are_sample_law(small_problem, gibbs_alg):
    joint = exact_joint(small_problem, gibbs_alg)
    assert joint.weights.shape == (9, 4)
    assert np.allclose(joint.weights.sum(axis=1), small_problem.sample_probs)
    assert np.allclose(joint.weights.sum(axis=0),
                       small_problem.sample_probs @ gibbs_alg.matrix)


def test_exact_joint_ignoring_has_zero_mi(small_problem, ignoring_alg):
    assert mutual_information(exact_joint(small_problem, ignoring_alg)) == 0.0


def test_identity_algorithm_mi_is_source_entropy():
    p = np.array([0.5, 0.3, 0.2])
    prob = LearningProblem(np.eye(3) * 0.5, FiniteMeasure(p), n=1, bound=1.0)
    alg = Algorithm(MarkovKernel(np.eye(3)), kind="table")
    mi = mutual_information(exact_joint(prob, alg))
    entropy = -(p * np.log(p)).sum()
    assert abs(mi - entropy) < 1e-12


def test_expected_gen_ignoring_is_centered():
    est = expected_gen(xor_problem(), ignore_algorithm(xor_problem()))
    assert est.signed == 0.0
    assert abs(est.absolute - 0.5) < 1e-12


def test_expected_gen_constant_loss_is_zero():
    prob = LearningProblem(np.full((3, 2), 0.4), FiniteMeasure([0.25, 0.75]),
                           n=2, bound=1.0)
    for alg in algorithm_family(prob):
        est = expected_gen(prob, alg)
        assert est.signed == 0.0
        assert est.absolute == 0.0


def test_expected_gen_matches_bruteforce(small_problem, gibbs_alg):
    prob, alg = small_problem, gibbs_alg
    signed = absolute = 0.0
    for s in range(prob.num_samples):
        for w in range(prob.num_hypotheses):
            mass = prob.sample_probs[s] * alg.matrix[s, w]
            signed += mass * prob.gen_matrix[w, s]
            absolute += mass * abs(prob.gen_matrix[w, s])
    est = expected_gen(prob, alg)
    assert abs(est.signed - signed) < 1e-12
    assert abs(est.absolute - absolute) < 1e-12


def joint_draws(prob, alg, seed, samples, workers=1):
    # the flat cells s * N + w of Monte Carlo (sample, hypothesis) draws, one list entry
    # per block of seed's substreams: numpy's categorical draw over the joint cells
    mass, sizes = learning.joint_cells(prob, alg).ravel(), mc.block_sizes(samples)
    return mc.run_blocks(lambda b: mc.substream(seed, b).choice(mass.size, sizes[b], p=mass),
                         len(sizes), workers)


def sampled_gen(prob, alg, seed, samples):
    # (mean, standard error) of gen and of |gen| over joint draws
    vals = prob.gen_matrix.T.ravel()[np.concatenate(joint_draws(prob, alg, seed, samples))]
    total_sq = float((vals**2).sum())
    return (mc.mean_and_stderr(float(vals.sum()), total_sq, samples),
            mc.mean_and_stderr(float(np.abs(vals).sum()), total_sq, samples))


def test_expected_gen_mc_matches_exact(small_problem, gibbs_alg):
    # expected_gen has no Monte Carlo mode; joint draws average to its exact
    # value within four standard errors
    exact = expected_gen(small_problem, gibbs_alg)
    (signed, se), (absolute, se_abs) = sampled_gen(small_problem, gibbs_alg, 5, 40000)
    assert abs(signed - exact.signed) <= 4 * se
    assert abs(absolute - exact.absolute) <= 4 * max(se_abs, 1e-12)
    with pytest.raises(TypeError):
        expected_gen(small_problem, gibbs_alg, mode="mc", samples=40000, seed=5)


def test_expected_gen_mc_coverage(small_problem, gibbs_alg):
    exact = expected_gen(small_problem, gibbs_alg)
    hits = 0
    for seed in range(10):
        (signed, se), _ = sampled_gen(small_problem, gibbs_alg, seed, 4000)
        if abs(signed - exact.signed) <= 4 * se:
            hits += 1
    assert hits >= 9


def test_expected_gen_mc_deterministic_across_workers(small_problem, gibbs_alg):
    # the draws do not depend on the worker count; the exact estimate is one
    # stored entry per kernel, and it carries no Monte Carlo fields
    one = joint_draws(small_problem, gibbs_alg, 11, 9000, workers=1)
    many = joint_draws(small_problem, gibbs_alg, 11, 9000, workers=4)
    assert len(one) == len(many) == 2
    assert all(np.array_equal(a, b) for a, b in zip(one, many))
    est = expected_gen(small_problem, gibbs_alg)
    assert expected_gen(small_problem, gibbs_alg) is est
    assert [f.name for f in dataclasses.fields(est)] == ["signed", "absolute"]


def reference_cells(prob, alg, seed, samples):
    # an independent reference: per block, np.searchsorted of its substream uniforms
    # over the cumulative joint cells with a +inf last entry
    cdf = np.cumsum(learning.joint_cells(prob, alg).ravel())
    cdf[-1] = np.inf
    return [np.searchsorted(cdf, mc.substream(seed, b).random(size))
            for b, size in enumerate(mc.block_sizes(samples))]


def check_draws(prob, alg, seed, samples):
    got = joint_draws(prob, alg, seed, samples)
    want = reference_cells(prob, alg, seed, samples)
    assert len(got) == len(want)
    for cells, ref in zip(got, want):
        assert np.array_equal(cells, ref)
        assert np.all(learning.joint_cells(prob, alg).ravel()[cells] > 0.0)  # no zero-mass cell
    return got


def draw_edge_cases():
    gen = np.random.default_rng(12)
    cases = []
    for p_z in ([1.0], [0.0, 0.5, 0.5, 0.0], [0.0, 1.0], [0.7, 0.3, 0.0], [0.2, 0.3, 0.5]):
        m = len(p_z)
        for big_n in (1, 2, 5):
            prob = LearningProblem(gen.uniform(size=(big_n, m)), FiniteMeasure(p_z),
                                   3, bound=1.0)
            cases += [(prob, gibbs_algorithm(prob, 1.0)), (prob, erm_algorithm(prob))]
    for _ in range(4):
        prob = random_problem(gen, m_max=4, n_max=4)
        sparse = np.zeros(prob.num_hypotheses)
        sparse[[0, -1]] = 0.5
        cases += [(prob, gibbs_algorithm(prob, beta)) for beta in (0.0, 1.0, 10.0, 1e3)]
        cases += [(prob, erm_algorithm(prob)),
                  (prob, ignore_algorithm(prob, FiniteMeasure(sparse)))]
    return cases


DRAW_SEEDS = ((0, 1), (3, 7), (7, 8192 + 7), (2**63, 2 * 8192 + 64))


def test_draw_pairs_equals_a_search_of_the_cumulative_joint_cells():
    for prob, alg in draw_edge_cases():
        for seed, samples in DRAW_SEEDS:
            check_draws(prob, alg, seed, samples)


def test_draw_pairs_reproduces_the_choice_stream_bits():
    # block b draws from a Philox generator keyed by (seed mod 2^64, b), built here
    # by hand, and the blocks come back in task order for any worker count
    for prob, alg in draw_edge_cases():
        mass = learning.joint_cells(prob, alg).ravel()
        for seed, samples in DRAW_SEEDS:
            want = [np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, b],
                                                                      dtype=np.uint64)))
                    .choice(mass.size, size=size, p=mass)
                    for b, size in enumerate(mc.block_sizes(samples))]
            for workers in (1, 3):
                got = joint_draws(prob, alg, seed, samples, workers)
                assert len(got) == len(want)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_draw_pairs_counts_digits_past_one_byte():
    # a uint8 digit counter would wrap at m = 300; 256 and 257 sit at its edge
    gen = np.random.default_rng(31)
    for m in (256, 257, 300):
        p_z = gen.dirichlet(np.ones(m))
        p_z[:200][gen.random(200) < 0.2] = 0.0  # the top digits keep their mass
        prob = LearningProblem(gen.uniform(size=(3, m)), FiniteMeasure(p_z / p_z.sum()), 2,
                               bound=1.0)
        for alg in (gibbs_algorithm(prob, 5.0), erm_algorithm(prob)):
            cells = check_draws(prob, alg, 9, 8192)[0]
        assert (cells // prob.num_hypotheses % m).max() == m - 1


def test_draw_pairs_follow_the_joint_law():
    # 2^17 draws: each cell's frequency lies within 6 standard errors of its mass
    gen = np.random.default_rng(17)
    prob = random_problem(gen, m_max=3, n_max=3)
    sparse = np.zeros(prob.num_hypotheses)
    sparse[[0, -1]] = 0.5
    for alg in (gibbs_algorithm(prob, 2.0), ignore_algorithm(prob, FiniteMeasure(sparse))):
        mass = learning.joint_cells(prob, alg).ravel()
        counts = sum(np.bincount(cells, minlength=mass.size)
                     for cells in joint_draws(prob, alg, 3, 2**17))
        assert counts.sum() == 2**17
        freq = counts / 2**17
        assert np.all(np.abs(freq - mass) <= 6 * np.sqrt(mass * (1 - mass) / 2**17))


def test_expected_gen_mc_equals_the_looped_lookup():
    # the exact sums against each (sample, hypothesis) cell by the 2-D index, as
    # first written for the Monte Carlo blocks, summed exactly by math.fsum
    gen = np.random.default_rng(8)
    for _ in range(4):
        prob = random_problem(gen, m_max=4, n_max=3)
        for alg in algorithm_family(prob):
            cells = learning.joint_cells(prob, alg)
            s_idx, w_idx = np.divmod(np.arange(cells.size), prob.num_hypotheses)
            vals = prob.gen_matrix[w_idx, s_idx]
            got = expected_gen(prob, alg)
            assert got.signed == pytest.approx(math.fsum(cells.ravel() * vals), abs=1e-13)
            assert got.absolute == pytest.approx(math.fsum(cells.ravel() * np.abs(vals)),
                                                 abs=1e-13)


@dataclass(frozen=True)
class ReferenceSupersample:
    """Dense exact law of (ghost/train pair, signs, hypothesis): the plain
    construction that bound_cmi evaluates without building this object.

    Pair t = ghost * S + train; sign index e runs lexicographically over
    {-1, +1}^n with -1 first, and +1 keeps the train draw. conditional[t, e]
    is the hypothesis row fed with the sign-selected mix, p_tilde[t] the
    probability of the pair.
    """

    prob: LearningProblem
    p_tilde: np.ndarray
    conditional: np.ndarray
    train_index: np.ndarray
    signs: np.ndarray

    @classmethod
    def build(cls, prob, alg):
        S = prob.num_samples
        signs = np.array(list(itertools.product((-1, 1), repeat=prob.n)), dtype=np.int64)
        powers = prob.num_outcomes ** np.arange(prob.n - 1, -1, -1, dtype=np.int64)
        ghost_digits = prob.samples[:, None, :]  # (S, 1, n)
        train_digits = prob.samples[None, :, :]  # (1, S, n)
        train_index = np.empty((S * S, len(signs)), dtype=np.int64)
        for e in range(len(signs)):
            pick = np.where(signs[e] == 1, train_digits, ghost_digits)  # (S, S, n)
            train_index[:, e] = (pick @ powers).reshape(-1)
        p_tilde = (prob.sample_probs[:, None] * prob.sample_probs[None, :]).reshape(-1)
        return cls(prob, p_tilde, alg.matrix[train_index], train_index, signs)

    def sw_marginal(self) -> np.ndarray:
        """Law of (realized training sample, hypothesis), (m^n, N); the
        realized sample is the sign-selected mix, so it follows train_index."""
        out = np.zeros((self.prob.num_samples, self.prob.num_hypotheses))
        n_signs = self.signs.shape[0]
        for e in range(n_signs):
            np.add.at(out, self.train_index[:, e],
                      (self.p_tilde[:, None] / n_signs) * self.conditional[:, e, :])
        return out

    def cmi(self) -> float:
        """I(hypothesis ; signs | paired samples), in nats."""
        avg = self.conditional.mean(axis=1, keepdims=True)
        kl = rel_entr(self.conditional, np.broadcast_to(avg, self.conditional.shape)).sum(axis=2)
        return float((self.p_tilde[:, None] * kl).mean(axis=1).sum())

    def signed_gen(self) -> float:
        """E[gen] through the sign representation."""
        S = self.prob.num_samples
        ghost = np.arange(self.p_tilde.size) // S
        train = np.arange(self.p_tilde.size) % S
        # per-draw ghost-minus-train loss differences for every (w, pair, i)
        diff = (self.prob.loss[:, self.prob.samples[ghost]]
                - self.prob.loss[:, self.prob.samples[train]])
        total = 0.0
        n_signs = self.signs.shape[0]
        for e in range(n_signs):
            contrib = (diff * self.signs[e][None, None, :]).sum(axis=2) / self.prob.n
            w_rows = self.conditional[:, e, :]
            total += (self.p_tilde * (w_rows * contrib.T).sum(axis=1)).sum() / n_signs
        return float(total)

    def fine_rhs(self) -> float:
        """(sqrt(12)/n) E[ ||delta(pair)||_2 (psi_2^{-1}(density vs sign-marginal) + 1) ]."""
        S = self.prob.num_samples
        delta = delta_bound(self.prob)
        ghost = self.prob.samples[np.arange(self.p_tilde.size) // S]
        train = self.prob.samples[np.arange(self.p_tilde.size) % S]
        delta_l2 = np.sqrt((delta[train, ghost] ** 2).sum(axis=1))
        avg = self.conditional.mean(axis=1, keepdims=True)
        inv, _ = _psi2_inv_ratio(self.conditional, np.broadcast_to(avg, self.conditional.shape))
        per_pair = (self.conditional * (inv + 1.0)).sum(axis=2).mean(axis=1)
        return float(np.sqrt(12.0) / self.prob.n * (self.p_tilde * delta_l2 * per_pair).sum())


def test_supersample_index_matches_reference():
    gen = np.random.default_rng(5)
    for _ in range(30):
        prob = random_problem(gen)
        ref = ReferenceSupersample.build(prob, gibbs_algorithm(prob, 1.0))
        got = _supersample_index(prob)
        assert got.dtype == ref.train_index.dtype
        assert np.array_equal(got, ref.train_index)


def test_bound_cmi_matches_reference_bits():
    # random problems, plus a zero-mass outcome so some pairs have probability 0
    gen = np.random.default_rng(6)
    probs = [random_problem(gen) for _ in range(25)]
    loss = gen.uniform(size=(3, 3))
    probs.append(LearningProblem(loss, FiniteMeasure([0.6, 0.0, 0.4]), n=2, bound=1.0))
    for prob in probs:
        rows = gen.dirichlet(np.ones(prob.num_hypotheses), size=prob.num_samples)
        rows[rows < 0.1] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        for alg in algorithm_family(prob) + [Algorithm(MarkovKernel(rows), kind="table")]:
            ref = ReferenceSupersample.build(prob, alg)
            details = bound_cmi(prob, alg).details
            assert details["cmi"] == ref.cmi()
            assert details["fine_rhs"] == ref.fine_rhs()


def test_supersample_marginal_recovers_exact_joint(small_problem, gibbs_alg):
    law = ReferenceSupersample.build(small_problem, gibbs_alg)
    joint = exact_joint(small_problem, gibbs_alg)
    assert np.allclose(law.sw_marginal(), joint.weights, atol=1e-12)


def test_supersample_ignoring_cmi_zero(small_problem, ignoring_alg):
    assert bound_cmi(small_problem, ignoring_alg).details["cmi"] == 0.0


def test_supersample_cmi_ceiling(small_problem):
    ceiling = small_problem.n * math.log(2.0)
    for alg in algorithm_family(small_problem):
        assert bound_cmi(small_problem, alg).details["cmi"] <= ceiling + 1e-12


def test_supersample_xor_cmi_hand_value():
    # n=1 ERM on the xor problem: the sign leaks only when the two halves
    # of the supersample differ, which happens with probability one half
    cmi = bound_cmi(xor_problem(), erm_algorithm(xor_problem())).details["cmi"]
    assert abs(cmi - 0.5 * math.log(2.0)) < 1e-12


def test_supersample_signed_gen_matches_exact(small_problem):
    for alg in algorithm_family(small_problem):
        law = ReferenceSupersample.build(small_problem, alg)
        est = expected_gen(small_problem, alg)
        assert abs(law.signed_gen() - est.signed) < 1e-12


def test_subgaussian_sigma_values():
    assert subgaussian_sigma(xor_problem()) == 0.5
    flat = LearningProblem(np.full((2, 3), 0.2), FiniteMeasure([1 / 3] * 3),
                           n=1, bound=1.0)
    assert subgaussian_sigma(flat) == 0.0
    unbounded = LearningProblem(np.array([[0.0, 1.0]]),
                                FiniteMeasure([0.5, 0.5]), n=1)
    with pytest.raises(DomainError):
        subgaussian_sigma(unbounded)


def test_subgaussian_norm_certificate():
    # sqrt(n) times the centered generalization gap of every hypothesis must
    # have Orlicz-2 norm at most sqrt(6) sigma under the sample law
    gen = np.random.default_rng(21)
    for _ in range(20):
        prob = random_problem(gen)
        sigma = subgaussian_sigma(prob)
        cap = math.sqrt(6.0) * sigma * (1 + 1e-9)
        scaled = math.sqrt(prob.n) * prob.gen_matrix
        law = FiniteMeasure(prob.sample_probs)
        for w in range(prob.num_hypotheses):
            var = DiscreteRandomVariable(scaled[w], law)
            assert orlicz_norm(var, p=2.0) <= cap + 1e-12


def test_delta_bound_oracle(small_problem):
    delta = delta_bound(small_problem)
    loss = small_problem.loss
    m = small_problem.num_outcomes
    assert delta.shape == (m, m)
    for z in range(m):
        for z2 in range(m):
            assert abs(delta[z, z2] - np.abs(loss[:, z] - loss[:, z2]).max()) < 1e-15
    assert np.allclose(np.diag(delta), 0.0)


def test_delta_bound_single_hypothesis():
    prob = LearningProblem(np.array([[0.1, 0.9]]), FiniteMeasure([0.5, 0.5]),
                           n=1, bound=1.0)
    assert np.allclose(delta_bound(prob), [[0.0, 0.8], [0.8, 0.0]])
