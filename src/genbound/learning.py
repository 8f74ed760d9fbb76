"""Finite learning problems and exactly enumerable learning algorithms.

A problem is a loss table over (hypothesis, outcome), an outcome law, and a
sample size n small enough that the m^n training samples can be enumerated.
Samples are indexed lexicographically (first draw most significant, base-m
digits), algorithms are row-stochastic kernels from sample index to
hypothesis index, and all population quantities are computed by summation,
never by approximation, unless Monte Carlo is explicitly requested.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import logsumexp, rel_entr

from . import mc
from .errors import ConfigurationError, DomainError, read_field
from .measures import FiniteMeasure, JointMeasure, MarkovKernel
from .orlicz import DiscreteRandomVariable, orlicz_norm
from .transport import EmbeddedSupport, TransportPlan, euclidean_cost, wasserstein

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class LearningProblem:
    """loss[w, z] over num_hypotheses x num_outcomes, outcome law p_z, sample size n.

    A declared `bound` activates bounded-loss mode: entries must sit in
    [0, bound], and Hoeffding constants become available. An optional
    Euclidean embedding of the hypothesis set unlocks the transport-based
    bounds.
    """

    loss: np.ndarray
    p_z: FiniteMeasure
    n: int
    bound: float | None = None
    embedding: EmbeddedSupport | None = field(default=None, compare=False)

    def __init__(self, loss, p_z: FiniteMeasure, n: int, bound: float | None = None,
                 embedding: EmbeddedSupport | None = None) -> None:
        table = np.asarray(loss, dtype=float)
        if table.ndim != 2 or table.size == 0:
            raise ConfigurationError("LearningProblem: loss must be (hypotheses, outcomes)")
        if not np.all(np.isfinite(table)):
            raise ConfigurationError("LearningProblem: non-finite losses")
        if table.shape[1] != p_z.support_size:
            raise ConfigurationError("LearningProblem: loss columns != outcome support")
        if n < 1:
            raise ConfigurationError("LearningProblem: n >= 1 required")
        if bound is not None:
            if bound <= 0:
                raise ConfigurationError("LearningProblem: bound must be positive")
            if table.min() < -1e-12 or table.max() > bound + 1e-12:
                raise ConfigurationError("LearningProblem: losses leave [0, bound]")
        if embedding is not None and embedding.size != table.shape[0]:
            raise ConfigurationError("LearningProblem: embedding size != hypothesis count")
        table.flags.writeable = False
        object.__setattr__(self, "loss", table)
        object.__setattr__(self, "p_z", p_z)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "bound", None if bound is None else float(bound))
        object.__setattr__(self, "embedding", embedding)

    @property
    def num_hypotheses(self) -> int:
        return int(self.loss.shape[0])

    @property
    def num_outcomes(self) -> int:
        return int(self.loss.shape[1])

    @property
    def num_samples(self) -> int:
        return self.num_outcomes**self.n

    @cached_property
    def samples(self) -> np.ndarray:
        """(m^n, n) outcome indices, lexicographic; row index is the sample index."""
        arr = np.array(list(itertools.product(range(self.num_outcomes), repeat=self.n)),
                       dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def sample_probs(self) -> np.ndarray:
        pr = np.prod(self.p_z.weights[self.samples], axis=1)
        pr.flags.writeable = False
        return pr

    @cached_property
    def empirical_matrix(self) -> np.ndarray:
        """emp[w, s] = training risk of hypothesis w on sample s."""
        out = np.empty((self.num_hypotheses, self.num_samples))
        for start in range(0, self.num_samples, 65536):
            block = self.samples[start:start + 65536]
            out[:, start:start + 65536] = self.loss[:, block].mean(axis=2)
        out.flags.writeable = False
        return out

    @cached_property
    def population_risks(self) -> np.ndarray:
        pr = self.loss @ self.p_z.weights
        pr.flags.writeable = False
        return pr

    @cached_property
    def gen_matrix(self) -> np.ndarray:
        """gen[w, s] = population risk minus training risk."""
        g = self.population_risks[:, None] - self.empirical_matrix
        g.flags.writeable = False
        return g

    @cached_property
    def loss_differences(self) -> np.ndarray:
        """g[u, v, z] = loss(u, z) - loss(v, z)."""
        g = self.loss[:, None, :] - self.loss[None, :, :]
        g.flags.writeable = False
        return g

    @cached_property
    def population_dists(self) -> np.ndarray:
        """dl[u, v] = sqrt(E_Z (loss(u, Z) - loss(v, Z))^2)."""
        d = np.sqrt(self.loss_differences**2 @ self.p_z.weights)
        d.flags.writeable = False
        return d

    @cached_property
    def empirical_sq_dists(self) -> np.ndarray:
        """dsl2[s, u, v] = (1/n) sum_i (loss(u, z_i) - loss(v, z_i))^2."""
        g = self.loss_differences  # (N, N, m)
        out = np.empty((self.num_samples, self.num_hypotheses, self.num_hypotheses))
        for start in range(0, self.num_samples, 4096):
            block = self.samples[start:start + 4096]
            out[start:start + 4096] = (g[:, :, block] ** 2).mean(axis=3).transpose(2, 0, 1)
        out.flags.writeable = False
        return out

    @cached_property
    def empirical_dists(self) -> np.ndarray:
        """dsl[s, u, v] = sqrt(dsl2[s, u, v]), the empirical loss distance."""
        d = np.sqrt(self.empirical_sq_dists)
        d.flags.writeable = False
        return d

    @cached_property
    def pair_norms(self) -> np.ndarray:
        """norm[u, v] = psi_2 norm of n (gen[v] - gen[u]) under the sample law.

        These are the sum-increment norms a chain metric must dominate; the
        diagonal is zero and never compared.
        """
        N = self.num_hypotheses
        law = FiniteMeasure(self.sample_probs)
        out = np.zeros((N, N))
        for u in range(N):
            for v in range(N):
                if u != v:
                    sums = self.n * (self.gen_matrix[v] - self.gen_matrix[u])
                    out[u, v] = orlicz_norm(DiscreteRandomVariable(sums, law), 2.0)
        out.flags.writeable = False
        return out

    @cached_property
    def _w2_plans(self) -> dict:
        return {}

    def w2_plan(self, source: FiniteMeasure, target: FiniteMeasure) -> tuple[float, TransportPlan]:
        """W_2 distance and optimal plan between two laws on the embedding.

        Each pair of weight vectors is solved once per problem; the coupling
        and geodesic bounds all read their plans from here.
        """
        if self.embedding is None:
            raise ConfigurationError("w2_plan: problem has no embedding")
        key = (source.weights.tobytes(), target.weights.tobytes())
        if key not in self._w2_plans:
            cost = euclidean_cost(self.embedding, self.embedding)
            self._w2_plans[key] = wasserstein(source, target, cost, p=2.0)
        return self._w2_plans[key]

    def sample_index(self, sample) -> int:
        digits = np.asarray(sample, dtype=np.int64)
        if digits.shape != (self.n,) or digits.min() < 0 or digits.max() >= self.num_outcomes:
            raise ConfigurationError("sample_index: bad sample")
        return int(digits @ (self.num_outcomes ** np.arange(self.n - 1, -1, -1, dtype=np.int64)))

    def to_json(self) -> str:
        obj = {"m": self.num_outcomes, "N": self.num_hypotheses, "n": self.n,
               "loss": self.loss.tolist(), "p_z": self.p_z.weights.tolist()}
        if self.bound is not None:
            obj["bound"] = self.bound
        if self.embedding is not None:
            obj["embedding"] = json.loads(self.embedding.to_json())
        return json.dumps(obj)


def problem_from_json(obj) -> LearningProblem:
    if isinstance(obj, str):
        obj = json.loads(obj)
    loss = read_field(obj, "loss", lambda v: np.asarray(v, dtype=float))
    if loss.shape != (read_field(obj, "N", int), read_field(obj, "m", int)):
        raise ConfigurationError("problem JSON: loss shape disagrees with declared N x m")
    emb = read_field(obj, "embedding", lambda v: EmbeddedSupport(
        read_field(v, "points", lambda pts: np.asarray(pts, dtype=float))), None)
    return LearningProblem(loss, read_field(obj, "p_z", FiniteMeasure), read_field(obj, "n", int),
                           bound=read_field(obj, "bound", float, None), embedding=emb)


# ---------------------------------------------------------------------------
# algorithms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Algorithm:
    """A kernel from sample index to hypothesis index, plus provenance."""

    kernel: MarkovKernel
    kind: str
    params: dict = field(default_factory=dict, compare=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.kernel.matrix


def _check_alg_shape(prob: LearningProblem, kernel: MarkovKernel) -> None:
    if kernel.input_size != prob.num_samples or kernel.output_size != prob.num_hypotheses:
        raise ConfigurationError("algorithm kernel shape does not match the problem")


def gibbs_algorithm(prob: LearningProblem, beta: float,
                    prior: FiniteMeasure | None = None) -> Algorithm:
    """Posterior rows proportional to prior * exp(-beta * n * training risk).

    Normalization happens in log space, so large beta * n stays exact to
    within float rounding; beta = 0 reproduces the prior on every row.
    """
    if beta < 0:
        raise DomainError("gibbs_algorithm: beta >= 0 required")
    if prior is None:
        prior = FiniteMeasure.uniform(prob.num_hypotheses)
    if prior.support_size != prob.num_hypotheses:
        raise ConfigurationError("gibbs_algorithm: prior size mismatch")
    with np.errstate(divide="ignore"):
        logits = np.log(prior.weights)[None, :] - beta * prob.n * prob.empirical_matrix.T
    rows = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
    return Algorithm(MarkovKernel(rows), "gibbs",
                     {"beta": float(beta), "prior": prior.weights.tolist()})


def erm_algorithm(prob: LearningProblem) -> Algorithm:
    """Point mass on the empirical risk minimizer; ties go to the lowest index."""
    winners = np.argmin(prob.empirical_matrix, axis=0)
    rows = np.zeros((prob.num_samples, prob.num_hypotheses))
    rows[np.arange(prob.num_samples), winners] = 1.0
    return Algorithm(MarkovKernel(rows), "erm")


def ignore_algorithm(prob: LearningProblem, row: FiniteMeasure | None = None) -> Algorithm:
    """Data-ignoring algorithm: the same hypothesis law on every sample."""
    if row is None:
        row = FiniteMeasure.uniform(prob.num_hypotheses)
    if row.support_size != prob.num_hypotheses:
        raise ConfigurationError("ignore_algorithm: row size mismatch")
    return Algorithm(MarkovKernel.constant(row, prob.num_samples), "ignore",
                     {"row": row.weights.tolist()})


def algorithm_from_json(prob: LearningProblem, obj) -> Algorithm:
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = read_field(obj, "kind", str, None)
    prior = read_field(obj, "prior", FiniteMeasure, None)
    if kind == "gibbs":
        return gibbs_algorithm(prob, read_field(obj, "beta", float, 1.0), prior)
    if kind == "erm":
        return erm_algorithm(prob)
    if kind == "ignore":
        return ignore_algorithm(prob, prior)
    raise ConfigurationError(f"unknown algorithm kind: {kind!r}")


# ---------------------------------------------------------------------------
# exact joints and expectations
# ---------------------------------------------------------------------------

def exact_joint(prob: LearningProblem, alg: Algorithm,
                cap: int = ENUMERATION_CAP) -> JointMeasure:
    """Joint law of (sample index, hypothesis index); m^n * N cells, capped."""
    _check_alg_shape(prob, alg.kernel)
    cells = prob.num_samples * prob.num_hypotheses
    if cells > cap:
        raise ConfigurationError(
            f"exact_joint: {cells} cells exceed the cap {cap}; use the Monte Carlo path")
    return JointMeasure(prob.sample_probs[:, None] * alg.matrix)


@dataclass(frozen=True)
class GenEstimate:
    signed: float
    absolute: float
    mode: str
    samples: int | None = None
    seed: int | None = None
    stderr_signed: float | None = None
    stderr_absolute: float | None = None


def draw_pairs(prob: LearningProblem, alg: Algorithm, seed: int, block: int,
               size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample and hypothesis indices of one Monte Carlo block.

    Substream `block` of `seed` draws the n outcomes of each sample from p_z,
    then one uniform per draw picks the hypothesis from the algorithm's row.
    """
    gen = mc.substream(seed, block)
    draws = gen.choice(prob.num_outcomes, size=(size, prob.n), p=prob.p_z.weights)
    s_idx = draws @ (prob.num_outcomes ** np.arange(prob.n - 1, -1, -1, dtype=np.int64))
    u = gen.random(size)
    w_idx = (np.cumsum(alg.matrix[s_idx], axis=1) < u[:, None]).sum(axis=1)
    return s_idx, np.minimum(w_idx, prob.num_hypotheses - 1)


def expected_gen(prob: LearningProblem, alg: Algorithm, mode: str = "exact",
                 samples: int | None = None, seed: int | None = None,
                 workers: int = 1, cap: int = ENUMERATION_CAP) -> GenEstimate:
    """E[gen] and E|gen| over the joint of (sample, hypothesis).

    mode="exact" enumerates; mode="mc" averages gen over counter-based
    substreams (bitwise reproducible for any worker count) and reports
    standard errors.
    """
    _check_alg_shape(prob, alg.kernel)
    if mode == "exact":
        if prob.num_samples * prob.num_hypotheses > cap:
            raise ConfigurationError("expected_gen: cap exceeded; use mode='mc'")
        joint = prob.sample_probs[:, None] * alg.matrix
        signed = float((joint * prob.gen_matrix.T).sum())
        absolute = float((joint * np.abs(prob.gen_matrix.T)).sum())
        return GenEstimate(signed, absolute, "exact")
    if mode != "mc":
        raise ConfigurationError(f"expected_gen: unknown mode {mode!r}")
    if samples is None or seed is None:
        raise ConfigurationError("expected_gen: mc mode needs samples and seed")

    sizes = mc.block_sizes(samples)

    def one_block(b: int):
        s_idx, w_idx = draw_pairs(prob, alg, seed, b, sizes[b])
        vals = prob.gen_matrix[w_idx, s_idx]
        return vals.sum(), np.abs(vals).sum(), (vals**2).sum()

    parts = mc.run_blocks(one_block, len(sizes), workers)
    tot = sum(p[0] for p in parts)
    tot_abs = sum(p[1] for p in parts)
    tot_sq = sum(p[2] for p in parts)
    signed, se_signed = mc.mean_and_stderr(tot, tot_sq, samples)
    absolute, se_abs = mc.mean_and_stderr(tot_abs, tot_sq, samples)
    return GenEstimate(signed, absolute, "mc", samples=samples, seed=seed,
                       stderr_signed=se_signed, stderr_absolute=se_abs)


# ---------------------------------------------------------------------------
# supersample construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupersampleLaw:
    """Exact law of (paired samples, signs, hypothesis).

    Index conventions: tilde index t = ghost_index * m^n + sample_index;
    sign index e enumerates {-1, +1}^n lexicographically with -1 first.
    conditional[t, e] is the hypothesis row fed with the sign-selected mix,
    and p_tilde[t] the probability of the pair.
    """

    prob: LearningProblem = field(compare=False)
    p_tilde: np.ndarray = field(compare=False)
    conditional: np.ndarray = field(compare=False)
    train_index: np.ndarray = field(compare=False)
    signs: np.ndarray = field(compare=False)

    @property
    def n_pairs(self) -> int:
        return int(self.p_tilde.size)

    def sw_marginal(self) -> np.ndarray:
        """Marginal law of (realized training sample, hypothesis), (m^n, N).

        The realized sample is the sign-selected mix, not the pair label, so
        aggregation has to follow train_index; the result must coincide with
        the plain joint of the problem by exchangeability of each pair.
        """
        out = np.zeros((self.prob.num_samples, self.prob.num_hypotheses))
        n_signs = self.signs.shape[0]
        for e in range(n_signs):
            np.add.at(out, self.train_index[:, e],
                      (self.p_tilde[:, None] / n_signs) * self.conditional[:, e, :])
        return out

    def cmi(self) -> float:
        """I(hypothesis ; signs | paired samples), exact, in nats."""
        avg = self.conditional.mean(axis=1, keepdims=True)
        kl = rel_entr(self.conditional, np.broadcast_to(avg, self.conditional.shape)).sum(axis=2)
        return float((self.p_tilde[:, None] * kl).mean(axis=1).sum())

    def signed_gen(self) -> float:
        """E[gen] through the sign representation; equals the enumerated value."""
        S = self.prob.num_samples
        ghost = np.arange(self.n_pairs) // S
        train = np.arange(self.n_pairs) % S
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

    def delta_l2(self, delta: np.ndarray) -> np.ndarray:
        """Per-pair l2 norm of the vector of per-draw delta values."""
        S = self.prob.num_samples
        ghost = self.prob.samples[np.arange(self.n_pairs) // S]
        train = self.prob.samples[np.arange(self.n_pairs) % S]
        return np.sqrt((delta[train, ghost] ** 2).sum(axis=1))


def supersample_joint(prob: LearningProblem, alg: Algorithm,
                      cap: int = ENUMERATION_CAP) -> SupersampleLaw:
    """Exact supersample law: ghost/train pair, independent uniform signs,
    hypothesis drawn from the algorithm fed with the sign-selected mix."""
    _check_alg_shape(prob, alg.kernel)
    S = prob.num_samples
    n_signs = 2**prob.n
    cells = S * S * n_signs * prob.num_hypotheses
    if cells > cap:
        raise ConfigurationError(
            f"supersample_joint: {cells} cells exceed the cap {cap}")

    signs = np.array(list(itertools.product((-1, 1), repeat=prob.n)), dtype=np.int64)
    powers = prob.num_outcomes ** np.arange(prob.n - 1, -1, -1, dtype=np.int64)
    ghost_digits = prob.samples[:, None, :]  # (S, 1, n)
    train_digits = prob.samples[None, :, :]  # (1, S, n)

    train_index = np.empty((S * S, n_signs), dtype=np.int64)
    for e in range(n_signs):
        pick = np.where(signs[e] == 1, train_digits, ghost_digits)  # (S, S, n)
        train_index[:, e] = (pick @ powers).reshape(-1)

    conditional = alg.matrix[train_index]  # (S*S, n_signs, N)
    p_tilde = (prob.sample_probs[:, None] * prob.sample_probs[None, :]).reshape(-1)
    return SupersampleLaw(prob=prob, p_tilde=p_tilde, conditional=conditional,
                          train_index=train_index, signs=signs)


# ---------------------------------------------------------------------------
# problem-level constants
# ---------------------------------------------------------------------------

def subgaussian_sigma(prob: LearningProblem) -> float:
    """Hoeffding constant max_w (max_z loss - min_z loss) / 2; needs bounded mode."""
    if prob.bound is None:
        raise DomainError("subgaussian_sigma: declare bounded-loss mode or pass sigma yourself")
    return float((prob.loss.max(axis=1) - prob.loss.min(axis=1)).max() / 2.0)


def delta_bound(prob: LearningProblem) -> np.ndarray:
    """delta[z, z'] = max_w |loss(w, z) - loss(w, z')|."""
    d = np.abs(prob.loss[:, :, None] - prob.loss[:, None, :]).max(axis=0)
    d.flags.writeable = False
    return d
