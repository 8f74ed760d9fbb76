"""Finite learning problems and exactly enumerable learning algorithms.

A problem is a loss table over (hypothesis, outcome), an outcome law, and a
sample size n small enough that the m^n training samples can be enumerated.
Samples are indexed lexicographically (first draw most significant, base-m
digits), algorithms are row-stochastic kernels from sample index to
hypothesis index, and all population quantities are computed by summation,
never by approximation or sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, block_rows, check_memory, integer, read_field
from .measures import DRIFT_TOL, FiniteMeasure, JointMeasure, MarkovKernel, logsumexp, readonly
from .orlicz import orlicz_norms
from .transport import EmbeddedSupport

# The bounds square loss differences, sigma and the chain metric (at most sqrt(6) R for a
# loss range R), sum at most n <= 18 squares (the sample table's n at MEMORY_BUDGET for m >= 2;
# at m = 1, n < 2**23 and sigma and the metric are 0) and scale them by at most 24 (n log 2 + 4)
# < 400: R <= 1e150 keeps every such value below 1e305, and a sum of n losses stays finite.
LOSS_RANGE_CAP = 1e150


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
        if float(table.max()) - float(table.min()) > LOSS_RANGE_CAP:
            raise ConfigurationError(f"LearningProblem: loss range exceeds {LOSS_RANGE_CAP:g}, "
                                     "so the bounds' squares would overflow")
        if float(np.abs(table).max()) > LOSS_RANGE_CAP:
            raise ConfigurationError(f"LearningProblem: |loss| exceeds {LOSS_RANGE_CAP:g}, "
                                     "so the n-draw empirical means would overflow")
        if table.shape[1] != p_z.support_size:
            raise ConfigurationError("LearningProblem: loss columns != outcome support")
        n = integer(n)
        if n < 1:
            raise ConfigurationError("LearningProblem: n >= 1 required")
        m, cols = table.shape[1], max(n, table.shape[0])  # the (S, n) samples, (S, N) tables
        check_memory(8 * m ** min(n, 64) * cols,  # m^n for n <= 64 only: a huge n builds none
                     f"LearningProblem: an (m^n, max(n, N)) = ({m}^{n}, {cols}) table")
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
        object.__setattr__(self, "n", n)
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
        m = self.num_outcomes
        index = np.arange(self.num_samples, dtype=np.int64)[:, None]
        return readonly(index // m ** np.arange(self.n - 1, -1, -1, dtype=np.int64) % m)

    @cached_property
    def sample_probs(self) -> np.ndarray:
        return readonly(np.prod(self.p_z.weights[self.samples], axis=1))

    def _draw_means(self, table: np.ndarray, what: str) -> np.ndarray:
        """(R, S) mean of an (R, m) table over each sample's draws, streamed; draws are
        averaged in sorted order, so samples of one type get bit-identical columns."""
        step = block_rows(8 * (table.shape[0] * (self.n + 1) + self.n), what)
        out = np.empty((table.shape[0], self.num_samples))
        for start in range(0, self.num_samples, step):  # sorted draws, gather, mean
            block = np.sort(self.samples[start:start + step], axis=1)
            out[:, start:start + step] = table[:, block].mean(axis=2)
        return out

    @cached_property
    def empirical_matrix(self) -> np.ndarray:
        """emp[w, s] = training risk of hypothesis w on sample s."""
        return readonly(self._draw_means(self.loss, "empirical_matrix"))

    @cached_property
    def population_risks(self) -> np.ndarray:
        return readonly(self.loss @ self.p_z.weights)

    @cached_property
    def gen_matrix(self) -> np.ndarray:
        """gen[w, s] = population risk minus training risk."""
        return readonly(self.population_risks[:, None] - self.empirical_matrix)

    @cached_property
    def loss_differences(self) -> np.ndarray:
        """g[u, v, z] = loss(u, z) - loss(v, z)."""
        N, m = self.loss.shape
        check_memory(8 * N * N * m, f"loss_differences: an (N, N, m) = ({N}, {N}, {m}) table")
        return readonly(self.loss[:, None, :] - self.loss[None, :, :])

    @cached_property
    def population_dists(self) -> np.ndarray:
        """dl[u, v] = sqrt(E_Z (loss(u, Z) - loss(v, Z))^2)."""
        return readonly(np.sqrt(self.loss_differences**2 @ self.p_z.weights))

    def pair_sq_dists(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dsl2[s, p] = (1/n) sum_i (loss(u[p], z_i) - loss(v[p], z_i))^2, the (S, P)
        empirical squared distances on a pair list (a transposed view)."""
        return self._draw_means((self.loss[u] - self.loss[v]) ** 2, "pair_sq_dists").T

    @cached_property
    def pair_norms(self) -> np.ndarray:
        """norm[u, v] = psi_2 norm of n (gen[v] - gen[u]) under the sample law.

        These are the sum-increment norms a chain metric must dominate; the diagonal
        is zero and never compared. gen columns of one type (the sorted draws, read as
        base-m digits) are equal, so the bisection runs over the law of the types.
        """
        N, m, n = self.num_hypotheses, self.num_outcomes, self.n
        u, v = np.triu_indices(N, 1)  # the norm of -X is the norm of X
        key = np.sort(self.samples, axis=1) @ m ** np.arange(n - 1, -1, -1, dtype=np.int64)
        _, first, types = np.unique(key, return_index=True, return_inverse=True)
        law = FiniteMeasure(np.bincount(types.reshape(-1), weights=self.sample_probs))
        gen, step = self.gen_matrix[:, first], block_rows(8 * first.size, "pair_norms")
        out = np.zeros((N, N))
        for i in range(0, u.size, step):  # one (pairs, types) block of sums per bisection
            a, b = u[i:i + step], v[i:i + step]
            out[a, b] = out[b, a] = orlicz_norms(n * (gen[b] - gen[a]), law, 2.0)
        return readonly(out)

    @cached_property
    def _tables(self) -> dict:
        return {}

    def table(self, kernel: MarkovKernel, name, build):
        """Table `name` of one algorithm kernel: `build()` on its first read, then
        kept as long as the problem lives.

        Tables are keyed on the kernel object, so an equal copy builds its own.
        The (S, N) shape is checked on every read; the problem refused an (S, N)
        over the memory budget when it was built.
        """
        if kernel.matrix.shape != (self.num_samples, self.num_hypotheses):
            raise ConfigurationError("algorithm kernel shape does not match the problem")
        tables = self._tables.setdefault(kernel, {})
        if name not in tables:
            tables[name] = build()
        return tables[name]

    def to_json(self) -> str:
        obj = {"m": self.num_outcomes, "N": self.num_hypotheses, "n": self.n,
               "loss": self.loss.tolist(), "p_z": self.p_z.weights.tolist()}
        if self.bound is not None:
            obj["bound"] = self.bound
        if self.embedding is not None:
            obj["embedding"] = {"dim": self.embedding.dim, "points": self.embedding.points.tolist()}
        return json.dumps(obj)


def _embedding_from_json(obj) -> EmbeddedSupport:
    emb = EmbeddedSupport(read_field(obj, "points", lambda pts: np.asarray(pts, dtype=float)))
    dim = read_field(obj, "dim", integer, emb.dim)
    if dim != emb.dim:
        raise ConfigurationError(f"dim {dim} disagrees with the {emb.dim}-d points")
    return emb


def problem_from_json(obj) -> LearningProblem:
    if isinstance(obj, str):
        obj = json.loads(obj)
    loss = read_field(obj, "loss", lambda v: np.asarray(v, dtype=float))
    if loss.shape != (read_field(obj, "N", integer), read_field(obj, "m", integer)):
        raise ConfigurationError("problem JSON: loss shape disagrees with declared N x m")
    emb = read_field(obj, "embedding", _embedding_from_json, None)
    return LearningProblem(loss, read_field(obj, "p_z", FiniteMeasure),
                           read_field(obj, "n", integer),
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
    total = rows.sum(axis=1)  # from beta n |loss| ~ 2e7 the logits' ulp moves it past DRIFT_TOL
    rows /= np.where(np.abs(total - 1.0) > DRIFT_TOL, total, 1.0)[:, None]  # x / 1.0 is x
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

def joint_cells(prob: LearningProblem, alg: Algorithm) -> np.ndarray:
    """(S, N) cells p_s(s) kernel(s, w) as multiplied; `exact_joint`
    renormalizes them, which moves some cells in the last bits."""
    return prob.table(alg.kernel, "cells",
                      lambda: readonly(prob.sample_probs[:, None] * alg.matrix))


def exact_joint(prob: LearningProblem, alg: Algorithm) -> JointMeasure:
    """Joint law of (sample index, hypothesis index); m^n * N cells, within the budget."""
    return prob.table(alg.kernel, "joint", lambda: JointMeasure(joint_cells(prob, alg)))


@dataclass(frozen=True)
class GenEstimate:
    signed: float
    absolute: float


def expected_gen(prob: LearningProblem, alg: Algorithm) -> GenEstimate:
    """E[gen] and E|gen| over the joint of (sample, hypothesis), summed over its
    cells once per kernel."""
    def exact() -> GenEstimate:
        cells, gen = joint_cells(prob, alg), prob.gen_matrix.T
        return GenEstimate(float((cells * gen).sum()), float((cells * np.abs(gen)).sum()))

    return prob.table(alg.kernel, "gen", exact)


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
    return readonly(np.abs(prob.loss[:, :, None] - prob.loss[:, None, :]).max(axis=0))
