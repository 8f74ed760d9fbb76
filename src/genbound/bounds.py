"""Generalization-bound certificates on exactly enumerable learning problems.

Every public operation returns a BoundReport pairing an exact left-hand side
with the bound's right-hand side, so `slack = rhs - lhs` is a machine-checkable
certificate. Conventions:

* absolute-kind bounds (bound_density, bound_mi, bound_cmi) dominate
  E|population risk - training risk|;
* signed-kind bounds (bound_coupling and its simplification, bound_chain,
  bound_stochastic_chain, bound_wasserstein_geodesic) dominate the signed
  expectation;
* tail checks (tail_pointwise_check, tail_pac_bayes, tail_transductive)
  report an exact violation probability against the requested delta.

Every expectation and probability is enumerated, never sampled; `components`
always sums to rhs, and anything informative but non-additive lives in
`details`. When a density ratio escapes its reference measure the report
comes back with rhs = +inf and a diagnostic flag instead of an exception, so
sweeps over many problems never die halfway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, block_rows, check_memory
from .learning import (Algorithm, LearningProblem, delta_bound, exact_joint, expected_gen,
                       joint_cells, subgaussian_sigma)
from .measures import (FiniteMeasure, MarkovKernel, kl_divergence_array, mutual_information,
                       mutual_information_array, readonly, rel_entr, unique_rows)
from .orlicz import psi_inv
# perfbench/smoke.py reads bounds.wasserstein
from .transport import (DEDUP_DECIMALS, EmbeddedSupport, euclidean_cost,  # noqa: F401
                        wasserstein, wasserstein_batch)

COMPONENT_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    bound_name: str
    lhs: float
    rhs: float
    lhs_kind: str
    components: dict
    details: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def __post_init__(self) -> None:
        total = sum(self.components.values())
        if math.isfinite(self.rhs) and abs(total - self.rhs) > COMPONENT_TOL * max(1.0, abs(self.rhs)):
            raise ConfigurationError(
                f"{self.bound_name}: components sum to {total}, rhs is {self.rhs}")


@dataclass(frozen=True)
class TailReport:
    bound_name: str
    delta: float
    violation: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violation <= self.delta + 1e-12

    @property
    def lhs(self) -> float:
        return self.violation

    @property
    def rhs(self) -> float:
        return self.delta

    @property
    def slack(self) -> float:
        return self.delta - self.violation


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _sigma(prob: LearningProblem, sigma: float | None) -> float:
    if sigma is not None:
        if sigma < 0:
            raise DomainError("sigma must be nonnegative")
        return float(sigma)
    return subgaussian_sigma(prob)


def _gen_rounding(prob: LearningProblem, ulps: float | None = None) -> float:
    """`ulps` ulps of the largest |loss|; by default m + n, the rounding level of
    gen = loss @ p_z minus a mean of n draws, at or below which a tail's |gen| is 0."""
    ulps = prob.num_outcomes + prob.n if ulps is None else ulps
    return ulps * np.finfo(float).eps * float(np.abs(prob.loss).max())


def hypothesis_marginal(prob: LearningProblem, alg: Algorithm) -> FiniteMeasure:
    """Exact marginal law of the returned hypothesis."""
    return prob.table(alg.kernel, "marginal",
                      lambda: FiniteMeasure(prob.sample_probs @ alg.matrix))


def _q_w(prob: LearningProblem, alg: Algorithm, q_w: FiniteMeasure | None) -> FiniteMeasure:
    """The reference law Q_W of a density bound: q_w, checked against the
    hypothesis set, or the hypothesis marginal by default."""
    if q_w is None:
        return hypothesis_marginal(prob, alg)
    if q_w.support_size != prob.num_hypotheses:
        raise ConfigurationError(f"q_w has {q_w.support_size} atoms for "
                                 f"{prob.num_hypotheses} hypotheses")
    return q_w


def loss_embedding(prob: LearningProblem) -> EmbeddedSupport:
    """Embed hypothesis w at sqrt(6) * loss(w, .) in R^m.

    The Euclidean distance then dominates chain_metric pointwise, so the
    sum-increment condition the metric bounds need holds automatically.
    """
    return EmbeddedSupport(np.sqrt(6.0) * prob.loss)


def _psi2_inv_ratio(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, bool]:
    """Elementwise psi_2^{-1}(num/den), read-only; second value flags density escape."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    escape = bool(np.any((num > 0.0) & (den == 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    ratio = np.where(num == 0.0, 0.0, ratio)
    return readonly(psi_inv(ratio, 2.0)), escape


def _density_table(prob: LearningProblem, alg: Algorithm,
                   q_w: FiniteMeasure | None) -> tuple[np.ndarray, bool]:
    """_psi2_inv_ratio of the kernel against Q_W (see _q_w) as a read-only table,
    built once per (problem, algorithm, Q_W)."""
    den = _q_w(prob, alg, q_w).weights
    return prob.table(alg.kernel, ("density", den.tobytes()),
                      lambda: _psi2_inv_ratio(alg.matrix, den[None]))


def _escaped_report(name: str, lhs: float, kind: str, rhs: float, components: dict,
                    escape: bool, escaped=None, **details) -> BoundReport:
    """BoundReport whose rhs, and the escaped components (all by default),
    become +inf when a density escaped its reference measure."""
    if escape:
        rhs = np.inf
        components = {k: np.inf if escaped is None or k in escaped else v
                      for k, v in components.items()}
    return BoundReport(name, lhs, float(rhs), kind, components,
                       details={**details, "absolutely_continuous": not escape})


def chain_metric(prob: LearningProblem) -> np.ndarray:
    """sqrt(6) * Hoeffding constant of the per-outcome loss difference.

    Satisfies the sum-increment requirement: the Orlicz psi_2 norm of the sum
    of n centered per-draw differences is at most sqrt(n) times this.
    """
    if prob.bound is None:
        raise DomainError("chain_metric: bounded-loss mode required")
    g = prob.loss_differences
    return np.sqrt(6.0) * (g.max(axis=2) - g.min(axis=2)) / 2.0


def increment_check(prob: LearningProblem, metric: np.ndarray, tol: float = 1e-9) -> float:
    """Exact worst slack of the sum-increment condition for a candidate metric.

    Returns max over pairs of ||sum_i centered-diff||_{psi_2} - sqrt(n) d(u, v); anything
    <= tol relative to the metric, plus the psi_2 norm of n gen differences' rounding, passes.
    """
    N = prob.num_hypotheses
    gaps = prob.pair_norms - np.sqrt(prob.n) * metric
    worst = gaps[~np.eye(N, dtype=bool)].max() if N > 1 else -np.inf
    rounding = 2.0 * prob.n * _gen_rounding(prob) / np.sqrt(np.log(2.0))  # |c| / sqrt(log 2)
    if worst > tol * max(1.0, float(np.abs(metric).max())) + rounding:
        raise DomainError(f"increment_check: metric too small by {worst:.3e}")
    return float(worst)


# ---------------------------------------------------------------------------
# density and information bounds
# ---------------------------------------------------------------------------

def bound_density(prob: LearningProblem, alg: Algorithm,
                  q_w: FiniteMeasure | None = None,
                  sigma: float | None = None) -> BoundReport:
    """E|gen| <= sqrt(12 sigma^2 / n) * (E psi_2^{-1}(posterior/prior density) + 1)."""
    sig = _sigma(prob, sigma)
    inv, escape = _density_table(prob, alg, q_w)
    joint = exact_joint(prob, alg)
    expect = float((joint.weights * inv).sum()) if not escape else np.inf
    scale = np.sqrt(12.0 * sig**2 / prob.n)
    est = expected_gen(prob, alg)
    return _escaped_report("density", est.absolute, "absolute", scale * (expect + 1.0),
                           {"density": scale * expect, "offset": scale}, escape,
                           ("density",), sigma=sig, density_expectation=expect)


def bound_mi(prob: LearningProblem, alg: Algorithm,
             sigma: float | None = None) -> BoundReport:
    """E|gen| <= sqrt(24 sigma^2 (I(W;S) + 4) / n)."""
    sig = _sigma(prob, sigma)
    mi = mutual_information(exact_joint(prob, alg))
    est = expected_gen(prob, alg)
    rhs = float(np.sqrt(24.0 * sig**2 * (mi + 4.0) / prob.n))
    return BoundReport("mi", est.absolute, rhs, "absolute", {"total": rhs},
                       details={"sigma": sig, "mutual_information": mi})


def _supersample_index(prob: LearningProblem) -> np.ndarray:
    """(S^2, 2^n) index of the training sample that each sign vector selects
    from each ghost/train pair.

    Pair t = ghost * S + train; sign vectors run lexicographically over
    {-1, +1}^n with -1 first, and +1 keeps the train draw.
    """
    S, bits = prob.num_samples, np.arange(prob.n - 1, -1, -1)
    keep = np.arange(2**prob.n)[:, None] >> bits & 1  # (2^n, n) sign vectors, 1 keeps train
    part = (prob.samples * prob.num_outcomes ** bits) @ keep.T  # (S, 2^n): the kept digits
    # the complement of sign vector e is 2^n - 1 - e, so its column order is reversed
    return (part[None] + part[:, None, ::-1]).reshape(S * S, -1)


def bound_cmi(prob: LearningProblem, alg: Algorithm) -> BoundReport:
    """E|gen| <= sqrt(24 E[delta^2] (I(W; signs | pair) + 4) / n).

    The supersample is exact: an independent ghost/train pair, uniform
    signs, and the hypothesis drawn from the algorithm fed with the
    sign-selected mix. Also evaluates the finer per-pair form
    (sqrt(12)/n) E[ ||delta(pair)||_2 (psi_2^{-1}(density vs sign-marginal) + 1) ]
    and records it in details["fine_rhs"], along with the n log 2 ceiling check.
    """
    S, n, N = prob.num_samples, prob.n, prob.num_hypotheses
    check_memory(8 * S * S * 2 ** min(n, 64) * N,
                 f"bound_cmi: the (S^2, 2^n, N) = ({S}^2, 2^{n}, {N}) supersample gather")
    est = expected_gen(prob, alg)  # checks the kernel shape before the gather below
    rows = alg.matrix[_supersample_index(prob)]  # (S^2, 2^n, N)
    p_pair = (prob.sample_probs[:, None] * prob.sample_probs[None, :]).reshape(-1)
    delta = delta_bound(prob)
    pz = prob.p_z.weights
    delta_sq_mean = float(pz @ delta**2 @ pz)
    avg = np.broadcast_to(rows.mean(axis=1, keepdims=True), rows.shape)
    cmi = float((p_pair[:, None] * rel_entr(rows, avg).sum(axis=2)).mean(axis=1).sum())
    rhs = float(np.sqrt(24.0 * delta_sq_mean * (cmi + 4.0) / prob.n))

    # finer route: density of the sign-conditional row against its sign-marginal
    inv, _ = _psi2_inv_ratio(rows, avg)
    per_pair = (rows * (inv + 1.0)).sum(axis=2).mean(axis=1)  # over w, then signs
    ghost, train = np.divmod(np.arange(S * S), S)
    delta_l2 = np.sqrt((delta[prob.samples[train], prob.samples[ghost]] ** 2).sum(axis=1))
    fine = float(np.sqrt(12.0) / prob.n * (p_pair * delta_l2 * per_pair).sum())

    ceiling = prob.n * np.log(2.0)
    return BoundReport("cmi", est.absolute, rhs, "absolute", {"total": rhs},
                       details={"cmi": cmi, "cmi_ceiling": ceiling,
                                "cmi_within_ceiling": cmi <= ceiling + 1e-12,
                                "delta_sq_mean": delta_sq_mean, "fine_rhs": fine})


# ---------------------------------------------------------------------------
# coupling bounds
# ---------------------------------------------------------------------------

def _plans(prob: LearningProblem, alg: Algorithm, target: FiniteMeasure) -> tuple:
    """W_2 distances (S,) and optimal plans from the algorithm's rows to `target` on the
    embedding (without one: no distances, product couplings), as one PairList on the
    row-major union of their supports; each distinct row is solved once, all in one batch."""
    def build():
        rows, inverse = unique_rows(alg.matrix)
        (R, N), S = rows.shape, prob.num_samples
        if prob.embedding is None:  # the pair list may hold all of the (S, N, N) product
            check_memory(8 * S * N * N, f"optimal_couplings: an (S, N, N) = ({S}, {N}, {N}) table")
            dist, plans = None, rows[:, :, None] * target.weights[None, None, :]
        else:  # the plans of the distinct rows are checked before any LP runs
            check_memory(8 * R * N * N, f"optimal_couplings: an (R, N, N) = ({R}, {N}, {N}) table")
            cost = euclidean_cost(prob.embedding, prob.embedding)
            solved = wasserstein_batch([(FiniteMeasure(r), target, cost) for r in rows], p=2.0)
            dist = readonly(np.array([d for d, _ in solved])[inverse])
            plans = np.stack([plan.weights for _, plan in solved])
        u, v = np.nonzero(plans.any(axis=0))  # a vertex plan has at most 2N - 1 cells
        check_memory(8 * S * u.size, f"optimal_couplings: an (S, P) = ({S}, {u.size}) table")
        return dist, PairList(u, v, readonly(plans[:, u, v][inverse]))

    return prob.table(alg.kernel, ("plans", target.weights.tobytes()), build)


def optimal_couplings(prob: LearningProblem, alg: Algorithm, q_w: FiniteMeasure) -> PairList:
    """Per-sample W_2-optimal plans to q_w (product couplings without an embedding), a PairList."""
    return _plans(prob, alg, q_w)[1]


def coupling_chain(prob: LearningProblem, alg: Algorithm, q_w: FiniteMeasure | None = None,
                   couplings=None, mu_uv: np.ndarray | None = None) -> ChainSpec:
    """The one-step chain, constant Q_W (the hypothesis marginal by default) to the
    algorithm, that the coupling bounds read; the default one is built once per kernel and
    Q_W. Its coupling is one (N, N) table or TransportPlan per sample (by default the
    PairList of optimal_couplings), its reference mu_uv (by default their sample mixture)."""
    q_w = _q_w(prob, alg, q_w)
    S, N, p_s = prob.num_samples, prob.num_hypotheses, prob.sample_probs

    def build() -> ChainSpec:
        prior = MarkovKernel.constant(q_w, S)  # built before the plans
        pi = optimal_couplings(prob, alg, q_w) if couplings is None else couplings
        try:  # ragged tables, or not one per sample; ChainSpec checks the rest
            if not isinstance(pi, PairList):
                pi = np.asarray([getattr(c, "weights", c) for c in pi], dtype=float)
            mu = (np.einsum("s,s...->...", p_s, getattr(pi, "weights", pi)) if mu_uv is None
                  else np.asarray(mu_uv, dtype=float))
        except ValueError as exc:
            raise ConfigurationError(f"coupling_chain: {exc}") from exc
        if isinstance(pi, PairList) and mu_uv is not None and mu.shape == (N, N):
            keys, at = np.unique(np.r_[pi.u * N + pi.v, np.flatnonzero(mu)], return_inverse=True)
            check_memory(8 * S * keys.size, f"coupling_chain: an (S, P) = ({S}, {keys.size}) table")
            w = np.zeros((S, keys.size))  # the pairs where a plan or the reference has mass
            w[:, at[:pi.u.size]] = pi.weights
            pi, mu = PairList(*np.divmod(keys, N), w), mu.reshape(-1)[keys]
        return ChainSpec((prior, alg.kernel), (pi,), (mu,))

    if couplings is None and mu_uv is None:
        return prob.table(alg.kernel, ("coupling", q_w.weights.tobytes()), build)
    return build()


def _ghost_pair_sum(prob: LearningProblem, table: np.ndarray, keys: np.ndarray,
                    train: np.ndarray, weights: np.ndarray) -> float:
    """sum_e weights[e] E_ghost sqrt(sum_i table[keys[e], z_{train[e], i}, z_{ghost, i}]).

    Ghost samples are row-major in their draws, so a block's ghost sums are an
    outer sum, added in draw order: stage i adds draw i's (entries, m) rows along
    a new last axis. The stages alternate between two buffers of at most
    BLOCK_BYTES and BLOCK_BYTES / m, so the last lands in the larger."""
    z, p_s, S, m = prob.samples, prob.sample_probs, prob.num_samples, prob.num_outcomes
    total, step = 0.0, block_rows(8 * S, "bound_coupling")
    bufs = [np.empty(min(step, len(weights)) * S // d) for d in (1, m)]
    for lo in range(0, len(weights), step):
        k, s = keys[lo:lo + step], train[lo:lo + step]
        sq = table[k, z[s, 0]]
        for i in range(1, prob.n):
            out = bufs[(prob.n - 1 - i) % 2][:sq.size * m].reshape(len(k), -1, m)
            row = table[k, z[s, i]]
            for b in range(m):  # one outcome of draw i at a time: long inner loops
                np.add(sq, row[:, b, None], out=out[:, :, b])
            sq = out.reshape(len(k), -1)
        sq = np.sqrt(sq, out=bufs[0][:sq.size].reshape(sq.shape))
        total += float(weights[lo:lo + step] @ (sq @ p_s))
    return total


def bound_coupling(prob: LearningProblem, alg: Algorithm,
                   q_w: FiniteMeasure | None = None,
                   couplings=None, mu_uv: np.ndarray | None = None) -> BoundReport:
    """Signed E[gen] bounded through a coupled pair (U, V) ~ coupling(posterior, q_w).

    rhs = (sqrt(24)/n) * ( E[ s(U,V,pair) psi_2^{-1}(coupling density vs reference) ]
                           + E[ sqrt(E[ s^2(ref pair, pair) | pair ]) ] )
    where s^2 sums, over draws, the squared ghost-vs-train increments of the
    loss difference between the coupled hypotheses, and the pair and its
    reference are the step of coupling_chain(prob, alg, q_w, couplings, mu_uv).
    """
    chain = coupling_chain(prob, alg, q_w, couplings, mu_uv)
    pairs, mu = chain.couplings[0], chain.references[0]
    p_s, S, w = prob.sample_probs, prob.num_samples, pairs.weights
    # every sample has a support entry, so this caps the reference term's S^2 n too
    if np.count_nonzero(w) * S * prob.n > 2 * 10**8:
        raise ConfigurationError("bound_coupling: too many ghost pairs to enumerate")
    s, p = np.nonzero(w)  # a W_2 plan has at most 2N - 1 entries per sample
    g = prob.loss[pairs.u] - prob.loss[pairs.v]
    d2 = (g[:, :, None] - g[:, None, :]) ** 2  # (pair, train outcome, ghost outcome)
    inv, escape = chain.densities[0]
    term1 = np.inf if escape else _ghost_pair_sum(prob, d2, p, s, p_s[s] * w[s, p] * inv[s, p])
    term2 = _ghost_pair_sum(prob, np.einsum("p,pab->ab", mu, d2)[None],
                            np.zeros(S, dtype=np.int64), np.arange(S), p_s)

    scale = np.sqrt(24.0) / prob.n
    est = expected_gen(prob, alg)
    return _escaped_report("coupling", est.signed, "signed", scale * (term1 + term2),
                           {"decorrelation": scale * term1, "reference": scale * term2},
                           escape, ("decorrelation",))


def _chain_step_terms(prob: LearningProblem, chain: ChainSpec, k: int) -> tuple[float, float, bool]:
    """Loss-metric chain step k on its pair list: (cross term, reference term, escape flag)."""
    (u, v, w), rho, (inv, escape) = chain.couplings[k], chain.references[k], chain.densities[k]
    dl = prob.population_dists[u, v]
    cross = float(np.einsum("s,sp,sp->", prob.sample_probs, w * inv,
                            dl + np.sqrt(prob.pair_sq_dists(u, v))))
    return cross, float(rho @ dl), escape


def bound_coupling_simplified(prob: LearningProblem, alg: Algorithm,
                              q_w: FiniteMeasure | None = None,
                              couplings=None, mu_uv: np.ndarray | None = None) -> BoundReport:
    """Signed E[gen] <= sqrt(48/n) E[(population + empirical loss distance)
    * psi_2^{-1}(coupling density) + reference population distance], the
    one step of bound_chain on coupling_chain(prob, alg, q_w, couplings, mu_uv)."""
    chain = coupling_chain(prob, alg, q_w, couplings, mu_uv)
    cross, ref, escape = _chain_step_terms(prob, chain, 0)
    scale = np.sqrt(48.0 / prob.n)
    est = expected_gen(prob, alg)
    return _escaped_report("coupling_simplified", est.signed, "signed", scale * (cross + ref),
                           {"decorrelation": scale * cross, "reference": scale * ref},
                           escape, ("decorrelation",))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

class PairList(NamedTuple):
    """A chain step: weights[s, p] is the coupling's mass on pair (u[p], v[p]) given sample s."""
    u: np.ndarray
    v: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class ChainSpec:
    """Interpolating kernels, per-sample step couplings, and step references.

    K steps take K + 1 (S, N) kernels, K couplings and K references. couplings[k] is a
    PairList whose weights couple (kernels[k+1] row s, kernels[k] row s) on its P_k pairs,
    references[k] a (P_k,) probability table on them; a dense (S, N, N) coupling with an
    (N, N) reference is converted once, to the pairs where either has mass. A chain that
    breaks any of this is refused when it is built, nan included. The bounds check the
    ends: kernels[-1] is the algorithm and kernels[0], the prior end, is sample-free
    where the bound needs it (K = 0 when they are one, as on one hypothesis).
    """

    kernels: tuple
    couplings: tuple
    references: tuple

    def __post_init__(self) -> None:
        """Every test is written to fail on nan. Steps are kept as read-only views."""
        kernels, couplings, references = self.kernels, self.couplings, self.references
        if (not kernels or len(couplings) != len(kernels) - 1 or len(references) != len(couplings)
                or any(kernel.matrix.shape != kernels[0].matrix.shape for kernel in kernels)):
            raise ConfigurationError("chain: need K+1 kernels of one shape, K couplings, "
                                     "K references")
        S, N = kernels[0].matrix.shape
        steps = []
        for k, (joint, ref) in enumerate(zip(couplings, references)):
            if not isinstance(joint, PairList):  # the pairs where it or its reference has mass
                joint, ref = np.asarray(joint, dtype=float), np.asarray(ref, dtype=float)
                if joint.shape != (S, N, N) or ref.shape != (N, N):
                    raise ConfigurationError(
                        f"chain: step {k} needs ({S}, {N}, {N}) and ({N}, {N}) tables")
                u, v = np.nonzero(np.any(joint, axis=0) | (ref != 0.0))  # row-major
                w = joint.reshape(S, -1) if u.size == N * N else joint[:, u, v]  # full: a view
                joint, ref = PairList(u, v, w), ref[u, v]
            (u, v, w), ref = map(np.asarray, joint), np.asarray(ref, dtype=float)
            if not (w.shape == (S, u.size) and u.shape == v.shape == ref.shape == (u.size,)):
                raise ConfigurationError(f"chain: step {k} needs P pairs, ({S}, P) weights "
                                         "and a (P,) reference")
            for index, kernel in ((u, kernels[k + 1]), (v, kernels[k])):
                gap = -kernel.matrix  # the marginal on `index`, minus the kernel
                np.add.at(gap.T, index, w.T)
                if not (gap.max() <= 1e-9 and gap.min() >= -1e-9):
                    raise ConfigurationError(f"chain: coupling {k} has wrong marginals")
                del gap  # one (S, N) table at a time, as w may view a full (S, N, N) coupling
            if not (abs(ref.sum() - 1.0) <= 1e-9 and ref.min() >= -1e-12):
                raise ConfigurationError(f"chain: reference {k} is not a probability table")
            steps.append((PairList(*(readonly(a.view()) for a in (u, v, w))), readonly(ref.view())))
        object.__setattr__(self, "couplings", tuple(pairs for pairs, _ in steps))
        object.__setattr__(self, "references", tuple(ref for _, ref in steps))

    @cached_property
    def densities(self) -> tuple:
        """(inv, escaped) per step: psi_2^{-1}(weights / reference), read-only, and
        whether a weight escaped its reference. Built on the first read."""
        return tuple(_psi2_inv_ratio(w, ref[None])
                     for (_, _, w), ref in zip(self.couplings, self.references))


def dyadic_partitions(size: int) -> list[np.ndarray]:
    """Halving partition hierarchy of {0..size-1} as label arrays, from the root
    (one cell) down to singletons; for size 1 the root is the only level. Cells
    are runs of consecutive indices, and a run of c splits into (c + 1) // 2 and c // 2."""
    levels = [[size]]  # cell sizes per level
    while max(levels[-1]) > 1:
        levels.append([h for c in levels[-1] for h in ((c + 1) // 2, c // 2) if h])
    return [np.repeat(np.arange(len(cells)), cells) for cells in levels]


def _normalize_partition(part, size: int) -> np.ndarray:
    if isinstance(part, np.ndarray) or (isinstance(part, (list, tuple))
                                        and part and np.isscalar(part[0])):
        label = np.asarray(part, dtype=np.int64)
        if label.shape != (size,):
            raise ConfigurationError("partition label array has wrong length")
        return label
    label = np.full(size, -1, dtype=np.int64)
    for j, cell in enumerate(part):
        for w in cell:
            if label[w] != -1:
                raise ConfigurationError("partition cells overlap")
            label[w] = j
    if np.any(label < 0):
        raise ConfigurationError("partition does not cover the hypothesis set")
    return label


def chain_from_partitions(prob: LearningProblem, alg: Algorithm, partitions) -> ChainSpec:
    """Project the algorithm through a refining partition hierarchy, coarse to fine.

    Level k maps the drawn hypothesis to the lowest index of its cell, so the
    sample -> hypothesis -> level-k -> level-(k-1) chain is Markov by
    construction; refinement is validated, not assumed. Step k pairs each level-k cell's
    u with its parent's v, weighted by the level-k kernel (the exact joint of the levels).
    """
    N = prob.num_hypotheses
    labels = [_normalize_partition(p, N) for p in partitions]
    if not labels:
        raise ConfigurationError("chain_from_partitions: empty hierarchy")
    # a cell's first index in label order is its lowest
    reps = [first[inverse] for _, first, inverse in (
        np.unique(lab, return_index=True, return_inverse=True) for lab in labels)]
    for k in range(1, len(labels)):
        if np.any(labels[k - 1] != labels[k - 1][reps[k]]):
            raise ConfigurationError(
                f"chain_from_partitions: level {k} does not refine level {k - 1}")
    mats = [np.zeros_like(alg.matrix) for _ in reps]  # each level's projected kernel
    for mat, rep in zip(mats, reps):
        np.add.at(mat.T, rep, alg.matrix.T)
    couplings = [PairList(u, reps[k - 1][u], mats[k][:, u]) for k, u in enumerate(  # u: a
        np.flatnonzero(rep == np.arange(N)) for rep in reps) if k]  # cell's representative
    return ChainSpec(tuple(map(MarkovKernel, mats)), tuple(couplings),
                     tuple(prob.sample_probs @ w for _, _, w in couplings))


def root_chain(prob: LearningProblem, alg: Algorithm) -> ChainSpec:
    """The dyadic chain with its root, built once per (problem, algorithm); the
    chain and transductive bounds of one problem read the same one."""
    return prob.table(alg.kernel, "root_chain", lambda: chain_from_partitions(
        prob, alg, dyadic_partitions(prob.num_hypotheses)))


def _check_ends(prob: LearningProblem, alg: Algorithm, chain: ChainSpec, root: bool) -> None:
    """Refuse a chain whose (S, N) kernels are not the problem's, whose last
    kernel is not the algorithm or, when `root`, whose first depends on the
    sample; the chain checked the rest when it was built. Fails on nan."""
    S, N = prob.num_samples, prob.num_hypotheses
    first, last = chain.kernels[0].matrix, chain.kernels[-1].matrix
    if first.shape != (S, N):
        raise ConfigurationError(f"chain: need ({S}, {N}) kernels")
    if root and not np.abs(first - first[0]).max() <= 1e-12:
        raise ConfigurationError("chain: kernels[0] must not depend on the sample")
    if alg.matrix.shape != (S, N) or not np.abs(last - alg.matrix).max() <= 1e-12:
        raise ConfigurationError("chain: kernels[-1] must equal the algorithm")


def bound_chain(prob: LearningProblem, alg: Algorithm, chain: ChainSpec,
                metric: np.ndarray | None = None) -> BoundReport:
    """Telescoped coupling bound along an interpolating chain of kernels.

    Without a metric, each step contributes its loss-based decorrelation and
    reference terms under sqrt(48/n); with a metric, the metric form under
    sqrt(2/n) is reported instead; the loss-form report moves to
    details["loss_form"], its rhs to details["loss_form_rhs"].
    """
    _check_ends(prob, alg, chain, root=True)
    est = expected_gen(prob, alg)

    terms = [_chain_step_terms(prob, chain, k) for k in range(len(chain.couplings))]
    cross_terms, ref_terms = [t[0] for t in terms], [t[1] for t in terms]
    loss_scale, escape_any = np.sqrt(48.0 / prob.n), any(t[2] for t in terms)
    loss = _escaped_report("chain", est.signed, "signed",
                           loss_scale * (sum(cross_terms) + sum(ref_terms)),
                           {f"step_{k + 1}": loss_scale * (cross_terms[k] + ref_terms[k])
                            for k in range(len(cross_terms))}, escape_any)
    if metric is None:
        return loss

    metric = np.asarray(metric, dtype=float)
    if metric.shape != prob.population_dists.shape:
        raise ConfigurationError("chain: metric shape mismatch")
    increment_check(prob, metric)
    scale = np.sqrt(2.0 / prob.n)
    steps = []
    for (u, v, w), ref, (inv, _) in zip(chain.couplings, chain.references, chain.densities):
        d = metric[u, v]
        cross = float(np.einsum("s,sp,p->", prob.sample_probs, w * inv, d))
        steps.append(scale * (cross + float(ref @ d)))
    return _escaped_report("chain_metric", est.signed, "signed", sum(steps),
                           {f"step_{k + 1}": step for k, step in enumerate(steps)},
                           escape_any, loss_form_rhs=loss.rhs, loss_form=loss)


def markov_slack(prob: LearningProblem, chain: ChainSpec) -> float:
    """Exact worst deviation, over every step of the chain, of
    P(older level | newer level, sample) from being sample-free; zero for
    partition projections."""
    p_s, worst = prob.sample_probs, 0.0
    for u, _, w in chain.couplings:  # sums over the pairs of each newer-level hypothesis
        mix, row = p_s @ w, np.zeros_like(chain.kernels[0].matrix)
        np.add.at(row.T, u, w.T)
        row, mix_row = row[:, u], np.bincount(u, mix, row.shape[1])[u]
        s, p = np.nonzero((p_s[:, None] > 0) & (row > 0) & (mix_row[None, :] > 0))
        worst = max(worst, float(np.abs(w[s, p] / row[s, p] - mix[p] / mix_row[p]).max(initial=0)))
    return worst


def bound_stochastic_chain(prob: LearningProblem, alg: Algorithm,
                           chain: ChainSpec) -> BoundReport:
    """Chained divergence bound with a fresh prior draw at level zero.

    rhs = sqrt(2/n) sum_k E[ d(level_k, level_{k-1})
                             (sqrt(D(sample law | level_k || sample law)) + 1) ]
    with d = chain_metric; the mutual-information flavored variant
    sqrt(2/n) sum_k sqrt(E d^2) (sqrt(I(level_k ; sample)) + 2) is stored in
    details["mi_form_rhs"]. Both dominate the signed E[gen] when the finest
    level equals the algorithm. The prior draw is prepended to the chain, which
    must be Markov and may start at any level, a single one included.
    """
    d = chain_metric(prob)
    p_s = prob.sample_probs
    p_w = hypothesis_marginal(prob, alg).weights
    _check_ends(prob, alg, chain, root=False)
    # the prior draw is independent of the sample, so only the chain's own steps can break this
    if markov_slack(prob, chain) > 1e-9:
        raise ConfigurationError("bound_stochastic_chain: chain is not Markov")
    est = expected_gen(prob, alg)
    p0 = np.outer(p_s @ chain.kernels[0].matrix, p_w)  # the independent prior draw's mixture
    mixes = [(*np.nonzero(p0), p0[p0 > 0])] + [(u, v, p_s @ w) for u, v, w in chain.couplings]

    form1_terms, form2_terms = [], []
    for kernel, (u, v, mix) in zip(chain.kernels, mixes):
        tab = p_s[:, None] * kernel.matrix
        col = tab.sum(axis=0)
        # sqrt(D(sample law | level hypothesis u || sample law)); rounding can leave
        # -1e-17 where the conditional is the sample law, so clamp at 0
        div = rel_entr(tab / np.where(col > 0, col, 1.0), p_s[:, None]).sum(axis=0)
        sqrt_div = np.sqrt(np.maximum(div, 0.0))
        du = d[u, v]
        form1_terms.append(float(mix @ (du * (sqrt_div[u] + 1.0))))
        mi = float(mutual_information_array(tab))
        form2_terms.append(float(np.sqrt(mix @ du**2) * (np.sqrt(max(0.0, mi)) + 2.0)))

    scale = np.sqrt(2.0 / prob.n)
    rhs = scale * sum(form1_terms)
    components = {f"step_{k + 1}": scale * t for k, t in enumerate(form1_terms)}
    return BoundReport("stochastic_chain", est.signed, float(rhs), "signed", components,
                       details={"mi_form_rhs": scale * sum(form2_terms),
                                "levels": len(form1_terms)})


# ---------------------------------------------------------------------------
# transport-geodesic bound
# ---------------------------------------------------------------------------

def bound_wasserstein_geodesic(prob: LearningProblem, alg: Algorithm) -> BoundReport:
    """Signed E[gen] <= sqrt(2/n) E_S[W_2(S) (2 + sqrt(D(plan_S || sum_s p_s plan_s)))].

    Per sample, the posterior walks to the hypothesis marginal along the
    displacement geodesic of its W_2-optimal plan. Split into any number of
    uniform steps, every step couples its ends through the same plan atoms
    moved by one injective map, so each step carries the same divergence
    against the mixture coupling and the step lengths sum to W_2: the step
    sum is the closed form above, whatever the number of steps. Hypotheses
    whose embedded points agree to DEDUP_DECIMALS places are one atom.
    """
    emb = prob.embedding
    if emb is None:
        raise ConfigurationError("bound_wasserstein_geodesic: problem has no embedding")
    increment_check(prob, euclidean_cost(emb, emb).entries)

    q_w = hypothesis_marginal(prob, alg)
    p_s = prob.sample_probs
    est = expected_gen(prob, alg)
    atom = unique_rows(np.round(emb.points, DEDUP_DECIMALS) + 0.0)[1]  # + 0.0: -0.0 is 0.0
    live = p_s > 0
    dist, (u, v, w) = _plans(prob, alg, q_w)
    merged = unique_rows(np.stack([atom[u], atom[v]], axis=1))[1]  # one column per atom pair
    flat = np.zeros((len(w), merged.max() + 1))
    np.add.at(flat.T, merged, w.T)
    flat[~live] = 0.0
    w2, mix = np.where(live, dist, 0.0), p_s @ flat
    div, step = np.empty(len(flat)), block_rows(5 * flat[0].nbytes, "bound_wasserstein_geodesic")
    for lo in range(0, len(flat), step):  # rel_entr holds about five row-sized temporaries
        div[lo:lo + step] = kl_divergence_array(flat[lo:lo + step], mix)
    expected_w2 = float(p_s @ w2)
    step_sum = float(p_s @ (w2 * np.sqrt(np.maximum(div, 0.0))))

    scale = np.sqrt(2.0 / prob.n)
    rhs = scale * (2.0 * expected_w2 + step_sum)
    return BoundReport("wasserstein_geodesic", est.signed, float(rhs), "signed",
                       {"endpoint": scale * 2.0 * expected_w2, "steps": scale * step_sum},
                       details={"expected_w2": expected_w2})


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def tail_pointwise_check(prob: LearningProblem, alg: Algorithm, delta: float,
                         q_w: FiniteMeasure | None = None,
                         sigma: float | None = None) -> TailReport:
    """P{ |gen| > sigma sqrt(6/n) (psi_2^{-1}(density) + sqrt(log 1/delta)) } <= delta,
    where a |gen| within _gen_rounding of zero never exceeds."""
    if not 0.0 < delta <= 1.0:
        raise DomainError("tail_pointwise_check: delta in (0, 1]")
    sig = _sigma(prob, sigma)
    inv, _ = _density_table(prob, alg, q_w)  # inf allowed
    threshold = inv + np.sqrt(np.log(1.0 / delta))  # the one (S, N) threshold, built in place
    if sig > 0:
        threshold *= sig * np.sqrt(6.0 / prob.n)
    else:
        threshold.fill(0.0)
    # a |gen| at rounding level counts as zero; an inf threshold is never exceeded
    exceed = np.abs(prob.gen_matrix.T) > np.maximum(threshold, _gen_rounding(prob), out=threshold)
    violation = float(joint_cells(prob, alg)[exceed].sum())
    return TailReport("tail_pointwise", float(delta), violation, details={"sigma": sig})


def tail_pac_bayes(prob: LearningProblem, alg: Algorithm, delta: float,
                   q_w: FiniteMeasure | None = None,
                   sigma: float | None = None) -> TailReport:
    """Posterior-averaged tail: with probability >= 1 - delta over the sample,
    <posterior, |gen|> <= sqrt(24 sigma^2/n) (<posterior, psi_2^{-1}(density)> + 1
                                              + sqrt(log(2/delta))).
    A posterior-averaged |gen| within _gen_rounding of zero is no violation."""
    if not 0.0 < delta < 1.0:
        raise DomainError("tail_pac_bayes: delta in (0, 1)")
    sig = _sigma(prob, sigma)
    inv, _ = _density_table(prob, alg, q_w)
    lhs = (alg.matrix * np.abs(prob.gen_matrix.T)).sum(axis=1)
    # inv is +inf only where alg.matrix > 0, so no 0 * inf arises
    density_term = (alg.matrix * inv).sum(axis=1)
    rhs = np.sqrt(24.0 * sig**2 / prob.n) * (density_term + 1.0 + np.sqrt(np.log(2.0 / delta)))
    bad = lhs > np.maximum(rhs, _gen_rounding(prob))
    violation = float(prob.sample_probs[bad].sum())
    return TailReport("tail_pac_bayes", float(delta), violation,
                      details={"sigma": sig,
                               "per_sample_lhs": lhs, "per_sample_rhs": rhs})


def check_transductive_pairs(prob: LearningProblem) -> None:
    """Refuse tail_transductive's (S, S) (ghost, train) pair tables over the memory budget."""
    S = prob.num_samples
    check_memory(8 * S * S, f"tail_transductive: an (S, S) = ({S}, {S}) pair table")


def tail_transductive(prob: LearningProblem, alg: Algorithm, chain: ChainSpec,
                      delta: float,
                      level_weights: np.ndarray | None = None) -> TailReport:
    """Chained transductive tail over the paired (ghost, train) sample.

    lhs(pair) = <posterior - prior, ghost risk - train risk>;
    rhs(pair) = sqrt(96/n) sum_k [ sqrt(<ref_k, d^2_pair>)
                                   + <coupling_k, d_pair psi_2^{-1}(density)>
                                   + <coupling_k, d_pair> sqrt(log(2/(p_k delta))) ]
    where d^2_pair averages the squared loss differences over both halves of
    the pair. The exact probability of lhs > rhs must not exceed delta. A chain
    of the root alone (K = 0, one hypothesis) has no level: rhs and lhs are 0.

    An lhs at or below its rounding level counts as zero. To first order, with L the
    largest |loss| and u = eps / 2, lhs is two N-term sums of a contrast c (sum |c| <= 2)
    times training risks (|risk| <= L). A risk, a mean of n draws, is within n u L (2 n u L
    in a sum); the posterior and prior, normalized over N hypotheses, are within (N + 1) u
    relative and c rounds once more (2 (N + 2) u L); the sum rounds by 2 N u L. Two sums
    and their difference (|lhs| <= 4 L) make (2n + 4N + 6) ulps of L.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("tail_transductive: delta in (0, 1)")
    _check_ends(prob, alg, chain, root=True)
    S, K = prob.num_samples, len(chain.couplings)
    check_transductive_pairs(prob)
    if level_weights is None:
        p_k = np.ones(K) / K
    else:
        p_k = np.asarray(level_weights, dtype=float)
        if p_k.shape != (K,) or np.any(p_k <= 0) or abs(p_k.sum() - 1.0) > 1e-9:
            raise DomainError("tail_transductive: level weights must be positive and sum to 1")

    q_w = chain.kernels[0].matrix[0]
    p_s = prob.sample_probs

    # lhs over pairs: emp[w, ghost] - emp[w, train] against posterior - prior
    contrast = alg.matrix - q_w[None, :]  # (S, N), indexed by train sample
    emp = prob.empirical_matrix  # (N, S)
    lhs = emp.T @ contrast.T - np.einsum("sw,ws->s", contrast, emp)[None, :]  # (ghost, train)

    dsl2 = [prob.pair_sq_dists(pairs.u, pairs.v) for pairs in chain.couplings]  # (S, P_k) each
    # one train column per distinct row of dsl2 and the weights, as bytes of a C-order copy
    rows = np.hstack([np.zeros((S, 1)), *dsl2, *(w for _, _, w in chain.couplings)]).copy()
    _, reps, inverse = np.unique(rows.view(f"V{rows.itemsize * rows.shape[1]}")[:, 0],
                                 return_index=True, return_inverse=True)
    rhs = np.zeros((S, reps.size))  # (ghost, distinct train column)
    for k, ((_, _, w), ref, d2, (inv, escape)) in enumerate(
            zip(chain.couplings, chain.references, dsl2, chain.densities)):
        if escape:
            rhs[:] = np.inf
            break
        log_term = np.sqrt(np.log(2.0 / (p_k[k] * delta)))
        ref_dot = d2 @ ref  # <ref, d^2> per half
        rhs += np.sqrt(0.5 * (ref_dot[:, None] + ref_dot[None, reps]))
        # the pair distance mixes both halves in a sqrt: loop the train half, on its support
        for col, s in enumerate(reps):
            sup = np.flatnonzero(w[s])
            d = np.sqrt(0.5 * (d2[:, sup] + d2[s, sup]))  # (ghost, support)
            rhs[:, col] += d @ (w[s, sup] * (inv[s, sup] + log_term))
    rhs = rhs[:, inverse.reshape(-1)] * np.sqrt(96.0 / prob.n)

    bad = lhs > np.maximum(rhs, _gen_rounding(prob, 2 * prob.n + 4 * prob.num_hypotheses + 6))
    violation = float((p_s[:, None] * p_s[None, :])[bad].sum())
    return TailReport("tail_transductive", float(delta), violation,
                      details={"levels": K, "level_weights": p_k.tolist(), "per_pair_rhs": rhs})
