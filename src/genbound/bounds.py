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

All expectations are enumerated unless a Monte Carlo mode is explicitly
requested; `components` always sums to rhs, and anything informative but
non-additive lives in `details`. When a density ratio escapes its reference
measure the report comes back with rhs = +inf and a diagnostic flag instead
of an exception, so sweeps over many problems never die halfway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import rel_entr

from .errors import ConfigurationError, DomainError
from .learning import (Algorithm, LearningProblem, delta_bound, draw_pairs, exact_joint,
                       expected_gen, subgaussian_sigma, supersample_joint)
from .measures import FiniteMeasure, MarkovKernel, mutual_information
from .orlicz import psi_inv
# plans come from LearningProblem.w2_plan; perfbench/smoke.py reads bounds.wasserstein
from .transport import (DEDUP_DECIMALS, EmbeddedSupport, TransportPlan,  # noqa: F401
                        euclidean_cost, product_plan, wasserstein)

COMPONENT_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    bound_name: str
    lhs: float
    rhs: float
    lhs_kind: str
    components: dict
    mode: str = "exact"
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
    mode: str = "exact"
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


def hypothesis_marginal(prob: LearningProblem, alg: Algorithm) -> FiniteMeasure:
    """Exact marginal law of the returned hypothesis."""
    return FiniteMeasure(prob.sample_probs @ alg.matrix)


def loss_embedding(prob: LearningProblem) -> EmbeddedSupport:
    """Embed hypothesis w at sqrt(6) * loss(w, .) in R^m.

    The Euclidean distance then dominates chain_metric pointwise, so the
    sum-increment condition the metric bounds need holds automatically.
    """
    return EmbeddedSupport(np.sqrt(6.0) * prob.loss)


def _psi2_inv_ratio(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, bool]:
    """Elementwise psi_2^{-1}(num/den); second value flags density escape."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    escape = bool(np.any((num > 0.0) & (den == 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    ratio = np.where(num == 0.0, 0.0, ratio)
    return psi_inv(ratio, 2.0), escape


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

    Returns max over pairs of ||sum_i centered-diff||_{psi_2} - sqrt(n) d(u, v);
    anything <= tol means the metric is admissible for the chain bounds.
    """
    N = prob.num_hypotheses
    gaps = prob.pair_norms - np.sqrt(prob.n) * metric
    worst = gaps[~np.eye(N, dtype=bool)].max() if N > 1 else -np.inf
    if worst > tol * max(1.0, float(np.abs(metric).max())):
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
    if q_w is None:
        q_w = hypothesis_marginal(prob, alg)
    if q_w.support_size != prob.num_hypotheses:
        raise ConfigurationError("bound_density: q_w size mismatch")
    joint = exact_joint(prob, alg)
    inv, escape = _psi2_inv_ratio(alg.matrix, q_w.weights[None, :])
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


def bound_cmi(prob: LearningProblem, alg: Algorithm) -> BoundReport:
    """E|gen| <= sqrt(24 E[delta^2] (I(W; signs | pair) + 4) / n).

    Also evaluates the finer per-pair form
    (sqrt(12)/n) E[ ||delta(pair)||_2 (psi_2^{-1}(density vs sign-marginal) + 1) ]
    and records it in details["fine_rhs"], along with the n log 2 ceiling check.
    """
    law = supersample_joint(prob, alg)
    delta = delta_bound(prob)
    pz = prob.p_z.weights
    delta_sq_mean = float(pz @ delta**2 @ pz)
    cmi = law.cmi()
    est = expected_gen(prob, alg)
    rhs = float(np.sqrt(24.0 * delta_sq_mean * (cmi + 4.0) / prob.n))

    # finer route: density of the sign-conditional row against its sign-marginal
    avg = law.conditional.mean(axis=1, keepdims=True)
    inv, _ = _psi2_inv_ratio(law.conditional, np.broadcast_to(avg, law.conditional.shape))
    per_pair = (law.conditional * (inv + 1.0)).sum(axis=2).mean(axis=1)  # over signs, then w
    fine = float(np.sqrt(12.0) / prob.n * (law.p_tilde * law.delta_l2(delta) * per_pair).sum())

    ceiling = prob.n * np.log(2.0)
    return BoundReport("cmi", est.absolute, rhs, "absolute", {"total": rhs},
                       details={"cmi": cmi, "cmi_ceiling": ceiling,
                                "cmi_within_ceiling": cmi <= ceiling + 1e-12,
                                "delta_sq_mean": delta_sq_mean, "fine_rhs": fine})


# ---------------------------------------------------------------------------
# coupling bounds
# ---------------------------------------------------------------------------

def optimal_couplings(prob: LearningProblem, alg: Algorithm,
                      q_w: FiniteMeasure) -> list[TransportPlan]:
    """Per-sample W_2-optimal plan between the posterior row and q_w.

    Falls back to product couplings without an embedding. Plans come from
    the problem's plan cache, so each distinct row is solved once.
    """
    rows = [FiniteMeasure(row) for row in alg.matrix]
    if prob.embedding is None:
        return [product_plan(row, q_w) for row in rows]
    return [prob.w2_plan(row, q_w)[1] for row in rows]


def _coupling_arrays(prob: LearningProblem, alg: Algorithm, q_w: FiniteMeasure,
                     couplings) -> np.ndarray:
    S, N = prob.num_samples, prob.num_hypotheses
    arr = np.empty((S, N, N))
    if len(couplings) != S:
        raise ConfigurationError("need one coupling per sample")
    for s, plan in enumerate(couplings):
        w = plan.weights if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=float)
        if w.shape != (N, N):
            raise ConfigurationError("coupling shape mismatch")
        if (np.abs(w.sum(axis=1) - alg.matrix[s]).max() > 1e-9
                or np.abs(w.sum(axis=0) - q_w.weights).max() > 1e-9):
            raise ConfigurationError(f"coupling at sample {s} has wrong marginals")
        arr[s] = w
    return arr


def _coupling_and_reference(prob: LearningProblem, alg: Algorithm, q_w: FiniteMeasure | None,
                            couplings, mu_uv: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Coupling tensor pi[s] (W_2-optimal by default) and its reference law
    mu[u, v] (the sample mixture of pi by default)."""
    if q_w is None:
        q_w = hypothesis_marginal(prob, alg)
    if couplings is None:
        couplings = optimal_couplings(prob, alg, q_w)
    pi = _coupling_arrays(prob, alg, q_w, couplings)
    if mu_uv is None:
        return pi, np.einsum("s,suv->uv", prob.sample_probs, pi)
    mu = np.asarray(mu_uv, dtype=float)
    if mu.shape != pi.shape[1:]:
        raise ConfigurationError("coupling: reference shape mismatch")
    return pi, mu


def _ghost_pair_sum(prob: LearningProblem, table: np.ndarray, keys: np.ndarray,
                    train: np.ndarray, weights: np.ndarray) -> float:
    """sum_e weights[e] E_ghost sqrt(sum_i table[keys[e], z_{train[e], i}, z_{ghost, i}]),
    streamed over blocks of entries so no (entries, S) array exceeds 8 MiB."""
    z, p_s, S = prob.samples, prob.sample_probs, prob.num_samples
    total, step = 0.0, max(1, 2**20 // S)
    for lo in range(0, len(weights), step):
        k, s = keys[lo:lo + step], train[lo:lo + step]
        sq = np.zeros((len(k), S))
        for i in range(prob.n):
            sq += table[k, z[s, i]][:, z[:, i]]
        total += float(weights[lo:lo + step] @ (np.sqrt(sq) @ p_s))
    return total


def bound_coupling(prob: LearningProblem, alg: Algorithm,
                   q_w: FiniteMeasure | None = None,
                   couplings=None, mu_uv: np.ndarray | None = None) -> BoundReport:
    """Signed E[gen] bounded through a coupled pair (U, V) ~ coupling(posterior, q_w).

    rhs = (sqrt(24)/n) * ( E[ s(U,V,pair) psi_2^{-1}(coupling density vs reference) ]
                           + E[ sqrt(E[ s^2(ref pair, pair) | pair ]) ] )
    where s^2 sums, over draws, the squared ghost-vs-train increments of the
    loss difference between the coupled hypotheses.
    """
    pi, mu = _coupling_and_reference(prob, alg, q_w, couplings, mu_uv)
    p_s, S = prob.sample_probs, prob.num_samples
    # every sample has a support entry, so this caps the reference term's S^2 n too
    s, u, v = support = np.nonzero(pi)  # a W_2 plan has at most 2N - 1 per sample
    if s.size * S * prob.n > 2 * 10**8:
        raise ConfigurationError("bound_coupling: too many ghost pairs to enumerate")
    g = prob.loss_differences
    d2 = (g[:, :, :, None] - g[:, :, None, :]) ** 2  # (N, N, train outcome, ghost outcome)
    inv, escape = _psi2_inv_ratio(pi, mu[None, :, :])
    term1 = np.inf if escape else _ghost_pair_sum(
        prob, d2.reshape(-1, *d2.shape[2:]), u * prob.num_hypotheses + v, s,
        p_s[s] * pi[support] * inv[support])
    term2 = _ghost_pair_sum(prob, np.einsum("uv,uvab->ab", mu, d2)[None],
                            np.zeros(S, dtype=np.int64), np.arange(S), p_s)

    scale = np.sqrt(24.0) / prob.n
    est = expected_gen(prob, alg)
    return _escaped_report("coupling", est.signed, "signed", scale * (term1 + term2),
                           {"decorrelation": scale * term1, "reference": scale * term2},
                           escape, ("decorrelation",))


def _chain_step_terms(prob: LearningProblem, pi: np.ndarray,
                      rho: np.ndarray) -> tuple[float, float, bool]:
    """Loss-metric chain step: (cross term, reference term, escape flag)."""
    inv, escape = _psi2_inv_ratio(pi, rho[None, :, :])
    dl = prob.population_dists
    cross = float(np.einsum("s,suv,suv->", prob.sample_probs, pi * inv,
                            dl[None, :, :] + prob.empirical_dists))
    ref = float((rho * dl).sum())
    return cross, ref, escape


def bound_coupling_simplified(prob: LearningProblem, alg: Algorithm,
                              q_w: FiniteMeasure | None = None,
                              couplings=None, mu_uv: np.ndarray | None = None) -> BoundReport:
    """Signed E[gen] <= sqrt(48/n) E[(population + empirical loss distance)
    * psi_2^{-1}(coupling density) + reference population distance]."""
    pi, mu = _coupling_and_reference(prob, alg, q_w, couplings, mu_uv)
    cross, ref, escape = _chain_step_terms(prob, pi, mu)
    scale = np.sqrt(48.0 / prob.n)
    est = expected_gen(prob, alg)
    return _escaped_report("coupling_simplified", est.signed, "signed", scale * (cross + ref),
                           {"decorrelation": scale * cross, "reference": scale * ref},
                           escape, ("decorrelation",))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    """Interpolating kernels, per-sample step couplings, and step references.

    couplings[k][s] couples (kernels[k+1] row s, kernels[k] row s) and
    kernels[-1] must be the algorithm itself; kernels[0] is the prior end, and
    the bounds that need it sample-free check it. An optional metric switches
    bound_chain to its metric form.
    """

    kernels: tuple
    couplings: tuple
    references: tuple
    metric: np.ndarray | None = None


def dyadic_partitions(size: int, include_root: bool = True) -> list[np.ndarray]:
    """Halving partition hierarchy of {0..size-1}, coarse to singletons."""
    levels = []
    cells = [list(range(size))]
    if include_root:
        levels.append(cells)
    while any(len(c) > 1 for c in cells):
        nxt = []
        for c in cells:
            if len(c) == 1:
                nxt.append(c)
            else:
                half = (len(c) + 1) // 2
                nxt.extend([c[:half], c[half:]])
        levels.append(nxt)
        cells = nxt
    if not levels or any(len(c) > 1 for c in levels[-1]):
        levels.append([[i] for i in range(size)])
    out = []
    for cells in levels:
        label = np.empty(size, dtype=np.int64)
        for j, c in enumerate(cells):
            label[c] = j
        out.append(label)
    return out


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


def chain_from_partitions(prob: LearningProblem, alg: Algorithm, partitions,
                          metric: np.ndarray | None = None) -> ChainSpec:
    """Project the algorithm through a refining partition hierarchy, coarse to fine.

    Level k maps the drawn hypothesis to the lowest index of its cell, so the
    sample -> hypothesis -> level-k -> level-(k-1) chain is Markov by
    construction; refinement is validated, not assumed. Couplings are the exact
    joints of consecutive levels, references their sample mixtures.
    """
    N, S = prob.num_hypotheses, prob.num_samples
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
    kernels, couplings, references = [], [], []
    for k, rep in enumerate(reps):
        mat = np.zeros((S, N))
        np.add.at(mat.T, rep, alg.matrix.T)
        kernels.append(MarkovKernel(mat))
        if k:
            # joint[s, u, v] = P(level-k representative u, level-(k-1) representative v | s)
            joint = np.zeros((S, N, N))
            np.add.at(joint.transpose(1, 2, 0), (rep, reps[k - 1]), alg.matrix.T)
            couplings.append(joint)
            references.append(np.einsum("s,suv->uv", prob.sample_probs, joint))
    return ChainSpec(kernels=tuple(kernels), couplings=tuple(couplings),
                     references=tuple(references), metric=metric)


def _validate_chain(prob: LearningProblem, alg: Algorithm, chain: ChainSpec) -> None:
    kernels = chain.kernels
    if len(kernels) < 2 or len(chain.couplings) != len(kernels) - 1:
        raise ConfigurationError("chain: need K+1 kernels and K couplings")
    root = kernels[0].matrix
    if np.abs(root - root[0]).max() > 1e-12:
        raise ConfigurationError("chain: kernels[0] must not depend on the sample")
    if np.abs(kernels[-1].matrix - alg.matrix).max() > 1e-12:
        raise ConfigurationError("chain: kernels[-1] must equal the algorithm")
    for k, joint in enumerate(chain.couplings):
        if (np.abs(joint.sum(axis=2) - kernels[k + 1].matrix).max() > 1e-9
                or np.abs(joint.sum(axis=1) - kernels[k].matrix).max() > 1e-9):
            raise ConfigurationError(f"chain: coupling {k} has wrong marginals")
        ref = chain.references[k]
        if abs(ref.sum() - 1.0) > 1e-9 or ref.min() < -1e-12:
            raise ConfigurationError(f"chain: reference {k} is not a probability table")


def bound_chain(prob: LearningProblem, alg: Algorithm, chain: ChainSpec) -> BoundReport:
    """Telescoped coupling bound along an interpolating chain of kernels.

    Without a metric, each step contributes its loss-based decorrelation and
    reference terms under sqrt(48/n); with chain.metric set, the metric form
    under sqrt(2/n) is reported instead (the loss form moves to details).
    """
    _validate_chain(prob, alg, chain)
    est = expected_gen(prob, alg)

    cross_terms, ref_terms, escape_any = [], [], False
    for joint, ref in zip(chain.couplings, chain.references):
        cross, ref_t, escape = _chain_step_terms(prob, joint, ref)
        cross_terms.append(cross)
        ref_terms.append(ref_t)
        escape_any = escape_any or escape
    loss_scale = np.sqrt(48.0 / prob.n)
    loss = _escaped_report("chain", est.signed, "signed",
                           loss_scale * (sum(cross_terms) + sum(ref_terms)),
                           {f"step_{k + 1}": loss_scale * (cross_terms[k] + ref_terms[k])
                            for k in range(len(cross_terms))}, escape_any)
    if chain.metric is None:
        return loss

    metric = np.asarray(chain.metric, dtype=float)
    if metric.shape != prob.population_dists.shape:
        raise ConfigurationError("chain: metric shape mismatch")
    increment_check(prob, metric)
    scale = np.sqrt(2.0 / prob.n)
    steps = []
    for joint, ref in zip(chain.couplings, chain.references):
        inv, _ = _psi2_inv_ratio(joint, ref[None, :, :])
        cross = float(np.einsum("s,suv,uv->", prob.sample_probs, joint * inv, metric))
        steps.append(scale * (cross + float((ref * metric).sum())))
    return _escaped_report("chain_metric", est.signed, "signed", sum(steps),
                           {f"step_{k + 1}": step for k, step in enumerate(steps)},
                           escape_any, loss_form_rhs=loss.rhs)


def markov_slack(prob: LearningProblem, chain: ChainSpec) -> float:
    """Exact worst deviation, over every step of the chain, of
    P(older level | newer level, sample) from being sample-free; zero for
    partition projections."""
    p_s, worst = prob.sample_probs, 0.0
    for joint in chain.couplings:
        mix = np.einsum("s,suv->uv", p_s, joint)
        row, mix_row = joint.sum(axis=2), mix.sum(axis=1)
        s, u = np.nonzero((p_s[:, None] > 0) & (row > 0) & (mix_row[None, :] > 0))
        if s.size:
            gap = joint[s, u] / row[s, u][:, None] - mix[u] / mix_row[u][:, None]
            worst = max(worst, float(np.abs(gap).max()))
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
    first = chain.kernels[0].matrix[:, :, None] * p_w[None, None, :]  # independent prior draw
    chain = ChainSpec((MarkovKernel.constant(FiniteMeasure(p_w), prob.num_samples),
                       *chain.kernels), (first, *chain.couplings),
                      (np.einsum("s,suv->uv", p_s, first), *chain.references))
    _validate_chain(prob, alg, chain)
    if markov_slack(prob, chain) > 1e-9:
        raise ConfigurationError("bound_stochastic_chain: chain is not Markov")
    est = expected_gen(prob, alg)

    form1_terms, form2_terms = [], []
    for kernel, joint in zip(chain.kernels[1:], chain.couplings):
        tab = p_s[:, None] * kernel.matrix
        col = tab.sum(axis=0)
        # sqrt(D(sample law | level hypothesis u || sample law)); rounding can leave
        # -1e-17 where the conditional is the sample law, so clamp at 0
        div = rel_entr(tab / np.where(col > 0, col, 1.0), p_s[:, None]).sum(axis=0)
        sqrt_div = np.sqrt(np.maximum(div, 0.0))
        form1_terms.append(float(np.einsum("s,suv,uv->", p_s, joint,
                                           d * (sqrt_div[:, None] + 1.0))))
        mix = np.einsum("s,suv->uv", p_s, joint)
        mi = float(rel_entr(tab, np.outer(tab.sum(axis=1), col)).sum())
        form2_terms.append(float(np.sqrt((mix * d**2).sum()) * (np.sqrt(max(0.0, mi)) + 2.0)))

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
    key = np.round(emb.points, DEDUP_DECIMALS) + 0.0  # + 0.0 turns -0.0 into 0.0
    atom = np.unique(key, axis=0, return_inverse=True)[1].reshape(-1)
    merge = np.eye(atom.max() + 1)[atom]  # (hypothesis, atom) one-hot

    w2 = np.zeros(prob.num_samples)
    plans = np.zeros((prob.num_samples, merge.shape[1], merge.shape[1]))
    for s in np.nonzero(p_s > 0)[0]:
        w2[s], plan = prob.w2_plan(FiniteMeasure(alg.matrix[s]), q_w)
        plans[s] = merge.T @ plan.weights @ merge
    mix = np.einsum("s,sab->ab", p_s, plans)
    div = rel_entr(plans, mix[None]).sum(axis=(1, 2))
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
                         sigma: float | None = None,
                         mc: tuple[int, int] | None = None, workers: int = 1) -> TailReport:
    """P{ |gen| > sigma sqrt(6/n) (psi_2^{-1}(density) + sqrt(log 1/delta)) } <= delta."""
    if not 0.0 < delta <= 1.0:
        raise DomainError("tail_pointwise_check: delta in (0, 1]")
    sig = _sigma(prob, sigma)
    if q_w is None:
        q_w = hypothesis_marginal(prob, alg)
    inv, _ = _psi2_inv_ratio(alg.matrix, q_w.weights[None, :])  # (S, N); inf allowed
    base = inv + np.sqrt(np.log(1.0 / delta))
    threshold = sig * np.sqrt(6.0 / prob.n) * base if sig > 0 else np.zeros_like(base)
    exceed = np.abs(prob.gen_matrix.T) > threshold  # inf threshold never exceeded
    joint = prob.sample_probs[:, None] * alg.matrix
    if mc is None:
        violation = float(joint[exceed].sum())
        return TailReport("tail_pointwise", float(delta), violation,
                          details={"sigma": sig})
    samples, seed = mc
    from . import mc as _mc
    sizes = _mc.block_sizes(samples)

    def one_block(b: int):
        s_idx, w_idx = draw_pairs(prob, alg, seed, b, sizes[b])
        return exceed[s_idx, w_idx].sum()

    hits = sum(_mc.run_blocks(one_block, len(sizes), workers))
    freq = hits / samples
    stderr = float(np.sqrt(max(freq * (1 - freq), 0.0) / samples))
    return TailReport("tail_pointwise", float(delta), float(freq), mode="mc",
                      details={"sigma": sig, "samples": samples, "seed": seed,
                               "stderr": stderr})


def tail_pac_bayes(prob: LearningProblem, alg: Algorithm, delta: float,
                   q_w: FiniteMeasure | None = None,
                   sigma: float | None = None) -> TailReport:
    """Posterior-averaged tail: with probability >= 1 - delta over the sample,
    <posterior, |gen|> <= sqrt(24 sigma^2/n) (<posterior, psi_2^{-1}(density)> + 1
                                              + sqrt(log(2/delta)))."""
    if not 0.0 < delta < 1.0:
        raise DomainError("tail_pac_bayes: delta in (0, 1)")
    sig = _sigma(prob, sigma)
    if q_w is None:
        q_w = hypothesis_marginal(prob, alg)
    inv, _ = _psi2_inv_ratio(alg.matrix, q_w.weights[None, :])
    lhs = (alg.matrix * np.abs(prob.gen_matrix.T)).sum(axis=1)
    with np.errstate(invalid="ignore"):
        density_term = np.where((alg.matrix > 0) & np.isinf(inv), np.inf,
                                alg.matrix * np.where(np.isinf(inv), 0.0, inv)).sum(axis=1)
    rhs = np.sqrt(24.0 * sig**2 / prob.n) * (density_term + 1.0 + np.sqrt(np.log(2.0 / delta)))
    bad = lhs > rhs
    violation = float(prob.sample_probs[bad].sum())
    return TailReport("tail_pac_bayes", float(delta), violation,
                      details={"sigma": sig,
                               "per_sample_lhs": lhs, "per_sample_rhs": rhs})


def tail_transductive(prob: LearningProblem, alg: Algorithm, chain: ChainSpec,
                      delta: float,
                      level_weights: np.ndarray | None = None) -> TailReport:
    """Chained transductive tail over the paired (ghost, train) sample.

    lhs(pair) = <posterior - prior, ghost risk - train risk>;
    rhs(pair) = sqrt(96/n) sum_k [ sqrt(<ref_k, d^2_pair>)
                                   + <coupling_k, d_pair psi_2^{-1}(density)>
                                   + <coupling_k, d_pair> sqrt(log(2/(p_k delta))) ]
    where d^2_pair averages the squared loss differences over both halves of
    the pair. The exact probability of lhs > rhs must not exceed delta.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("tail_transductive: delta in (0, 1)")
    _validate_chain(prob, alg, chain)
    K = len(chain.couplings)
    if level_weights is None:
        p_k = np.full(K, 1.0 / K)
    else:
        p_k = np.asarray(level_weights, dtype=float)
        if p_k.shape != (K,) or np.any(p_k <= 0) or abs(p_k.sum() - 1.0) > 1e-9:
            raise DomainError("tail_transductive: level weights must be positive and sum to 1")

    q_w = chain.kernels[0].matrix[0]
    S = prob.num_samples
    p_s = prob.sample_probs

    # lhs over pairs: emp[w, ghost] - emp[w, train] against posterior - prior
    contrast = alg.matrix - q_w[None, :]  # (S, N), indexed by train sample
    emp = prob.empirical_matrix  # (N, S)
    lhs = emp.T @ contrast.T - np.einsum("sw,ws->s", contrast, emp)[None, :]  # (ghost, train)

    dsl2 = prob.empirical_sq_dists  # (S, N, N)
    rhs = np.zeros((S, S))  # (ghost, train)
    for k in range(K):
        joint, ref = chain.couplings[k], chain.references[k]
        inv, escape = _psi2_inv_ratio(joint, ref[None, :, :])
        if escape:
            rhs[:] = np.inf
            break
        log_term = np.sqrt(np.log(2.0 / (p_k[k] * delta)))
        ref_dot = np.einsum("uv,suv->s", ref, dsl2)  # <ref, d^2> per half
        rhs += np.sqrt(0.5 * (ref_dot[:, None] + ref_dot[None, :]))
        # the pair distance mixes both halves inside a sqrt: loop the train half,
        # over the joint's support (a dyadic level k has at most 2^k per sample)
        for s in range(S):
            u, v = np.nonzero(joint[s])
            d = np.sqrt(0.5 * (dsl2[:, u, v] + dsl2[s, u, v]))  # (ghost, support)
            rhs[:, s] += d @ (joint[s, u, v] * inv[s, u, v])
            rhs[:, s] += log_term * (d @ joint[s, u, v])
    rhs *= np.sqrt(96.0 / prob.n)

    bad = lhs > rhs
    violation = float((p_s[:, None] * p_s[None, :])[bad].sum())
    return TailReport("tail_transductive", float(delta), violation,
                      details={"levels": K, "level_weights": p_k.tolist(), "per_pair_rhs": rhs})
