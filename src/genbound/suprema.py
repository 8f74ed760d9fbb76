"""Expected suprema of psi_p-increment processes on finite metric spaces.

The majorizing-measure integral is a finite step sum here (ball masses jump
only at the sorted distances from each center), so the Fernique-Talagrand
style bound with the proof's explicit constant is computed exactly. So is the
expected supremum it must dominate when the process is tabulated (a weighted
sum over its paths); Monte Carlo estimates it only for a Gaussian process.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import mc
from .errors import (ConfigurationError, DomainError, InvalidProcessError,
                     UnsupportedGeometryError, block_rows, read_field)
from .measures import FiniteMeasure, MarkovKernel
from .orlicz import psi

METRIC_TOL = 1e-12
INCREMENT_TOL = 1e-9
CENTER_TOL = 1e-9
# the sharp gaussian calibration: E[exp(G^2/d^2)] = 2 exactly at Var = (3/8) d^2
GAUSSIAN_VAR_RATIO = 3.0 / 8.0
MU_FLOOR = 1e-6


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Symmetric nonnegative distance matrix with zero diagonal; triangle
    inequality enforced to METRIC_TOL times the largest |distance|, so a verdict
    does not depend on the units the distances carry."""

    dist: np.ndarray

    def __init__(self, dist) -> None:
        d = np.asarray(dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.size == 0:
            raise ConfigurationError("FiniteMetricSpace: square matrix required")
        if not np.all(np.isfinite(d)):
            raise ConfigurationError("FiniteMetricSpace: non-finite distances")
        tol = METRIC_TOL * float(np.abs(d).max())
        if np.abs(d - d.T).max() > tol:
            raise ConfigurationError("FiniteMetricSpace: distances must be symmetric")
        if np.abs(np.diag(d)).max() > tol:
            raise ConfigurationError("FiniteMetricSpace: diagonal must be zero")
        if d.min() < -tol:
            raise ConfigurationError("FiniteMetricSpace: negative distance")
        d = np.maximum((d + d.T) / 2.0, 0.0)
        np.fill_diagonal(d, 0.0)
        # slack[u, v, w] = d(u,w) + d(v,w) - d(u,v) over blocks of rows u, two (T, T) per row
        step = block_rows(16 * d.size, "FiniteMetricSpace")
        if min((d[lo:lo + step, None, :] + d[None, :, :] - d[lo:lo + step, :, None]).min()
               for lo in range(0, d.shape[0], step)) < -tol:
            raise ConfigurationError("FiniteMetricSpace: triangle inequality fails")
        d.flags.writeable = False
        object.__setattr__(self, "dist", d)

    @property
    def size(self) -> int:
        return int(self.dist.shape[0])

    @property
    def diam(self) -> float:
        return float(self.dist.max())

    @cached_property
    def ball_steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, lengths): order[t] sorts dist[t] stably; lengths[t, j] is the
        next sorted radius (diam after the last) minus radius j, so a tie's
        right-continuous ball mass sits on its last atom, the others get 0."""
        order = np.argsort(self.dist, axis=1, kind="stable")
        lengths = np.diff(np.take_along_axis(self.dist, order, axis=1), axis=1, append=self.diam)
        order.flags.writeable = lengths.flags.writeable = False
        return order, lengths


@dataclass(frozen=True)
class ProcessSpec:
    """A centered process on a finite space with validated psi_p increments.

    kind "gaussian" carries a covariance and its (T, r) factor, r the numerical
    rank (p must be 2, where the increment condition has the closed form
    Var(X_u - X_v) <= (3/8) d(u,v)^2); kind "tabulated" carries finitely many
    weighted paths and is checked by direct summation for any p >= 1.
    """

    kind: str
    p: float
    cov: np.ndarray | None = None
    factor: np.ndarray | None = None
    paths: np.ndarray | None = None
    weights: np.ndarray | None = None


def gaussian_process(space: FiniteMetricSpace, cov, p: float = 2.0) -> ProcessSpec:
    if p != 2.0:
        raise InvalidProcessError(
            "gaussian_process: only p = 2 has a verifiable closed-form increment")
    c = np.asarray(cov, dtype=float)
    if c.shape != (space.size, space.size):
        raise ConfigurationError("gaussian_process: covariance shape mismatch")
    scale = float(np.abs(c).max())  # tolerances scale with max|c|, so verdicts hold at any scale
    if not np.abs(c - c.T).max() <= 1e-10 * scale:  # nan and inf fail here
        raise ConfigurationError("gaussian_process: covariance must be finite and symmetric")
    c = (c + c.T) / 2.0
    vals, vecs = np.linalg.eigh(c)
    if vals[0] < -1e-9 * scale:
        raise ConfigurationError("gaussian_process: covariance not positive semidefinite")
    pair_var = np.add.outer(np.diag(c), np.diag(c)) - 2.0 * c  # 0 on the diagonal, exactly
    # 2 T ulps of max|c|: gaussian_from_metric's Gram rounds pair variances by up to 0.75 T
    slack = 2.0 * space.size * np.finfo(float).eps * scale
    if np.any(pair_var > GAUSSIAN_VAR_RATIO * space.dist**2 * (1.0 + INCREMENT_TOL) + slack):
        raise InvalidProcessError("gaussian_process: psi_2 increment condition fails")
    keep = vals > space.size * np.finfo(float).eps * vals[-1]  # numpy.linalg.matrix_rank's cut
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    c.flags.writeable = factor.flags.writeable = False
    return ProcessSpec(kind="gaussian", p=2.0, cov=c, factor=factor)


def tabulated_process(space: FiniteMetricSpace, paths, weights, p: float = 2.0) -> ProcessSpec:
    if p < 1.0:
        raise DomainError("tabulated_process: p >= 1 required")
    x = np.asarray(paths, dtype=float)
    w = FiniteMeasure(weights)
    if x.ndim != 2 or x.shape != (w.support_size, space.size):
        raise ConfigurationError("tabulated_process: paths must be (draws, points)")
    mean = w.weights @ x
    if np.abs(mean).max() > CENTER_TOL * np.abs(x).max():
        raise InvalidProcessError("tabulated_process: process is not centered")
    # pairs go in lexicographic blocks, so an error names the first bad (u, v);
    # massless draws are dropped: one that overflows psi_p made a moment nan
    live = w.weights > 0.0
    xl, wl = x[live], w.weights[live]
    us, vs = np.triu_indices(space.size, 1)
    step = block_rows(8 * xl.shape[0], "tabulated_process")  # (draw, pair) gaps
    for lo in range(0, us.size, step):
        u, v = us[lo:lo + step], vs[lo:lo + step]
        d = space.dist[u, v]
        gaps = np.abs(xl[:, u] - xl[:, v])
        zero = d == 0.0
        glued = zero & (gaps.max(axis=0) > 0.0)
        bad = glued | (~zero & (wl @ psi(gaps / np.where(zero, 1.0, d), p) > 1.0 + INCREMENT_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            if glued[i]:
                raise InvalidProcessError("tabulated_process: distinct values at zero distance")
            moment = float(wl @ psi(np.abs(xl[:, u[i]] - xl[:, v[i]]) / d[i], p))
            raise InvalidProcessError(
                f"tabulated_process: increment moment {moment} > 1 at pair ({u[i]}, {v[i]})")
    x.flags.writeable = False
    return ProcessSpec(kind="tabulated", p=float(p), paths=x, weights=w.weights)


def process_from_json(space: FiniteMetricSpace, text: str) -> ProcessSpec:
    obj = json.loads(text) if isinstance(text, str) else text
    kind = read_field(obj, "kind", str, None)
    p = read_field(obj, "p", float, 2.0)
    if kind == "gaussian":
        return gaussian_process(space, read_field(obj, "cov", np.asarray), p)
    if kind == "tabulated":
        return tabulated_process(space, read_field(obj, "paths", np.asarray),
                                 read_field(obj, "weights", np.asarray), p)
    raise ConfigurationError(f"unknown process kind: {kind!r}")


@dataclass(frozen=True)
class Selector:
    """How a random index of the space is read off a sampled path.

    rule "argmax" picks the supremum location (ties to the lowest index),
    "fixed" a constant index, "randomized" draws from a kernel indexed by the
    tabulated path number (so it is measurable with respect to the path).
    """

    rule: str
    index: int | None = None
    kernel: MarkovKernel | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.rule not in ("argmax", "fixed", "randomized"):
            raise ConfigurationError(f"Selector: unknown rule {self.rule!r}")
        if self.rule == "fixed" and (self.index is None or self.index < 0):
            raise ConfigurationError("Selector: fixed rule needs a valid index")
        if self.rule == "randomized" and self.kernel is None:
            raise ConfigurationError("Selector: randomized rule needs a kernel")


# ---------------------------------------------------------------------------
# majorizing measure machinery
# ---------------------------------------------------------------------------

def _mu_weights(mu) -> np.ndarray:
    # FiniteMeasure or a raw subprobability vector (for monotonicity probes)
    if isinstance(mu, FiniteMeasure):
        return mu.weights
    w = np.asarray(mu, dtype=float)
    if w.ndim != 1 or not (w.min() >= 0.0 and w.sum() <= 1.0 + 1e-9):  # rejects nan too
        raise ConfigurationError("mu must be a probability or subprobability vector")
    return w


def ball_mass(mu, space: FiniteMetricSpace, t: int, eps: float) -> float:
    """mu{ u : d(u, t) <= eps }; right-continuous and nondecreasing in eps."""
    if not 0 <= t < space.size:
        raise ConfigurationError("ball_mass: index out of range")
    if eps < 0:
        raise DomainError("ball_mass: radius must be nonnegative")
    w = _mu_weights(mu)
    if w.size != space.size:
        raise ConfigurationError("ball_mass: measure size mismatch")
    return float(w[space.dist[t] <= eps].sum())


def _center_integrals(mu, space: FiniteMetricSpace, p: float, caller: str) -> np.ndarray:
    """(T,) step sums I_t = sum_j lengths[t, j] * max(log 1/M[t, j], 0)^{1/p},
    M[t, j] the mu-mass of the ball of radius j around t; +inf for a center
    whose mass-zero balls span a step of positive length."""
    if p < 1.0:
        raise DomainError(f"{caller}: p >= 1 required")
    w = _mu_weights(mu)
    if w.size != space.size:
        raise ConfigurationError(f"{caller}: size mismatch")
    order, lengths = space.ball_steps
    masses = np.cumsum(w[order], axis=1)
    live, empty = lengths > 0, masses <= 0.0
    # cumsum rounding can push the full mass a hair above 1, which would
    # send the log negative and the fractional power to nan
    vals = np.maximum(np.log(1.0 / np.where(live & ~empty, masses, 1.0)), 0.0) ** (1.0 / p)
    return np.where((live & empty).any(axis=1), np.inf, (lengths * vals).sum(axis=1))


def majorizing_integral(mu, nu: FiniteMeasure, space: FiniteMetricSpace,
                        p: float) -> float:
    """sum_t nu_t * integral_0^diam (log 1/mu(B(t, eps)))^{1/p} d eps, exactly.

    The ball mass as a function of eps is a right-continuous step function
    jumping only at the distances from t, so each inner integral is a finite
    sum over the steps of `space.ball_steps`; +inf when a nu-atom sees
    mass-zero balls over an interval of positive length.
    """
    if nu.support_size != space.size:
        raise ConfigurationError("majorizing_integral: size mismatch")
    integrals = _center_integrals(mu, space, p, "majorizing_integral")
    seen = nu.weights > 0
    return float(nu.weights[seen] @ integrals[seen])


def ft_bound(mu, nu: FiniteMeasure, space: FiniteMetricSpace, p: float) -> float:
    """Explicit-constant majorizing-measure bound on E[X_tau], tau with law nu:

        2^{2/p} * 4 * (2 diam(T) + majorizing_integral(mu, nu, space, p)).

    The constant is the r = 2 chaining constant, rescaled from unit diameter.
    """
    integral = majorizing_integral(mu, nu, space, p)
    return float(2.0 ** (2.0 / p) * 4.0 * (2.0 * space.diam + integral))


def ft_sup_bound(mu, space: FiniteMetricSpace, p: float) -> float:
    """Selector-free form: the worst single-center integral replaces the
    nu-average, dominating ft_bound for every selector law."""
    worst = max(0.0, float(_center_integrals(mu, space, p, "ft_sup_bound").max()))
    return float(2.0 ** (2.0 / p) * 4.0 * (2.0 * space.diam + worst))


# ---------------------------------------------------------------------------
# expected suprema
# ---------------------------------------------------------------------------

def expected_sup_mc(proc: ProcessSpec, space: FiniteMetricSpace, selector: Selector,
                    samples: int, seed: int, workers: int = 1) -> tuple[float, float]:
    """E[X_tau] with its standard error: exact for a tabulated process, else Monte Carlo.

    A tabulated process has finitely many paths, so E[X_tau] is the weighted sum of
    each path's pick, with standard error 0; seed and samples go unused.
    A Gaussian draw takes r normals (r = rank of proc.factor), built into paths in
    row chunks of BLOCK_BYTES. Counter-based substreams make the estimate bitwise
    independent of the worker count; ties in the argmax rule go to the lowest index.
    """
    if selector.rule == "fixed" and selector.index >= space.size:
        raise ConfigurationError("expected_sup_mc: fixed index out of range")
    if selector.rule == "randomized":
        if proc.kind != "tabulated":
            raise ConfigurationError(
                "expected_sup_mc: randomized selectors need a tabulated process")
        if (selector.kernel.input_size != proc.paths.shape[0]
                or selector.kernel.output_size != space.size):
            raise ConfigurationError("expected_sup_mc: selector kernel shape mismatch")

    if proc.kind == "tabulated":
        if selector.rule == "argmax":
            picked = proc.paths.max(axis=1)
        elif selector.rule == "fixed":
            picked = proc.paths[:, selector.index]
        else:
            picked = np.einsum("ij,ij->i", selector.kernel.matrix, proc.paths)
        return float(proc.weights @ picked), 0.0
    if samples < 1:
        raise ConfigurationError("expected_sup_mc: samples >= 1")
    sizes = mc.block_sizes(samples)
    step = block_rows(8 * (space.size + proc.factor.shape[1]), "expected_sup_mc")

    def one_block(b: int):  # normals and paths of a chunk of rows
        gen = mc.substream(seed, b)
        picked, buf = np.empty(sizes[b]), np.empty((min(step, sizes[b]), space.size))
        for lo in range(0, sizes[b], step):
            part = picked[lo:lo + step]
            x = np.matmul(gen.standard_normal((part.size, proc.factor.shape[1])),
                          proc.factor.T, out=buf[:part.size])
            part[:] = x.max(axis=1) if selector.rule == "argmax" else x[:, selector.index]
        return picked.sum(), (picked**2).sum()

    total, total_sq = map(sum, zip(*mc.run_blocks(one_block, len(sizes), workers)))
    return mc.mean_and_stderr(total, total_sq, samples)


def gaussian_from_metric(space: FiniteMetricSpace, p: float = 2.0) -> ProcessSpec:
    """Gaussian process saturating the psi_2 increment condition.

    Targets Var(X_u - X_v) = (3/8) d(u,v)^2 via the double-centered Gram
    matrix of (3/8) d^2; a metric for which that target is not positive
    semidefinite (not Euclidean-embeddable) is refused.
    """
    sq = GAUSSIAN_VAR_RATIO * space.dist**2
    center = np.eye(space.size) - np.full((space.size, space.size), 1.0 / space.size)
    gram = -0.5 * center @ sq @ center
    gram = (gram + gram.T) / 2.0
    vals, vecs = np.linalg.eigh(gram)
    if not vals[0] >= -1e-10 * np.abs(gram).max():
        raise UnsupportedGeometryError(
            "gaussian_from_metric: metric is not Euclidean-embeddable")
    gram = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return gaussian_process(space, gram, p)


# ---------------------------------------------------------------------------
# optimizing the majorizing measure
# ---------------------------------------------------------------------------

def _floor(weights: np.ndarray) -> FiniteMeasure:
    w = np.maximum(weights, MU_FLOOR)
    return FiniteMeasure(w / w.sum())


def _simplex_lattice(size: int, resolution: int):
    # stars and bars: lexicographic compositions of `resolution` into `size` parts
    for bars in itertools.combinations(range(resolution + size - 1), size - 1):
        yield (np.diff([-1, *bars, resolution + size - 1]) - 1) / resolution


def _integral_gradient(weights: np.ndarray, nu: FiniteMeasure,
                       space: FiniteMetricSpace, p: float) -> np.ndarray:
    # d/d mu_j of the step-sum integral: step (t, j) feeds every atom of its
    # ball, i.e. sorted positions <= j, hence the reverse cumsum along j. The
    # (log 1/M)^{1/p-1} factor is clamped away from its M -> 1 singularity,
    # which only flattens the gradient where the integrand is already zero.
    order, lengths = space.ball_steps
    masses = np.cumsum(weights[order], axis=1)
    live = (lengths > 0) & (masses > 0.0)
    m = np.where(live, masses, 1.0)
    log_term = np.maximum(np.log(1.0 / m), 1e-12)
    coeff = np.where(live, lengths * (1.0 / p) * log_term ** (1.0 / p - 1.0) / m, 0.0)
    per_center = np.empty_like(coeff)
    np.put_along_axis(per_center, order, np.cumsum(coeff[:, ::-1], axis=1)[:, ::-1], axis=1)
    return -(nu.weights @ per_center)


def optimize_mu(nu: FiniteMeasure, space: FiniteMetricSpace, p: float,
                method: str = "grid", iters: int = 200,
                resolution: int = 8) -> tuple[FiniteMeasure, float]:
    """Search for a majorizing measure; never returns a larger ft_bound than uniform.

    "grid" scans the full simplex lattice at the given resolution (meant for
    small spaces), "eg" runs exponentiated gradient descent from uniform.
    Every candidate is floored at 1e-6 and renormalized, so the returned
    measure has full support and a finite bound. `ft --mu-mode` reports
    ft_sup_bound, which this does not minimize: "eg" and "grid" can read above uniform.
    """
    if method not in ("grid", "eg"):
        raise ConfigurationError(f"optimize_mu: unknown method {method!r}")
    uniform = FiniteMeasure.uniform(space.size)
    best_mu, best = uniform, ft_bound(uniform, nu, space, p)

    if method == "grid":
        if space.size > 12:
            raise ConfigurationError("optimize_mu: grid mode is for |T| <= 12")
        for point in _simplex_lattice(space.size, resolution):
            cand = _floor(point)
            val = ft_bound(cand, nu, space, p)
            if val < best:
                best_mu, best = cand, val
        return best_mu, best

    weights = uniform.weights.copy()
    for _ in range(iters):
        grad = _integral_gradient(weights, nu, space, p)
        gmax = np.abs(grad).max()
        if gmax == 0.0:
            break
        weights = weights * np.exp(-0.5 * grad / gmax)
        weights = np.maximum(weights / weights.sum(), MU_FLOOR)
        weights /= weights.sum()
        cand = FiniteMeasure(weights)
        val = ft_bound(cand, nu, space, p)
        if val < best:
            best_mu, best = cand, val
    return best_mu, best
