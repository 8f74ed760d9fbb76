"""Finite measures, kernels, joints, and exact information functionals.

Everything here is exact desk-scale probability: weights are plain numpy
arrays, all divergences are in nats, ``0 * log 0 = 0`` by convention, and
``+inf`` is a first-class value wherever absolute continuity fails. The two
elementwise kernels, ``rel_entr`` and ``logsumexp``, are numpy ports of the
scipy.special functions of the same names, so nothing here imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mc
from .errors import ConfigurationError

# Constructors renormalize silent drift up to this much and reject anything worse.
DRIFT_TOL = 1e-9
# Individual weights may be negative by at most this (LP round-off); they are clipped.
NEG_TOL = 1e-12
_TINY = np.finfo(float).tiny


def readonly(arr: np.ndarray) -> np.ndarray:
    """arr, marked read-only: cached tables are shared, never written."""
    arr.flags.writeable = False
    return arr


def rel_entr(x, y) -> np.ndarray:
    """Elementwise x log(x/y): 0 where x = 0 <= y, +inf where x > 0 = y.

    Same branches as scipy.special.rel_entr, so a sum of tiny terms keeps its
    cancellation: x log1p((x-y)/y) when 0.5 < x/y < 2, x log(x/y) otherwise,
    and x (log x - log y) when x/y underflows or overflows. Negative entries
    give +inf; inputs are weights, so nan is not supported.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    live = (x > 0.0) & (y > 0.0)
    with np.errstate(all="ignore"):
        ratio = x / y
        out = np.where((ratio > 0.5) & (ratio < 2.0), x * np.log1p((x - y) / y),
                       x * np.log(ratio))
        far = live & ~((ratio > _TINY) & (ratio < np.inf))
        if far.any():
            out = np.where(far, x * (np.log(x) - np.log(y)), out)
    if not live.all():
        out = np.where(live, out, np.where((x == 0.0) & (y >= 0.0), 0.0, np.inf))
    return out


def logsumexp(a, axis=None, keepdims: bool = False, b=None) -> np.ndarray:
    """log(sum(b * exp(a))) over `axis`, as scipy.special.logsumexp computes it
    for real input and nonnegative b: the max terms (and entries with b = 0)
    leave the shifted sum, which is then taken as log1p(s/m) + log(m) + a_max;
    a non-finite result falls back to the direct log-sum."""
    a = np.asarray(a, dtype=float)
    if b is not None:
        a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    with np.errstate(all="ignore"):
        direct = np.log((np.exp(a) if b is None else b * np.exp(a)).sum(axis=axis, keepdims=True))
        if b is not None:
            a = np.where(b == 0, -np.inf, a)
        a_max = a.max(axis=axis, keepdims=True)
        top = a == a_max
        m = (top if b is None else b * top).sum(axis=axis, keepdims=True, dtype=float)
        shifted = np.exp(np.where(top, -np.inf, a) - a_max)
        s = (shifted if b is None else b * shifted).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    out = np.where(np.isfinite(out), out, direct)
    return out if keepdims else out.squeeze(axis=axis)


def _clean_weights(w, what: str = "weights") -> np.ndarray:
    """Validate probability vectors along the last axis in one pass; an error
    on a stack of rows names the first bad row."""
    w = np.ascontiguousarray(w, dtype=float)
    if w.size == 0:
        raise ConfigurationError(f"{what}: empty support")
    rows = w.reshape(-1, w.shape[-1])
    low = rows.min(axis=1)
    rows = np.maximum(rows, 0.0)
    total = rows.sum(axis=1)  # not finite for a row with nan or +inf entries
    drift = np.abs(total - 1.0)
    if not (drift.max() <= DRIFT_TOL and low.min() >= -NEG_TOL):  # also taken on nan
        for bad, text in ((~np.isfinite(total) | np.isneginf(low), lambda i: "non-finite weights"),
                          (low < -NEG_TOL, lambda i: f"negative weight {low[i]:.3e}"),
                          (drift > DRIFT_TOL, lambda i: f"mass {float(total[i])!r} drifts "
                                                        f"from 1 beyond {DRIFT_TOL}")):
            if bad.any():
                i = int(np.argmax(bad))
                where = what if w.ndim == 1 else f"{what} row {i}"
                raise ConfigurationError(f"{where}: {text(i)}")
    return readonly((rows / total[:, None]).reshape(w.shape))  # x / 1.0 is x, bit for bit


@dataclass(frozen=True)
class FiniteMeasure:
    """Probability vector over {0, ..., k-1}."""

    weights: np.ndarray

    def __init__(self, weights) -> None:
        object.__setattr__(self, "weights", _clean_weights(weights, "FiniteMeasure"))

    @property
    def support_size(self) -> int:
        return int(self.weights.size)

    @staticmethod
    def uniform(k: int) -> "FiniteMeasure":
        return FiniteMeasure(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class MarkovKernel:
    """Row-stochastic matrix: one FiniteMeasure per input point."""

    matrix: np.ndarray

    def __init__(self, rows) -> None:
        rows = rows if isinstance(rows, np.ndarray) else list(rows)
        if len(rows) == 0:
            raise ConfigurationError("MarkovKernel: no rows")
        if all(isinstance(r, FiniteMeasure) for r in rows):
            if len({r.support_size for r in rows}) != 1:
                raise ConfigurationError("MarkovKernel: rows have mixed support sizes")
            mat = np.stack([r.weights for r in rows])  # validated already
        else:
            mat = _clean_weights(np.asarray(rows, dtype=float), "MarkovKernel")
        if mat.ndim != 2:
            raise ConfigurationError("MarkovKernel: rows must be vectors")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def input_size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.matrix.shape[1])

    @cached_property
    def sampler(self) -> mc.Sampler:
        """Row-wise `mc.Sampler`, built once and shared by every Monte Carlo block."""
        return mc.Sampler(self.matrix)

    @staticmethod
    def constant(measure: FiniteMeasure, input_size: int) -> "MarkovKernel":
        return MarkovKernel(np.tile(measure.weights, (input_size, 1)))


@dataclass(frozen=True)
class JointMeasure:
    """Probability matrix over a product of two finite sets."""

    weights: np.ndarray

    def __init__(self, weights) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise ConfigurationError("JointMeasure: weights must be a 2-d array")
        object.__setattr__(self, "weights", _clean_weights(w.ravel(), "JointMeasure").reshape(w.shape))


def rowdot(a, b) -> np.ndarray:
    """Inner products over the last axis, each the 1-d `a @ b` of its rows, bit for bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def kl_divergence(mu: FiniteMeasure, nu: FiniteMeasure) -> float:
    """Relative entropy D(mu || nu) in nats; +inf when mu is not << nu."""
    if mu.support_size != nu.support_size:
        raise ConfigurationError("kl_divergence: support size mismatch")
    return float(kl_divergence_array(mu.weights, nu.weights))


def kl_divergence_array(mu, nu) -> np.ndarray:
    """kl_divergence over the last axis of two weight arrays."""
    return rel_entr(mu, nu).sum(axis=-1)


def mutual_information(joint: JointMeasure) -> float:
    """I(X;Y) of a joint table. Always finite: the joint is << its marginal product."""
    return float(mutual_information_array(joint.weights))


def mutual_information_array(w) -> np.ndarray:
    """mutual_information of each joint table on the last two axes of w."""
    indep = w.sum(axis=-1)[..., :, None] * w.sum(axis=-2)[..., None, :]
    return rel_entr(w, indep).sum(axis=(-2, -1))


def conditional_divergence(p: MarkovKernel, q: MarkovKernel, base: FiniteMeasure) -> float:
    """D(p || q | base) = sum_u base(u) * D(p_u || q_u); base-null rows are skipped."""
    if p.input_size != q.input_size or p.output_size != q.output_size:
        raise ConfigurationError("conditional_divergence: kernel shape mismatch")
    if p.input_size != base.support_size:
        raise ConfigurationError("conditional_divergence: base size mismatch")
    return float(conditional_divergence_array(p.matrix, q.matrix, base.weights))


def conditional_divergence_array(p, q, base) -> np.ndarray:
    """conditional_divergence of kernels on the last two axes of p and q under the
    base on the last axis of base; null conditioning sets add 0, even where D = inf."""
    return rowdot(base, np.where(base > 0.0, rel_entr(p, q).sum(axis=-1), 0.0))


def conditional_mutual_information(joint_xyz) -> float:
    """I(X;Y|Z) from a three-index weight array indexed [x, y, z]."""
    w = np.asarray(joint_xyz, dtype=float)
    if w.ndim != 3:
        raise ConfigurationError("conditional_mutual_information: need a 3-d array")
    w = _clean_weights(w.ravel(), "conditional_mutual_information").reshape(w.shape)
    return float(conditional_mutual_information_array(w))


def conditional_mutual_information_array(w) -> np.ndarray:
    """conditional_mutual_information of each [x, y, z] table on the last three axes of w."""
    p_z = w.sum(axis=(-3, -2))
    slabs = w / np.where(p_z > 0.0, p_z, 1.0)[..., None, None, :]  # the law of (X, Y) given z
    indep = slabs.sum(axis=-2)[..., :, None, :] * slabs.sum(axis=-3)[..., None, :, :]
    return rowdot(p_z, rel_entr(slabs, indep).sum(axis=(-3, -2)))
