"""Orlicz calculus for the family psi_p(x) = exp(x^p) - 1, p >= 1.

psi_p is the Young function behind the exponential-moment machinery used by
every bound in this package: psi_p^{-1}(x) = (log(x+1))^{1/p}, the Orlicz
norm of a finite random variable is the usual Luxemburg functional, and
``decorrelation_terms`` evaluates both right-hand sides of the change-of-
measure inequality that the bounds are built from.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityError, ConfigurationError, DomainError
from .measures import FiniteMeasure, kl_divergence, logsumexp, rowdot

NORM_REL_TOL = 1e-10
# Above this value of x^p, exp(x^p) leaves float64; the property grid switches
# to the factored gap forms there.
_EXP_SAFE = 600.0
# The "square" gap is a difference of two e^{x^p}-sized terms whose true value
# is only e^{x^p/2}-sized, so float64 cancellation corrupts it long before
# overflow; beyond this the factored form is mandatory.
_SQUARE_SAFE = 60.0


def _domain(what: str, value, lower=1.0) -> None:
    """Refuse a value outside the psi family's domain: not finite, or below
    lower (1 for p, 0 for f and g, (0, 1, 1) for a grid point (x, p, q)). A
    float p goes through math.isfinite, so psi's hot callers pay no array cost."""
    if isinstance(value, np.ndarray):
        bad = np.argwhere(~(np.isfinite(value) & (value >= lower)))
        if bad.size:
            raise DomainError(f"{what}: {value[bad[0][0]]} is not finite or not >= {lower}")
    elif not (math.isfinite(value) and value >= lower):
        raise DomainError(f"{what}: {value} is not finite or not >= {lower}")


def _check_xp(x, p: float, what: str) -> np.ndarray:
    _domain(what, p)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError(f"{what.split()[0]} is defined on x >= 0")
    return arr


def psi(x, p: float):
    """psi_p(x) = exp(x^p) - 1; overflow saturates to +inf."""
    arr = _check_xp(x, p, "psi p")
    with np.errstate(over="ignore"):
        out = np.expm1(arr**p)
    return float(out) if np.isscalar(x) else out


def psi_inv(x, p: float):
    """psi_p^{-1}(x) = (log(x+1))^{1/p}; accepts +inf."""
    arr = _check_xp(x, p, "psi_inv p")
    out = np.log1p(arr) ** (1.0 / p)
    return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class DiscreteRandomVariable:
    """A real value on each atom of a finite law."""

    values: np.ndarray
    law: FiniteMeasure

    def __init__(self, values, law: FiniteMeasure) -> None:
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size != law.support_size:
            raise ConfigurationError("DiscreteRandomVariable: values/law size mismatch")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("DiscreteRandomVariable: non-finite values")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "law", law)


def orlicz_norm(x: DiscreteRandomVariable, p: float) -> float:
    """Luxemburg norm inf{c > 0 : E[psi_p(|X|/c)] <= 1} of a finite variable."""
    return float(orlicz_norms(x.values[None, :], x.law, p)[0])


def orlicz_norms(values: np.ndarray, law: FiniteMeasure, p: float) -> np.ndarray:
    """orlicz_norm of each row of an (R, atoms) table of finite values under one law:
    the psi-moment decreases in c, E <= 1 at max|X|/psi_inv(1) and E >= 1 at
    max|X|/psi_inv(1/min positive mass), and one bisection runs over all rows, each
    stopping at relative width NORM_REL_TOL. Zero-mass atoms drop; a zero row is 0."""
    _domain("orlicz_norm p", p)
    live = law.weights > 0.0
    vals, mass = np.abs(values[:, live]), law.weights[live]
    vmax = vals.max(axis=1)
    lo = vmax / psi_inv(1.0 / mass.min(), p)
    hi = vmax / psi_inv(1.0, p)
    rows = np.flatnonzero(hi - lo > NORM_REL_TOL * hi)
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        with np.errstate(over="ignore"):
            below = np.expm1((vals[rows] / mid[:, None]) ** p) @ mass <= 1.0
        hi[rows[below]] = mid[below]
        lo[rows[~below]] = mid[~below]
        rows = rows[hi[rows] - lo[rows] > NORM_REL_TOL * hi[rows]]
    return hi


# ---------------------------------------------------------------------------
# psi-calculus property grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiPropertyResult:
    item: str
    max_violation: float
    argmax_input: tuple


def check_psi_properties(grid) -> list[PsiPropertyResult]:
    """Evaluate the four psi_p workhorse inequalities over a grid of (x, p, q).

    Items: "square"   psi_p(x/2^{1/p})^2        <= psi_p(x)
           "product"  x * psi_p(x/4^{1/p})      <= 2^{1/p} * psi_p(x/2^{1/p})
           "power"    psi_p^{-1}(x^q)           <= q^{1/p} * psi_p^{-1}(x)   (q >= 1)
           "shift"    psi_p^{-1}(x)             <= (log x)^{1/p} + 1         (x >= 1)

    Returns one report per item with the worst (lhs - rhs) gap and where it first
    happened, -inf at () if nowhere; every max_violation should sit at or below 1e-12.
    """
    pts = np.asarray(grid, dtype=float).reshape(len(grid), 3)  # one (x, p, q) per point
    _domain("check_psi_properties grid point", pts, (0.0, 1.0, 1.0))
    x, p, q = pts.T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_x, xp, r2 = np.log(x), x**p, 2.0 ** (1.0 / p)
        half = np.expm1((x / r2) ** p)  # psi_p(x / 2^{1/p})
        # The naive gaps subtract e^{x^p}-sized terms whose difference is exponentially
        # smaller, so they cancel catastrophically. Both factor exactly into well scaled
        # factors that saturate to -inf past float range: with a = e^{x^p/2}, b = e^{x^p/4},
        #   square:  (a-1)^2 - (a^2-1)           = -2 (a-1)
        #   product: x (b-1) - 2^{1/p} (b^2-1)   = (b-1) (x - 2^{1/p} (b+1))
        square = np.where(p * log_x <= math.log(_SQUARE_SAFE), half**2 - np.expm1(xp),
                          -2.0 * np.expm1(xp / 2.0))
        quarter = np.expm1(xp / 4.0)
        product = np.where(p * log_x <= math.log(_EXP_SAFE),
                           x * np.expm1((x / 4.0 ** (1.0 / p)) ** p) - r2 * half,
                           quarter * (x - r2 * (quarter + 2.0)))
        # x^q = e^{q log x} nears float range past _EXP_SAFE: log1p(x^q) = q log x + log1p(x^-q)
        inv_x = np.log1p(x) ** (1.0 / p)
        power = (np.where(q * log_x <= _EXP_SAFE, np.log1p(x**q), q * log_x + np.log1p(x**-q))
                 ** (1.0 / p) - q ** (1.0 / p) * inv_x)
        big = np.flatnonzero(x >= 1.0)
        shift = inv_x[big] - (log_x[big] ** (1.0 / p[big]) + 1.0)
    items = (("square", square, pts[:, :2]), ("product", product, pts[:, :2]),
             ("power", power, pts), ("shift", shift, pts[big, :2]))
    return [PsiPropertyResult(item, float(gap.max()), tuple(args[np.argmax(gap)].tolist()))
            if gap.size else PsiPropertyResult(item, -math.inf, ())  # argmax: the first maximum
            for item, gap, args in items]


# ---------------------------------------------------------------------------
# sum-vs-integral sandwich for nonincreasing positive functions on (0, 1]
# ---------------------------------------------------------------------------

class StepFunction:
    """Piecewise-constant nonincreasing positive function on (0, 1].

    values[i] is taken on (breakpoints[i-1], breakpoints[i]] with an implicit
    leading breakpoint 0; the final breakpoint must be 1.
    """

    def __init__(self, breakpoints, values) -> None:
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if b.ndim != 1 or b.size == 0 or b.size != v.size:
            raise ConfigurationError("StepFunction: breakpoints/values mismatch")
        if not (np.all(np.diff(b) > 0) and 0.0 < b[0] and b[-1] == 1.0):
            raise ConfigurationError("StepFunction: breakpoints must increase to exactly 1")
        if np.any(v <= 0.0):
            raise DomainError("StepFunction: values must be positive")
        if np.any(np.diff(v) > 0):
            raise DomainError("StepFunction: values must be nonincreasing")
        self.breakpoints = b
        self.values = v

    def __call__(self, eps: float) -> float:
        if eps <= 0.0:
            return float(self.values[0])
        if eps > 1.0:
            raise DomainError("StepFunction domain is (0, 1]")
        return float(self.values[np.searchsorted(self.breakpoints, eps)])

    def integral(self) -> float:
        widths = np.diff(np.concatenate(([0.0], self.breakpoints)))
        return float(widths @ self.values)


def check_sum_to_integral(f, r: float, terms: int) -> tuple[float, float, float]:
    """Sandwich sum_{k=1}^K r^{-k} f(r^{-k}) <= r * int_0^1 f <= r^2 * sum_{k>=0} r^{-k} f(r^{-k}).

    f may be a StepFunction (everything closed-form, including the infinite
    tail) or a plain callable (adaptive quadrature; divergence near 0 is
    rejected). Raises if the sandwich fails, which only a broken f can cause.
    """
    if r < 2.0:
        raise DomainError(f"sandwich needs r >= 2, got {r}")
    if terms < 1:
        raise DomainError("need at least one term")

    if isinstance(f, StepFunction):
        lhs = sum(r**-k * f(r**-k) for k in range(1, terms + 1))
        mid = r * f.integral()
        # Below the leftmost breakpoint f is constant, so the tail is geometric.
        b0 = f.breakpoints[0]
        k0 = 0
        while r**-k0 > b0:
            k0 += 1
        head = sum(r**-k * f(r**-k) for k in range(0, k0))
        tail = f.values[0] * r**-k0 / (1.0 - 1.0 / r)
        rhs = r**2 * (head + tail)
    else:
        probe = [r**-k for k in range(0, 60)] + list(np.linspace(1e-6, 1.0, 64))
        vals = [float(f(t)) for t in sorted(probe)]
        if any(v <= 0.0 for v in vals):
            raise DomainError("f must be positive on (0, 1]")
        if any(vals[i] < vals[i + 1] - 1e-12 for i in range(len(vals) - 1)):
            raise DomainError("f must be nonincreasing on (0, 1]")
        from scipy import integrate  # imported here only: a plain callable needs quad

        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            try:
                quad_val, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-8)
            except integrate.IntegrationWarning as exc:
                raise DomainError(f"f looks non-integrable near 0: {exc}") from exc
        if not np.isfinite(quad_val):
            raise DomainError("f is non-integrable on (0, 1]")
        lhs = sum(r**-k * f(r**-k) for k in range(1, terms + 1))
        mid = r * quad_val
        rhs_sum, k = 0.0, 0
        while True:
            term = r**-k * float(f(r**-k))
            rhs_sum += term
            k += 1
            if k > 10 and term <= 1e-16 * max(rhs_sum, 1.0):
                break
            if k > 5000:
                raise DomainError("tail sum fails to converge; f is not integrable")
        rhs = r**2 * rhs_sum

    if not (lhs <= mid * (1 + 1e-9) + 1e-12 and mid <= rhs * (1 + 1e-9) + 1e-12):
        raise DomainError(f"sandwich violated: {lhs} <= {mid} <= {rhs} fails")
    return float(lhs), float(mid), float(rhs)


# ---------------------------------------------------------------------------
# decorrelation terms and the psi-inverse / KL comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecorrelationTerms:
    """lhs = <mu, f g> and the two upper bounds it is compared against."""

    lhs: float
    rhs1: float
    rhs2: float


def _density(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    if m.shape != n.shape:
        raise ConfigurationError("density: support size mismatch")
    if np.any((m > 0.0) & (n == 0.0)):
        raise AbsoluteContinuityError("mu is not absolutely continuous w.r.t. nu")
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(n > 0.0, m / np.where(n > 0.0, n, 1.0), 0.0)


def decorrelation_terms(mu: FiniteMeasure, nu: FiniteMeasure, f, g, p: float) -> DecorrelationTerms:
    """Evaluate <mu, fg> against its two decorrelated majorants.

    rhs1 = 2^{1/p} <mu, f psi_p^{-1}(dmu/dnu)> + <nu, f psi_p(g)>
    rhs2 = 2^{1/p} ||f||_{L2(nu)} + 4^{1/p} <mu, f psi_p^{-1}(dmu/dnu)>
           + 4^{1/p} ||f||_{L1(mu)} (log <nu, exp(g^p)>)^{1/p}

    f, g must be finite and nonnegative; the exponential moment in rhs2 is
    evaluated through logsumexp so large g degrades gracefully instead of overflowing.
    """
    rows = decorrelation_terms_array(mu.weights[None], nu.weights[None],
                                     *(np.asarray(v, dtype=float)[None] for v in (f, g)), p)
    return DecorrelationTerms(*(float(t[0]) for t in rows))


def decorrelation_terms_array(mu, nu, f, g, p: float):
    """decorrelation_terms of each row of (R, k) tables at one p: weights mu
    and nu, values f and g. Returns the (R,) arrays lhs, rhs1 and rhs2."""
    if not mu.shape == f.shape == g.shape:
        raise ConfigurationError("decorrelation_terms: f/g shape mismatch")
    for what, value, lower in (("p", p, 1.0), ("f", f, 0.0), ("g", g, 0.0)):
        _domain(f"decorrelation_terms {what}", value, lower)
    dens = _density(mu, nu)
    lhs = rowdot(mu, f * g)
    cross = rowdot(mu, f * psi_inv(dens, p))

    with np.errstate(over="ignore"):
        rhs1 = 2.0 ** (1.0 / p) * cross + rowdot(nu, f * np.expm1(g**p))

    # log <nu, exp(g^p)> >= 0 since g >= 0; logsumexp keeps it finite in float.
    log_moment = logsumexp(g**p, axis=-1, b=nu)
    rhs2 = (2.0 ** (1.0 / p) * np.sqrt(rowdot(nu, f**2))
            + 4.0 ** (1.0 / p) * cross
            + 4.0 ** (1.0 / p) * rowdot(mu, f) * log_moment ** (1.0 / p))
    return lhs, rhs1, rhs2


def check_psi_kl(mu: FiniteMeasure, nu: FiniteMeasure, p: float) -> tuple[float, float]:
    """Return (<mu, psi_p^{-1}(dmu/dnu)>, (D(mu||nu) + 1)^{1/p}); lhs <= rhs always."""
    _domain("check_psi_kl p", p)
    dens = _density(mu.weights, nu.weights)
    lhs = float(mu.weights @ psi_inv(dens, p))
    rhs = (kl_divergence(mu, nu) + 1.0) ** (1.0 / p)
    return lhs, rhs
