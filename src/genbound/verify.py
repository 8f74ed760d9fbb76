"""Randomized verification suites for the core inequalities.

Each suite draws seeded instances, evaluates an inequality exactly, and
returns the worst signed violation together with the instance that produced
it, so a failure is immediately reproducible. Violations are lhs - rhs:
anything above the suite tolerance is a bug in the math, not noise, because
every quantity here is a finite sum.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .errors import ConfigurationError
from .measures import (FiniteMeasure, JointMeasure, MarkovKernel,
                       conditional_divergence, conditional_mutual_information,
                       kl_divergence, mutual_information)
from .orlicz import (StepFunction, check_psi_kl, check_psi_properties,
                     check_sum_to_integral, decorrelation_terms)
# perfbench/smoke.py reads verify.wasserstein
from .transport import (EmbeddedSupport, displacement_interpolation,  # noqa: F401
                        euclidean_cost, wasserstein, wasserstein_batch)

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    trials: int
    tol: float
    max_violation: float
    worst_case_input: dict = field(default_factory=dict)
    checks: int = 0

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def to_json(self) -> str:
        return json.dumps({"suite": self.suite, "trials": self.trials,
                           "tol": self.tol, "max_violation": self.max_violation,
                           "worst_case_input": self.worst_case_input,
                           "checks": self.checks, "passed": self.passed},
                          sort_keys=True)


class _Worst:
    """Track the largest signed violation and its provenance."""

    def __init__(self) -> None:
        self.value = -np.inf
        self.case: dict = {}
        self.count = 0

    def update(self, violation: float, case: dict) -> None:
        self.count += 1
        if violation > self.value:
            self.value = violation
            self.case = case

    def result(self, suite: str, trials: int, tol: float) -> SuiteResult:
        value = self.value if self.count else -np.inf
        return SuiteResult(suite, trials, tol, float(value),
                           dict(self.case), self.count)


def _random_measure(gen: np.random.Generator, size: int,
                    allow_zeros: bool = True) -> FiniteMeasure:
    w = gen.dirichlet(np.full(size, gen.uniform(0.3, 2.0)))
    if allow_zeros and size > 1 and gen.random() < 0.3:
        kill = gen.integers(0, size, size=max(1, size // 3))
        w[kill] = 0.0
        if w.sum() == 0.0:
            w[gen.integers(0, size)] = 1.0
        w = w / w.sum()
    return FiniteMeasure(w)


_P_CHOICES = (1.0, 1.5, 2.0, 3.0)


def run_lemma_suite(trials: int, seed: int, tol: float = DEFAULT_TOL) -> SuiteResult:
    """Decorrelation inequality: lhs <= rhs1 and lhs <= rhs2 on random instances."""
    gen = mc.substream(seed, 0)
    worst = _Worst()
    for i in range(trials):
        size = int(gen.integers(1, 9))
        p = float(gen.choice(_P_CHOICES))
        nu = _random_measure(gen, size, allow_zeros=False)
        if gen.random() < 0.25:
            mu = nu
        else:
            mu = _random_measure(gen, size)
        f = gen.uniform(0.0, 4.0, size=size)
        g = gen.uniform(0.0, 4.0, size=size)
        if gen.random() < 0.2:
            g = g * gen.uniform(1.0, 4.0)  # push psi_p(g) toward overflow guards
        terms = decorrelation_terms(mu, nu, f, g, p)
        case = {"trial": i, "p": p, "mu": mu.weights.tolist(),
                "nu": nu.weights.tolist(), "f": f.tolist(), "g": g.tolist()}
        worst.update(terms.lhs - terms.rhs1, {**case, "side": "rhs1"})
        worst.update(terms.lhs - terms.rhs2, {**case, "side": "rhs2"})
    return worst.result("lemma", trials, tol)


def _declared_psi_grid():
    xs = np.linspace(0.0, 10.0, 201)
    return [(float(x), p, q) for x in xs for p in _P_CHOICES for q in (1.0, 2.0, 5.0)]


def run_psi_suite(trials: int, seed: int, tol: float = DEFAULT_TOL) -> SuiteResult:
    """psi_p property grid, the sum-integral sandwich, and the psi-KL comparison."""
    gen = mc.substream(seed, 1)
    worst = _Worst()

    grid = _declared_psi_grid()
    for i in range(trials):
        x = float(gen.uniform(0.0, 50.0))  # beyond exp overflow for p = 3
        p = float(gen.choice(_P_CHOICES))
        q = float(gen.uniform(1.0, 8.0))
        grid.append((x, p, q))
    for res in check_psi_properties(grid):
        worst.update(res.max_violation, {"item": res.item, "input": res.argmax_input})

    for i in range(max(1, trials // 20)):
        k = int(gen.integers(1, 6))
        breaks = np.sort(gen.uniform(0.0, 1.0, size=k - 1)) if k > 1 else np.array([])
        breaks = np.concatenate([breaks, [1.0]])
        values = np.sort(gen.uniform(0.1, 5.0, size=k))[::-1]
        f = StepFunction(breaks, values)
        r = float(gen.uniform(2.0, 5.0))
        terms = int(gen.integers(1, 30))
        lhs, mid, rhs = check_sum_to_integral(f, r, terms)
        case = {"trial": i, "r": r, "terms": terms,
                "breaks": breaks.tolist(), "values": values.tolist()}
        worst.update(lhs - mid, {**case, "side": "lower"})
        worst.update(mid - rhs, {**case, "side": "upper"})

    for i in range(max(1, trials // 10)):
        size = int(gen.integers(1, 9))
        p = float(gen.choice(_P_CHOICES))
        nu = _random_measure(gen, size, allow_zeros=False)
        mu = nu if gen.random() < 0.2 else _random_measure(gen, size)
        lhs, rhs = check_psi_kl(mu, nu, p)
        worst.update(lhs - rhs, {"trial": i, "p": p, "mu": mu.weights.tolist(),
                                 "nu": nu.weights.tolist(), "side": "psi_kl"})
    return worst.result("psi", trials, tol)


def run_golden_suite(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Divergence decompositions: conditional KL = information + marginal KL,
    in both the unconditional and the conditioned form."""
    gen = mc.substream(seed, 2)
    worst = _Worst()
    for i in range(trials):
        nx = int(gen.integers(1, 6))
        ny = int(gen.integers(1, 6))
        joint = JointMeasure(gen.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        q_y = _random_measure(gen, ny, allow_zeros=False)
        p_x = joint.marginal_x()
        p_y = joint.marginal_y()
        rows = np.where(p_x.weights[:, None] > 0,
                        joint.weights / np.where(p_x.weights[:, None] > 0,
                                                 p_x.weights[:, None], 1.0),
                        1.0 / ny)
        lhs = conditional_divergence(MarkovKernel(rows), MarkovKernel.constant(q_y, nx), p_x)
        rhs = mutual_information(joint) + kl_divergence(p_y, q_y)
        resid = abs(lhs - rhs) if np.isfinite(lhs) or np.isfinite(rhs) else 0.0
        if np.isfinite(lhs) != np.isfinite(rhs):
            resid = np.inf
        worst.update(resid, {"trial": i, "form": "marginal",
                             "joint": joint.weights.tolist(), "q_y": q_y.weights.tolist()})

        nz = int(gen.integers(1, 4))
        jxyz = gen.dirichlet(np.ones(nx * ny * nz)).reshape(nx, ny, nz)
        q_rows = gen.dirichlet(np.ones(ny), size=nz)  # Q_{Y|Z}
        p_z = jxyz.sum(axis=(0, 1))
        p_xz = jxyz.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p_y_given_xz = np.where(p_xz[:, None, :] > 0,
                                    jxyz / np.where(p_xz[:, None, :] > 0,
                                                    p_xz[:, None, :], 1.0),
                                    1.0 / ny)
            p_yz = jxyz.sum(axis=0)
            p_y_given_z = np.where(p_z[None, :] > 0,
                                   p_yz / np.where(p_z[None, :] > 0, p_z[None, :], 1.0),
                                   1.0 / ny)
        # D(P_{Y|XZ} || Q_{Y|Z} | P_XZ), one kernel row per (x, z)
        lhs2 = conditional_divergence(
            MarkovKernel(p_y_given_xz.transpose(0, 2, 1).reshape(nx * nz, ny)),
            MarkovKernel(np.tile(q_rows, (nx, 1))), FiniteMeasure(p_xz.ravel()))
        cond_kl = conditional_divergence(MarkovKernel(p_y_given_z.T), MarkovKernel(q_rows),
                                         FiniteMeasure(p_z))
        rhs2 = conditional_mutual_information(jxyz) + cond_kl
        resid2 = abs(lhs2 - rhs2) if np.isfinite(lhs2) or np.isfinite(rhs2) else 0.0
        if np.isfinite(lhs2) != np.isfinite(rhs2):
            resid2 = np.inf
        worst.update(resid2, {"trial": i, "form": "conditional"})
    return worst.result("golden", trials, tol)


def run_transport_suite(trials: int, seed: int, tol: float = 1e-6) -> SuiteResult:
    """Exact-OT sanity: identity, symmetry, triangle inequality, plan marginals,
    and constant-speed geodesics.

    The tolerance is looser than the exact-sum suites because every quantity
    passes through the LP solver; violations are absolute for the metric
    checks and relative (to the endpoint distance) for constant speed.
    """
    gen = mc.substream(seed, 3)
    draws = []
    for _ in range(trials):
        size = int(gen.integers(2, 7))
        dim = int(gen.integers(1, 4))
        emb = EmbeddedSupport(gen.normal(0.0, 1.0, size=(size, dim)))
        mu = _random_measure(gen, size)
        nu = _random_measure(gen, size)
        kappa = _random_measure(gen, size)
        p = float(gen.choice((1.0, 2.0)))
        times = np.linspace(0.0, 1.0, int(gen.integers(3, 6)))
        draws.append((emb, mu, nu, kappa, p, times))

    # round one, one batch per p: per trial, five metric LPs at its p, and
    # the W_2 LP its geodesic is interpolated from
    batches: dict = {1.0: [], 2.0: []}
    slots = []
    for emb, mu, nu, kappa, p, times in draws:
        cost = euclidean_cost(emb, emb)
        metric = len(batches[p])
        batches[p] += [(a, b, cost)
                       for a, b in ((mu, mu), (mu, nu), (nu, mu), (mu, kappa), (kappa, nu))]
        slots.append((metric, len(batches[2.0])))
        batches[2.0].append((mu, nu, cost))
    solved = {p: wasserstein_batch(pairs, p) for p, pairs in batches.items()}

    # round two: one W_2 LP per pair of geodesic points, on the two points'
    # own supports
    geos = []
    for (emb, *_, times), (_, geo_lp) in zip(draws, slots):
        dist, plan = solved[2.0][geo_lp]
        geos.append(displacement_interpolation(plan, dist, emb, times))
    segments = iter(wasserstein_batch(
        [(pa.measure, pb.measure, euclidean_cost(pa.support, pb.support))
         for geo in geos for pa, pb in itertools.combinations(geo.points, 2)], 2.0))

    worst = _Worst()
    for i, (draw, (metric, _), geo) in enumerate(zip(draws, slots, geos)):
        emb, mu, nu, kappa, p, times = draw
        case = {"trial": i, "p": p, "points": emb.points.tolist(),
                "mu": mu.weights.tolist(), "nu": nu.weights.tolist()}
        (d_self, _), (d_uv, plan), (d_vu, _), (d_uk, _), (d_kv, _) = solved[p][metric:metric + 5]
        worst.update(abs(d_self), {**case, "side": "identity"})
        worst.update(abs(d_uv - d_vu), {**case, "side": "symmetry"})
        worst.update(d_uv - (d_uk + d_kv), {**case, "side": "triangle"})
        worst.update(np.abs(plan.weights.sum(axis=1) - mu.weights).max(),
                     {**case, "side": "marginal_src"})
        worst.update(np.abs(plan.weights.sum(axis=0) - nu.weights).max(),
                     {**case, "side": "marginal_dst"})
        for (ta, tb), (d_ab, _) in zip(itertools.combinations(times, 2), segments):
            target = (tb - ta) * geo.distance
            rel = abs(d_ab - target) / max(1.0, geo.distance)
            worst.update(rel, {**case, "side": "constant_speed", "pair": [float(ta), float(tb)]})
    return worst.result("transport", trials, tol)


SUITES = {"lemma": run_lemma_suite, "psi": run_psi_suite,
          "golden": run_golden_suite, "transport": run_transport_suite}


def run_suite(name: str, trials: int, seed: int,
              tol: float | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ConfigurationError(f"unknown suite {name!r}")
    fn = SUITES[name]
    if tol is None:
        return fn(trials, seed)
    return fn(trials, seed, tol)
