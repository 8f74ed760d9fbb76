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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import mc
from .errors import ConfigurationError
from .measures import (FiniteMeasure, JointMeasure, _clean_weights, conditional_divergence_array,
                       conditional_mutual_information_array, kl_divergence_array,
                       mutual_information_array, readonly)
from .orlicz import (StepFunction, check_psi_kl, check_psi_properties,
                     check_sum_to_integral, decorrelation_terms_array)
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
        return json.dumps({**asdict(self), "passed": self.passed}, sort_keys=True)


class _Worst:
    """Track the largest signed violation and its provenance: the first
    maximum wins, and a nan, which no comparison orders, beats every number."""

    def __init__(self) -> None:
        self.value = -np.inf
        self.case: dict = {}
        self.count = 0

    def update(self, violation: float, case) -> None:
        """Fold in one violation; case is its worst_case_input, or builds it if callable."""
        self.count += 1
        if violation > self.value or (violation != violation and self.value == self.value):
            self.value = float(violation)
            self.case = case() if callable(case) else case

    def update_chunk(self, viol: np.ndarray, case) -> None:
        """Fold in a (trials, checks) array in trial order; case(trial, check) builds one input."""
        k = int(np.argmax(viol))  # the first maximum, or the first nan
        self.count += viol.size - 1
        self.update(viol.flat[k], lambda: case(*divmod(k, viol.shape[1])))

    def result(self, suite: str, trials: int, tol: float) -> SuiteResult:
        return SuiteResult(suite, trials, tol, float(self.value), dict(self.case), self.count)


def _random_weights(gen: np.random.Generator, size: int, allow_zeros: bool = True) -> np.ndarray:
    w = gen.dirichlet(np.full(size, gen.uniform(0.3, 2.0)))
    if allow_zeros and size > 1 and gen.random() < 0.3:
        kill = gen.integers(0, size, size=max(1, size // 3))
        w[kill] = 0.0
        if w.sum() == 0.0:
            w[gen.integers(0, size)] = 1.0
        w = w / w.sum()
    return w


def _pick(gen: np.random.Generator, options: tuple) -> float:
    """gen.choice(options): the same value and generator state, at a fifth of the cost."""
    return options[int(gen.integers(0, len(options)))]


_P_CHOICES = (1.0, 1.5, 2.0, 3.0)
CHUNK_TRIALS = 4096


def _chunked_suite(name: str, stream: int, trials: int, seed: int, tol: float,
                   draw, evaluate) -> SuiteResult:
    """Fold evaluate(first trial, draws) = (violations, case) over chunks of at most
    CHUNK_TRIALS trials, drawn in trial order from substream `stream` of seed. Only
    one chunk is alive at a time, so memory stays flat in --trials."""
    gen, worst = mc.substream(seed, stream), _Worst()
    for start in range(0, trials, CHUNK_TRIALS):
        size = min(CHUNK_TRIALS, trials - start)
        worst.update_chunk(*evaluate(start, [draw(gen) for _ in range(size)]))
    return worst.result(name, trials, tol)


def _by_shape(draws: list, *cols: int, key=None) -> dict:
    """{key(draw), or column cols[0]'s shape: (its draws' positions, their cols stacked)}."""
    groups: dict = {}
    for i, draw in enumerate(draws):
        groups.setdefault(key(draw) if key else draw[cols[0]].shape, []).append(i)
    return {k: (idx, [np.stack([draws[i][c] for i in idx]) for c in cols])
            for k, idx in groups.items()}


def _lemma_draw(gen: np.random.Generator) -> tuple:
    size = int(gen.integers(1, 9))
    p = _pick(gen, _P_CHOICES)
    nu = _random_weights(gen, size, allow_zeros=False)
    mu = nu if gen.random() < 0.25 else _random_weights(gen, size)
    f, g = gen.uniform(0.0, 4.0, size=(2, size))  # the draws of two calls of size `size`
    if gen.random() < 0.2:
        g = g * gen.uniform(1.0, 4.0)  # push psi_p(g) toward overflow guards
    return p, mu, nu, f, g


def _lemma_chunk(start: int, draws: list) -> tuple:
    viol = np.empty((len(draws), 2))
    for (p, _), (idx, (mu, nu, f, g)) in _by_shape(draws, 1, 2, 3, 4,
                                                    key=lambda d: (d[0], d[1].size)).items():
        lhs, rhs1, rhs2 = decorrelation_terms_array(*_clean_weights(np.stack([mu, nu])), f, g, p)
        viol[idx, 0], viol[idx, 1] = lhs - rhs1, lhs - rhs2

    def case(i: int, side: int) -> dict:
        p, mu, nu, f, g = draws[i]
        return {"trial": start + i, "p": p, "mu": FiniteMeasure(mu).weights.tolist(),
                "nu": FiniteMeasure(nu).weights.tolist(), "f": f.tolist(),
                "g": g.tolist(), "side": ("rhs1", "rhs2")[side]}
    return viol, case


def run_lemma_suite(trials: int, seed: int, tol: float = DEFAULT_TOL) -> SuiteResult:
    """Decorrelation inequality: lhs <= rhs1 and lhs <= rhs2 on random instances,
    one decorrelation_terms_array call per (p, size) group of each chunk."""
    return _chunked_suite("lemma", 0, trials, seed, tol, _lemma_draw, _lemma_chunk)


# The declared (x, p, q) grid every psi run checks, x outermost.
_PSI_GRID = readonly(np.stack(np.meshgrid(np.linspace(0.0, 10.0, 201), _P_CHOICES,
                                          (1.0, 2.0, 5.0), indexing="ij"), axis=-1).reshape(-1, 3))


def run_psi_suite(trials: int, seed: int, tol: float = DEFAULT_TOL) -> SuiteResult:
    """psi_p property grid, the sum-integral sandwich, and the psi-KL comparison."""
    gen = mc.substream(seed, 1)
    worst = _Worst()
    # x up to 50 is beyond exp overflow for p = 3
    found = [check_psi_properties(_PSI_GRID)] + [check_psi_properties(
        [(float(gen.uniform(0.0, 50.0)), _pick(gen, _P_CHOICES), float(gen.uniform(1.0, 8.0)))
         for _ in range(min(CHUNK_TRIALS, trials - start))])
        for start in range(0, trials, CHUNK_TRIALS)]
    for reports in zip(*found):  # one item's reports, the declared grid's first
        res = reports[int(np.argmax([r.max_violation for r in reports]))]  # first max or nan
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
        p = _pick(gen, _P_CHOICES)
        nu = FiniteMeasure(_random_weights(gen, size, allow_zeros=False))
        mu = nu if gen.random() < 0.2 else FiniteMeasure(_random_weights(gen, size))
        lhs, rhs = check_psi_kl(mu, nu, p)
        worst.update(lhs - rhs, {"trial": i, "p": p, "mu": mu.weights.tolist(),
                                 "nu": nu.weights.tolist(), "side": "psi_kl"})
    return worst.result("psi", trials, tol)


def _golden_draw(gen: np.random.Generator) -> tuple:
    nx, ny = int(gen.integers(1, 6)), int(gen.integers(1, 6))
    joint = gen.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    q_y = _random_weights(gen, ny, allow_zeros=False)
    nz = int(gen.integers(1, 4))
    jxyz = gen.dirichlet(np.ones(nx * ny * nz)).reshape(nx, ny, nz)
    q_rows = gen.dirichlet(np.ones(ny), size=nz)  # Q_{Y|Z}
    return joint, q_y, jxyz, q_rows


def _given(w: np.ndarray, cond: np.ndarray, ny: int) -> np.ndarray:
    """w / cond: laws of y given cond, uniform over ny values where cond is null."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(cond > 0.0, w / np.where(cond > 0.0, cond, 1.0), 1.0 / ny)


def _golden_chunk(start: int, draws: list) -> tuple:
    law = _clean_weights  # renormalize where the object-level path validates
    lhs, rhs = np.empty((len(draws), 2)), np.empty((len(draws), 2))
    for (nx, ny), (idx, (joint, q_y)) in _by_shape(draws, 0, 1).items():
        joint, q_y = law(joint.reshape(len(idx), -1)).reshape(joint.shape), law(q_y)
        p_x, p_y = law(joint.sum(axis=2)), law(joint.sum(axis=1))
        # D(P_{Y|X} || Q_Y | P_X) = I(X; Y) + D(P_Y || Q_Y)
        lhs[idx, 0] = conditional_divergence_array(law(_given(joint, p_x[:, :, None], ny)),
                                                   law(q_y)[:, None, :], p_x)
        rhs[idx, 0] = mutual_information_array(joint) + kl_divergence_array(p_y, q_y)
    for (nx, ny, nz), (idx, (jxyz, q_rows)) in _by_shape(draws, 2, 3).items():
        p_xz, p_z = jxyz.sum(axis=2), jxyz.sum(axis=(1, 2))
        # D(P_{Y|XZ} || Q_{Y|Z} | P_XZ) = I(X; Y | Z) + D(P_{Y|Z} || Q_{Y|Z} | P_Z),
        # one kernel row per (x, z)
        p_y_xz = _given(jxyz, p_xz[:, :, None, :], ny).transpose(0, 1, 3, 2)
        lhs[idx, 1] = conditional_divergence_array(law(p_y_xz.reshape(len(idx), nx * nz, ny)),
                                                   law(np.tile(q_rows, (1, nx, 1))),
                                                   law(p_xz.reshape(len(idx), nx * nz)))
        p_y_z = _given(jxyz.sum(axis=1), p_z[:, None, :], ny).transpose(0, 2, 1)
        rhs[idx, 1] = (conditional_mutual_information_array(
                           law(jxyz.reshape(len(idx), -1)).reshape(jxyz.shape))
                       + conditional_divergence_array(law(p_y_z), law(q_rows), law(p_z)))

    def case(i: int, form: int) -> dict:
        joint, q_y, jxyz, q_rows = draws[i]
        return ({"trial": start + i, "form": "conditional", "jxyz": jxyz.tolist(),
                 "q_rows": q_rows.tolist()} if form else
                {"trial": start + i, "form": "marginal", "q_y": FiniteMeasure(q_y).weights.tolist(),
                 "joint": JointMeasure(joint).weights.tolist()})
    with np.errstate(invalid="ignore"):  # the same infinity on both sides counts as 0
        return np.where(np.isinf(lhs) & (lhs == rhs), 0.0, np.abs(lhs - rhs)), case


def run_golden_suite(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Divergence decompositions: conditional KL = information + marginal KL,
    in both the unconditional and the conditioned form, one array pass per
    (nx, ny) and per (nx, ny, nz) group of each chunk."""
    return _chunked_suite("golden", 2, trials, seed, tol, _golden_draw, _golden_chunk)


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
        mu, nu, kappa = (FiniteMeasure(_random_weights(gen, size)) for _ in range(3))
        p = _pick(gen, (1.0, 2.0))
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
    return SUITES[name](trials, seed) if tol is None else SUITES[name](trials, seed, tol)
