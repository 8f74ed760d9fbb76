"""End-to-end acceptance checks, one per shipping criterion.

Each test prints a single pass/fail line (visible under pytest -s or on
failure) and asserts the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np

from genbound import (FiniteMeasure, FiniteMetricSpace, Selector,
                      bound_chain, bound_cmi, bound_coupling,
                      bound_coupling_simplified, bound_density, bound_mi,
                      bound_stochastic_chain, bound_wasserstein_geodesic,
                      chain_from_partitions, chain_metric, cli,
                      dyadic_partitions, erm_algorithm, expected_sup_mc,
                      ft_bound, ft_sup_bound, gaussian_from_metric, geodesic,
                      gibbs_algorithm, ignore_algorithm, optimize_mu,
                      run_suite,
                      tail_pac_bayes, tail_pointwise_check, tail_transductive,
                      wasserstein)
from genbound.transport import EmbeddedSupport, euclidean_cost

from conftest import algorithm_family, random_problem

SUITE_SEED = 20260815


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, desc


def _expectation_reports(prob, alg):
    parts = dyadic_partitions(prob.num_hypotheses)
    parts_leaf = parts[1:]
    yield bound_density(prob, alg)
    yield bound_mi(prob, alg)
    yield bound_cmi(prob, alg)
    yield bound_coupling(prob, alg)
    yield bound_coupling_simplified(prob, alg)
    yield bound_chain(prob, alg, chain_from_partitions(prob, alg, parts))
    yield bound_chain(prob, alg, chain_from_partitions(prob, alg, parts), chain_metric(prob))
    yield bound_stochastic_chain(prob, alg,
                                 chain_from_partitions(prob, alg, parts_leaf))
    yield bound_wasserstein_geodesic(prob, alg)


def test_criterion_01_decorrelation_suite():
    start = time.perf_counter()
    result = run_suite("lemma", trials=10**4, seed=SUITE_SEED)
    elapsed = time.perf_counter() - start
    ok = result.max_violation <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"decorrelation suite 1e4 trials, worst violation "
                   f"{result.max_violation:.3e}, {elapsed:.1f}s")


def test_criterion_02_psi_calculus_suite():
    start = time.perf_counter()
    result = run_suite("psi", trials=10**4, seed=SUITE_SEED)
    elapsed = time.perf_counter() - start
    ok = result.max_violation <= 1e-12 and elapsed < 10.0
    _report(2, ok, f"psi property grids + 1e4 random, worst violation "
                   f"{result.max_violation:.3e}, {elapsed:.1f}s")


def test_criterion_03_divergence_decomposition_suite():
    start = time.perf_counter()
    result = run_suite("golden", trials=10**3, seed=SUITE_SEED)
    elapsed = time.perf_counter() - start
    ok = result.max_violation <= 1e-9 and elapsed < 5.0
    _report(3, ok, f"divergence decomposition residual "
                   f"{result.max_violation:.3e} on 1e3 instances, {elapsed:.1f}s")


def test_criterion_04_domination_suite():
    start = time.perf_counter()
    gen = np.random.default_rng(SUITE_SEED)
    worst = math.inf
    for _ in range(200):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            for report in _expectation_reports(prob, alg):
                worst = min(worst, report.rhs - report.lhs)
                if "fine_rhs" in report.details:
                    worst = min(worst, report.details["fine_rhs"] - report.lhs)
                if "mi_form_rhs" in report.details:
                    worst = min(worst, report.details["mi_form_rhs"] - report.lhs)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed < 300.0
    _report(4, ok, f"200 problems x 4 algorithms, worst slack {worst:.3e}, "
                   f"{elapsed:.0f}s")


def test_criterion_05_data_ignoring_zero_cases():
    gen = np.random.default_rng(SUITE_SEED + 1)
    worst = 0.0
    for i in range(20):
        prob = random_problem(gen)
        row = None if i % 2 == 0 else FiniteMeasure(
            gen.dirichlet(np.ones(prob.num_hypotheses)))
        alg = ignore_algorithm(prob, row=row)
        worst = max(worst,
                    abs(bound_coupling(prob, alg).rhs),
                    abs(bound_wasserstein_geodesic(prob, alg).rhs),
                    abs(bound_cmi(prob, alg).details["cmi"]))
    ok = worst <= 1e-12
    _report(5, ok, f"coupling rhs, transport rhs, and conditional information "
                   f"all vanish for data-ignoring learners, worst {worst:.3e}")


def test_criterion_06_conditional_information_ceiling():
    gen = np.random.default_rng(SUITE_SEED)
    worst = -math.inf
    for _ in range(200):
        prob = random_problem(gen)
        ceiling = prob.n * math.log(2.0)
        for alg in algorithm_family(prob):
            worst = max(worst, bound_cmi(prob, alg).details["cmi"] - ceiling)
    ok = worst <= 1e-12
    _report(6, ok, f"interaction information stays below n log 2, "
                   f"worst excess {worst:.3e}")


def test_criterion_07_tail_bounds_hold():
    start = time.perf_counter()
    gen = np.random.default_rng(SUITE_SEED + 2)
    worst = 0.0
    for _ in range(50):
        prob = random_problem(gen)
        for alg in algorithm_family(prob):
            chain = chain_from_partitions(
                prob, alg, dyadic_partitions(prob.num_hypotheses))
            for delta in (0.05, 0.1, 0.25):
                for rep in (tail_pointwise_check(prob, alg, delta),
                            tail_pac_bayes(prob, alg, delta),
                            tail_transductive(prob, alg, chain, delta)):
                    worst = max(worst, rep.violation - rep.delta)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 300.0
    _report(7, ok, f"exact tail violation never exceeds delta over 50 problems "
                   f"x 4 algorithms x 3 deltas, worst excess {worst:.3e}, "
                   f"{elapsed:.0f}s")


def test_criterion_08_constant_speed_geodesics():
    gen = np.random.default_rng(SUITE_SEED + 3)
    worst = 0.0
    for _ in range(100):
        size = int(gen.integers(2, 7))
        dim = int(gen.integers(1, 4))
        emb = EmbeddedSupport(gen.normal(size=(size, dim)))
        mu = FiniteMeasure(gen.dirichlet(np.ones(size)))
        nu = FiniteMeasure(gen.dirichlet(np.ones(size)))
        inner = np.sort(gen.uniform(0.05, 0.95, size=2))
        times = np.concatenate([[0.0], inner, [1.0]])
        geo = geodesic(mu, nu, emb, times)
        for i in range(len(times)):
            for j in range(i + 1, len(times)):
                a, b = geo.points[i], geo.points[j]
                pooled = EmbeddedSupport(np.vstack([a.support.points,
                                                    b.support.points]))
                cost = euclidean_cost(pooled, pooled)
                wa = FiniteMeasure(np.concatenate(
                    [a.measure.weights, np.zeros(b.measure.support_size)]))
                wb = FiniteMeasure(np.concatenate(
                    [np.zeros(a.measure.support_size), b.measure.weights]))
                d, _ = wasserstein(wa, wb, cost, p=2.0)
                expect = (times[j] - times[i]) * geo.distance
                worst = max(worst, abs(d - expect) / max(1.0, expect))
    ok = worst <= 1e-6
    _report(8, ok, f"interpolant distances scale linearly in time on 100 "
                   f"instances, worst relative error {worst:.3e}")


def test_criterion_09_expected_supremum_bound():
    start = time.perf_counter()
    gen = np.random.default_rng(SUITE_SEED + 4)
    mc_ok = opt_ok = True
    for _ in range(50):
        size = int(gen.integers(2, 17))
        dim = int(gen.integers(1, 4))
        pts = gen.normal(size=(size, dim)) * gen.uniform(0.5, 2.0)
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        space = FiniteMetricSpace(dist)
        proc = gaussian_from_metric(space)
        uniform = FiniteMeasure.uniform(size)
        bound = ft_sup_bound(uniform, space, 2.0)
        est, stderr = expected_sup_mc(proc, space, Selector("argmax"),
                                      10**5, int(gen.integers(2**31)))
        mc_ok = mc_ok and est <= bound + 4.0 * stderr
        _, val = optimize_mu(uniform, space, 2.0, method="eg", iters=60)
        opt_ok = opt_ok and val <= ft_bound(uniform, uniform, space, 2.0) + 1e-9
    elapsed = time.perf_counter() - start
    ok = mc_ok and opt_ok and elapsed < 120.0
    _report(9, ok, f"MC supremum stays below the chaining bound on 50 spaces "
                   f"and tuning never loses to uniform, {elapsed:.0f}s")


def test_criterion_10_byte_identical_runs(tmp_path):
    import json

    gen = np.random.default_rng(SUITE_SEED + 5)
    prob = random_problem(gen)
    entry = json.loads(prob.to_json())
    entry["algorithm"] = {"kind": "gibbs", "beta": 1.0}
    cfg_b = tmp_path / "problems.json"
    cfg_b.write_text(json.dumps({"problems": [entry]}))
    cfg_f = tmp_path / "spaces.json"
    cfg_f.write_text(json.dumps({"dist": [[0.0, 2.0], [2.0, 0.0]]}))

    # bounds ignores --mc-samples and --workers: both runs print the exact rows
    exact = tmp_path / "bounds_exact.csv"
    assert cli.main(["bounds", "--config", str(cfg_b), "--bounds", "thm1,mi,cmi",
                     "--seed", "12", "--out", str(exact)]) == 0
    outs = []
    for tag, workers in (("a", "1"), ("b", "8")):
        out_b = tmp_path / f"bounds_{tag}.csv"
        out_f = tmp_path / f"ft_{tag}.csv"
        assert cli.main(["bounds", "--config", str(cfg_b), "--bounds",
                         "thm1,mi,cmi", "--mc-samples", "20000", "--seed", "12",
                         "--workers", workers, "--out", str(out_b)]) == 0
        assert cli.main(["ft", "--config", str(cfg_f), "--mc-samples", "50000",
                         "--seed", "12", "--workers", workers,
                         "--out", str(out_f)]) == 0
        outs.append((out_b.read_bytes(), out_f.read_bytes()))
    ok = outs[0] == outs[1] and outs[0][0] == exact.read_bytes()
    _report(10, ok, "1-worker and 8-worker runs emit byte-identical reports")
