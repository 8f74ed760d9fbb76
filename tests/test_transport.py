import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from scipy.optimize import linprog
from scipy.sparse import csr_array

from genbound import (ConfigurationError, DomainError, EmbeddedSupport, FiniteMeasure,
                      TransportPlan, consecutive_couplings,
                      displacement_interpolation, euclidean_cost, geodesic, mc,
                      run_transport_suite, transport, verify,
                      wasserstein, wasserstein_batch)
from genbound.transport import LP_COST_CAP, PLAN_MARGINAL_TOL

from conftest import src_env


def line(*xs) -> EmbeddedSupport:
    return EmbeddedSupport(np.asarray(xs, dtype=float)[:, None])


def plan_cost(weights: np.ndarray, cost, p: float = 2.0) -> float:
    """(sum of plan mass times cost^p)^(1/p), the W_p cost of a plan."""
    return float((weights * cost.entries**p).sum()) ** (1.0 / p)


def test_identity_distance_zero_diagonal_plan():
    emb = line(0.0, 1.0, 3.0)
    cost = euclidean_cost(emb, emb)
    mu = FiniteMeasure([0.2, 0.5, 0.3])
    d, plan = wasserstein(mu, mu, cost, p=2.0)
    assert abs(d) < 1e-9
    off = plan.weights[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 1e-9


def test_point_masses_give_ground_distance():
    a, b = line(0.0), line(2.5)
    cost = euclidean_cost(a, b)
    for p in (1.0, 2.0):
        d, plan = wasserstein(FiniteMeasure([1.0]), FiniteMeasure([1.0]), cost, p)
        assert abs(d - 2.5) < 1e-12
        assert plan.weights.shape == (1, 1)


def test_half_mass_to_dirac():
    # uniform on {0, 1} to delta_0 at p = 2: cost^2 = 0.5, distance sqrt(0.5)
    src = line(0.0, 1.0)
    dst = line(0.0)
    d, _ = wasserstein(FiniteMeasure([0.5, 0.5]), FiniteMeasure([1.0]),
                       euclidean_cost(src, dst), p=2.0)
    assert abs(d - math.sqrt(0.5)) < 1e-9


def test_plan_marginals_and_cost_consistency():
    gen = np.random.default_rng(2)
    emb = EmbeddedSupport(gen.normal(size=(5, 2)))
    cost = euclidean_cost(emb, emb)
    mu = FiniteMeasure(gen.dirichlet(np.ones(5)))
    nu = FiniteMeasure(gen.dirichlet(np.ones(5)))
    d, plan = wasserstein(mu, nu, cost, p=2.0)
    assert np.abs(plan.weights.sum(axis=1) - mu.weights).max() < 1e-9
    assert np.abs(plan.weights.sum(axis=0) - nu.weights).max() < 1e-9
    assert abs(plan_cost(plan.weights, cost) - d) < 1e-9
    # any feasible plan costs at least as much; the product plan is feasible
    assert plan_cost(np.outer(mu.weights, nu.weights), cost) >= d - 1e-9


def test_geodesic_displacement_two_diracs():
    emb = line(0.0, 1.0)
    geo = geodesic(FiniteMeasure([1.0, 0.0]), FiniteMeasure([0.0, 1.0]),
                   emb, np.array([0.0, 0.5, 1.0]))
    mid = geo.points[1]
    assert mid.measure.support_size == 1
    assert np.allclose(mid.support.points, [[0.5]])
    assert abs(geo.distance - 1.0) < 1e-9


def test_geodesic_endpoints_are_exact():
    gen = np.random.default_rng(7)
    emb = EmbeddedSupport(gen.normal(size=(4, 2)))
    mu = FiniteMeasure(gen.dirichlet(np.ones(4)))
    nu = FiniteMeasure(gen.dirichlet(np.ones(4)))
    geo = geodesic(mu, nu, emb, np.array([0.0, 0.3, 1.0]))
    start, end = geo.points[0], geo.points[-1]

    def as_dict(point):
        return {tuple(np.round(p, 9)): m
                for p, m in zip(point.support.points, point.measure.weights)}

    src = {tuple(np.round(p, 9)): w for p, w in zip(emb.points, mu.weights) if w > 0}
    dst = {tuple(np.round(p, 9)): w for p, w in zip(emb.points, nu.weights) if w > 0}
    got_src = {k: v for k, v in as_dict(start).items() if v > 0}
    got_dst = {k: v for k, v in as_dict(end).items() if v > 0}
    assert set(got_src) == set(src)
    assert all(abs(got_src[k] - src[k]) < 1e-9 for k in src)
    assert set(got_dst) == set(dst)
    assert all(abs(got_dst[k] - dst[k]) < 1e-9 for k in dst)


def test_geodesic_half_mass_interpolant():
    # uniform{0,1} -> delta_0 at t = 0.5: half stays at 0, half sits at 0.5
    emb = line(0.0, 1.0)
    nu = FiniteMeasure([1.0, 0.0])
    geo = geodesic(FiniteMeasure([0.5, 0.5]), nu, emb, np.array([0.0, 0.5, 1.0]))
    mid = geo.points[1]
    atoms = {float(p[0]): m for p, m in zip(mid.support.points, mid.measure.weights)}
    assert abs(atoms[0.0] - 0.5) < 1e-12
    assert abs(atoms[0.5] - 0.5) < 1e-12
    # and W2(rho_{1/2}, mu) = 0.5 * W2(mu, nu) = 0.5 sqrt(0.5)
    pooled = EmbeddedSupport(np.vstack([emb.points, mid.support.points]))
    cost = euclidean_cost(pooled, pooled)
    wa = FiniteMeasure(np.concatenate([[0.5, 0.5], np.zeros(mid.measure.support_size)]))
    wb = FiniteMeasure(np.concatenate([np.zeros(2), mid.measure.weights]))
    d, _ = wasserstein(wa, wb, cost, p=2.0)
    assert abs(d - 0.5 * math.sqrt(0.5)) < 1e-8


def test_geodesic_times_validation():
    emb = line(0.0, 1.0)
    mu, nu = FiniteMeasure([1.0, 0.0]), FiniteMeasure([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        geodesic(mu, nu, emb, np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ConfigurationError):
        geodesic(mu, nu, emb, np.array([0.1, 1.0]))
    with pytest.raises(ConfigurationError):
        geodesic(mu, nu, emb, np.array([0.0, 0.9]))


def test_consecutive_couplings_two_diracs():
    emb = line(0.0, 1.0)
    geo = geodesic(FiniteMeasure([1.0, 0.0]), FiniteMeasure([0.0, 1.0]),
                   emb, np.linspace(0.0, 1.0, 4))
    plans = consecutive_couplings(geo)
    assert len(plans) == 3
    for plan in plans:
        assert plan.weights.size == 1
        assert abs(plan.weights.sum() - 1.0) < 1e-12


def test_consecutive_couplings_single_step_recovers_plan():
    gen = np.random.default_rng(9)
    emb = EmbeddedSupport(gen.normal(size=(3, 2)))
    mu = FiniteMeasure(gen.dirichlet(np.ones(3)))
    nu = FiniteMeasure(gen.dirichlet(np.ones(3)))
    geo = geodesic(mu, nu, emb, np.array([0.0, 1.0]))
    (step,) = consecutive_couplings(geo)
    # atoms may be merged or reordered; compare total mass moved per squared cost
    orig = geo.plan
    cost_orig = plan_cost(orig.weights, euclidean_cost(emb, emb))
    c2 = euclidean_cost(geo.points[0].support, geo.points[1].support)
    assert abs(plan_cost(step.weights, c2) - cost_orig) < 1e-9


def test_consecutive_couplings_constant_speed_costs():
    gen = np.random.default_rng(10)
    emb = EmbeddedSupport(gen.normal(size=(3, 2)))
    mu = FiniteMeasure(gen.dirichlet(np.ones(3)))
    nu = FiniteMeasure(gen.dirichlet(np.ones(3)))
    times = np.linspace(0.0, 1.0, 5)
    geo = geodesic(mu, nu, emb, times)
    plans = consecutive_couplings(geo)
    for k, plan in enumerate(plans):
        c = euclidean_cost(geo.points[k].support, geo.points[k + 1].support)
        expect = (times[k + 1] - times[k]) * geo.distance
        assert abs(plan_cost(plan.weights, c) - expect) < 1e-8


def test_plan_clips_lp_round_off_and_rejects_real_negative_mass():
    mu, nu = FiniteMeasure([0.5, 0.5]), FiniteMeasure([0.5, 0.5])
    off = 0.5 * PLAN_MARGINAL_TOL
    plan = TransportPlan([[0.5 + off, -off], [-off, 0.5 + off]], mu, nu)
    assert plan.weights.min() == 0.0
    with pytest.raises(ConfigurationError):
        TransportPlan([[0.5, 0.0], [-1e-6, 0.5]], mu, nu)


def test_transport_suite_seed_with_negative_lp_round_off():
    # HiGHS returns a plan entry of -6.7e-11 here, inside its own 1e-10
    # feasibility tolerance; the plan must accept and clip it.
    result = run_transport_suite(4, 384069)
    assert result.passed
    assert result.max_violation < 1e-9


def test_displacement_interpolation_of_the_lp_plan_is_the_geodesic():
    gen = np.random.default_rng(4)
    emb = EmbeddedSupport(gen.normal(size=(4, 2)))
    mu = FiniteMeasure(gen.dirichlet(np.ones(4)))
    nu = FiniteMeasure(gen.dirichlet(np.ones(4)))
    times = np.array([0.0, 0.5, 1.0])
    dist, plan = wasserstein(mu, nu, euclidean_cost(emb, emb), p=2.0)
    geo = displacement_interpolation(plan, dist, emb, times)
    ref = geodesic(mu, nu, emb, times)
    assert geo.distance == ref.distance == dist
    for a, b in zip(geo.points, ref.points):
        assert np.array_equal(a.measure.weights, b.measure.weights)
        assert np.array_equal(a.support.points, b.support.points)
    with pytest.raises(ConfigurationError):
        displacement_interpolation(plan, dist, line(0.0, 1.0), times)


def dense_wasserstein(mu, nu, cost, p):
    """Reference: one LP per pair with a dense A_eq, the redundant last column
    constraint dropped; the distance is the solver's objective to the 1/p."""
    m, n = mu.support_size, nu.support_size
    a_eq = np.zeros((m + n - 1, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n - 1):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights[:-1]])
    res = linprog((cost.entries**p).ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return float(res.fun) ** (1.0 / p)


def mixed_batch(gen, count):
    """Pairs of unequal sizes, 1-atom measures and zero-mass atoms included."""
    pairs = []
    for k in range(count):
        m, n = (1, 1) if k == 0 else (int(gen.integers(1, 7)), int(gen.integers(1, 7)))
        dim = int(gen.integers(1, 4))
        a = EmbeddedSupport(gen.normal(size=(m, dim)))
        b = EmbeddedSupport(gen.normal(size=(n, dim)))
        wa, wb = gen.dirichlet(np.ones(m)), gen.dirichlet(np.ones(n))
        if m > 1 and k % 3 == 0:
            wa[gen.integers(0, m)] = 0.0
        if n > 1 and k % 4 == 1:
            wb[gen.integers(0, n)] = 0.0
        pairs.append((FiniteMeasure(wa / wa.sum()), FiniteMeasure(wb / wb.sum()),
                      euclidean_cost(a, b)))
    return pairs


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_wasserstein_batch_matches_one_dense_lp_per_pair(p):
    pairs = mixed_batch(np.random.default_rng(int(10 * p)), 40)
    solved = wasserstein_batch(pairs, p)
    assert len(solved) == len(pairs)
    for (mu, nu, cost), (d, plan) in zip(pairs, solved):
        assert abs(d - dense_wasserstein(mu, nu, cost, p)) <= 1e-12
        assert plan.weights.shape == cost.entries.shape
        assert np.abs(plan.weights.sum(axis=1) - mu.weights).max() <= PLAN_MARGINAL_TOL
        assert np.abs(plan.weights.sum(axis=0) - nu.weights).max() <= PLAN_MARGINAL_TOL
        assert wasserstein(mu, nu, cost, p)[0] == pytest.approx(d, abs=1e-12)


def test_wasserstein_batch_splits_large_batches(monkeypatch):
    pairs = mixed_batch(np.random.default_rng(5), 30)
    whole = wasserstein_batch(pairs, 2.0)
    calls = []
    linprog_ = transport.linprog

    def counted(c, *args, **kwargs):
        calls.append(len(c))
        return linprog_(c, *args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counted)
    monkeypatch.setattr(transport, "LP_CHUNK_VARS", 64)
    split = wasserstein_batch(pairs, 2.0)
    assert len(calls) > 1 and sum(calls) == sum(c.entries.size for _, _, c in pairs)
    assert max(calls) <= 64
    for (d1, _), (d2, _) in zip(whole, split):
        assert abs(d1 - d2) <= 1e-12
    calls.clear()
    assert wasserstein_batch([], 2.0) == [] and calls == []


def scipy_linprog_blocks(pairs, p, presolve=True):
    """Reference: the block LP of `pairs` as scipy.optimize.linprog solved it
    before HiGHS was called directly, from a CSR matrix with the same rows."""
    costs, rows, cols, b_eq = [], [], [], []
    row0 = col0 = 0
    for mu, nu, cost in pairs:
        m, n = mu.support_size, nu.support_size
        var = np.arange(m * n)
        i, j = np.divmod(var, n)
        keep = j < n - 1
        rows += [row0 + i, row0 + m + j[keep]]
        cols += [col0 + var, col0 + var[keep]]
        costs.append((cost.entries**p).ravel())
        b_eq += [mu.weights, nu.weights[:-1]]
        row0 += m + n - 1
        col0 += m * n
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    a_eq = csr_array((np.ones(rows.size), (rows, cols)), shape=(row0, col0))
    return linprog(np.concatenate(costs), A_eq=a_eq, b_eq=np.concatenate(b_eq), bounds=(0.0, None),
                   method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                            "dual_feasibility_tolerance": 1e-10,
                                            "presolve": presolve})


def zero_mass_batch(gen, count):
    """Pairs with a zero-mass atom in both marginals."""
    pairs = []
    for _ in range(count):
        m, n = int(gen.integers(2, 7)), int(gen.integers(2, 7))
        a, b = EmbeddedSupport(gen.normal(size=(m, 2))), EmbeddedSupport(gen.normal(size=(n, 2)))
        wa, wb = gen.dirichlet(np.ones(m)), gen.dirichlet(np.ones(n))
        wa[gen.integers(0, m)] = wb[gen.integers(0, n)] = 0.0
        pairs.append((FiniteMeasure(wa / wa.sum()), FiniteMeasure(wb / wb.sum()),
                      euclidean_cost(a, b)))
    return pairs


def tied_batch(gen, count):
    """Pairs on embeddings with repeated points, so the optimum has ties."""
    pairs = []
    for _ in range(count):
        k = int(gen.integers(2, 5))
        emb = EmbeddedSupport(gen.normal(size=(k, 2))[gen.integers(0, k, size=k + 2)])
        pairs.append((FiniteMeasure(gen.dirichlet(np.ones(k + 2))),
                      FiniteMeasure(gen.dirichlet(np.ones(k + 2))), euclidean_cost(emb, emb)))
    return pairs


@pytest.mark.parametrize("batch, p, chunk", [
    (mixed_batch, 1.0, None), (mixed_batch, 2.0, None), (zero_mass_batch, 1.0, None),
    (zero_mass_batch, 2.0, None), (tied_batch, 1.0, None), (tied_batch, 2.0, None),
    (mixed_batch, 2.0, 64)])
def test_direct_highs_call_matches_scipy_linprog_bit_for_bit(monkeypatch, batch, p, chunk):
    pairs = batch(np.random.default_rng(7), 30)
    if chunk is not None:
        monkeypatch.setattr(transport, "LP_CHUNK_VARS", chunk)
    blocks, results = [], []
    solve_blocks, linprog_ = transport._solve_blocks, transport.linprog
    monkeypatch.setattr(transport, "_solve_blocks",
                        lambda chunk_pairs, q: blocks.append(chunk_pairs) or solve_blocks(chunk_pairs, q))
    monkeypatch.setattr(transport, "linprog", lambda *args: results.append(linprog_(*args)) or results[-1])
    wasserstein_batch(pairs, p)
    assert len(results) == len(blocks) and (chunk is None) == (len(blocks) == 1)
    for chunk_pairs, res in zip(blocks, results):
        ref = scipy_linprog_blocks(chunk_pairs, p, presolve=False)
        assert res.success and ref.success
        assert np.array_equal(res.x, ref.x) and res.nit == ref.nit


def test_an_lp_that_presolve_calls_infeasible_is_solved_without_presolve():
    # a Gibbs posterior row (m=2, n=10, N=88, beta 5) had 49 atoms below 1e-10, and
    # presolve declared its W_2 LP infeasible: bounds --bounds coupling,wass crashed
    emb = EmbeddedSupport(np.sqrt(6) * np.array([
        [0.11667603767547563, 0.05677287133168574], [0.23049780280524468, 0.014942682598072299],
        [0.9983731454249419, 0.33122182658156085], [0.21212881272861428, 0.6737268697269871],
        [0.7227387011296027, 0.8761564879385845]]))
    mu = FiniteMeasure([0.5605192995441535, 0.4394807003316581, 6.809879113023898e-11,
                        5.608946145114988e-11, 2.2159660392311448e-17])
    nu = FiniteMeasure([0.6411421915315197, 0.3588571441718008, 1.1049213209500618e-09,
                        6.631917579347026e-07, 2.5834780505033095e-16])
    cost = euclidean_cost(emb, emb)
    assert not scipy_linprog_blocks([(mu, nu, cost)], 2.0).success
    ref = scipy_linprog_blocks([(mu, nu, cost)], 2.0, presolve=False)
    assert ref.success
    dist, plan = wasserstein(mu, nu, cost, 2.0)
    assert dist == max(float((cost.entries**2).ravel() @ ref.x), 0.0) ** 0.5
    assert np.array_equal(plan.weights, np.clip(ref.x, 0.0, None).reshape(5, 5))


def test_the_private_highs_names_the_solver_uses_exist():
    # transport.linprog passes these by hand; a scipy that moves them fails here
    highs = transport._highs()
    for name in ("_Highs", "HighsOptions", "kHighsInf"):
        assert hasattr(highs, name), name
    assert hasattr(highs.MatrixFormat, "kColwise") and hasattr(highs.ObjSense, "kMinimize")
    assert hasattr(highs.HighsModelStatus, "kOptimal")


# Run in a fresh interpreter with argv[1] "genbound first" or "scipy first":
# solves one W_2 LP through genbound and the same LP through
# scipy.optimize.linprog(method="highs"), in that order or the other, and
# prints the genbound plans, scipy's optimum, and whether genbound's HiGHS
# module is the one scipy.optimize imported.
HIGHS_ORDER_PROBE = """
import json, sys
import numpy as np
from genbound import EmbeddedSupport, FiniteMeasure, euclidean_cost, transport, wasserstein
mu, nu = FiniteMeasure([0.2, 0.5, 0.3, 0.0]), FiniteMeasure([0.1, 0.1, 0.4, 0.4])
cost = euclidean_cost(EmbeddedSupport([0.0, 1.0, 3.0, 4.5]), EmbeddedSupport([0.5, 2.0, 2.5, 6.0]))
def genbound_plan():
    dist, plan = wasserstein(mu, nu, cost, p=2.0)
    return [dist, plan.weights.tobytes().hex()]
def scipy_optimum():
    import scipy.optimize
    a_eq = np.vstack([np.kron(np.eye(4), np.ones(4)), np.kron(np.ones(4), np.eye(4))])
    res = scipy.optimize.linprog((cost.entries**2).ravel(), A_eq=a_eq,
                                 b_eq=np.concatenate([mu.weights, nu.weights]),
                                 bounds=(0.0, None), method="highs")
    return [bool(res.success), float(res.fun)]
seen = {}
if sys.argv[1] == "scipy first":
    seen["scipy"] = scipy_optimum()
seen["genbound"] = genbound_plan()
seen["scipy.optimize after genbound"] = "scipy.optimize" in sys.modules
if sys.argv[1] == "genbound first":
    seen["scipy"] = scipy_optimum()
    seen["genbound again"] = genbound_plan()
from scipy.optimize._highspy import _core
seen["one module"] = transport._highs() is _core
print(json.dumps(seen))
"""


def highs_order_probe(order: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", HIGHS_ORDER_PROBE, order], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_a_genbound_lp_then_scipy_linprog_share_one_highs():
    seen = highs_order_probe("genbound first")
    assert seen["scipy.optimize after genbound"] is False
    success, optimum = seen["scipy"]
    assert success and optimum == pytest.approx(seen["genbound"][0] ** 2, rel=1e-12)
    assert seen["genbound again"] == seen["genbound"]
    assert seen["one module"] is True


def test_genbound_after_scipy_optimize_uses_its_highs_module():
    seen = highs_order_probe("scipy first")
    assert seen["scipy"][0] and seen["one module"] is True
    assert seen["genbound"] == highs_order_probe("genbound first")["genbound"]


def test_two_point_w2_just_below_the_cost_cap_is_exact():
    # half the mass travels d with d^2 just below LP_COST_CAP: W_2 = d / sqrt(2)
    d = 0.999e9
    assert d**2 < LP_COST_CAP
    dist, plan = wasserstein(FiniteMeasure([0.5, 0.5]), FiniteMeasure([0.0, 1.0]),
                             euclidean_cost(line(0.0, d), line(0.0, d)), p=2.0)
    assert dist == pytest.approx(d * math.sqrt(0.5), rel=1e-15)
    assert np.array_equal(plan.weights, [[0.0, 0.5], [0.0, 0.5]])


@pytest.mark.parametrize("d, p", [(1e9, 2.0), (1e18, 1.0), (1e150, 2.0), (1e150, 3.0)])
def test_lp_costs_at_the_cap_are_refused_before_the_solve(monkeypatch, d, p):
    # HiGHS reads a cost of 1e20 or more as infinite and fails the solve;
    # 1e150 ** 3 overflows to inf
    monkeypatch.setattr(transport, "linprog", None)
    cost = euclidean_cost(line(0.0, d), line(0.0, d))
    with pytest.raises(DomainError, match="LP_COST_CAP"):
        wasserstein(FiniteMeasure([0.5, 0.5]), FiniteMeasure([0.0, 1.0]), cost, p)


def per_lp_transport_suite(trials, seed, tol=1e-6):
    """Reference: the transport suite with one LP per wasserstein call, each
    trial's checks made as soon as its LPs are solved."""
    gen = mc.substream(seed, 3)
    worst = verify._Worst()
    for i in range(trials):
        size = int(gen.integers(2, 7))
        dim = int(gen.integers(1, 4))
        emb = EmbeddedSupport(gen.normal(0.0, 1.0, size=(size, dim)))
        cost = euclidean_cost(emb, emb)
        mu = FiniteMeasure(verify._random_weights(gen, size))
        nu = FiniteMeasure(verify._random_weights(gen, size))
        kappa = FiniteMeasure(verify._random_weights(gen, size))
        p = float(gen.choice((1.0, 2.0)))
        case = {"trial": i, "p": p, "points": emb.points.tolist(),
                "mu": mu.weights.tolist(), "nu": nu.weights.tolist()}

        d_self, _ = wasserstein(mu, mu, cost, p)
        worst.update(abs(d_self), {**case, "side": "identity"})
        d_uv, plan = wasserstein(mu, nu, cost, p)
        d_vu, _ = wasserstein(nu, mu, cost, p)
        worst.update(abs(d_uv - d_vu), {**case, "side": "symmetry"})
        d_uk, _ = wasserstein(mu, kappa, cost, p)
        d_kv, _ = wasserstein(kappa, nu, cost, p)
        worst.update(d_uv - (d_uk + d_kv), {**case, "side": "triangle"})
        worst.update(np.abs(plan.weights.sum(axis=1) - mu.weights).max(),
                     {**case, "side": "marginal_src"})
        worst.update(np.abs(plan.weights.sum(axis=0) - nu.weights).max(),
                     {**case, "side": "marginal_dst"})

        times = np.linspace(0.0, 1.0, int(gen.integers(3, 6)))
        geo = geodesic(mu, nu, emb, times)
        for a in range(len(times)):
            for b in range(a + 1, len(times)):
                pa, pb = geo.points[a], geo.points[b]
                d_ab, _ = wasserstein(pa.measure, pb.measure,
                                      euclidean_cost(pa.support, pb.support), 2.0)
                target = (times[b] - times[a]) * geo.distance
                rel = abs(d_ab - target) / max(1.0, geo.distance)
                worst.update(rel, {**case, "side": "constant_speed",
                                   "pair": [float(times[a]), float(times[b])]})
    return worst.result("transport", trials, tol)


@pytest.mark.parametrize("seed", list(range(32)) + [384069])
def test_batched_transport_suite_matches_the_per_lp_suite(seed):
    got, want = run_transport_suite(4, seed), per_lp_transport_suite(4, seed)
    assert got.passed == want.passed
    assert got.checks == want.checks
    assert got.worst_case_input == want.worst_case_input
    assert abs(got.max_violation - want.max_violation) <= 1e-12


def pooled_segment_lp(pa, pb):
    """The W_2 LP between two geodesic points posed on their pooled support:
    pa's atoms then pb's, each measure zero on the other's atoms."""
    big = EmbeddedSupport(np.vstack([pa.support.points, pb.support.points]))
    wa = np.concatenate([pa.measure.weights, np.zeros(pb.measure.support_size)])
    wb = np.concatenate([np.zeros(pa.measure.support_size), pb.measure.weights])
    return FiniteMeasure(wa), FiniteMeasure(wb), euclidean_cost(big, big)


def test_segment_lp_on_own_supports_matches_pooled():
    # the pooled LP's extra rows and columns have zero marginals, so it is the
    # own-support LP plus variables forced to zero
    gen = np.random.default_rng(13)
    draws = []
    for _ in range(320):
        size = int(gen.integers(1, 7))
        emb = EmbeddedSupport(gen.normal(size=(size, int(gen.integers(1, 4)))))
        mu, nu = FiniteMeasure(verify._random_weights(gen, size)), FiniteMeasure(verify._random_weights(gen, size))
        draws.append((emb, mu, nu, np.linspace(0.0, 1.0, int(gen.integers(2, 6)))))
    assert sum(np.any(mu.weights == 0.0) for _, mu, _, _ in draws) > 30
    plans = wasserstein_batch([(mu, nu, euclidean_cost(emb, emb))
                               for emb, mu, nu, _ in draws], 2.0)
    own, pooled = [], []
    for (emb, _, _, times), (dist, plan) in zip(draws, plans):
        geo = displacement_interpolation(plan, dist, emb, times)
        for pa, pb in itertools.combinations(geo.points, 2):
            own.append((pa.measure, pb.measure, euclidean_cost(pa.support, pb.support)))
            pooled.append(pooled_segment_lp(pa, pb))
    assert len(own) > 1000
    for (d_own, _), (d_pooled, _) in zip(wasserstein_batch(own, 2.0),
                                         wasserstein_batch(pooled, 2.0)):
        assert abs(d_own - d_pooled) <= 1e-12


@pytest.mark.parametrize("x, p", [(0.5, math.inf), (3.0, math.inf), (0.5, math.nan)])
def test_wasserstein_rejects_a_non_finite_p(x, p):
    # p = inf returned 1.0 at distance 0.5, because (c^p)^(1/p) became x^0;
    # at distance 3, and at p = nan, scipy refused the cost vector instead
    dirac = FiniteMeasure([1.0])
    with pytest.raises(DomainError, match="finite p >= 1"):
        wasserstein(dirac, dirac, euclidean_cost(line(0.0), line(x)), p)
