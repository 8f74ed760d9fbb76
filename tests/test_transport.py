import math

import numpy as np
import pytest

from genbound import (ConfigurationError, EmbeddedSupport, FiniteMeasure,
                      TransportPlan, consecutive_couplings, diagonal_plan,
                      displacement_interpolation, euclidean_cost, geodesic,
                      product_plan, run_transport_suite, wasserstein)
from genbound.transport import PLAN_MARGINAL_TOL


def line(*xs) -> EmbeddedSupport:
    return EmbeddedSupport(np.asarray(xs, dtype=float)[:, None])


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
    assert abs(plan.cost(cost, 2.0) - d) < 1e-9
    # any feasible plan costs at least as much; the product plan is feasible
    assert product_plan(mu, nu).cost(cost, 2.0) >= d - 1e-9


def test_diagonal_plan_shape():
    mu = FiniteMeasure([0.3, 0.7])
    plan = diagonal_plan(mu)
    assert np.allclose(plan.weights, np.diag(mu.weights))


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
    plans = consecutive_couplings(geo, geo.plan)
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
    (step,) = consecutive_couplings(geo, geo.plan)
    # atoms may be merged or reordered; compare total mass moved per squared cost
    orig = geo.plan
    cost_orig = orig.cost(euclidean_cost(emb, emb), 2.0)
    c2 = euclidean_cost(geo.points[0].support, geo.points[1].support)
    assert abs(step.cost(c2, 2.0) - cost_orig) < 1e-9


def test_consecutive_couplings_constant_speed_costs():
    gen = np.random.default_rng(10)
    emb = EmbeddedSupport(gen.normal(size=(3, 2)))
    mu = FiniteMeasure(gen.dirichlet(np.ones(3)))
    nu = FiniteMeasure(gen.dirichlet(np.ones(3)))
    times = np.linspace(0.0, 1.0, 5)
    geo = geodesic(mu, nu, emb, times)
    plans = consecutive_couplings(geo, geo.plan)
    for k, plan in enumerate(plans):
        c = euclidean_cost(geo.points[k].support, geo.points[k + 1].support)
        expect = (times[k + 1] - times[k]) * geo.distance
        assert abs(plan.cost(c, 2.0) - expect) < 1e-8


def test_consecutive_couplings_rejects_foreign_plan():
    emb = line(0.0, 1.0)
    mu, nu = FiniteMeasure([0.5, 0.5]), FiniteMeasure([0.2, 0.8])
    geo = geodesic(mu, nu, emb, np.array([0.0, 0.5, 1.0]))
    foreign = product_plan(mu, nu)
    with pytest.raises(ConfigurationError):
        consecutive_couplings(geo, foreign)


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
