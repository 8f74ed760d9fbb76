import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from genbound import (ConfigurationError, DomainError, FiniteMeasure, FiniteMetricSpace,
                      InvalidProcessError, MarkovKernel, Selector,
                      UnsupportedGeometryError, ball_mass, expected_sup_mc,
                      ft_bound, ft_sup_bound, gaussian_from_metric,
                      gaussian_process, majorizing_integral, optimize_mu,
                      process_from_json, tabulated_process)
from genbound import errors, mc
from genbound.orlicz import psi
from genbound.suprema import INCREMENT_TOL, _integral_gradient

VAR_RATIO = 3.0 / 8.0


def two_point(d=1.0):
    return FiniteMetricSpace([[0.0, d], [d, 0.0]])


def line_space(*coords):
    c = np.asarray(coords, dtype=float)
    return FiniteMetricSpace(np.abs(c[:, None] - c[None, :]))


def plane_space(size, seed, dim=2):
    pts = np.random.default_rng(seed).normal(size=(size, dim))
    return FiniteMetricSpace(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2)))


def c4_cycle():
    return FiniteMetricSpace([[0, 1, 2, 1], [1, 0, 1, 2],
                              [2, 1, 0, 1], [1, 2, 1, 0]])


def safe_tabulated(space):
    # two mirrored paths whose increments sit well inside the psi_2 budget
    coords = space.dist[0]
    centered = 0.3 * (coords - coords.mean()) / max(space.diam, 1.0)
    paths = np.vstack([centered, -centered])
    return tabulated_process(space, paths, np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# metric space and ball masses
# ---------------------------------------------------------------------------

def test_metric_space_validation():
    with pytest.raises(ConfigurationError):
        FiniteMetricSpace([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ConfigurationError):
        FiniteMetricSpace([[0.5, 1.0], [1.0, 0.0]])  # nonzero diagonal
    with pytest.raises(ConfigurationError):
        FiniteMetricSpace([[0.0, -1.0], [-1.0, 0.0]])  # negative
    with pytest.raises(ConfigurationError):
        FiniteMetricSpace([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0],
                           [3.0, 1.0, 0.0]])  # triangle fails
    space = line_space(0.0, 1.0, 3.0)
    assert space.size == 3
    assert space.diam == 3.0


def test_ball_mass_edges_and_scan():
    space = line_space(0.0, 1.0, 2.0, 5.0)
    mu = FiniteMeasure([0.25, 0.25, 0.25, 0.25])
    assert ball_mass(mu, space, 0, 0.0) == 0.25
    assert ball_mass(mu, space, 0, space.diam) == 1.0
    gen = np.random.default_rng(1)
    w = FiniteMeasure(gen.dirichlet(np.ones(4)))
    for t in range(4):
        for eps in (0.0, 0.5, 1.0, 2.0, 4.9, 5.0):
            expect = w.weights[space.dist[t] <= eps].sum()
            assert abs(ball_mass(w, space, t, eps) - expect) < 1e-12


# ---------------------------------------------------------------------------
# majorizing measure integral and the chaining bound
# ---------------------------------------------------------------------------

def test_integral_single_point_is_zero():
    one = FiniteMetricSpace([[0.0]])
    assert majorizing_integral(FiniteMeasure([1.0]), FiniteMeasure([1.0]),
                               one, 2.0) == 0.0


def test_integral_two_point_closed_form():
    space = two_point()
    mu = nu = FiniteMeasure([0.5, 0.5])
    for p in (1.0, 1.5, 2.0, 3.0):
        # ball around either center holds mass 1/2 until radius 1
        assert abs(majorizing_integral(mu, nu, space, p)
                   - math.log(2.0) ** (1.0 / p)) < 1e-12


def test_integral_homogeneity():
    gen = np.random.default_rng(2)
    base = np.sort(gen.random(5)) * 3
    mu = FiniteMeasure(gen.dirichlet(np.ones(5)))
    nu = FiniteMeasure(gen.dirichlet(np.ones(5)))
    for a in (0.5, 2.0, 7.0):
        i1 = majorizing_integral(mu, nu, line_space(*base), 2.0)
        i2 = majorizing_integral(mu, nu, line_space(*(a * base)), 2.0)
        assert abs(i2 - a * i1) <= 1e-9 * max(1.0, abs(i2))


def test_integral_grows_when_mass_shrinks():
    space = line_space(0.0, 1.0, 2.5)
    nu = FiniteMeasure([1 / 3] * 3)
    full = np.array([0.2, 0.5, 0.3])
    fat = majorizing_integral(FiniteMeasure(full), nu, space, 2.0)
    thin = majorizing_integral(0.7 * full, nu, space, 2.0)
    assert math.isfinite(fat)
    assert thin > fat


def test_raw_mu_must_be_a_finite_subprobability():
    space = two_point()
    for bad in ([np.nan, 0.5], [-0.1, 0.5], [0.7, 0.7]):
        with pytest.raises(ConfigurationError):
            majorizing_integral(np.array(bad), FiniteMeasure([0.5, 0.5]), space, 2.0)
        with pytest.raises(ConfigurationError):
            ft_sup_bound(np.array(bad), space, 2.0)


def test_integral_escapes_on_empty_balls():
    space = line_space(0.0, 1.0, 10.0)
    mu = FiniteMeasure([0.0, 0.0, 1.0])
    nu = FiniteMeasure([1.0, 0.0, 0.0])
    assert majorizing_integral(mu, nu, space, 2.0) == math.inf


def test_ft_bound_values():
    one = FiniteMetricSpace([[0.0]])
    assert ft_bound(FiniteMeasure([1.0]), FiniteMeasure([1.0]), one, 2.0) == 0.0
    space = two_point()
    mu = nu = FiniteMeasure([0.5, 0.5])
    frozen = 8.0 * (2.0 + math.sqrt(math.log(2.0)))
    assert abs(ft_bound(mu, nu, space, 2.0) - frozen) < 1e-12
    assert abs(ft_sup_bound(mu, space, 2.0) - frozen) < 1e-12


def test_ft_sup_dominates_every_selector_law():
    gen = np.random.default_rng(3)
    space = line_space(0.0, 0.7, 1.9, 4.0)
    mu = FiniteMeasure(gen.dirichlet(np.ones(4)))
    cap = ft_sup_bound(mu, space, 2.0)
    for _ in range(20):
        nu = FiniteMeasure(gen.dirichlet(np.ones(4)))
        assert ft_bound(mu, nu, space, 2.0) <= cap + 1e-9


# ---------------------------------------------------------------------------
# the shared ball-step table against per-center reference loops
# ---------------------------------------------------------------------------

def reference_integral(w, nu_w, space, p):
    """The per-center loop the step table replaced: sort, cumsum, tie cut."""
    diam = space.diam
    if diam == 0.0:
        return 0.0
    total = 0.0
    for t in np.nonzero(nu_w > 0)[0]:
        order = np.argsort(space.dist[t], kind="stable")
        radii = space.dist[t][order]
        masses = np.cumsum(w[order])
        keep = np.nonzero(np.diff(radii, append=np.inf) > 0)[0]
        radii, masses = radii[keep], masses[keep]
        upper = np.minimum(np.append(radii[1:], diam), diam)
        lengths = np.maximum(upper - np.minimum(radii, diam), 0.0)
        live = lengths > 0
        if np.any(live & (masses <= 0.0)):
            return math.inf
        vals = np.maximum(np.log(1.0 / masses[live]), 0.0) ** (1.0 / p)
        total += float(nu_w[t] * (lengths[live] @ vals))
    return total


def reference_gradient(w, nu_w, space, p):
    grad = np.zeros(space.size)
    for t in np.nonzero(nu_w > 0)[0]:
        order = np.argsort(space.dist[t], kind="stable")
        radii = space.dist[t][order]
        masses = np.cumsum(w[order])
        keep = np.nonzero(np.diff(radii, append=np.inf) > 0)[0]
        radii, masses = radii[keep], masses[keep]
        upper = np.minimum(np.append(radii[1:], space.diam), space.diam)
        lengths = np.maximum(upper - np.minimum(radii, space.diam), 0.0)
        for j, (m, length) in enumerate(zip(masses, lengths)):
            if length == 0.0 or m <= 0.0:
                continue
            log_term = max(np.log(1.0 / m), 1e-12)
            coeff = -nu_w[t] * length * (1.0 / p) * log_term ** (1.0 / p - 1.0) / m
            grad[order[:keep[j] + 1]] += coeff
    return grad


def reference_spaces():
    gen = np.random.default_rng(12)
    for size in (1, 2, 3, 5, 8, 13, 21, 40):
        pts = gen.normal(size=(size, 3)) * gen.uniform(0.2, 5.0)
        yield FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None], axis=2))
        grid = gen.integers(0, 3, size=(size, 2))  # L1 grid: many tied radii
        yield FiniteMetricSpace(np.abs(grid[:, None] - grid[None]).sum(axis=2))
    yield line_space(0.0, 1.0, 2.0, 3.0, 5.0)
    yield line_space(0.0, 1.0, 2.0, 2.0, 7.5)  # two atoms at zero distance
    yield c4_cycle()


def reference_measures(size, gen):
    nu = gen.dirichlet(np.ones(size))
    nu[gen.random(size) < 0.3] = 0.0
    if nu.sum() == 0.0:
        nu[0] = 1.0
    yield FiniteMeasure(gen.dirichlet(np.ones(size))), FiniteMeasure(nu / nu.sum())
    sub = gen.dirichlet(np.ones(size)) * gen.uniform(0.3, 1.0)
    sub[gen.random(size) < 0.4] = 0.0  # subprobability with zero atoms
    yield sub, FiniteMeasure(gen.dirichlet(np.ones(size)))
    yield sub, FiniteMeasure(nu / nu.sum())


def assert_close(got, want):
    if math.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_step_table_matches_the_per_center_loops(p):
    gen = np.random.default_rng(int(10 * p))
    escapes = 0
    for space in reference_spaces():
        for mu, nu in reference_measures(space.size, gen):
            w = mu.weights if isinstance(mu, FiniteMeasure) else mu
            want = reference_integral(w, nu.weights, space, p)
            escapes += math.isinf(want)
            assert_close(majorizing_integral(mu, nu, space, p), want)
            ref_grad = reference_gradient(w, nu.weights, space, p)
            grad = _integral_gradient(w, nu, space, p)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
            worst = max([0.0] + [reference_integral(w, np.eye(space.size)[t], space, p)
                                 for t in range(space.size)])
            assert_close(ft_sup_bound(mu, space, p),
                         2.0 ** (2.0 / p) * 4.0 * (2.0 * space.diam + worst))
    assert escapes > 0  # the +inf escape was exercised


def test_ball_steps_are_cached_and_read_only():
    space = c4_cycle()
    order, lengths = steps = space.ball_steps
    assert space.ball_steps is steps
    assert not order.flags.writeable and not lengths.flags.writeable
    assert order[0].tolist() == [0, 1, 3, 2]
    # radii 0, 1, 1, 2: the tied radius 1 puts its step on the later atom
    assert lengths[0].tolist() == [1.0, 0.0, 1.0, 0.0]


def test_triangle_check_streams_its_slack():
    coords = np.arange(200.0)
    dist = np.abs(coords[:, None] - coords[None, :])
    tracemalloc.start()
    try:
        FiniteMetricSpace(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10**6
    dist[0, 199] = dist[199, 0] = 250.0  # beyond the route through every other point
    with pytest.raises(ConfigurationError):
        FiniteMetricSpace(dist)


# ---------------------------------------------------------------------------
# process constructors
# ---------------------------------------------------------------------------

def test_gaussian_process_validation():
    space = two_point()
    with pytest.raises(InvalidProcessError):
        gaussian_process(space, np.eye(2) * 0.01, p=1.5)
    with pytest.raises(ConfigurationError):
        gaussian_process(space, np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InvalidProcessError):
        # increment variance 2 exceeds (3/8) d^2 = 3/8
        gaussian_process(space, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    proc = gaussian_process(space, np.array([[0.09, -0.09], [-0.09, 0.09]]))
    assert proc.kind == "gaussian"


def verdict(build):
    try:
        build()
        return "ok"
    except (ConfigurationError, InvalidProcessError, UnsupportedGeometryError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_process_verdicts_do_not_move_with_scale():
    # cov scales by s^2 and distances by s: each tolerance is relative to the
    # process's own scale, so no verdict may change. With absolute tolerances an
    # increment variance 5e4 times the limit passed at 1e-16, an indefinite cov
    # passed at 1e-12, and the Gram of a valid metric failed at distances ~ 1e5.
    line = 0.3 * (np.array([0.0, 0.4, 1.0]) - 1.4 / 3)

    def gauss(cov):
        return lambda s, d: gaussian_process(d, s * s * np.array(cov))

    def tab(*paths):
        return lambda s, d: tabulated_process(d, s * np.vstack(paths), [0.5, 0.5])

    cases = [("two_point", gauss([[0.09, -0.09], [-0.09, 0.09]])),
             ("two_point", gauss(np.eye(2))),
             ("two_point", gauss([[1.0, 0.5], [0.5 + 1e-6, 1.0]])),
             ("far_pair", gauss([[1.0, 2.0], [2.0, 1.0]])),
             ("plane", lambda s, d: gaussian_from_metric(d)),
             ("line", tab(line, -line)),
             ("line", tab(line, 1e-7 - line)),
             ("line", tab(5 * line, -5 * line))]
    metrics = {"two_point": two_point().dist, "far_pair": two_point(10.0).dist,
               "plane": plane_space(6, 3).dist, "line": line_space(0.0, 0.4, 1.0).dist}
    want = ["ok", "InvalidProcessError: gaussian_process: psi_2 increment condition fails",
            "ConfigurationError: gaussian_process: covariance must be finite and symmetric",
            "ConfigurationError: gaussian_process: covariance not positive semidefinite",
            "ok", "ok", "InvalidProcessError: tabulated_process: process is not centered",
            "InvalidProcessError: tabulated_process: increment moment"]
    for k in (-150, -10, 0, 10):
        s = 10.0 ** (k / 2)
        for (name, build), expect in zip(cases, want):
            space = FiniteMetricSpace(s * metrics[name])
            assert verdict(lambda: build(s, space)).startswith(expect), (k, name, expect)


def test_gaussian_factor_reproduces_cov_in_its_numerical_rank():
    # eigh's own rounding: on 2000 such spaces the worst error was 3.6 T ulps of max|cov|
    gen = np.random.default_rng(11)
    eps = 8.0 * np.finfo(float).eps
    for _ in range(60):
        size, dim = int(gen.integers(2, 30)), int(gen.integers(1, 5))
        pts = gen.normal(size=(size, dim)) * 10.0 ** gen.uniform(-3, 3)
        space = FiniteMetricSpace(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2)))
        proc = gaussian_from_metric(space)
        assert proc.factor.shape[0] == size and proc.factor.shape[1] <= dim
        err = np.abs(proc.factor @ proc.factor.T - proc.cov).max()
        assert err <= size * eps * np.abs(proc.cov).max()
    # a full-rank covariance keeps all T columns: equilateral points, pair variance 0.2
    size = 6
    space = FiniteMetricSpace(1.0 - np.eye(size))
    cov = 0.1 * np.eye(size) + 0.05 * np.ones((size, size))
    proc = gaussian_process(space, cov)
    assert proc.factor.shape == (size, size)
    assert np.abs(proc.factor @ proc.factor.T - cov).max() <= size * eps * np.abs(cov).max()


def test_tabulated_process_validation():
    space = two_point()
    with pytest.raises(InvalidProcessError):
        tabulated_process(space, np.array([[1.0, 2.0]]), np.array([1.0]))
    with pytest.raises(InvalidProcessError):
        # increment of size 2 against distance 1 blows the moment budget
        tabulated_process(space, np.array([[1.0, -1.0], [-1.0, 1.0]]),
                          np.array([0.5, 0.5]))
    glued = FiniteMetricSpace([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidProcessError):
        tabulated_process(glued, np.array([[0.5, -0.5], [-0.5, 0.5]]),
                          np.array([0.5, 0.5]))
    proc = safe_tabulated(line_space(0.0, 0.4, 1.0))
    assert proc.kind == "tabulated"


def loop_increment_check(space, x, weights, p):
    """Reference: the pair-by-pair increment check, in lexicographic pair order.

    Draws of mass zero are dropped first: kept, an overflowing one made the
    moment 0 * inf = nan, and a nan moment passed the check.
    """
    weights = FiniteMeasure(weights).weights
    x, weights = x[weights > 0], weights[weights > 0]
    for u in range(space.size):
        for v in range(u + 1, space.size):
            gaps = np.abs(x[:, u] - x[:, v])
            d = space.dist[u, v]
            if d == 0.0:
                if gaps[weights > 0].max(initial=0.0) > 0.0:
                    raise InvalidProcessError(
                        "tabulated_process: distinct values at zero distance")
                continue
            moment = float(weights @ psi(gaps / d, p))
            if moment > 1.0 + INCREMENT_TOL:
                raise InvalidProcessError(
                    f"tabulated_process: increment moment {moment} > 1 at pair ({u}, {v})")


def test_tabulated_increment_check_matches_the_pair_loop(monkeypatch):
    monkeypatch.setattr(errors, "BLOCK_BYTES", 56)  # a few pairs per block
    gen = np.random.default_rng(21)
    verdicts = set()
    for _ in range(400):
        size, draws = int(gen.integers(2, 9)), int(gen.integers(1, 6))
        coords = gen.uniform(0.0, 1.0, size=size)
        glued = gen.random() < 0.3
        if glued:
            coords[-1] = coords[0]
        space = line_space(*coords)
        weights = FiniteMeasure(gen.dirichlet(np.ones(draws))).weights
        if draws > 1 and gen.random() < 0.3:
            weights = FiniteMeasure(np.concatenate([[0.0], weights[1:] / weights[1:].sum()])).weights
        x = gen.normal(0.0, gen.uniform(0.01, 0.5), size=(draws, size))
        if glued and gen.random() < 0.5:
            x[:, -1] = x[:, 0]
        x -= weights @ x
        p = float(gen.choice([1.0, 2.0, 3.0]))
        try:
            loop_increment_check(space, x, weights, p)
            want = None
        except InvalidProcessError as exc:
            want = str(exc)
        try:
            tabulated_process(space, x, weights, p)
            got = None
        except InvalidProcessError as exc:
            got = str(exc)
        assert got == want
        verdicts.add(want and want.split(" ")[1])
    assert verdicts == {None, "distinct", "increment"}


def test_process_json_roundtrip():
    space = two_point()
    tab = safe_tabulated(space)
    back = process_from_json(space, json.dumps({"kind": "tabulated", "paths": tab.paths.tolist(),
                                                "weights": tab.weights.tolist(), "p": tab.p}))
    assert back.kind == "tabulated"
    assert np.allclose(back.paths, tab.paths)
    assert np.allclose(back.weights, tab.weights)
    gauss = gaussian_from_metric(space)
    back2 = process_from_json(space, json.dumps({"kind": "gaussian", "cov": gauss.cov.tolist(),
                                                 "p": gauss.p}))
    assert np.allclose(back2.cov, gauss.cov)


def test_gaussian_from_metric_two_point_calibration():
    proc = gaussian_from_metric(two_point())
    pair_var = proc.cov[0, 0] + proc.cov[1, 1] - 2 * proc.cov[0, 1]
    assert abs(pair_var - VAR_RATIO) < 1e-12
    # the calibration saturates E[exp(increment^2 / d^2)] = 2 exactly
    assert abs(1.0 / math.sqrt(1.0 - 2.0 * pair_var) - 2.0) < 1e-9


def test_gaussian_from_metric_scales_quadratically():
    small = gaussian_from_metric(two_point(1.0))
    big = gaussian_from_metric(two_point(3.0))
    assert np.allclose(big.cov, 9.0 * small.cov)


def test_cycle_metric_is_refused():
    with pytest.raises(UnsupportedGeometryError, match="not Euclidean-embeddable"):
        gaussian_from_metric(c4_cycle())


# ---------------------------------------------------------------------------
# Monte Carlo supremum estimates
# ---------------------------------------------------------------------------

def test_mc_single_point_is_exact_zero():
    one = FiniteMetricSpace([[0.0]])
    proc = gaussian_from_metric(one)
    assert proc.factor.shape == (1, 0)  # rank 0: a draw takes no normals
    assert expected_sup_mc(proc, one, Selector("argmax"), 1000, 0) == (0.0, 0.0)


def test_mc_two_iid_gaussians():
    space = two_point(4.0)
    proc = gaussian_process(space, np.eye(2))
    mean, stderr = expected_sup_mc(proc, space, Selector("argmax"), 100000, 7)
    assert abs(mean - 1.0 / math.sqrt(math.pi)) <= 4 * stderr


def test_mc_fixed_selector_is_centered():
    space = two_point(4.0)
    proc = gaussian_process(space, np.eye(2))
    mean, stderr = expected_sup_mc(proc, space, Selector("fixed", index=1),
                                   40000, 13)
    assert abs(mean) <= 4 * stderr


def test_mc_randomized_selector_oracle():
    space = line_space(0.0, 0.4, 1.0)
    proc = safe_tabulated(space)
    kernel = MarkovKernel([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    exact = float((proc.weights[:, None] * kernel.matrix * proc.paths).sum())
    mean, stderr = expected_sup_mc(proc, space,
                                   Selector("randomized", kernel=kernel),
                                   60000, 17)
    assert abs(mean - exact) <= 4 * max(stderr, 1e-12)


def reference_tabulated_mc(proc, space, selector, samples, seed):
    # the tabulated loop as first written: per-block cumsums of the path weights
    # and of the gathered selector rows, each count capped by np.minimum
    parts = []
    for b, size in enumerate(mc.block_sizes(samples)):
        gen = mc.substream(seed, b)
        rows = (np.cumsum(proc.weights) < gen.random(size)[:, None]).sum(axis=1)
        rows = np.minimum(rows, proc.weights.size - 1)
        x = proc.paths[rows]
        if selector.rule == "randomized":
            cdf = np.cumsum(selector.kernel.matrix[rows], axis=1)
            t_idx = np.minimum((cdf < gen.random(size)[:, None]).sum(axis=1), space.size - 1)
            picked = x[np.arange(size), t_idx]
        else:
            picked = x.max(axis=1)
        parts.append((picked.sum(), (picked**2).sum()))
    return mc.mean_and_stderr(sum(p[0] for p in parts), sum(p[1] for p in parts), samples)


def test_tabulated_and_randomized_draws_keep_their_bits():
    space = line_space(0.0, 0.4, 1.0)
    path = np.array([-0.1, -0.0213, 0.1])
    tables = [(np.vstack([np.zeros(3), path, -path, np.zeros(3)]), [0.0, 0.3, 0.3, 0.4]),
              (np.vstack([path, -path, np.zeros(3)]), [0.35, 0.35, 0.3]),
              (np.vstack([0.5 * path, -path, np.zeros(3)]), [2 / 3, 1 / 3, 0.0]),
              (np.zeros((1, 3)), [1.0])]
    for paths, weights in tables:
        proc = tabulated_process(space, paths, np.array(weights))
        k = len(weights)
        # a zero-mass first column, and a kernel stuck on the middle point
        kernel = MarkovKernel(np.hstack([np.zeros((k, 1)),
                                         np.random.default_rng(k).dirichlet([1, 1], size=k)]))
        edge = MarkovKernel(np.tile([0.0, 1.0, 0.0], (k, 1)))
        for selector in (Selector("argmax"), Selector("randomized", kernel=kernel),
                         Selector("randomized", kernel=edge)):
            for samples, seed in ((1, 0), (7, 3), (8192 + 7, 21)):
                got = expected_sup_mc(proc, space, selector, samples, seed)
                assert got == reference_tabulated_mc(proc, space, selector, samples, seed)


def test_tabulated_mc_on_many_paths_stays_within_the_block_budget():
    # the path pick compared each block's uniforms with every path's cumulative
    # weight: an (8192, 20000) block, a 157 MB peak against a 64 MB budget
    space = line_space(0.0, 0.4, 1.0)
    gen = np.random.default_rng(23)
    half, mass = 0.05 * gen.uniform(-1.0, 1.0, size=(10000, 3)), gen.uniform(size=10000)
    weights = np.concatenate([mass, mass]) / (2.0 * mass.sum())  # mirrored, so centered
    proc = tabulated_process(space, np.vstack([half, -half]), weights)
    kernel = MarkovKernel(gen.dirichlet(np.ones(3), size=20000))
    for selector in (Selector("argmax"), Selector("randomized", kernel=kernel)):
        tracemalloc.start()
        try:
            expected_sup_mc(proc, space, selector, mc.BLOCK, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * errors.BLOCK_BYTES
    # and on 300 of those paths the draws are the full comparison's
    few = tabulated_process(space, np.vstack([half[:150], -half[:150]]),
                            np.concatenate([mass[:150], mass[:150]]) / (2.0 * mass[:150].sum()))
    selector = Selector("randomized", kernel=MarkovKernel(kernel.matrix[:300]))
    for samples, seed in ((5, 1), (8192 + 300, 2)):
        for sel in (Selector("argmax"), selector):
            got = expected_sup_mc(few, space, sel, samples, seed)
            assert got == reference_tabulated_mc(few, space, sel, samples, seed)


def test_mc_worker_count_does_not_change_result(monkeypatch):
    space = two_point(4.0)
    proc = gaussian_process(space, np.eye(2))
    one = expected_sup_mc(proc, space, Selector("argmax"), 30000, 3, workers=1)
    eight = expected_sup_mc(proc, space, Selector("argmax"), 30000, 3, workers=8)
    assert one == eight
    # a rank-deficient process: 12 points in R^2 draw 2 normals each
    space = plane_space(12, 4)
    proc = gaussian_from_metric(space)
    assert proc.factor.shape == (12, 2)
    one = expected_sup_mc(proc, space, Selector("argmax"), 30000, 3, workers=1)
    assert one == expected_sup_mc(proc, space, Selector("argmax"), 30000, 3, workers=3)
    # the row chunks of a block draw one stream: five rows a chunk, the same normals
    monkeypatch.setattr(errors, "BLOCK_BYTES", 5 * 8 * (12 + 2))
    chunked = expected_sup_mc(proc, space, Selector("argmax"), 30000, 3, workers=3)
    assert chunked == pytest.approx(one, rel=1e-12)


def full_factor_sup_mc(cov, samples, seed):
    """The sampler before the rank cut: T normals a draw through the full eigen-factor."""
    vals, vecs = np.linalg.eigh(cov)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]
    total = total_sq = 0.0
    for b, size in enumerate(mc.block_sizes(samples)):
        normals = mc.substream(seed, b).standard_normal((size, cov.shape[0]))
        picked = (normals @ factor.T).max(axis=1)
        total, total_sq = total + picked.sum(), total_sq + (picked**2).sum()
    return mc.mean_and_stderr(total, total_sq, samples)


def test_rank_cut_sampler_agrees_with_the_full_factor():
    space = plane_space(40, 9, dim=3)
    proc = gaussian_from_metric(space)
    assert proc.factor.shape == (40, 3)
    mean, stderr = expected_sup_mc(proc, space, Selector("argmax"), 100000, 61)
    ref, ref_err = full_factor_sup_mc(proc.cov, 100000, 61)
    assert mean != ref  # the stream changed: r = 3 normals a draw, not 40
    assert abs(mean - ref) <= 4.0 * math.hypot(stderr, ref_err)


def test_sup_mc_on_1200_points_stays_within_two_blocks():
    # an 8192-draw block built its (8192, T) paths at once: at T = 1200 a
    # Gaussian call peaked at 161 MiB, 2.5 x MEMORY_BUDGET
    pts = np.random.default_rng(8).normal(size=(1200, 3))
    space = FiniteMetricSpace(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2)))
    centered = pts - pts.mean(axis=0)
    gauss = gaussian_process(space, 0.3 * centered @ centered.T)
    assert gauss.factor.shape == (1200, 3)
    path = 0.3 * pts[:, 0]
    tab = tabulated_process(space, np.vstack([path, -path]), np.array([0.5, 0.5]))
    kernel = MarkovKernel(np.random.default_rng(9).dirichlet(np.ones(1200), size=2))
    for proc, selector in ((gauss, Selector("argmax")), (tab, Selector("argmax")),
                           (tab, Selector("randomized", kernel=kernel))):
        tracemalloc.start()
        try:
            expected_sup_mc(proc, space, selector, mc.BLOCK, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * errors.BLOCK_BYTES


def test_selector_validation():
    with pytest.raises(ConfigurationError):
        Selector("best")
    with pytest.raises(ConfigurationError):
        Selector("fixed")
    with pytest.raises(ConfigurationError):
        Selector("randomized")
    space = two_point(4.0)
    proc = gaussian_process(space, np.eye(2))
    with pytest.raises(ConfigurationError):
        expected_sup_mc(proc, space, Selector("fixed", index=5), 100, 0)
    with pytest.raises(ConfigurationError):
        # randomized selectors need path identities, so a tabulated process
        kernel = MarkovKernel([[0.5, 0.5], [0.5, 0.5]])
        expected_sup_mc(proc, space, Selector("randomized", kernel=kernel), 100, 0)


# ---------------------------------------------------------------------------
# measure optimization and the telescoping identity
# ---------------------------------------------------------------------------

def test_optimize_mu_grid_matches_exhaustive_scan():
    space = line_space(0.0, 1.0, 2.2)
    nu = FiniteMeasure([1 / 3] * 3)
    res = 12
    best = math.inf
    for c in itertools.product(range(res + 1), repeat=2):
        if sum(c) > res:
            continue
        w = np.array([c[0], c[1], res - c[0] - c[1]], dtype=float) / res
        if np.any(w <= 0):
            continue
        best = min(best, ft_bound(FiniteMeasure(w), nu, space, 2.0))
    mu, val = optimize_mu(nu, space, 2.0, method="grid", resolution=res)
    assert abs(val - best) < 1e-9
    assert abs(ft_bound(mu, nu, space, 2.0) - val) < 1e-12


def test_optimize_mu_eg_never_worse_than_uniform():
    gen = np.random.default_rng(4)
    for _ in range(5):
        pts = np.sort(gen.random(6)) * gen.uniform(1, 5)
        space = line_space(*pts)
        nu = FiniteMeasure(gen.dirichlet(np.ones(6)))
        uniform = FiniteMeasure(np.full(6, 1 / 6))
        _, val = optimize_mu(nu, space, 2.0, method="eg", iters=80)
        assert val <= ft_bound(uniform, nu, space, 2.0) + 1e-9


def test_optimize_mu_symmetric_space_prefers_uniform():
    space = two_point()
    nu = FiniteMeasure([0.5, 0.5])
    mu, val = optimize_mu(nu, space, 2.0, method="grid", resolution=10)
    assert val <= ft_bound(nu, nu, space, 2.0) + 1e-12


def test_optimize_mu_grid_rejects_large_spaces():
    coords = np.arange(13.0)
    space = line_space(*coords)
    nu = FiniteMeasure(np.full(13, 1 / 13))
    with pytest.raises(ConfigurationError):
        optimize_mu(nu, space, 2.0, method="grid")


# ---------------------------------------------------------------------------
# telescoping diagnostic
# ---------------------------------------------------------------------------

def telescoping_check(proc, space, mu: FiniteMeasure, r: float = 2.0) -> dict:
    """Exact check of the ball-kernel telescoping identity on a tabulated process.

    With Q_k(. | path) = mu restricted to the radius diam * r^{-k} ball around
    the argmax and renormalized, the step sums must reproduce
    E[X_argmax] - <mu, E[X]> exactly; returns both sides and the per-level terms.
    """
    if proc.kind != "tabulated":
        raise ConfigurationError("telescoping_check: tabulated processes only")
    if r < 2.0:
        raise DomainError("telescoping_check: r >= 2")
    if np.any(mu.weights <= 0.0):
        raise ConfigurationError("telescoping_check: mu needs full support")
    x, w = proc.paths, proc.weights
    taus = np.argmax(x, axis=1)
    diam = space.diam
    positive = space.dist[space.dist > 0]
    levels = 0
    if positive.size and diam > 0:
        while diam * r ** (-levels) >= positive.min():
            levels += 1

    def kernel_row(tau: int, k: int) -> np.ndarray:
        inside = space.dist[tau] <= diam * r ** (-k)
        row = np.where(inside, mu.weights, 0.0)
        return row / row.sum()

    terms = []
    for k in range(1, levels + 1):
        term = 0.0
        for rix in range(x.shape[0]):
            diff = kernel_row(taus[rix], k) - kernel_row(taus[rix], k - 1)
            term += w[rix] * float(diff @ x[rix])
        terms.append(term)
    lhs = float(w @ x[np.arange(x.shape[0]), taus]) - float(w @ (x @ mu.weights))
    return {"telescoped": lhs, "level_terms": terms, "sum": float(sum(terms)),
            "levels": levels, "gap": abs(lhs - float(sum(terms)))}


def test_telescoping_identity_on_line():
    space = line_space(0.0, 0.4, 1.0)
    proc = safe_tabulated(space)
    out = telescoping_check(proc, space, FiniteMeasure([1 / 3] * 3))
    assert out["gap"] <= 1e-12
    assert abs(out["sum"] - out["telescoped"]) <= 1e-12
    assert out["levels"] == len(out["level_terms"])


def test_telescoping_requires_tabulated_process():
    space = two_point()
    proc = gaussian_from_metric(space)
    with pytest.raises(ConfigurationError):
        telescoping_check(proc, space, FiniteMeasure([0.5, 0.5]))
