"""Adversarial property tests for the core inequalities.

The verify suites already sweep seeded random instances; these let the
shrinker hunt for corner cases (tiny atoms, near-ties, extreme scales) that
uniform sampling tends to miss. derandomize keeps runs reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from genbound import (FiniteMeasure, JointMeasure, MarkovKernel, check_psi_kl,
                      check_psi_properties, conditional_divergence,
                      decorrelation_terms, kl_divergence, mutual_information,
                      orlicz_norm, psi, psi_inv, wasserstein)
from genbound.orlicz import DiscreteRandomVariable
from genbound.transport import EmbeddedSupport, euclidean_cost

COMMON = dict(deadline=None, derandomize=True)

p_values = st.sampled_from([1.0, 1.5, 2.0, 3.0])
sizes = st.integers(min_value=1, max_value=6)


@st.composite
def measures(draw, size=None, floor=1e-6):
    k = size if size is not None else draw(sizes)
    raw = draw(st.lists(st.floats(floor, 1.0), min_size=k, max_size=k))
    w = np.asarray(raw)
    return FiniteMeasure(w / w.sum())


@st.composite
def measure_pairs(draw):
    k = draw(sizes)
    return draw(measures(size=k)), draw(measures(size=k))


@settings(max_examples=150, **COMMON)
@given(measure_pairs(), st.data(), p_values)
def test_decorrelation_inequalities(pair, data, p):
    mu, nu = pair
    k = mu.support_size
    f = np.asarray(data.draw(st.lists(st.floats(0.0, 4.0), min_size=k, max_size=k)))
    g = np.asarray(data.draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k)))
    terms = decorrelation_terms(mu, nu, f, g, p)
    assert terms.lhs <= terms.rhs1 + 1e-12
    assert terms.lhs <= terms.rhs2 + 1e-12


@settings(max_examples=200, **COMMON)
@given(st.floats(0.0, 8.0), st.floats(0.0, 1e6), st.floats(1.0, 6.0), p_values)
def test_psi_roundtrip_and_property_grid(x_small, x_wide, q, p):
    y = psi(x_small, p)
    assert abs(psi_inv(y, p) - x_small) <= 1e-9 * max(1.0, x_small)
    for result in check_psi_properties([(x_wide, p, q)]):
        assert result.max_violation <= 1e-12


@settings(max_examples=150, **COMMON)
@given(measures(), st.data(), p_values, st.floats(0.1, 5.0))
def test_orlicz_norm_is_a_norm(law, data, p, scale):
    k = law.support_size
    xs = np.asarray(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k)))
    ys = np.asarray(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k)))
    nx = orlicz_norm(DiscreteRandomVariable(xs, law), p)
    ny = orlicz_norm(DiscreteRandomVariable(ys, law), p)
    nxy = orlicz_norm(DiscreteRandomVariable(xs + ys, law), p)
    nax = orlicz_norm(DiscreteRandomVariable(scale * xs, law), p)
    assert nxy <= nx + ny + 1e-8 * max(1.0, nx + ny)
    assert abs(nax - scale * nx) <= 1e-8 * max(1.0, nax)


@settings(max_examples=150, **COMMON)
@given(measure_pairs(), p_values)
def test_density_moment_bounded_by_divergence(pair, p):
    mu, nu = pair
    lhs, rhs = check_psi_kl(mu, nu, p)
    assert lhs <= rhs + 1e-12


@settings(max_examples=100, **COMMON)
@given(st.data())
def test_divergence_decomposition_identity(data):
    nx = data.draw(st.integers(2, 4))
    ny = data.draw(st.integers(2, 4))
    cells = np.asarray(data.draw(st.lists(st.floats(1e-6, 1.0),
                                          min_size=nx * ny, max_size=nx * ny)))
    joint = JointMeasure(cells.reshape(nx, ny) / cells.sum())
    q_y = data.draw(measures(size=ny))
    p_x = FiniteMeasure(joint.weights.sum(axis=1))
    rows = joint.weights / p_x.weights[:, None]
    lhs = conditional_divergence(MarkovKernel(rows), MarkovKernel.constant(q_y, nx), p_x)
    rhs = mutual_information(joint) + kl_divergence(FiniteMeasure(joint.weights.sum(axis=0)), q_y)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@settings(max_examples=40, **COMMON)
@given(st.data())
def test_wasserstein_symmetry_and_triangle(data):
    k = data.draw(st.integers(2, 5))
    pts = np.asarray(data.draw(st.lists(
        st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        min_size=k, max_size=k)))
    cost = euclidean_cost(EmbeddedSupport(pts), EmbeddedSupport(pts))
    a = data.draw(measures(size=k))
    b = data.draw(measures(size=k))
    c = data.draw(measures(size=k))
    d_ab, _ = wasserstein(a, b, cost, p=2.0)
    d_bc, _ = wasserstein(b, c, cost, p=2.0)
    d_ac, _ = wasserstein(a, c, cost, p=2.0)
    d_ba, _ = wasserstein(b, a, cost, p=2.0)
    assert d_ac <= d_ab + d_bc + 1e-8
    assert abs(d_ab - d_ba) <= 1e-8
