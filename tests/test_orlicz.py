import math

import numpy as np
import pytest

from genbound import (DiscreteRandomVariable, DomainError, FiniteMeasure,
                      StepFunction, check_psi_kl, check_psi_properties,
                      check_sum_to_integral, decorrelation_terms, orlicz_norm,
                      psi, psi_inv)


def test_psi_values():
    assert psi(0.0, 2.0) == 0.0
    assert abs(psi(math.sqrt(math.log(2.0)), 2.0) - 1.0) < 1e-15
    assert abs(psi(1.0, 1.0) - (math.e - 1.0)) < 1e-15


def test_psi_inv_values():
    assert psi_inv(0.0, 3.0) == 0.0
    assert abs(psi_inv(1.0, 2.0) - math.sqrt(math.log(2.0))) < 1e-15
    assert abs(psi_inv(math.e - 1.0, 1.0) - 1.0) < 1e-15


def test_psi_roundtrip_vectorized():
    x = np.linspace(0.0, 3.0, 50)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert np.allclose(psi_inv(psi(x, p), p), x, atol=1e-12)


def test_psi_accepts_inf():
    assert psi_inv(math.inf, 2.0) == math.inf
    assert psi(1e6, 3.0) == math.inf  # saturates instead of raising


def test_psi_domain_errors():
    with pytest.raises(DomainError):
        psi(1.0, 0.5)
    with pytest.raises(DomainError):
        psi(-1.0, 2.0)
    with pytest.raises(DomainError):
        psi_inv(-0.5, 2.0)


def test_orlicz_norm_zero_variable_is_zero():
    var = DiscreteRandomVariable([0.0, 0.0], FiniteMeasure([0.5, 0.5]))
    assert orlicz_norm(var, 2.0) == 0.0


def test_orlicz_norm_constant():
    for p in (1.0, 2.0, 3.0):
        var = DiscreteRandomVariable([2.5, -2.5], FiniteMeasure([0.4, 0.6]))
        expect = 2.5 / math.log(2.0) ** (1.0 / p)
        assert abs(orlicz_norm(var, p) - expect) < 1e-8 * expect


def test_orlicz_norm_uniform_indicator():
    # E[psi_1(X/c)] = 0.5 (e^{1/c} - 1) = 1 at c = 1/log 3
    var = DiscreteRandomVariable([0.0, 1.0], FiniteMeasure([0.5, 0.5]))
    assert abs(orlicz_norm(var, 1.0) - 1.0 / math.log(3.0)) < 1e-8


def test_orlicz_norm_ignores_zero_mass_atoms():
    a = DiscreteRandomVariable([1.0, 50.0], FiniteMeasure([1.0, 0.0]))
    b = DiscreteRandomVariable([1.0], FiniteMeasure([1.0]))
    assert abs(orlicz_norm(a, 2.0) - orlicz_norm(b, 2.0)) < 1e-12


def test_orlicz_norm_moment_at_norm_is_one():
    gen = np.random.default_rng(0)
    for _ in range(20):
        size = int(gen.integers(2, 7))
        var = DiscreteRandomVariable(gen.normal(0, 3, size),
                                     FiniteMeasure(gen.dirichlet(np.ones(size))))
        for p in (1.0, 2.0):
            c = orlicz_norm(var, p)
            moment = float(var.law.weights @ psi(np.abs(var.values) / c, p))
            assert moment <= 1.0 + 1e-8
            # the norm is the smallest such c: shrinking it breaks the moment
            shrunk = float(var.law.weights @ psi(np.abs(var.values) / (0.99 * c), p))
            assert shrunk > 1.0


def test_psi_property_grid_at_zero():
    results = {r.item: r for r in check_psi_properties([(0.0, 2.0, 1.0)])}
    assert results["square"].max_violation <= 0.0
    assert results["product"].max_violation <= 0.0
    assert results["power"].max_violation <= 1e-15


def test_psi_property_dense_grid():
    grid = [(x, p, q) for x in np.linspace(0.0, 10.0, 201)
            for p in (1.0, 1.5, 2.0, 3.0) for q in (1.0, 2.0, 5.0)]
    for res in check_psi_properties(grid):
        assert res.max_violation <= 1e-12, (res.item, res.argmax_input)


def test_psi_property_overflow_zone():
    # x^p far beyond exp overflow: the factored gaps stay correct in sign
    grid = [(x, p, 2.0) for x in (5.0, 9.4, 24.43, 49.0) for p in (2.0, 3.0)]
    for res in check_psi_properties(grid):
        assert res.max_violation <= 1e-12, (res.item, res.argmax_input)


def test_psi_property_grid_survives_huge_x():
    # x^p and x^q leave float range: the factored gaps saturate to -inf, and the
    # power item's log1p(x^q) is taken as q log x + log1p(x^-q), not as +inf
    for point in ((1e200, 2.0, 1.0), (1e160, 2.0, 1.0), (1e200, 1.0, 2.0)):
        results = {r.item: r for r in check_psi_properties([point])}
        for item in ("square", "product"):
            assert results[item].max_violation == -math.inf
            assert results[item].argmax_input == point[:2]
        assert abs(results["power"].max_violation) <= 1e-12
        assert results["shift"].max_violation <= 0.0


def test_psi_property_report_names_its_first_point():
    # every gap at (1e3, 2, 1) is -inf or negative; the report still says where
    # each item was evaluated, and every violation is a Python float
    results = {r.item: r for r in check_psi_properties([(1e3, 2.0, 1.0)])}
    assert results["square"].argmax_input == (1e3, 2.0)
    assert results["product"].argmax_input == (1e3, 2.0)
    assert results["power"].argmax_input == (1e3, 2.0, 1.0)
    assert results["shift"].argmax_input == (1e3, 2.0)
    assert all(type(r.max_violation) is float for r in results.values())


def test_psi_shift_item_at_one():
    results = {r.item: r for r in check_psi_properties([(1.0, 2.0, 1.0)])}
    # psi_p^{-1}(1) = (log 2)^{1/p} <= 0 + 1
    assert results["shift"].max_violation <= math.sqrt(math.log(2.0)) - 1.0 + 1e-15


def test_psi_property_rejects_bad_grid():
    with pytest.raises(DomainError):
        check_psi_properties([(1.0, 0.5, 1.0)])
    with pytest.raises(DomainError):
        check_psi_properties([(1.0, 2.0, 0.5)])


def test_sandwich_constant_function():
    f = StepFunction([1.0], [1.0])
    lhs, mid, rhs = check_sum_to_integral(f, r=2.0, terms=3)
    assert abs(lhs - 7.0 / 8.0) < 1e-15
    assert abs(mid - 2.0) < 1e-15
    assert abs(rhs - 8.0) < 1e-15


def test_sandwich_callable_branch():
    lhs, mid, rhs = check_sum_to_integral(lambda t: 1.0 + (1.0 - t), 2.0, 5)
    assert lhs <= mid <= rhs


def test_sandwich_rejects_divergent_integrand():
    with pytest.raises(DomainError):
        check_sum_to_integral(lambda t: 1.0 / t, 2.0, 3)


def test_sandwich_rejects_increasing_function():
    with pytest.raises(DomainError):
        check_sum_to_integral(lambda t: t + 0.1, 2.0, 3)
    with pytest.raises(DomainError):
        StepFunction([0.5, 1.0], [1.0, 2.0])


def test_decorrelation_zero_g():
    mu = FiniteMeasure([0.3, 0.7])
    nu = FiniteMeasure([0.5, 0.5])
    f = np.array([1.0, 2.0])
    terms = decorrelation_terms(mu, nu, f, np.zeros(2), 2.0)
    assert terms.lhs == 0.0
    assert terms.rhs1 >= 0.0
    assert terms.rhs2 >= 0.0


def test_decorrelation_equal_measures_constant_g():
    # density 1: rhs1 = 2^{1/p} (log 2)^{1/p} + psi_p(c), lhs = c
    mu = FiniteMeasure([0.5, 0.5])
    c, p = 1.3, 2.0
    terms = decorrelation_terms(mu, mu, np.ones(2), np.full(2, c), p)
    expect = 2.0 ** (1 / p) * math.log(2.0) ** (1 / p) + psi(c, p)
    assert abs(terms.lhs - c) < 1e-15
    assert abs(terms.rhs1 - expect) < 1e-12
    assert terms.lhs <= terms.rhs1
    assert terms.lhs <= terms.rhs2


def test_psi_kl_equal_measures():
    mu = FiniteMeasure([0.25, 0.75])
    for p in (1.0, 2.0, 3.0):
        lhs, rhs = check_psi_kl(mu, mu, p)
        assert abs(lhs - math.log(2.0) ** (1.0 / p)) < 1e-12
        assert rhs == 1.0
        assert lhs <= rhs


def test_psi_kl_point_mass_case():
    lhs, rhs = check_psi_kl(FiniteMeasure([1.0, 0.0]), FiniteMeasure([0.5, 0.5]), 2.0)
    assert abs(lhs - math.sqrt(math.log(3.0))) < 1e-12
    assert abs(rhs - math.sqrt(math.log(2.0) + 1.0)) < 1e-12
    assert lhs <= rhs
