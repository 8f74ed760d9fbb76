"""The exact-sum verify suites against their per-trial references.

`lemma`, `golden` and `psi` draw their trials in chunks and evaluate each
inequality once per shape group. The references below are the per-trial
loops they replaced: one validated object and one scalar evaluation at a
time, through the same package functions.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from genbound import (DomainError, FiniteMeasure, JointMeasure, MarkovKernel, check_psi_kl,
                      check_psi_properties, cli, conditional_divergence,
                      conditional_mutual_information, decorrelation_terms, kl_divergence, mc,
                      mutual_information, orlicz_norm, psi, psi_inv, verify)
from genbound.orlicz import _EXP_SAFE, _SQUARE_SAFE, DiscreteRandomVariable, PsiPropertyResult
from genbound.verify import _P_CHOICES, _Worst, _random_weights, run_suite

SEEDS = range(100)


# ---------------------------------------------------------------------------
# references: the per-trial suites
# ---------------------------------------------------------------------------

def per_trial_lemma_suite(trials, seed, tol=verify.DEFAULT_TOL):
    gen = mc.substream(seed, 0)
    worst = _Worst()
    for i in range(trials):
        size = int(gen.integers(1, 9))
        p = float(gen.choice(_P_CHOICES))
        nu = FiniteMeasure(_random_weights(gen, size, allow_zeros=False))
        mu = nu if gen.random() < 0.25 else FiniteMeasure(_random_weights(gen, size))
        f = gen.uniform(0.0, 4.0, size=size)
        g = gen.uniform(0.0, 4.0, size=size)
        if gen.random() < 0.2:
            g = g * gen.uniform(1.0, 4.0)
        terms = decorrelation_terms(mu, nu, f, g, p)
        case = {"trial": i, "p": p, "mu": mu.weights.tolist(),
                "nu": nu.weights.tolist(), "f": f.tolist(), "g": g.tolist()}
        worst.update(terms.lhs - terms.rhs1, {**case, "side": "rhs1"})
        worst.update(terms.lhs - terms.rhs2, {**case, "side": "rhs2"})
    return worst.result("lemma", trials, tol)


def golden_residual(lhs, rhs):
    resid = abs(lhs - rhs) if np.isfinite(lhs) or np.isfinite(rhs) else 0.0
    return np.inf if np.isfinite(lhs) != np.isfinite(rhs) else resid


def conditional_form(jxyz, q_rows):
    """D(P_{Y|XZ} || Q_{Y|Z} | P_XZ) and I(X;Y|Z) + D(P_{Y|Z} || Q_{Y|Z} | P_Z)
    of one trial, through the object-level functionals."""
    nx, ny, nz = jxyz.shape
    p_z = jxyz.sum(axis=(0, 1))
    p_xz = jxyz.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_y_given_xz = np.where(p_xz[:, None, :] > 0,
                                jxyz / np.where(p_xz[:, None, :] > 0, p_xz[:, None, :], 1.0),
                                1.0 / ny)
        p_yz = jxyz.sum(axis=0)
        p_y_given_z = np.where(p_z[None, :] > 0,
                               p_yz / np.where(p_z[None, :] > 0, p_z[None, :], 1.0), 1.0 / ny)
    lhs = conditional_divergence(
        MarkovKernel(p_y_given_xz.transpose(0, 2, 1).reshape(nx * nz, ny)),
        MarkovKernel(np.tile(q_rows, (nx, 1))), FiniteMeasure(p_xz.ravel()))
    cond_kl = conditional_divergence(MarkovKernel(p_y_given_z.T), MarkovKernel(q_rows),
                                     FiniteMeasure(p_z))
    return lhs, conditional_mutual_information(jxyz) + cond_kl


def per_trial_golden_suite(trials, seed, tol=1e-9):
    gen = mc.substream(seed, 2)
    worst = _Worst()
    for i in range(trials):
        nx = int(gen.integers(1, 6))
        ny = int(gen.integers(1, 6))
        joint = JointMeasure(gen.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        q_y = FiniteMeasure(_random_weights(gen, ny, allow_zeros=False))
        p_x = joint.marginal_x()
        p_y = joint.marginal_y()
        rows = np.where(p_x.weights[:, None] > 0,
                        joint.weights / np.where(p_x.weights[:, None] > 0,
                                                 p_x.weights[:, None], 1.0),
                        1.0 / ny)
        lhs = conditional_divergence(MarkovKernel(rows), MarkovKernel.constant(q_y, nx), p_x)
        rhs = mutual_information(joint) + kl_divergence(p_y, q_y)
        worst.update(golden_residual(lhs, rhs), {"trial": i, "form": "marginal",
                                                 "joint": joint.weights.tolist(),
                                                 "q_y": q_y.weights.tolist()})
        nz = int(gen.integers(1, 4))
        jxyz = gen.dirichlet(np.ones(nx * ny * nz)).reshape(nx, ny, nz)
        q_rows = gen.dirichlet(np.ones(ny), size=nz)
        worst.update(golden_residual(*conditional_form(jxyz, q_rows)),
                     {"trial": i, "form": "conditional"})
    return worst.result("golden", trials, tol)


def scalar_check_psi_properties(grid):
    """check_psi_properties one point at a time, through scalar psi and psi_inv."""
    worst = {item: (-np.inf, ()) for item in ("square", "product", "power", "shift")}

    def consider(item, gap, args):
        if gap > worst[item][0] or not worst[item][1]:
            worst[item] = (float(gap), args)

    for x, p, q in grid:
        x, p, q = float(x), float(p), float(q)
        log_x = math.log(x) if x > 0.0 else -math.inf
        with np.errstate(over="ignore"):
            if p * log_x <= math.log(_SQUARE_SAFE):
                consider("square", psi(x / 2 ** (1 / p), p) ** 2 - psi(x, p), (x, p))
            else:
                consider("square", float(-2.0 * np.expm1(np.float64(x) ** p / 2.0)), (x, p))
            if p * log_x <= math.log(_EXP_SAFE):
                consider("product", x * psi(x / 4 ** (1 / p), p)
                         - 2 ** (1 / p) * psi(x / 2 ** (1 / p), p), (x, p))
            else:
                quarter = np.expm1(np.float64(x) ** p / 4.0)
                consider("product", float(quarter * (x - 2 ** (1 / p) * (quarter + 2.0))),
                         (x, p))
        power = (psi_inv(x**q, p) if q * log_x <= _EXP_SAFE
                 else (q * log_x + math.log1p(x**-q)) ** (1 / p))
        consider("power", power - q ** (1 / p) * psi_inv(x, p), (x, p, q))
        if x >= 1.0:
            consider("shift", psi_inv(x, p) - (np.log(x) ** (1 / p) + 1.0), (x, p))
    return [PsiPropertyResult(item, gap, args) for item, (gap, args) in worst.items()]


def psi_suite_grid(trials, seed):
    """The declared grid and the trial points of one psi run."""
    gen = mc.substream(seed, 1)
    grid = [tuple(point) for point in verify._PSI_GRID.tolist()]
    for _ in range(trials):
        grid.append((float(gen.uniform(0.0, 50.0)), float(gen.choice(_P_CHOICES)),
                     float(gen.uniform(1.0, 8.0))))
    return grid


# ---------------------------------------------------------------------------
# the chunked suites against the references
# ---------------------------------------------------------------------------

def assert_close_runs(got, want):
    assert got.checks == want.checks
    assert got.passed == want.passed
    assert abs(got.max_violation - want.max_violation) <= 1e-15


@pytest.mark.parametrize("trials", [1, 40])
def test_lemma_suite_matches_the_per_trial_loop(trials):
    for seed in SEEDS:
        got, want = run_suite("lemma", trials, seed), per_trial_lemma_suite(trials, seed)
        assert_close_runs(got, want)
        # decorrelation_terms is the one-row call of the stacked evaluator: bit equal
        assert got == want


@pytest.mark.parametrize("trials", [1, 40])
def test_golden_suite_matches_the_per_trial_loop(trials):
    for seed in SEEDS:
        got, want = run_suite("golden", trials, seed), per_trial_golden_suite(trials, seed)
        assert_close_runs(got, want)
        # every law is renormalized where the per-trial loop builds a validated object,
        # so the bits agree too; a conditional-form case also names its (jxyz, q_rows)
        assert got.max_violation == want.max_violation
        case = got.worst_case_input
        assert {k: v for k, v in case.items() if k not in ("jxyz", "q_rows")} == (
            want.worst_case_input)


def test_suites_across_chunks(monkeypatch):
    # chunk edges keep the draw order and the first-maximum rule
    for seed in range(6):
        whole = {name: run_suite(name, 45, seed) for name in ("lemma", "golden", "psi")}
        monkeypatch.setattr(verify, "CHUNK_TRIALS", 4)
        for name, want in whole.items():
            got = run_suite(name, 45, seed)
            assert (got.checks, got.max_violation) == (want.checks, want.max_violation)
            assert got.worst_case_input == want.worst_case_input
        monkeypatch.undo()


def test_psi_gaps_agree_with_the_scalar_loop_point_by_point():
    # numpy's array power and expm1 loops may round the last bit differently from
    # the scalar calls, so a single gap agrees to round-off in its largest term
    # (about e^{x^p} below the square item's switch), not always to the bit
    moved = 0
    for x, p, q in psi_suite_grid(300, 4):
        for got, want in zip(check_psi_properties([(x, p, q)]),
                             scalar_check_psi_properties([(x, p, q)])):
            assert got.argmax_input == want.argmax_input
            if got.max_violation != want.max_violation:
                moved += 1
                scale = max(1.0, abs(want.max_violation), math.exp(min(x**p, 60.0)))
                assert abs(got.max_violation - want.max_violation) <= 1e-12 * scale, (x, p, q)
    assert moved < 0.1 * 4 * (len(verify._PSI_GRID) + 300)


@pytest.mark.parametrize("trials", [1, 20, 200])
def test_psi_suite_matches_the_scalar_grid(monkeypatch, trials):
    declared = scalar_check_psi_properties(verify._PSI_GRID)  # the same in every run

    def scalar(grid):
        return declared if grid is verify._PSI_GRID else scalar_check_psi_properties(grid)
    for seed in SEEDS:
        got = run_suite("psi", trials, seed)
        monkeypatch.setattr(verify, "check_psi_properties", scalar)
        want = run_suite("psi", trials, seed)
        monkeypatch.undo()
        assert got == want


def test_psi_properties_empty_and_without_shift_points():
    assert [(r.max_violation, r.argmax_input) for r in check_psi_properties([])] == [
        (-math.inf, ())] * 4
    shift = check_psi_properties([(0.5, 2.0, 1.0)])[3]
    assert (shift.item, shift.max_violation, shift.argmax_input) == ("shift", -math.inf, ())


def test_pick_draws_like_generator_choice():
    for options in (_P_CHOICES, (1.0, 2.0)):
        for seed in range(50):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(2000):
                assert float(a.choice(options)) == verify._pick(b, options)
                if k % 3 == 0:
                    assert a.random() == b.random()
            assert a.bit_generator.state == b.bit_generator.state


def test_golden_conditional_failures_are_reproducible():
    # a conditional-form worst case carries its own (jxyz, q_rows)
    seen = 0
    for seed in range(40):
        result = run_suite("golden", 220, seed)
        case = result.worst_case_input
        if case["form"] != "conditional":
            continue
        seen += 1
        lhs, rhs = conditional_form(np.array(case["jxyz"]), np.array(case["q_rows"]))
        assert abs(golden_residual(lhs, rhs) - result.max_violation) <= 1e-15
    assert seen > 0


# ---------------------------------------------------------------------------
# nan never passes, and verify prints strict JSON
# ---------------------------------------------------------------------------

def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def test_worst_records_the_first_nan():
    worst = _Worst()
    worst.update(1.0, {"at": 0})
    worst.update(float("nan"), {"at": 1})
    worst.update(5.0, {"at": 2})
    worst.update_chunk(np.array([[np.nan, 9.0]]), lambda i, j: {"at": 3})
    result = worst.result("x", 4, 1e-12)
    assert math.isnan(result.max_violation) and result.worst_case_input == {"at": 1}
    assert not result.passed and result.checks == 5


def test_verify_fails_on_a_nan_violation(monkeypatch, capsys):
    def nan_terms(mu, nu, f, g, p):
        nan = np.full(len(mu), np.nan)
        return nan, nan, nan
    monkeypatch.setattr(verify, "decorrelation_terms_array", nan_terms)
    assert cli.main(["verify", "--suite", "lemma", "--trials", "5"]) == 1
    payload = strict_json(capsys.readouterr().out)
    assert payload["max_violation"] == "nan" and payload["passed"] is False


def test_verify_psi_keeps_a_nan_gap_from_a_later_chunk(monkeypatch, capsys):
    real = verify.check_psi_properties

    def nan_on_random_points(grid):
        reports = real(grid)
        if grid is verify._PSI_GRID:
            return reports
        return [PsiPropertyResult(r.item, math.nan, r.argmax_input) for r in reports]
    monkeypatch.setattr(verify, "check_psi_properties", nan_on_random_points)
    assert cli.main(["verify", "--suite", "psi", "--trials", "5"]) == 1
    payload = strict_json(capsys.readouterr().out)
    assert payload["max_violation"] == "nan" and payload["worst_case_input"]["item"] == "square"


def test_verify_prints_an_infinite_violation_as_strict_json(monkeypatch, capsys):
    monkeypatch.setattr(verify, "conditional_divergence_array",
                        lambda p, q, base: np.full(p.shape[:-2], np.inf))
    assert cli.main(["verify", "--suite", "golden", "--trials", "5"]) == 1
    payload = strict_json(capsys.readouterr().out)
    assert payload["max_violation"] == "inf" and payload["passed"] is False


# ---------------------------------------------------------------------------
# one finite-p guard for the psi family
# ---------------------------------------------------------------------------

def test_psi_family_refuses_non_finite_input():
    mu = FiniteMeasure([0.5, 0.5])
    f = np.ones(2)
    for p in (math.nan, math.inf):
        with pytest.raises(DomainError):
            psi_inv(1.0, p)
        with pytest.raises(DomainError):
            psi(1.0, p)
        with pytest.raises(DomainError):
            decorrelation_terms(mu, mu, f, f, p)
        with pytest.raises(DomainError):
            check_psi_kl(mu, mu, p)
        with pytest.raises(DomainError):
            orlicz_norm(DiscreteRandomVariable([1.0, 2.0], mu), p)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            decorrelation_terms(mu, mu, [1.0, bad], f, 2.0)
        with pytest.raises(DomainError):
            decorrelation_terms(mu, mu, f, [bad, 1.0], 2.0)
    for point in ((math.nan, 2.0, 1.0), (math.inf, 2.0, 1.0), (1.0, math.nan, 1.0),
                  (1.0, math.inf, 1.0), (1.0, 2.0, math.nan), (1.0, 2.0, math.inf)):
        with pytest.raises(DomainError):
            check_psi_properties([(0.5, 2.0, 1.0), point])
    with pytest.raises(ValueError):  # pairs are not (x, p, q) points, whatever their count
        check_psi_properties([(1.0, 2.0)] * 3)


# ---------------------------------------------------------------------------
# memory stays flat in --trials
# ---------------------------------------------------------------------------

def peak_bytes(name, trials):
    tracemalloc.start()
    try:
        run_suite(name, trials, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Chunks smaller than CHUNK_TRIALS = 4096 run 13 chunks against 2, as 50000 and
# 5000 trials do at that size, in a fraction of the time; a suite that keeps
# every chunk's draws alive peaks about 7-10 times higher here. A psi chunk stays
# larger than the fixed grid of 2412 points, which is checked on every run.
@pytest.mark.parametrize("name", ["lemma", "golden", "psi"])
def test_suite_memory_does_not_grow_with_trials(monkeypatch, name):
    chunk = {"lemma": 512, "golden": 512, "psi": 2560}[name]
    monkeypatch.setattr(verify, "CHUNK_TRIALS", chunk)
    run_suite(name, 100, 1)  # one-time allocations, untraced
    big, small = 50000 * chunk // 4096, 5000 * chunk // 4096
    assert peak_bytes(name, big) <= 1.5 * peak_bytes(name, small)
