"""The Monte Carlo helpers that remain, and the exact tabulated sum that replaced
the categorical sampler: substreams, block sizes, task-ordered blocks, and the
Gaussian row chunks of `expected_sup_mc` under a patched BLOCK_BYTES."""

import math
import tracemalloc

import numpy as np
import pytest

from genbound import (FiniteMetricSpace, MarkovKernel, Selector, errors, expected_sup_mc,
                      gaussian_from_metric, gaussian_process, mc, tabulated_process)

from conftest import tabulated_sup_by_fsum


def plane_space(size, seed, dim=2):
    pts = np.random.default_rng(seed).normal(size=(size, dim))
    return FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None], axis=2))


def weight_tables(gen, count):
    """(P,) path weights, sparse and dense, with zero weights and point masses."""
    for _ in range(count):
        size = int(gen.integers(1, 40))
        w = gen.dirichlet(np.full(size, gen.choice([0.05, 1.0, 20.0])))
        w[gen.random(size) < 0.3] = 0.0
        if w.sum() == 0.0:  # a point mass
            w[gen.integers(0, size)] = 1.0
        yield w / w.sum()


def mirrored_process(gen, space, weights):
    # paths +h and -h share each weight, so the process is centered; a scale of
    # 0.05 keeps its psi_2 increments inside the spaces here (tabulated_process checks)
    half = 0.05 * gen.uniform(-1.0, 1.0, size=(weights.size, space.size))
    return tabulated_process(space, np.vstack([half, -half]),
                             np.concatenate([weights, weights]) / 2.0)


def looped_gaussian(proc, selector, samples, seed):
    """The Gaussian estimate as a loop: each block's normals in one call, each
    draw's path built and picked on its own, the sums taken by math.fsum."""
    picks = []
    for b, size in enumerate(mc.block_sizes(samples)):
        for z in mc.substream(seed, b).standard_normal((size, proc.factor.shape[1])):
            x = proc.factor @ z
            picks.append(x.max() if selector.rule == "argmax" else x[selector.index])
    return mc.mean_and_stderr(math.fsum(picks), math.fsum(v * v for v in picks), samples)


def test_guide_draws_equal_the_full_comparison():
    # a tabulated E[X_tau] is the weighted sum over every path, for every selector rule
    gen = np.random.default_rng(2024)
    space = FiniteMetricSpace(np.abs(np.subtract.outer([0.0, 0.4, 1.0, 1.7],
                                                       [0.0, 0.4, 1.0, 1.7])))
    for weights in list(weight_tables(gen, 100)) + [np.array([1.0]), np.array([0.0, 1.0])]:
        proc = mirrored_process(gen, space, weights)
        paths = proc.paths.shape[0]
        kernel = gen.dirichlet(np.ones(space.size), size=paths)
        kernel[:, 0] = 0.0  # a zero-mass point
        kernel = MarkovKernel(kernel / kernel.sum(axis=1, keepdims=True))
        level = (paths + space.size + 1) * np.finfo(float).eps * np.abs(proc.paths).max()
        for selector in (Selector("argmax"), Selector("fixed", index=3),
                         Selector("randomized", kernel=kernel)):
            mean, stderr = expected_sup_mc(proc, space, selector, 1, 0)
            assert mean == pytest.approx(tabulated_sup_by_fsum(proc, selector), abs=level)
            assert stderr == 0.0


@pytest.mark.parametrize("block_bytes", [4, 64, 1000])
def test_guide_shrinks_to_its_budget_and_stays_exact(monkeypatch, block_bytes):
    # Gaussian blocks build their paths in row chunks of BLOCK_BYTES: a smaller
    # budget cuts more chunks out of the same stream; a tabulated sum has no chunks
    space = plane_space(12, 4)
    # iid coordinates of variance below (3/16) nearest^2 keep psi_2 increments, at full rank
    nearest = space.dist[~np.eye(12, dtype=bool)].min()
    gauss = gaussian_from_metric(space)
    full = gaussian_process(space, 0.18 * nearest**2 * np.eye(12))
    assert gauss.factor.shape == (12, 2) and full.factor.shape == (12, 12)
    tab = mirrored_process(np.random.default_rng(1), space, np.full(3, 1 / 3))
    calls = [(proc, selector) for proc in (gauss, full, tab)
             for selector in (Selector("argmax"), Selector("fixed", index=5))]
    whole = [expected_sup_mc(proc, space, sel, 8192 + 9, 3) for proc, sel in calls]
    monkeypatch.setattr(errors, "BLOCK_BYTES", block_bytes)
    assert errors.block_rows(8 * (12 + 2), "rows") == max(1, block_bytes // 112)
    for (proc, selector), want in zip(calls, whole):
        got = expected_sup_mc(proc, space, selector, 8192 + 9, 3)
        if proc is tab:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_guide_counted_in_blocks_that_cut_rows(monkeypatch):
    # chunks of 7 rows cut both blocks of 8192 + 300 draws, and each block's
    # estimate is the per-draw loop's, for any worker count
    space = plane_space(12, 4)
    proc = gaussian_from_metric(space)
    monkeypatch.setattr(errors, "BLOCK_BYTES", 7 * 8 * (12 + 2))
    for selector in (Selector("argmax"), Selector("fixed", index=0)):
        one = expected_sup_mc(proc, space, selector, 8192 + 300, 9)
        assert expected_sup_mc(proc, space, selector, 8192 + 300, 9, workers=3) == one
        assert one == pytest.approx(looped_gaussian(proc, selector, 8192 + 300, 9), rel=1e-12)


def test_guide_size_rule():
    # blocks of BLOCK draws and a remainder; a Philox key per (seed, block), seed mod 2^64
    assert mc.block_sizes(1) == [1]
    assert mc.block_sizes(mc.BLOCK) == [mc.BLOCK]
    assert mc.block_sizes(3 * mc.BLOCK + 5) == [mc.BLOCK] * 3 + [5]
    for bad in (0, -1):
        with pytest.raises(ValueError):
            mc.block_sizes(bad)
    for seed, task in ((0, 0), (2**63, 1), (-1, 2)):
        key = np.array([seed % 2**64, task], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(5)
        assert np.array_equal(mc.substream(seed, task).random(5), want)
    assert mc.run_blocks(lambda b: b * b, 5, workers=3) == [0, 1, 4, 9, 16]
    assert mc.mean_and_stderr(4.0, 8.0, 4) == (1.0, 0.5)


def test_one_bucket_guide_compares_in_blocks(monkeypatch):
    # one row a chunk: a block of 8192 draws on 400 points holds its (8192,)
    # picks and one path, where the whole (8192, 400) block would take 26 MB
    space = plane_space(400, 11, dim=3)
    proc = gaussian_from_metric(space)
    assert proc.factor.shape == (400, 3)
    want = expected_sup_mc(proc, space, Selector("argmax"), mc.BLOCK, 2)
    monkeypatch.setattr(errors, "BLOCK_BYTES", 4)
    tracemalloc.start()
    try:
        got = expected_sup_mc(proc, space, Selector("argmax"), mc.BLOCK, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(want, rel=1e-12)
    assert peak < 4 * 8 * mc.BLOCK
