"""The guide-table sampler against a full comparison of every CDF column."""

import tracemalloc

import numpy as np
import pytest

from genbound import errors, mc


def cdf_of(weights):
    cdf = np.cumsum(weights, axis=-1)
    cdf[..., -1] = np.inf
    return cdf


def compared(cdf, u, rows=None):
    # the sampler as first written: the first column whose cumulative weight reaches u
    table = cdf if rows is None else cdf[rows]
    return (table < u[:, None]).argmin(axis=1)


def weight_tables(gen, count):
    """(S, N) tables with sparse and dense rows, zero-weight columns and point masses."""
    for _ in range(count):
        size, cols = int(gen.integers(1, 30)), int(gen.integers(1, 40))
        w = gen.dirichlet(np.full(cols, gen.choice([0.05, 1.0, 20.0])), size=size)
        w[:, gen.random(cols) < 0.3] = 0.0
        w[gen.random(size) < 0.2] = 0.0
        empty = w.sum(axis=1) == 0.0  # point masses, as ERM rows are
        w[empty, gen.integers(0, cols, int(empty.sum()))] = 1.0
        yield w / w.sum(axis=1, keepdims=True)


def edge_uniforms(gen, cdf, buckets):
    """Uniforms at every bucket edge b/G, at each finite CDF entry and its float
    neighbours, at 0 and just below 1, and at random."""
    entries = cdf[np.isfinite(cdf)]
    u = np.concatenate([np.arange(buckets) / buckets, entries, np.nextafter(entries, 0.0),
                        np.nextafter(entries, 1.0), [0.0, 1.0 - 2.0**-53], gen.random(200)])
    return u[(u >= 0.0) & (u < 1.0)]


def check_table(gen, weights):
    sampler = mc.Sampler(weights)
    cdf = cdf_of(weights)
    assert np.array_equal(sampler.cdf, cdf)
    assert sampler.guide.nbytes <= errors.BLOCK_BYTES
    u = edge_uniforms(gen, cdf, sampler.buckets)
    if weights.ndim == 1:
        assert np.array_equal(sampler.draw(u), compared(cdf, u))
        return
    # every uniform on every row
    rows = np.repeat(np.arange(weights.shape[0]), u.size)
    uu = np.tile(u, weights.shape[0])
    assert np.array_equal(sampler.draw(uu, rows), compared(cdf, uu, rows))


def test_guide_draws_equal_the_full_comparison():
    gen = np.random.default_rng(2024)
    for weights in weight_tables(gen, 300):
        check_table(gen, weights)
        check_table(gen, weights[0])  # a 1-D table
    for weights in ([1.0], [[1.0], [1.0]], [0.0, 0.0, 1.0], [[0.5, 0.5], [1.0, 0.0]]):
        check_table(gen, np.array(weights))  # N = 1, point masses


@pytest.mark.parametrize("block_bytes", [4, 64, 1000])
def test_guide_shrinks_to_its_budget_and_stays_exact(monkeypatch, block_bytes):
    monkeypatch.setattr(mc, "BLOCK_BYTES", block_bytes)
    gen = np.random.default_rng(block_bytes)
    smallest = set()
    for weights in weight_tables(gen, 40):
        sampler = mc.Sampler(weights)
        assert sampler.guide.nbytes <= block_bytes or sampler.buckets == 1
        smallest.add(sampler.buckets)
        check_table(gen, weights)
    if block_bytes <= 64:
        assert 1 in smallest  # one bucket per row, every draw compared


def test_guide_counted_in_blocks_that_cut_rows(monkeypatch):
    # the guide counts CDF entries in blocks of GUIDE_STEP; blocks of 7 cut most rows
    gen = np.random.default_rng(7)
    tables = list(weight_tables(gen, 40))
    whole = [mc.Sampler(w).guide for w in tables]
    monkeypatch.setattr(mc, "GUIDE_STEP", 7)
    for weights, guide in zip(tables, whole):
        assert np.array_equal(mc.Sampler(weights).guide, guide)
        check_table(gen, weights)
        check_table(gen, weights.ravel() / weights.sum())  # a 1-D table of S N entries


def test_guide_size_rule():
    # G = 2^ceil(log2(32 N)), halved while the (S, G + 1) int32 guide is over BLOCK_BYTES
    assert mc.Sampler(np.full(6, 1 / 6)).buckets == 256
    assert mc.Sampler(np.full((81, 6), 1 / 6)).buckets == 256
    assert mc.Sampler(np.full(20000, 1 / 20000)).buckets == 2**20
    wide = mc.Sampler(np.full((2**15, 4), 0.25))
    assert wide.buckets == 32 and wide.guide.nbytes <= errors.BLOCK_BYTES


def test_one_bucket_guide_compares_in_blocks(monkeypatch):
    # with one bucket per row every draw of a wide table is compared against its
    # CDF row: one (8192, 2000) gather would take 131 MB, blocks of rows stay small
    monkeypatch.setattr(mc, "BLOCK_BYTES", 4)
    gen = np.random.default_rng(11)
    weights = gen.dirichlet(np.ones(2000), size=4)
    sampler = mc.Sampler(weights)
    assert sampler.buckets == 1
    u, rows = gen.random(8192), gen.integers(0, 4, 8192)
    tracemalloc.start()
    try:
        got = sampler.draw(u, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, compared(cdf_of(weights), u, rows))
    assert peak < 2 * errors.BLOCK_BYTES
