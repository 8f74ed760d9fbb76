"""Counter-based Monte Carlo substreams, and one exact categorical sampler.

Monte Carlo estimates only what has no exact value yet, the expected supremum of an `ft`
process (`suprema.expected_sup_mc`); `bounds` and `tail` enumerate. Every MC consumer draws
from Philox generators keyed by (seed, task index), accumulates per-task partial sums, and
reduces them in task order, so results are bitwise identical however many workers ran the
tasks. A tabulated path is one categorical draw over the path weights, and a randomized
selector's point one over its kernel's row.

A categorical draw takes the first column j with cdf[j] >= u (cdf: the weights summed
along the last axis, last entry +inf). `Sampler` finds j by a guide table (Chen & Asau
1974; Devroye 1986, III.2.4): G = 2^ceil(log2(32 N)) buckets per row, halved until the
(S, G + 1) int32 guide fits BLOCK_BYTES (at least one), counted in blocks of GUIDE_STEP
CDF entries. Bucket b holds #{cdf < b/G}, the j of every u in [b/G, (b+1)/G), or -1 if
a cdf entry lies in it; G is a power of two, so u * G and b / G are exact. Only draws in
a -1 bucket, at most (N - 1) / G, compare u against their own CDF row, in blocks of rows
that fit BLOCK_BYTES: no temporary the size of the CDF is built.
"""

from __future__ import annotations

import numpy as np

from .errors import BLOCK_BYTES, block_rows

BLOCK = 8192
GUIDE_STEP = 2**18  # CDF entries per block of guide keys
_MASK64 = (1 << 64) - 1


def substream(seed: int, task: int) -> np.random.Generator:
    key = np.array([int(seed) & _MASK64, int(task) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_sizes(samples: int) -> list[int]:
    if samples <= 0:
        raise ValueError("samples must be positive")
    full, rem = divmod(samples, BLOCK)
    return [BLOCK] * full + ([rem] if rem else [])


class Sampler:
    """Exact categorical draws from the rows of a weight table (see the module docstring)."""

    def __init__(self, weights: np.ndarray) -> None:
        cdf = np.cumsum(weights, axis=-1)
        cdf[..., -1] = np.inf
        rows = cdf.reshape(-1, cdf.shape[-1])
        size, cols = rows.shape
        buckets = 1 << (32 * cols - 1).bit_length()
        while buckets > 1 and size * (buckets + 1) * 4 > BLOCK_BYTES:
            buckets //= 2
        # entry j of row r lies in bucket keys[r, j] of the row; bucket G takes those >= 1
        guide, flat = np.zeros(size * (buckets + 1), dtype=np.int32), rows.reshape(-1)
        for lo in range(0, flat.size, GUIDE_STEP):  # keys in blocks: none the size of the CDF
            keys = np.minimum(flat[lo:lo + GUIDE_STEP] * buckets, buckets).astype(np.intp)
            keys += (buckets + 1) * (np.arange(lo, lo + keys.size) // cols)
            np.add.at(guide, keys, np.ones(keys.size, dtype=np.int32))
        split = guide > 0
        table = guide.reshape(size, -1)
        np.add.accumulate(table, axis=1, out=table)  # #{keys <= b}
        guide[split] = -1  # equal to #{keys < b} wherever no key is b
        self.cdf, self.guide, self.buckets = cdf, guide, buckets
        self.cdf.flags.writeable = self.guide.flags.writeable = False

    def draw(self, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Per uniform u[i], the first column j with cdf[rows[i], j] >= u[i]
        (of the 1-D table when rows is None)."""
        bucket = (u * self.buckets).astype(np.intp)
        col = self.guide.take(bucket if rows is None else bucket + rows * (self.buckets + 1))
        split = np.flatnonzero(col < 0)
        if rows is None:
            col[split] = np.searchsorted(self.cdf, u[split])
        else:  # a one-bucket guide can split every draw: gather their rows in blocks
            step = block_rows(self.cdf.itemsize * self.cdf.shape[-1], "Sampler.draw")
            for lo in range(0, split.size, step):
                part = split[lo:lo + step]
                col[part] = (self.cdf[rows[part]] < u[part, None]).argmin(axis=1)
        return col


def run_blocks(fn, n_tasks: int, workers: int = 1) -> list:
    """Evaluate fn(task_index) for every task; output list is in task order."""
    if workers <= 1:
        return [fn(b) for b in range(n_tasks)]
    from concurrent.futures import ThreadPoolExecutor  # imported for worker pools only

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_tasks)))


def mean_and_stderr(total: float, total_sq: float, count: int) -> tuple[float, float]:
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, float(np.sqrt(var / count))
