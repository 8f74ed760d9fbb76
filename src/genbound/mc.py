"""Counter-based Monte Carlo substreams for the expected supremum of a Gaussian `ft` process.

Monte Carlo estimates only what has no exact value yet (`suprema.expected_sup_mc`): a
tabulated process's expected supremum is a finite sum, and `bounds` and `tail` enumerate.
Every block draws from a Philox generator keyed by (seed, block index), accumulates its
partial sums, and the sums are reduced in block order, so results are bitwise identical
however many workers ran the blocks.
"""

from __future__ import annotations

import numpy as np

BLOCK = 8192
_MASK64 = (1 << 64) - 1


def substream(seed: int, task: int) -> np.random.Generator:
    key = np.array([int(seed) & _MASK64, int(task) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_sizes(samples: int) -> list[int]:
    if samples <= 0:
        raise ValueError("samples must be positive")
    full, rem = divmod(samples, BLOCK)
    return [BLOCK] * full + ([rem] if rem else [])


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
