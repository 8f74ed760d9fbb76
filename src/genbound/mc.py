"""Counter-based Monte Carlo substreams.

Every MC consumer draws from Philox generators keyed by (seed, task index),
accumulates per-task partial sums, and reduces them in task order. That makes
results bitwise identical no matter how many workers ran the tasks. A
categorical draw reads one uniform against a `cdf_table` through `pick`.
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


def cdf_table(weights: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis with the last entry set to +inf."""
    table = np.cumsum(weights, axis=-1)
    table[..., -1] = np.inf
    return table


def pick(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per uniform u[i], the first j with table[i, j] >= u[i] (a 1-D table serves
    every draw): min((cumsum < u).sum(), k - 1) of the same rows, bit for bit."""
    return (table < u[:, None]).argmin(axis=1)


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
