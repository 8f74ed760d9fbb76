"""Shared problem factories for the test suite.

Problems are tiny on purpose: everything downstream is verified against
exhaustive enumeration, so m^n * N has to stay desk-sized.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from genbound import (Algorithm, FiniteMeasure, LearningProblem, MarkovKernel,
                      erm_algorithm, gibbs_algorithm, ignore_algorithm,
                      loss_embedding)


def random_problem(gen: np.random.Generator, m_max: int = 3, n_max: int = 3,
                   big_n_max: int = 6, embed: bool = True) -> LearningProblem:
    """Seeded bounded-loss problem with at least two hypotheses.

    Two hypotheses are the floor because the partition chains need something
    to split; the embedding is the loss-row embedding, which certifies the
    sum-increment condition for the metric bounds.
    """
    m = int(gen.integers(2, m_max + 1))
    n = int(gen.integers(1, n_max + 1))
    big_n = int(gen.integers(2, big_n_max + 1))
    loss = gen.uniform(0.0, 1.0, size=(big_n, m))
    p_z = gen.dirichlet(np.ones(m))
    prob = LearningProblem(loss, FiniteMeasure(p_z), n, bound=1.0)
    if embed:
        prob = LearningProblem(loss, FiniteMeasure(p_z), n, bound=1.0,
                               embedding=loss_embedding(prob))
    return prob


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, and no GENBOUND_SEED."""
    env = {k: v for k, v in os.environ.items() if k != "GENBOUND_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH"))
        if p)
    return env


def tabulated_sup_by_fsum(proc, selector) -> float:
    """E[X_tau] of a tabulated process path by path, each selector rule's pick
    weighted and summed exactly by math.fsum: the reference for expected_sup_mc."""
    picks = []
    for row, (weight, path) in enumerate(zip(proc.weights, proc.paths)):
        if selector.rule == "argmax":
            pick = max(path)
        elif selector.rule == "fixed":
            pick = path[selector.index]
        else:
            pick = math.fsum(k * x for k, x in zip(selector.kernel.matrix[row], path))
        picks.append(weight * pick)
    return math.fsum(picks)


def algorithm_family(prob: LearningProblem) -> list[Algorithm]:
    return [gibbs_algorithm(prob, 0.0), gibbs_algorithm(prob, 1.0),
            gibbs_algorithm(prob, 10.0), erm_algorithm(prob)]


@pytest.fixture
def small_problem() -> LearningProblem:
    loss = np.array([[0.0, 0.4, 1.0],
                     [0.3, 0.1, 0.8],
                     [0.9, 0.5, 0.2],
                     [0.6, 0.7, 0.35]])
    prob = LearningProblem(loss, FiniteMeasure([0.5, 0.3, 0.2]), n=2, bound=1.0)
    return LearningProblem(loss, FiniteMeasure([0.5, 0.3, 0.2]), n=2, bound=1.0,
                           embedding=loss_embedding(prob))


@pytest.fixture
def gibbs_alg(small_problem) -> Algorithm:
    return gibbs_algorithm(small_problem, 1.0)


@pytest.fixture
def ignoring_alg(small_problem) -> Algorithm:
    return ignore_algorithm(small_problem)


@pytest.fixture
def tabular_alg(small_problem) -> Algorithm:
    """A hand-built kernel that is neither Gibbs nor ERM."""
    gen = np.random.default_rng(11)
    rows = gen.dirichlet(np.ones(small_problem.num_hypotheses),
                         size=small_problem.num_samples)
    return Algorithm(MarkovKernel(rows), kind="table")
