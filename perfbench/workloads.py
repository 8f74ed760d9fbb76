"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of strata. A stratum fixes the shape of its
inputs (problem size, algorithm, CLI command), so the cost of a pass does
not depend on the seed; each stratum owns a pool of entries (``pool_size``
in workloads.json) whose exact outputs are recorded in
``reference/<workload>.json``. The workload seed orders each stratum's
pool and the pass number picks the next entry in that order, so the passes
of a run use distinct entries until the pool runs out. Drawing without
replacement keeps the mix of cheap and dear entries, and so the latency
percentiles, from swinging with the seed. The program only ever sees the
generated JSON configs. ``verify`` has no pool: its inputs are suite seeds.

Pool entries are pure functions of (workload, stratum, entry), which is what
lets ``record.py`` regenerate them and the oracle look them up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
META = json.loads((HERE / "workloads.json").read_text())
POOL_SEED = 20230518
BOUND_TOKENS = ("thm1", "mi", "cmi", "coupling", "chain", "stochain", "wass", "transductive")
GIBBS_FAMILY = ({"kind": "gibbs", "beta": 0.0}, {"kind": "gibbs", "beta": 1.0},
                {"kind": "gibbs", "beta": 10.0}, {"kind": "erm"})
MC_SAMPLES = 50_000      # per expected_gen call; a bounds op makes four
TAIL_SAMPLES = 200_000   # one call per tail op, so both ops cost about the same
FT_SAMPLES = 50_000
FT_POINTS = 40


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call on a single-entry config."""

    key: str                   # reference key: "<stratum>/<entry>/<name>"
    argv: tuple                # CLI arguments; "{config}" is replaced by the config path
    config: dict | None = field(default=None, compare=False)
    mc_samples: int = 0        # draws per Monte Carlo call, 0 when exact

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def check(self) -> str:
        """How the oracle reads the output: "ft", "verify" or "rows" (bounds, tail)."""
        return self.command if self.command in ("ft", "verify") else "rows"


def _rng(workload: str, stratum: int, entry: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, *workload.encode(), stratum, entry])


def _problem(rng: np.random.Generator, m: int, n: int, big_n: int, algorithm: dict) -> dict:
    """Bounded loss in [0, 1], Dirichlet outcome law, loss-row embedding."""
    loss = rng.uniform(0.0, 1.0, size=(big_n, m))
    p_z = rng.dirichlet(np.ones(m))
    alg = dict(algorithm)
    if alg.get("prior") == "random":
        alg["prior"] = rng.dirichlet(np.ones(big_n)).tolist()
    return {"m": m, "N": big_n, "n": n, "loss": loss.tolist(), "p_z": p_z.tolist(),
            "bound": 1.0, "embedding": {"dim": m, "points": (np.sqrt(6.0) * loss).tolist()},
            "algorithm": alg}


def _space(rng: np.random.Generator, size: int) -> dict:
    """Distance matrix of Gaussian points in R^3, so the space is Euclidean."""
    pts = rng.normal(0.0, 1.0, size=(size, 3))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return {"id": "space", "dist": dist.tolist()}


# Each stratum: (label, make(rng) -> config, [(op name, argv, mc_samples)]).

def _sweep_strata():
    shapes = [(2, 2, 3), (2, 3, 4), (3, 1, 5), (3, 2, 6), (3, 3, 4), (2, 3, 6)]
    ops = [("bounds", ("bounds", "--config", "{config}"), 0),
           ("thm1", ("bounds", "--config", "{config}", "--bounds", "thm1"), 0),
           ("tail", ("tail", "--config", "{config}"), 0)]
    out = []
    for m, n, big_n in shapes:
        for alg in GIBBS_FAMILY:
            label = f"m{m}n{n}N{big_n}-{alg['kind']}{alg.get('beta', '')}"
            out.append((label, lambda rng, m=m, n=n, b=big_n, a=alg: _problem(rng, m, n, b, a), ops))
    return out


def _large_strata():
    ops = [(tok, ("bounds", "--config", "{config}", "--bounds", tok), 0)
           for tok in BOUND_TOKENS]
    ops.append(("tail", ("tail", "--config", "{config}"), 0))
    out = []
    for m, n, big_n in [(4, 4, 16), (3, 5, 8)]:
        for alg in ({"kind": "gibbs", "beta": 1.0}, {"kind": "erm"}):
            label = f"m{m}n{n}N{big_n}-{alg['kind']}"
            out.append((label, lambda rng, m=m, n=n, b=big_n, a=alg: _problem(rng, m, n, b, a), ops))
    return out


def _mc_strata():
    def mc(samples):
        return ("--mc-samples", str(samples), "--workers", "1", "--seed", "{seed}")

    out = []
    for mode in ("eg", "uniform"):
        out.append((f"ft-{mode}", lambda rng: {"spaces": [_space(rng, FT_POINTS)]},
                    [("ft", ("ft", "--config", "{config}", "--mu-mode", mode)
                      + mc(FT_SAMPLES), FT_SAMPLES)]))
    ops = [("bounds", ("bounds", "--config", "{config}", "--bounds", "thm1,mi,coupling")
            + mc(MC_SAMPLES), MC_SAMPLES),
           ("tail", ("tail", "--config", "{config}") + mc(TAIL_SAMPLES), TAIL_SAMPLES)]
    algs = ({"kind": "gibbs", "beta": 0.5}, {"kind": "gibbs", "beta": 1.0},
            {"kind": "gibbs", "beta": 10.0}, {"kind": "erm"}, {"kind": "ignore"},
            {"kind": "ignore", "prior": "random"})
    for m, n, big_n in [(3, 4, 6), (4, 3, 6)]:
        for alg in algs:
            label = (f"m{m}n{n}N{big_n}-{alg['kind']}{alg.get('beta', '')}"
                     f"{'-prior' if 'prior' in alg else ''}")
            out.append((label, lambda rng, m=m, n=n, b=big_n, a=alg: _problem(rng, m, n, b, a), ops))
    return out


STRATA = {"sweep": _sweep_strata, "large": _large_strata, "mc": _mc_strata}

# verify needs no pool: every suite must report passed, whatever its seed.
# (suite, trials, ops per pass): trials sized so every op costs about the same.
VERIFY_PLAN = (("transport", 4, 16), ("lemma", 500, 2), ("golden", 220, 2), ("psi", 20, 1))


def pool_size(workload: str) -> int:
    return int(META["workloads"][workload]["pool_size"])


def pool_ops(workload: str, stratum: int, entry: int) -> list[Op]:
    """All ops of one pool entry; argv still holds the {seed} placeholder."""
    label, make, specs = STRATA[workload]()[stratum]
    config = make(_rng(workload, stratum, entry))
    if "problems" not in config and "spaces" not in config:
        config = {"problems": [config]}
    return [Op(f"{label}/{entry}/{name}", argv, config, samples)
            for name, argv, samples in specs]


def build(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """The ops of one pass of a workload, in a fixed order.

    Every pass of a run takes the next entry of each stratum's seeded pool
    order, so a run covers more of the pool than one pass does; the shapes,
    and so the cost, stay the same.
    """
    if workload not in META["workloads"]:
        raise ValueError(f"unknown workload {workload!r}")
    pass_seed = seed * 1000 + pass_index
    if workload == "verify":
        ops = []
        for suite, trials, count in VERIFY_PLAN:
            for j in range(count):
                suite_seed = pass_seed * 64 + j
                ops.append(Op(f"{suite}/{suite_seed}", ("verify", "--suite", suite, "--trials",
                                                        str(trials), "--seed", str(suite_seed))))
        return ops
    size = pool_size(workload)
    ops = []
    for stratum in range(len(STRATA[workload]())):
        order = np.random.default_rng([POOL_SEED, seed & (2**64 - 1), stratum]).permutation(size)
        entry = int(order[pass_index % size])
        for op in pool_ops(workload, stratum, entry):
            argv = tuple(a.replace("{seed}", str(pass_seed)) for a in op.argv)
            ops.append(Op(op.key, argv, op.config, op.mc_samples))
    return ops


def warmup_ops() -> list[Op]:
    """Tiny ops that load every lazily imported code path once, untimed."""
    rng = np.random.default_rng(POOL_SEED)
    prob = {"problems": [_problem(rng, 2, 2, 3, {"kind": "gibbs", "beta": 1.0})]}
    space = {"spaces": [_space(rng, 4)]}
    return [Op("warmup/bounds", ("bounds", "--config", "{config}"), prob),
            Op("warmup/tail", ("tail", "--config", "{config}", "--mc-samples", "1000",
                               "--workers", "2"), prob, 1000),
            Op("warmup/ft", ("ft", "--config", "{config}", "--mu-mode", "eg", "--mc-samples",
                             "1000", "--workers", "2"), space, 1000),
            Op("warmup/verify", ("verify", "--suite", "all", "--trials", "2"))]
