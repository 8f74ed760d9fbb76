"""Record the oracle's reference outputs for every pool entry.

    python3 perfbench/record.py [workload ...]

Runs each pool op through the CLI once, without Monte Carlo, and writes
``perfbench/reference/<workload>.json``. Run it only at a commit whose
outputs are trusted: the references are what later commits are held to.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

import harness
import oracle
import workloads

MC_FLAGS = ("--mc-samples", "--workers", "--seed")


def exact_argv(op, argv: list[str]) -> list[str]:
    """The op without its Monte Carlo flags; ft keeps them, its bound is exact."""
    argv = [a.replace("{seed}", "0") for a in argv]
    if op.check == "ft":
        return argv
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a in MC_FLAGS:
            skip = True
        else:
            out.append(a)
    return out


def exact_moments(problem: dict) -> dict:
    """Exact E|gen|, E[gen] and the standard deviations of |gen| and gen."""
    from genbound.learning import algorithm_from_json, problem_from_json

    prob = problem_from_json(problem)
    alg = algorithm_from_json(prob, problem["algorithm"])
    joint = prob.sample_probs[:, None] * alg.matrix
    gen = prob.gen_matrix.T
    signed, absolute = float((joint * gen).sum()), float((joint * np.abs(gen)).sum())
    second = float((joint * gen**2).sum())
    return {"lhs": {"signed": signed, "absolute": absolute},
            "sd": {"signed": math.sqrt(max(second - signed**2, 0.0)),
                   "absolute": math.sqrt(max(second - absolute**2, 0.0))}}


def record(workload: str, runner: harness.Runner) -> dict:
    refs = {}
    for stratum in range(len(workloads.STRATA[workload]())):
        for entry in range(workloads.pool_size(workload)):
            ops = workloads.pool_ops(workload, stratum, entry)
            for op in ops:
                code, out, err, _ = runner.call(exact_argv(op, runner.argv(op)))
                if code is None:
                    raise RuntimeError(f"{op.key} raised: {err}")
                rows = oracle.csv_rows(out)
                if op.check == "ft":
                    refs[op.key] = {"exit": code,
                                    "rows": [[r["space_id"], float(r["bound"])] for r in rows]}
                    continue
                refs[op.key] = {"exit": code, "rows": [
                    [r["bound_name"], float(r["lhs"]), float(r["rhs"]),
                     json.loads(r["components_json"]).get("endpoint")] for r in rows]}
            problems = ops[0].config.get("problems")
            if problems:
                refs[oracle.entry_key(ops[0].key)] = exact_moments(problems[0])
            print(f"{workload}: stratum {stratum} entry {entry} recorded", file=sys.stderr)
    return refs


def main(names: list[str]) -> int:
    harness.use_source_tree()
    runner = harness.Runner(harness.ROOT / ".perfbench_work" / f"record-{os.getpid()}")
    try:
        for workload in names or sorted(workloads.STRATA):
            refs = record(workload, runner)
            path = oracle.HERE / "reference" / f"{workload}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
            print(f"wrote {path} ({len(refs)} entries)", file=sys.stderr)
    finally:
        runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
