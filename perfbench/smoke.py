"""Smoke test of the benchmark's own machinery.

    python3 perfbench/smoke.py

On one small fixed problem and a three-trial transport suite it checks that
1. traced and untraced CLI outputs are byte-identical;
2. the tracer's transport.wasserstein call count equals the count cProfile
   reports for genbound/transport.py:wasserstein (the function is bound in
   bounds, verify and transport, and geodesic calls it inside transport);
3. a call arriving through a second binding while the function is already
   open is not counted again;
4. the oracle accepts the recorded outputs and rejects a perturbed rhs or lhs.
Exits 0 when all hold.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys

import harness


def main() -> int:
    harness.use_source_tree()
    import oracle
    import workloads
    from tracer import Tracer

    import genbound.bounds
    import genbound.transport
    import genbound.verify

    ops = workloads.pool_ops("sweep", 13, 0)[:1] + workloads.pool_ops("sweep", 13, 0)[2:]
    ops.append(workloads.Op("transport/7", ("verify", "--suite", "transport", "--trials", "3",
                                            "--seed", "7")))
    refs = oracle.load("sweep")
    runner = harness.Runner(harness.ROOT / ".perfbench_work" / f"smoke-{os.getpid()}")
    problems = []
    try:
        argvs = [runner.argv(op) for op in ops]
        profile = cProfile.Profile()
        profile.enable()
        plain = [runner.call(a) for a in argvs]
        profile.disable()
        stats = pstats.Stats(profile).stats
        profiled = sum(v[1] for k, v in stats.items()
                       if k[0].endswith(os.path.join("genbound", "transport.py"))
                       and k[2] == "wasserstein")

        tracer = Tracer(memory=False)
        tracer.install()
        try:
            bindings = {genbound.transport.wasserstein, genbound.bounds.wasserstein,
                        genbound.verify.wasserstein}
            if len(bindings) != 1:
                problems.append("wasserstein bindings were wrapped separately")
            traced = [tracer.run_op(i, runner.call, a) for i, a in enumerate(argvs)]
            counted = tracer.summary()["transport.wasserstein"]["calls"]
            outer = tracer._open("transport.wasserstein")
            from genbound.measures import FiniteMeasure
            mu = FiniteMeasure([0.5, 0.5])
            cost = genbound.transport.euclidean_cost(
                genbound.transport.EmbeddedSupport([[0.0], [1.0]]),
                genbound.transport.EmbeddedSupport([[0.0], [1.0]]))
            genbound.bounds.wasserstein(mu, mu, cost, 2.0)
            tracer._close(outer)
            nested = tracer.summary()["transport.wasserstein"]["calls"] - counted
        finally:
            tracer.uninstall()

        for op, a, b in zip(ops, plain, traced):
            if a[:2] != b[:2]:
                problems.append(f"{op.key}: traced output differs from untraced output")
            reason = oracle.check(op, a[0], a[1], refs)
            if reason:
                problems.append(f"{op.key}: oracle rejects the real output: {reason}")
        if counted != profiled or profiled == 0:
            problems.append(f"tracer counted {counted} wasserstein calls, cProfile {profiled}")
        if nested != 1:
            problems.append(f"a nested call through another binding counted {nested} times")

        rows = plain[0][1].splitlines()
        for i, line in enumerate(rows):
            if line.startswith("density,"):
                fields = line.split(",")
                for col, scale in ((3, 1 + 1e-6), (2, 1 + 1e-9)):
                    bad = list(fields)
                    bad[col] = repr(float(bad[col]) * scale)
                    text = "\n".join(rows[:i] + [",".join(bad)] + rows[i + 1:]) + "\n"
                    if oracle.check(ops[0], 0, text, refs) is None:
                        problems.append(f"oracle accepted a perturbed column {col}")
    finally:
        runner.close()

    for p in problems:
        print("FAIL", p)
    print(f"smoke: {len(ops)} ops, wasserstein calls traced {counted}, profiled {profiled}: "
          + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
