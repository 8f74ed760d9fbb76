"""genbound benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: set-up time from
fresh interpreters, then a fixed number of passes over the workload's ops
(``passes`` in workloads.json: 13-26 s on the reference machine, scaled
up for a longer --seconds). --trace 1 reports the per-layer metrics from a
traced pass set between two untraced ones (on ``mc`` also a traced
--workers 2 pass) and a tracemalloc pass. Every op's output goes through
the oracle; the last stdout line is the JSON result.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import harness
import oracle
import workloads

SETUP_REPEATS = 3
TAIL_OPS = 10  # op_tail_ms is the highest whole percentile with this many ops beyond it
MC_CALLERS = ("learning.expected_gen", "suprema.expected_sup_mc")  # they honour --workers
IMPORT_PACKAGES = {"import.scipy_optimize_ms": "scipy.optimize",
                   "import.scipy_special_ms": "scipy.special",
                   "import.scipy_integrate_ms": "scipy.integrate"}
IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")
BOUNDS_FNS = ("bound_density", "bound_mi", "bound_cmi", "bound_coupling",
              "bound_coupling_simplified", "bound_chain", "bound_stochastic_chain",
              "bound_wasserstein_geodesic", "tail_pointwise_check", "tail_pac_bayes",
              "tail_transductive", "optimal_couplings", "chain_from_partitions")
SUITES = ("lemma", "psi", "golden", "transport")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _python(args: list[str], **kw) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(harness.SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=harness.ROOT, check=True,
                          capture_output=True, text=True, timeout=120, **kw)


def measure_setup(repeats: int) -> float:
    """Median seconds from spawning an interpreter until genbound.cli is imported."""
    code = "import sys, time\nimport genbound.cli\nsys.stdout.write(str(time.time_ns()))"
    times = []
    for _ in range(repeats):
        start = time.time_ns()
        done = int(_python(["-c", code]).stdout)
        times.append((done - start) / 1e9)
    return statistics.median(times)


def parse_importtime(text: str) -> dict[str, float]:
    """Milliseconds: the whole import, and what each scipy package first cost.

    A package's cost is the cumulative time of its outermost lines, which
    covers a lazily loaded package whose own line -X importtime never prints.
    """
    lines = text.split("@@start\n", 1)[1].splitlines()
    rows = [(int(m[2]), len(m[3]) // 2, m[4]) for m in map(IMPORTTIME.match, lines) if m]
    parent, stack = [None] * len(rows), []
    for i in range(len(rows) - 1, -1, -1):  # a parent prints after its children
        while stack and rows[stack[-1]][1] >= rows[i][1]:
            stack.pop()
        parent[i] = stack[-1] if stack else None
        stack.append(i)
    out = {"import.total_ms": sum(cum for cum, depth, _ in rows if depth == 0) / 1e3}
    for metric, pkg in IMPORT_PACKAGES.items():
        def inside(i):
            return rows[i][2] == pkg or rows[i][2].startswith(pkg + ".")
        total = 0
        for i in range(len(rows)):
            j = parent[i]
            while j is not None and not inside(j):
                j = parent[j]
            if inside(i) and j is None:
                total += rows[i][0]
        out[metric] = total / 1e3
    return out


def measure_imports(repeats: int) -> dict[str, float]:
    code = "import sys\nsys.stderr.write('@@start\\n')\nimport genbound.cli"
    runs = [parse_importtime(_python(["-X", "importtime", "-c", code]).stderr)
            for _ in range(repeats)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


class Pass:
    """Outcome of one pass over the ops."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.latencies: list[float] = []
        self.outputs: list[str | None] = []
        self.failed: list[tuple[str, str]] = []
        self.wrong: list[tuple[str, str]] = []


def run_pass(runner, ops, argvs, refs, tracer=None, workers=None) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for i, (op, argv) in enumerate(zip(ops, argvs)):
        if workers is not None and "--workers" in argv:
            argv = list(argv)
            argv[argv.index("--workers") + 1] = str(workers)
        if tracer is None:
            code, out, err, seconds = runner.call(argv)
        else:
            code, out, err, seconds = tracer.run_op(i, runner.call, argv)
        result.latencies.append(seconds)
        result.outputs.append(out)
        if code != 0:
            last = err.strip().splitlines()[-1:] or ["no message"]
            result.failed.append((op.key, f"exit {code}: {last[0]}"))
        reason = oracle.check(op, code, out, refs)
        if reason:
            result.wrong.append((op.key, reason))
    result.wall = time.perf_counter() - start
    return result


def end_to_end(runner, args, refs, run_seconds: int):
    """The workload's fixed number of passes, each on fresh inputs.

    The count depends on --seconds only, never on how fast the code runs, so
    two commits measure the same ops at the same tail percentile.
    """
    passes_at_run_seconds = workloads.META["workloads"][args.workload]["passes"]
    count = max(passes_at_run_seconds,
                round(passes_at_run_seconds * args.seconds / run_seconds))
    setup_s = measure_setup(SETUP_REPEATS)
    passes: list[Pass] = []
    for index in range(count):
        ops = workloads.build(args.workload, args.seed, index)
        argvs = [runner.argv(op) for op in ops]
        passes.append(run_pass(runner, ops, argvs, refs))
    latencies = [x for p in passes for x in p.latencies]
    percentile = 100 * (len(latencies) - TAIL_OPS) // len(latencies)
    metrics = {"setup_s": setup_s,
               "wall_s": statistics.median(p.wall for p in passes),
               "op_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
               "op_tail_ms": 1e3 * float(np.percentile(latencies, percentile)),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return passes, metrics, (f"{len(passes)} passes x {len(ops)} ops, "
                             f"tail at p{percentile:g}")


def layer_metrics(summary, peaks, tracer, digests) -> dict[str, float]:
    def get(name, field="s"):
        return (peaks if field == "peak_alloc_mb" else summary).get(name, {}).get(field, 0.0)

    def unique(name):
        calls = get(name, "calls")
        return digests.get(name, 0) / calls if calls else 0.0

    m = {"cli.parse.s": get("cli.problem_from_json") + get("cli.algorithm_from_json"),
         "cli.self_s": get("op", "self_s"),
         "transport.wasserstein.calls": get("transport.wasserstein", "calls"),
         "transport.wasserstein.s": get("transport.wasserstein"),
         "transport.wasserstein.unique_frac": unique("transport.wasserstein"),
         "transport.lp.iterations": tracer.counts["transport.lp.iterations"],
         "transport.geodesic.calls": get("transport.geodesic", "calls"),
         "transport.geodesic.s": get("transport.geodesic"),
         "orlicz.orlicz_norm.calls": get("orlicz.orlicz_norm", "calls"),
         "orlicz.orlicz_norm.s": get("orlicz.orlicz_norm"),
         "bounds.increment_check.calls": get("bounds.increment_check", "calls"),
         "bounds.increment_check.s": get("bounds.increment_check"),
         "bounds.increment_check.unique_frac": unique("bounds.increment_check"),
         "orlicz.decorrelation_terms.s": get("orlicz.decorrelation_terms"),
         "learning.expected_gen.calls": get("learning.expected_gen", "calls"),
         "learning.expected_gen.s": get("learning.expected_gen"),
         "learning.expected_gen.unique_frac": unique("learning.expected_gen"),
         "learning.gibbs_algorithm.s": get("learning.gibbs_algorithm"),
         "learning.supersample_joint.s": get("learning.supersample_joint"),
         "learning.supersample_joint.bytes": tracer.counts["learning.supersample_joint.bytes"],
         "bounds.bound_coupling.tensor_bytes": tracer.counts["bounds.bound_coupling.tensor_bytes"],
         "measures.mutual_information.s": get("measures.mutual_information"),
         "measures.kl_divergence.calls": get("measures.kl_divergence", "calls"),
         "suprema.optimize_mu.s": get("suprema.optimize_mu"),
         "suprema.ft_bound.calls": get("suprema.ft_bound", "calls"),
         "suprema.majorizing_integral.calls": get("suprema.majorizing_integral", "calls"),
         "suprema.FiniteMetricSpace.s": get("suprema.FiniteMetricSpace"),
         "mc.blocks": tracer.counts["mc.blocks"]}
    for fn in BOUNDS_FNS:
        for field in ("calls", "s", "self_s", "peak_alloc_mb"):
            m[f"bounds.{fn}.{field}"] = get(f"bounds.{fn}", field)
    for suite in SUITES:
        m[f"verify.{suite}.s"] = get(f"verify.{suite}")
        m[f"verify.{suite}.checks"] = tracer.counts[f"verify.{suite}.checks"]
    return m


def mc_figures(tracer, ops, first: int, last: int) -> tuple[float, float]:
    """Over spans[first:last]: draws per second of the mc.run_blocks time under
    the callers that take --workers, and the seconds in tail_pointwise_check,
    whose Monte Carlo always runs on one thread."""
    spans = tracer.spans[first:last]
    blocks = [s for s in spans if s.name == "mc.run_blocks"
              and tracer.spans[s.parent].name in MC_CALLERS]
    busy = sum(s.end - s.start for s in blocks)
    tail = sum(s.end - s.start for s in spans if s.name == "bounds.tail_pointwise_check")
    return (sum(ops[s.op].mc_samples for s in blocks) / busy if busy else 0.0), tail


def _same_outputs(ops, first: Pass, second: Pass, what: str) -> None:
    for op, a, b in zip(ops, first.outputs, second.outputs):
        if a != b:
            second.wrong.append((op.key, what))


def traced(runner, ops, argvs, refs, workload: str, seed: int):
    """Timed span pass between two untraced ones, then a tracemalloc pass.

    The untraced passes on either side give the overhead without drift.
    tracemalloc slows Python-level allocation several times over, so peak
    allocations get a pass of their own over the ops that reach genbound.bounds.
    """
    from tracer import Tracer

    metrics = measure_imports(SETUP_REPEATS)
    plain = run_pass(runner, ops, argvs, refs)
    tracer = Tracer(memory=False)
    tracer.install()
    try:
        main = run_pass(runner, ops, argvs, refs, tracer)
        main_spans = len(tracer.spans)
        summary = tracer.summary()
        digests = {k: len(v) for k, v in tracer.digests.items()}
        w1, tail_w1 = mc_figures(tracer, ops, 0, main_spans)
        (w2, tail_w2), passes = (0.0, 0.0), [main, plain]
        if workload == "mc":
            double = run_pass(runner, ops, argvs, refs, tracer, workers=2)
            _same_outputs(ops, main, double, "--workers 2 output differs from --workers 1")
            w2, tail_w2 = mc_figures(tracer, ops, main_spans, len(tracer.spans))
            passes.append(double)
    finally:
        tracer.uninstall()
    _same_outputs(ops, plain, main, "traced output differs from untraced output")
    after = run_pass(runner, ops, argvs, refs)
    passes.append(after)
    out_dir = harness.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload}-{seed}.jsonl")

    picked = [i for i, op in enumerate(ops) if op.command in ("bounds", "tail")]
    memory = Tracer(memory=True)
    memory.install()
    try:
        passes.append(run_pass(runner, [ops[i] for i in picked], [argvs[i] for i in picked],
                               refs, memory))
    finally:
        memory.uninstall()
    metrics.update(layer_metrics(summary, memory.summary(), tracer, digests))
    metrics.update({"mc.draws_per_s.w1": w1, "mc.draws_per_s.w2": w2,
                    "mc.scaling_eff": w2 / (2.0 * w1) if w1 and w2 else 0.0,
                    "mc.tail_pointwise_check.s.w1": tail_w1,
                    "mc.tail_pointwise_check.s.w2": tail_w2,
                    "trace.overhead_frac": 2.0 * main.wall / (plain.wall + after.wall) - 1.0})
    ranking = sorted(((v["self_s"], k) for k, v in summary.items() if k != "op"), reverse=True)
    note = "traced pass, largest self time: " + ", ".join(
        f"{k} {s:.3f}s" for s, k in ranking[:4])
    return passes, metrics, note


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.use_source_tree()
    if args.workload not in workloads.META["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.META['workloads'])}", file=sys.stderr)
        return 2
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    refs = oracle.load(args.workload)
    runner = harness.Runner(harness.ROOT / ".perfbench_work"
                            / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        for op in workloads.warmup_ops():
            runner.call(runner.argv(op))
        if args.trace:
            ops = workloads.build(args.workload, args.seed)
            argvs = [runner.argv(op) for op in ops]
            passes, values, note = traced(runner, ops, argvs, refs, args.workload, args.seed)
            attempted, failed = len(ops), len(passes[0].failed)
        else:
            passes, values, note = end_to_end(runner, args, refs, spec["run_seconds"])
            attempted = sum(len(p.latencies) for p in passes)
            failed = sum(len(p.failed) for p in passes)
    finally:
        runner.close()

    wrong = sorted({w for p in passes for w in p.wrong})
    reasons = sorted({f for p in passes for f in p.failed})
    for key, why in reasons[:20]:
        print(f"failed op {key}: {why}", file=sys.stderr)
    for key, why in wrong[:20]:
        print(f"WRONG output {key}: {why}", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed {args.seed}: {note}; {attempted} ops attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.4f}), "
          f"{len(wrong)} wrong")
    for name, v in metrics.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
