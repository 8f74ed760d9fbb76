"""Steadiness mode: run each workload over several seeds, print medians and spreads.

    python3 perfbench/steady.py [--workloads sweep,large,mc,verify] [--seeds 10]

Each run is a fresh ``run.py`` process on one of the seeds 0 .. seeds-1, at
the run length in BENCHMARK.json.
For every metric the table shows the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
bound from BENCHMARK.json; the op counts and failed fraction come from the
runs' result lines. The raw result lines are kept in
.perfbench_out/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import harness

RUN = harness.ROOT / "perfbench" / "run.py"


def main(argv=None) -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = harness.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    all_ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        with open(out_dir / f"steady-{workload}.jsonl", "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in results)
        attempted = [r["attempted"] for r in results]
        failed = [r["failed"] / r["attempted"] for r in results]
        correct = all(r["correct"] for r in results)
        all_ok &= correct
        print(f"\n{workload}: {len(results)} runs (seeds 0..{args.seeds - 1}), "
              f"ops per run {min(attempted)}-"
              f"{max(attempted)}, failed_frac median {statistics.median(failed):.4f} ratio "
              f"(min {min(failed):.4f}, max {max(failed):.4f}), correct {correct}")
        print(f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else "wide"
            print(f"  {name:40s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:>6} {flag}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
