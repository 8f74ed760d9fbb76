"""The command-line harness end to end: configs in, CSV out.

Everything the library computes is reachable from the `genbound` command.
This script writes a problem config and a metric-space config, runs the four
subcommands, and prints what comes back. Identical seeds give identical
bytes, regardless of worker count.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from genbound import FiniteMeasure, LearningProblem, loss_embedding

CLI = [sys.executable, "-m", "genbound.cli"]


def run(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True, check=True)


tmp = Path(tempfile.mkdtemp())

loss = np.array([[0.0, 0.4, 1.0], [0.3, 0.1, 0.8], [0.9, 0.5, 0.2]])
p_z = FiniteMeasure([0.5, 0.3, 0.2])
bare = LearningProblem(loss, p_z, n=2, bound=1.0)
# the geodesic bound needs an embedding, so ship one in the config
prob = LearningProblem(loss, p_z, n=2, bound=1.0, embedding=loss_embedding(bare))
problems_cfg = tmp / "problems.json"
problems_cfg.write_text(json.dumps({
    "problems": [
        {**json.loads(prob.to_json()), "algorithm": {"kind": "gibbs", "beta": 2.0}},
        {**json.loads(prob.to_json()), "algorithm": {"kind": "erm"}},
    ],
}))

spaces_cfg = tmp / "spaces.json"
spaces_cfg.write_text(json.dumps({
    "spaces": [{"dist": [[0.0, 1.0], [1.0, 0.0]], "id": "pair"}],
}))

print("$ genbound verify --suite all --trials 200 --seed 3")
out = run("verify", "--suite", "all", "--trials", "200", "--seed", "3")
for suite in json.loads(out.stdout):
    print(f"  {suite['suite']:10s} trials = {suite['trials']}, "
          f"max violation = {suite['max_violation']:.3e}")

print("\n$ genbound bounds --config problems.json --seed 3")
out = run("bounds", "--config", str(problems_cfg), "--seed", "3")
lines = out.stdout.strip().splitlines()
header = lines[0].split(",")
keep = ["bound_name", "lhs", "rhs", "slack"]
idx = [header.index(k) for k in keep]
print(f"  {'':20s}" + "".join(f"{k:>12s}" for k in keep[1:]))
for line in lines[1:]:
    cells = line.split(",")
    print(f"  {cells[idx[0]]:20s}"
          + "".join(f"{float(cells[i]):12.5f}" for i in idx[1:]))

print("\n$ genbound tail --config problems.json --delta 0.1 --seed 3")
out = run("tail", "--config", str(problems_cfg), "--delta", "0.1", "--seed", "3")
for line in out.stdout.strip().splitlines()[1:4]:
    print(f"  {line}")

print("\n$ genbound ft --config spaces.json --mu-mode grid --mc-samples 50000 --seed 3")
out = run("ft", "--config", str(spaces_cfg), "--mu-mode", "grid",
          "--mc-samples", "50000", "--seed", "3")
for line in out.stdout.strip().splitlines():
    print(f"  {line}")

first = run("bounds", "--config", str(problems_cfg), "--seed", "3", "--workers", "1")
second = run("bounds", "--config", str(problems_cfg), "--seed", "3", "--workers", "8")
print(f"\n1 worker vs 8 workers, byte-identical output: "
      f"{first.stdout == second.stdout}")
shutil.rmtree(tmp)
