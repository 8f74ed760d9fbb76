"""Dump, and compare, the outputs of every benchmark pool op of a source tree.

    python3 tools/pool_outputs.py dump TREE OUT.json
    python3 tools/pool_outputs.py compare A.json B.json

`dump` runs, in this process, every entry of every stratum of the ``sweep``,
``large`` and ``mc`` pools (Monte Carlo seed 0) and passes 0-2 of
``verify`` at seed 0, importing genbound from TREE/src through TREE's
``perfbench/harness.py`` and ``perfbench/workloads.py`` (read, never
written). It writes each op's exit code, stdout and stderr. `compare`
prints every op whose record differs and exits 1 on any difference, so a
change meant to keep every output byte-identical is checked by dumping the
parent's tree and the change's tree, one process each, and comparing.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

VERIFY_PASSES = 3


def pool(workloads) -> list[tuple[str, object]]:
    """(key, op) for every pool op, the seed placeholder set to 0, then verify."""
    ops = []
    for name in workloads.STRATA:
        for stratum in range(len(workloads.STRATA[name]())):
            for entry in range(workloads.pool_size(name)):
                for op in workloads.pool_ops(name, stratum, entry):
                    argv = tuple(a.replace("{seed}", "0") for a in op.argv)
                    ops.append((f"{name}/{op.key}", workloads.Op(op.key, argv, op.config)))
    for index in range(VERIFY_PASSES):
        ops += [(f"verify/{index}/{op.key}", op) for op in workloads.build("verify", 0, index)]
    return ops


def dump(tree: Path, out: Path) -> int:
    sys.path.insert(0, str(tree.resolve() / "perfbench"))
    import harness
    import workloads

    harness.use_source_tree()
    with tempfile.TemporaryDirectory() as tmp:
        runner = harness.Runner(Path(tmp) / "configs")
        records = {}
        for key, op in pool(workloads):
            code, stdout, stderr, _ = runner.call(runner.argv(op))
            records[key] = {"argv": list(op.argv), "code": code, "stdout": stdout,
                            "stderr": stderr.replace(tmp, "{tmp}")}
        runner.close()
    out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} ops from {tree} written to {out}")
    return 0


def compare(a: Path, b: Path) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    keys = left.keys() | right.keys()
    differ = sorted(key for key in keys if left.get(key) != right.get(key))
    for key in differ:
        if key not in left or key not in right:
            print(f"{key}: only in {a if key in left else b}")
        else:
            fields = [f for f in left[key] if left[key][f] != right[key][f]]
            print(f"{key}: {', '.join(fields)} differ")
    print(f"{len(keys) - len(differ)} of {len(keys)} ops identical")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    pd = subs.add_parser("dump", help="run every pool op of TREE and write the outputs")
    pd.add_argument("tree", type=Path)
    pd.add_argument("out", type=Path)
    pc = subs.add_parser("compare", help="exit 1 if two dumps differ")
    pc.add_argument("a", type=Path)
    pc.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.tree, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
