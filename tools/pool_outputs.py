"""Dump, and compare, the outputs of every benchmark pool op of a source tree.

    python3 tools/pool_outputs.py dump TREE OUT.json
    python3 tools/pool_outputs.py compare A.json B.json [--rel-tol X]

`dump` runs, in this process, every entry of every stratum of the ``sweep``,
``large`` and ``mc`` pools (Monte Carlo seed 0) and passes 0-2 of
``verify`` at seed 0, importing genbound from TREE/src through TREE's
``perfbench/harness.py`` and ``perfbench/workloads.py`` (read, never
written). It writes each op's exit code, stdout and stderr. `compare`
prints every op whose record differs and exits 1 on any difference, so a
change meant to keep every output byte-identical is checked by dumping the
parent's tree and the change's tree, one process each, and comparing.

With ``--rel-tol X``, a CSV op (``bounds``, ``tail``, ``ft``) whose argv, exit
code, stderr, columns, row count and non-numeric fields match exactly may
differ in its numeric fields, the numbers inside ``components_json``
included, by at most X relative (inf, -inf and nan must match as text). It
prints the largest relative change per ``bound_name`` (per column for ``ft``)
and exits 1 on any op outside the tolerance.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
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


def _change(x: str, y: str) -> float:
    """Relative change between two CSV numbers; inf for text that differs otherwise."""
    if x == y:
        return 0.0
    try:
        fx, fy = float(x), float(y)
    except ValueError:
        return math.inf
    if not (math.isfinite(fx) and math.isfinite(fy)):
        return math.inf
    return abs(fx - fy) / max(abs(fx), abs(fy))


def _row_changes(x: dict, y: dict):
    """(label, relative change) of every field of two CSV rows, components one by one."""
    for field, value in x.items():
        if field != "components_json":
            yield field, _change(value, y[field])
            continue
        cx, cy = json.loads(value), json.loads(y[field])
        yield field, 0.0 if cx.keys() == cy.keys() else math.inf
        for name in cx.keys() & cy.keys():
            yield f"{field}.{name}", _change(json.dumps(cx[name]), json.dumps(cy[name]))


def _csv_change(x: dict, y: dict, worst: dict) -> float:
    """Largest relative change between two records of one CSV op, also kept per
    bound_name (or column) in `worst`; inf where anything but a number differs."""
    if x["argv"] != y["argv"] or x["code"] != y["code"] or x["stderr"] != y["stderr"]:
        return math.inf
    rx, ry = (list(csv.DictReader(io.StringIO(r["stdout"]))) for r in (x, y))
    if len(rx) != len(ry) or any(a.keys() != b.keys() for a, b in zip(rx, ry)):
        return math.inf
    top = 0.0
    for a, b in zip(rx, ry):
        for label, change in _row_changes(a, b):
            key = a.get("bound_name", label)
            worst[key] = max(worst.get(key, 0.0), change)
            top = max(top, change)
    return top


def compare(a: Path, b: Path, rel_tol: float | None = None) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    keys = left.keys() | right.keys()
    differ = sorted(key for key in keys if left.get(key) != right.get(key))
    worst, failed = {}, 0
    for key in differ:
        if key not in left or key not in right:
            print(f"{key}: only in {a if key in left else b}")
            failed += 1
        elif rel_tol is not None and left[key]["argv"][0] in ("bounds", "tail", "ft"):
            change = _csv_change(left[key], right[key], worst)
            if not change <= rel_tol:
                print(f"{key}: differs by {change:.3g} relative, or not only in numbers")
                failed += 1
        else:
            fields = [f for f in left[key] if left[key][f] != right[key][f]]
            print(f"{key}: {', '.join(fields)} differ")
            failed += 1
    for name in sorted(worst):
        print(f"largest relative change, {name}: {worst[name]:.3g}")
    print(f"{len(keys) - len(differ)} of {len(keys)} ops identical"
          + (f", {len(differ) - failed} more within {rel_tol:g} relative"
             if rel_tol is not None else ""))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    pd = subs.add_parser("dump", help="run every pool op of TREE and write the outputs")
    pd.add_argument("tree", type=Path)
    pd.add_argument("out", type=Path)
    pc = subs.add_parser("compare", help="exit 1 if two dumps differ")
    pc.add_argument("a", type=Path)
    pc.add_argument("b", type=Path)
    pc.add_argument("--rel-tol", type=float, default=None,
                    help="let numeric CSV fields differ by at most this relative change")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.tree, args.out)
    return compare(args.a, args.b, args.rel_tol)


if __name__ == "__main__":
    sys.exit(main())
