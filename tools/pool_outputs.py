"""Dump, and compare, the outputs of every benchmark pool op of a source tree.

    python3 tools/pool_outputs.py dump TREE OUT.json
    python3 tools/pool_outputs.py compare A.json B.json [--rel-tol X]
    python3 tools/pool_outputs.py reach TREE

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
included, by at most X relative (inf, -inf and nan must match as text). An
``ft`` row's ``mc_mean`` is a Monte Carlo estimate, so it is judged by the two
rows' standard errors instead: |a - b| <= 4 sqrt(se_a^2 + se_b^2); its
``mc_stderr`` is reported as a relative change and judged by neither rule. It
prints the largest relative change per ``bound_name`` (per column for ``ft``),
the largest ``mc_mean`` move in combined standard errors, and a count of the
``ft`` ops whose ``mc_mean`` moved; it exits 1 on any op outside the tolerance.
A ``verify`` op matches when its argv, exit code, stderr and each suite's
``suite``, ``trials``, ``tol``, ``passed`` and ``checks`` agree and its
``max_violation`` moved by at most VIOLATION_TOL = 1e-14 absolute, whatever X
is: a violation is a residual near 0, where a relative change means nothing,
and 1e-14 is about 45 ulps of 1, the rounding of a residual of unit-scale
data. A moved ``worst_case_input`` is printed, not failed, since a rounding
move can change which trial attains the maximum.

`reach` runs the ops that `dump` runs, then every script in TREE/demos, all in
this process under ``sys.setprofile`` (and ``threading.setprofile`` for the
Monte Carlo worker threads), and prints each function defined in
TREE/src/genbound, nested ones included, that none of them entered. A demo's
stdout is discarded; the CLI subprocesses a demo starts import genbound from
TREE/src but are not traced.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

VERIFY_PASSES = 3
MC_SIGMAS = 4.0  # an ft mc_mean may move by this many combined standard errors
VIOLATION_TOL = 1e-14  # a verify max_violation may move by this much, absolute
VERIFY_FIELDS = ("suite", "trials", "tol", "passed", "checks")


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


def run_pool(tree: Path) -> dict:
    """{key: argv, exit code, stdout and stderr} of every pool op of TREE, run in this process."""
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
    return records


def dump(tree: Path, out: Path) -> int:
    records = run_pool(tree)
    out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} ops from {tree} written to {out}")
    return 0


def functions(package: Path) -> dict:
    """{(file, first line): name} of every function defined in the package's modules.

    The first line is the one its code object reports: the first decorator's, if any.
    """
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), line)] = inner[:-1]
            visit(child, path, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def reach(tree: Path) -> int:
    tree = tree.resolve()
    defs = functions(tree / "src" / "genbound")
    entered = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        ops = len(run_pool(tree))
        demos = sorted((tree / "demos").glob("*.py"))
        for demo in demos:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    missed = sorted(set(defs) - entered)
    for path, line in missed:
        print(f"{Path(path).relative_to(tree)}:{line} {defs[path, line]}")
    print(f"{len(missed)} of {len(defs)} functions entered by none of {ops} ops "
          f"and {len(demos)} demos")
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


def _csv_change(x: dict, y: dict, worst: dict) -> tuple[float, float]:
    """(largest relative change, largest ft mc_mean move in combined standard
    errors) between two records of one CSV op; each relative change is also kept
    per bound_name (or column) in `worst`. An ft row's mc_mean and mc_stderr
    count only there and in the second number; inf where anything but a number differs."""
    if x["argv"] != y["argv"] or x["code"] != y["code"] or x["stderr"] != y["stderr"]:
        return math.inf, 0.0
    rx, ry = (list(csv.DictReader(io.StringIO(r["stdout"]))) for r in (x, y))
    if len(rx) != len(ry) or any(a.keys() != b.keys() for a, b in zip(rx, ry)):
        return math.inf, 0.0
    top = sigmas = 0.0
    ft = x["argv"][0] == "ft"
    for a, b in zip(rx, ry):
        for label, change in _row_changes(a, b):
            key = a.get("bound_name", label)
            worst[key] = max(worst.get(key, 0.0), change)
            if not (ft and label in ("mc_mean", "mc_stderr")):
                top = max(top, change)
        if ft and a["mc_mean"] != b["mc_mean"]:
            try:
                gap = abs(float(a["mc_mean"]) - float(b["mc_mean"]))
                move = gap / math.hypot(float(a["mc_stderr"]), float(b["mc_stderr"]))
            except (ValueError, ZeroDivisionError):
                move = math.inf
            sigmas = max(sigmas, move if move == move else math.inf)  # nan counts as inf
    return top, sigmas


def _verify_change(x: dict, y: dict) -> tuple[float, bool]:
    """(largest absolute max_violation move, whether a worst_case_input moved)
    between two records of one verify op; inf where anything else differs."""
    if x["argv"] != y["argv"] or x["code"] != y["code"] or x["stderr"] != y["stderr"]:
        return math.inf, False
    try:
        payloads = [json.loads(r["stdout"]) for r in (x, y)]
    except json.JSONDecodeError:
        return math.inf, False
    px, py = ([p] if isinstance(p, dict) else p for p in payloads)  # --suite all prints a list
    if len(px) != len(py) or any(a.keys() != b.keys() or any(a[f] != b[f] for f in VERIFY_FIELDS)
                                 for a, b in zip(px, py)):
        return math.inf, False
    move = 0.0
    for a, b in zip(px, py):
        va, vb = a["max_violation"], b["max_violation"]  # inf and nan are strings
        if va != vb:
            finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in (va, vb))
            move = max(move, abs(va - vb) if finite else math.inf)
    return move, any(a["worst_case_input"] != b["worst_case_input"] for a, b in zip(px, py))


def compare(a: Path, b: Path, rel_tol: float | None = None) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    keys = left.keys() | right.keys()
    differ = sorted(key for key in keys if left.get(key) != right.get(key))
    worst, failed, moved, top_sigmas, top_violation = {}, 0, 0, 0.0, 0.0
    for key in differ:
        if key not in left or key not in right:
            print(f"{key}: only in {a if key in left else b}")
            failed += 1
        elif rel_tol is not None and left[key]["argv"][0] == "verify":
            move, case_moved = _verify_change(left[key], right[key])
            top_violation = max(top_violation, move)
            if not move <= VIOLATION_TOL:
                print(f"{key}: max_violation moved by {move:.3g}, or not only it differs")
                failed += 1
            elif case_moved:
                print(f"{key}: worst_case_input moved (reported, not failed)")
        elif rel_tol is not None and left[key]["argv"][0] in ("bounds", "tail", "ft"):
            change, sigmas = _csv_change(left[key], right[key], worst)
            top_sigmas = max(top_sigmas, sigmas)
            if not (change <= rel_tol and sigmas <= MC_SIGMAS):
                print(f"{key}: differs by {change:.3g} relative and its mc_mean by "
                      f"{sigmas:.3g} standard errors, or not only in numbers")
                failed += 1
            elif sigmas > 0.0:
                moved += 1
        else:
            fields = [f for f in left[key] if left[key][f] != right[key][f]]
            print(f"{key}: {', '.join(fields)} differ")
            failed += 1
    for name in sorted(worst):
        print(f"largest relative change, {name}: {worst[name]:.3g}")
    if rel_tol is not None:
        print(f"largest ft mc_mean move: {top_sigmas:.3g} combined standard errors")
        print(f"largest verify max_violation move: {top_violation:.3g} absolute")
    print(f"{len(keys) - len(differ)} of {len(keys)} ops identical"
          + (f", {len(differ) - failed - moved} more within the tolerances"
             if rel_tol is not None else ""))
    if rel_tol is not None:
        print(f"{moved} ft ops whose mc_mean moved within {MC_SIGMAS:g} combined standard errors")
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
                    help="let numeric CSV fields differ by at most this relative change, "
                         "and verify max_violation by VIOLATION_TOL absolute")
    pr = subs.add_parser("reach", help="list the functions of TREE that no op or demo enters")
    pr.add_argument("tree", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.tree, args.out)
    if args.command == "reach":
        return reach(args.tree)
    return compare(args.a, args.b, args.rel_tol)


if __name__ == "__main__":
    sys.exit(main())
