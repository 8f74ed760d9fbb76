"""Output oracle: checks each op's stdout against the recorded references.

References come from ``record.py`` run at the commit that defined the
benchmark. The rules:

- ``lhs`` of an exact row matches within LHS_TOL (absolute);
- ``rhs`` matches within RHS_REL_TOL relative (RHS_FLOOR absolute for values
  that are zero up to rounding), except for the bounds whose value depends
  on which optimal plan the LP returns; those only need slack >= -SLACK_TOL,
  and ``wasserstein_geodesic`` its ``endpoint`` component (W_2 is unique);
- a Monte Carlo lhs lies within MC_SIGMAS standard errors of the exact one,
  the standard error taken from the exact law, not from the estimate;
- an ``ft`` row reproduces its bound and has mc_mean - 4 stderr <= bound;
- a ``verify`` suite reports passed.

An op that exits non-zero has failed whatever its rows say; its rows are
still checked, so a wrong number is never hidden behind a failed verdict.
An op that fails without printing anything has failed, but printed nothing
wrong; only an op that exits 0 must print what the reference printed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
LHS_TOL = 1e-12
RHS_REL_TOL = 1e-9
RHS_FLOOR = 1e-15
SLACK_TOL = 1e-9
MC_SIGMAS = 6.0
FT_SIGMAS = 4.0
PLAN_DEPENDENT = {"coupling", "coupling_simplified", "wasserstein_geodesic"}
LHS_KIND = {"density": "absolute", "mi": "absolute", "cmi": "absolute",
            "coupling": "signed", "coupling_simplified": "signed", "chain": "signed",
            "chain_metric": "signed", "stochastic_chain": "signed",
            "wasserstein_geodesic": "signed"}


def load(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(value: float, ref: float, rel: float = RHS_REL_TOL) -> bool:
    if math.isinf(ref) or math.isnan(ref):
        return value == ref or (math.isnan(value) and math.isnan(ref))
    return abs(value - ref) <= rel * abs(ref) + RHS_FLOOR


def entry_key(op_key: str) -> str:
    return op_key.rsplit("/", 1)[0]


def _check_row(row: dict, ref: list | None, entry: dict, samples: int) -> str | None:
    name = row["bound_name"]
    lhs, rhs = float(row["lhs"]), float(row["rhs"])
    if ref is not None and name != ref[0]:
        return f"row {name} where the reference has {ref[0]}"
    if name == "tail_pointwise" and row["mode"] == "mc":
        p = ref[1]
        if abs(lhs - p) > MC_SIGMAS * math.sqrt(p * (1.0 - p) / samples) + LHS_TOL:
            return f"{name}: MC violation {lhs} far from exact {p}"
        return None if rhs == ref[2] else f"{name}: delta {rhs} != {ref[2]}"
    kind = LHS_KIND.get(name)
    exact_lhs = ref[1] if ref is not None else (entry["lhs"][kind] if kind else None)
    if exact_lhs is None:
        return f"unexpected row {name}"
    if row["mode"] == "mc":
        spread = MC_SIGMAS * entry["sd"][kind] / math.sqrt(samples) + LHS_TOL
        if abs(lhs - exact_lhs) > spread:
            return f"{name}: MC lhs {lhs} far from exact {exact_lhs}"
    elif abs(lhs - exact_lhs) > LHS_TOL:
        return f"{name}: lhs {lhs!r} != {exact_lhs!r}"
    if ref is None or name in PLAN_DEPENDENT:
        if rhs - exact_lhs < -SLACK_TOL:
            return f"{name}: slack {rhs - exact_lhs} < -{SLACK_TOL}"
        if ref is not None and name == "wasserstein_geodesic":
            endpoint = json.loads(row["components_json"])["endpoint"]
            if not _close(float(endpoint), ref[3]):
                return f"{name}: endpoint {endpoint!r} != {ref[3]!r}"
        return None
    return None if _close(rhs, ref[2]) else f"{name}: rhs {rhs!r} != {ref[2]!r}"


def check(op, code: int | None, stdout: str | None, refs: dict) -> str | None:
    """None when the op's output agrees with the oracle, else the reason."""
    if not stdout:
        return None if code != 0 else "exit 0 without output"
    if op.check == "verify":
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return "verify printed something other than JSON"
        suites = payload if isinstance(payload, list) else [payload]
        failed = [s["suite"] for s in suites if not s.get("passed")]
        return f"suite {failed} did not pass" if failed else None
    ref = refs.get(op.key)
    if ref is None:
        return f"no reference recorded for {op.key}"
    rows = csv_rows(stdout)
    if ref["rows"] and len(rows) != len(ref["rows"]):
        return f"{len(rows)} rows where the reference has {len(ref['rows'])}"
    if op.check == "ft":
        row, (_, bound) = rows[0], ref["rows"][0]
        if not _close(float(row["bound"]), bound):
            return f"ft bound {row['bound']} != {bound!r}"
        if float(row["mc_mean"]) - FT_SIGMAS * float(row["mc_stderr"]) > bound:
            return "ft: Monte Carlo mean exceeds the bound"
        return None
    entry = refs.get(entry_key(op.key), {})
    for i, row in enumerate(rows):
        reason = _check_row(row, ref["rows"][i] if ref["rows"] else None, entry,
                            op.mc_samples)
        if reason:
            return reason
    return None
