"""Command-line harness: seeded verification suites and batch bound reports.

Exit codes: 0 all checks pass, 1 an inequality was violated (one stderr line
per failing row names it), 2 bad input (a GenboundError, named by its config
entry, or an unreadable file); any other exception is a bug and propagates.
Outputs are byte-deterministic for a fixed seed and config, whatever the worker
count. `tail` is `bounds` with the three tail tokens as its default.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds as bnd
from . import suprema as sup
from .errors import ConfigurationError, GenboundError, read_field
from .learning import algorithm_from_json, gibbs_algorithm, problem_from_json
from .measures import FiniteMeasure
from .verify import SUITES, run_suite

# every token, in the order its rows print; tail is bounds with TAIL_TOKENS as its default
BOUND_TOKENS = ("chain", "cmi", "coupling", "mi", "stochain", "thm1", "pointwise", "pacbayes",
                "transductive", "wass")
TAIL_TOKENS = ("pointwise", "pacbayes", "transductive")
SLACK_TOL = 1e-9
CSV_COLUMNS = ("bound_name", "mode", "lhs", "rhs", "slack", "n", "m", "N",
               "seed", "components_json")
FT_COLUMNS = ("space_id", "p", "mu_mode", "bound", "mc_mean", "mc_stderr",
              "samples", "seed")


def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)  # nan, inf, -inf as such


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else _fmt(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GENBOUND_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise GenboundError(f"GENBOUND_SEED is not an integer: {env!r}") from exc
    return 0


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _load_config(path: str | None) -> dict:
    if path is None:
        raise GenboundError("--config is required for this command")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise GenboundError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GenboundError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise GenboundError("config must be a JSON object")
    return cfg


def _token_reports(prob, alg, token: str, delta: float):
    if token == "thm1":
        return [bnd.bound_density(prob, alg)]
    if token == "mi":
        return [bnd.bound_mi(prob, alg)]
    if token == "cmi":
        return [bnd.bound_cmi(prob, alg)]
    if token == "coupling":
        return [bnd.bound_coupling(prob, alg), bnd.bound_coupling_simplified(prob, alg)]
    if token == "chain":
        metric = bnd.bound_chain(prob, alg, bnd.root_chain(prob, alg), bnd.chain_metric(prob))
        return [metric.details["loss_form"], metric]
    if token == "stochain":  # the root chain below its root; the root alone when N = 1
        chain = bnd.root_chain(prob, alg)
        k = min(1, len(chain.couplings))
        return [bnd.bound_stochastic_chain(prob, alg, bnd.ChainSpec(
            chain.kernels[k:], chain.couplings[k:], chain.references[k:]))]
    if token == "wass":
        return [bnd.bound_wasserstein_geodesic(prob, alg)]
    if token == "pointwise":
        return [bnd.tail_pointwise_check(prob, alg, delta)]
    if token == "pacbayes":
        return [bnd.tail_pac_bayes(prob, alg, delta)]
    if token == "transductive":
        return [bnd.tail_transductive(prob, alg, bnd.root_chain(prob, alg), delta)]
    raise GenboundError(f"unknown bound name {token!r}")


def _report_row(prob, report, seed: int) -> dict:
    """A BoundReport's row shows its components, a TailReport's its scalar details."""
    components = (report.components if isinstance(report, bnd.BoundReport) else
                  {k: v for k, v in report.details.items() if not isinstance(v, np.ndarray)})
    return {"bound_name": report.bound_name, "mode": "exact",
            "lhs": _fmt(float(report.lhs)), "rhs": _fmt(float(report.rhs)),
            "slack": _fmt(float(report.slack)), "n": prob.n, "m": prob.num_outcomes,
            "N": prob.num_hypotheses, "seed": seed,
            "components_json": json.dumps(_jsonable(components), sort_keys=True)}


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _finish(out: str | None, text: str, offenders: list) -> int:
    """Write the CSV, then one stderr line per failing row, each given as (config
    entry, row name, lhs, rhs); exit 1 if there is any."""
    _write(out, text)
    for where, name, lhs, rhs in offenders:
        print(f"violated: {where} {name}: lhs {_fmt(float(lhs))}, rhs {_fmt(float(rhs))}, "
              f"slack {_fmt(float(rhs) - float(lhs))}", file=sys.stderr)
    return 1 if offenders else 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [run_suite(name, args.trials, seed, args.tol) for name in names]
    payload = [_jsonable(json.loads(r.to_json())) for r in results]  # nan, inf as strings
    text = json.dumps(payload[0] if len(payload) == 1 else payload,
                      sort_keys=True, indent=2) + "\n"
    _write(args.out, text)
    return 0 if all(r.passed for r in results) else 1


def _violated(prob, report) -> bool:
    """A tail fails exactly when it has not passed. An expectation lhs counts as
    a violation only beyond SLACK_TOL plus its rounding level.

    That lhs, E[gen] or E|gen|, sums cell * gen over the S N (sample, hypothesis)
    cells. Each gen is within bnd._gen_rounding(prob) = (m + n) eps L of its exact
    value (L the largest |loss|), and the cells, of total mass 1, carry that into
    the sum. Each cell rounds n + 1 times (its n-fold sample probability and the
    product with gen) and the sum S N - 1 times more, each by at most eps / 2 of
    sum |cell * gen| = E|gen| <= 2 L. That adds (S N + n) eps L, so the level is
    (m + 2n + S N) eps L. The rhs is compared as computed.
    """
    if isinstance(report, bnd.TailReport):
        return not report.passed
    violated = report.slack < -SLACK_TOL
    if violated:  # the level costs a pass over the losses
        cells = prob.num_samples * prob.num_hypotheses
        level = bnd._gen_rounding(prob, prob.num_outcomes + 2 * prob.n + cells)
        violated = report.slack < -(SLACK_TOL + level)
    return violated


def cmd_bounds(args) -> int:
    """Rows of the requested tokens for each problems[i], in BOUND_TOKENS order; any
    error an entry raises, reading or evaluating it, names problems[i]."""
    seed = _resolve_seed(args)
    cfg = _load_config(args.config)
    requested = args.bounds.split(",")
    for token in requested:
        if token not in BOUND_TOKENS:
            raise GenboundError(f"unknown bound name {token!r}")
    tokens = [token for token in BOUND_TOKENS if token in requested]
    problems = cfg.get("problems")
    if not isinstance(problems, list) or not problems:
        raise GenboundError("config needs a non-empty 'problems' list")
    rows, offenders = [], []
    for idx, obj in enumerate(problems):
        try:
            prob = problem_from_json(obj)
            alg = read_field(obj, "algorithm", lambda a: algorithm_from_json(prob, a),
                             None) or gibbs_algorithm(prob, 1.0)
            if "transductive" in tokens:
                bnd.check_transductive_pairs(prob)  # before any token, the root chain among them
            for token in tokens:
                for report in _token_reports(prob, alg, token, args.delta):
                    rows.append(_report_row(prob, report, seed))
                    if _violated(prob, report):
                        offenders.append((f"problems[{idx}]", report.bound_name,
                                          report.lhs, report.rhs))
        except GenboundError as exc:
            raise type(exc)(f"problems[{idx}]: {exc}") from exc
    return _finish(args.out, _csv_text(CSV_COLUMNS, rows), offenders)


def cmd_ft(args) -> int:
    """One row per space: ft_sup_bound against E[sup X], exact for a tabulated process.

    A Gaussian row is a Monte Carlo estimate, a violation only beyond four standard
    errors. A tabulated row is `weights @ paths.max(axis=1)` over its P paths (stderr
    0, samples 0), a violation only beyond its rounding level. The max is exact; the
    dot product's P products and P - 1 sums round by at most P eps / 2 of
    sum w |x| <= max|paths|. The weights, renormalized by FiniteMeasure, sum to 1
    within P eps / 2, which moves the mean by that much of max|paths|. One more
    eps max|paths| takes the second-order terms: the level is (P + 1) eps max|paths|.
    The bound is compared as computed.
    """
    seed = _resolve_seed(args)
    cfg = _load_config(args.config)
    spaces = cfg.get("spaces")
    if spaces is None:
        spaces = [cfg]
    elif not isinstance(spaces, list) or not spaces:
        raise GenboundError("config needs a non-empty 'spaces' list")
    rows, offenders = [], []
    for idx, entry in enumerate(spaces):
        try:
            space = read_field(entry, "dist", sup.FiniteMetricSpace)
            p = read_field(entry, "p", float, 2.0)
            proc = read_field(entry, "process", lambda obj: sup.process_from_json(space, obj),
                              None) or sup.gaussian_from_metric(space, p)
            if proc.p != p:
                raise ConfigurationError(f"process has p = {_fmt(proc.p)}, "
                                         f"the entry p = {_fmt(p)}: give both the same p")
            if args.mu_mode == "uniform":
                mu = FiniteMeasure.uniform(space.size)
            else:
                mu, _ = sup.optimize_mu(FiniteMeasure.uniform(space.size), space, p,
                                        method=args.mu_mode)
            bound = sup.ft_sup_bound(mu, space, p)
            est, stderr = sup.expected_sup_mc(proc, space, sup.Selector("argmax"),
                                              args.mc_samples, seed, workers=args.workers)
        except GenboundError as exc:
            raise type(exc)(f"spaces[{idx}]: {exc}") from exc
        samples, level = args.mc_samples, 4.0 * stderr
        if proc.kind == "tabulated":  # nothing drawn, and the rounding level of the docstring
            samples, level = 0, (len(proc.paths) + 1) * 2.0**-52 * np.abs(proc.paths).max()
        if est - level > bound:
            offenders.append((f"spaces[{idx}]", "ft_sup_bound", est, bound))
        rows.append({"space_id": entry.get("id", idx), "p": _fmt(p),
                     "mu_mode": args.mu_mode, "bound": _fmt(bound),
                     "mc_mean": _fmt(est), "mc_stderr": _fmt(stderr),
                     "samples": samples, "seed": seed})
    return _finish(args.out, _csv_text(FT_COLUMNS, rows), offenders)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbound", description="generalization-bound verification harness; bad input "
        "exits 2, naming the config entry (problems[i] or spaces[i]) it came from")
    subs = parser.add_subparsers(dest="command", required=True)
    pv = subs.add_parser("verify", help="run property suites")
    pb = subs.add_parser("bounds", help="evaluate expectation and tail bounds on problems")
    pt = subs.add_parser("tail", help="bounds with the three tail tokens " + ",".join(TAIL_TOKENS))
    pt.set_defaults(bounds=",".join(TAIL_TOKENS))
    pf = subs.add_parser("ft", help="majorizing-measure bound vs expected supremum")
    # options are added in the order --help lists them
    for sub in (pb, pt, pf):
        sub.add_argument("--config")
    pv.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    pv.add_argument("--trials", type=int, default=1000)
    pv.add_argument("--tol", type=float, default=None)
    default = ",".join(t for t in BOUND_TOKENS if t not in ("pointwise", "pacbayes"))
    pb.add_argument("--bounds", default=default, help="comma-separated subset of "
                    + ",".join(BOUND_TOKENS) + ", rows in that order (default: %(default)s)")
    for sub in (pb, pt):
        sub.add_argument("--delta", type=float, default=0.05)
    pf.add_argument("--mu-mode", choices=("uniform", "grid", "eg"), default="uniform")
    ignored = "accepted and ignored: every %(prog)s row is exact"
    for sub in (pb, pt, pf):
        sub.add_argument("--mc-samples", type=int, default=10000 if sub is pf else 0,
                         help=None if sub is pf else ignored)
    for sub in (pv, pb, pt, pf):
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--out", default=None)
    for sub in (pb, pt, pf):
        sub.add_argument("--workers", type=int, default=1, help=None if sub is pf else ignored)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main reuses, built on its first call; importing builds none."""
    return build_parser()


COMMANDS = {"verify": cmd_verify, "bounds": cmd_bounds, "tail": cmd_bounds, "ft": cmd_ft}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        if getattr(args, "mc_samples", 0) < 0:
            raise GenboundError("--mc-samples must be nonnegative")
        if getattr(args, "trials", 1) < 1:
            raise GenboundError("--trials must be at least 1")
        if not math.isfinite(getattr(args, "tol", None) or 0.0):
            raise GenboundError("--tol must be finite")
        if getattr(args, "workers", 1) < 1:
            raise GenboundError("--workers must be at least 1")
        if not 0.0 < getattr(args, "delta", 0.5) < 1.0:
            raise GenboundError("--delta must be in (0, 1)")
        return COMMANDS[args.command](args)
    except (GenboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
