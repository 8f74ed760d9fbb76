"""Command-line harness: seeded verification suites and batch bound reports.

Exit codes: 0 all checks pass, 1 an inequality was violated, 2 bad input (a
GenboundError or an unreadable file); any other exception is a bug and
propagates. Outputs are byte-deterministic for a fixed seed and config,
whatever the worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import bounds as bnd
from . import suprema as sup
from .errors import ConfigurationError, GenboundError, read_field
from .learning import algorithm_from_json, expected_gen, gibbs_algorithm, problem_from_json
from .measures import FiniteMeasure
from .verify import SUITES, run_suite

BOUND_TOKENS = ("thm1", "mi", "cmi", "coupling", "chain", "stochain", "wass",
                "transductive")
SLACK_TOL = 1e-9
CSV_COLUMNS = ("bound_name", "mode", "lhs", "rhs", "slack", "n", "m", "N",
               "seed", "components_json")
FT_COLUMNS = ("space_id", "p", "mu_mode", "bound", "mc_mean", "mc_stderr",
              "samples", "seed")


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
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


def _entries(cfg: dict):
    problems = cfg.get("problems")
    if not isinstance(problems, list) or not problems:
        raise GenboundError("config needs a non-empty 'problems' list")
    for idx, obj in enumerate(problems):
        try:
            prob = problem_from_json(obj)
            alg = read_field(obj, "algorithm", lambda a: algorithm_from_json(prob, a),
                             None) or gibbs_algorithm(prob, 1.0)
        except ConfigurationError as exc:
            raise ConfigurationError(f"problems[{idx}]: {exc}") from exc
        yield prob, alg


def _root_chain(prob, alg):
    return bnd.chain_from_partitions(prob, alg, bnd.dyadic_partitions(prob.num_hypotheses))


def _token_reports(prob, alg, token: str, delta: float, root_chain):
    if token == "thm1":
        return [bnd.bound_density(prob, alg)]
    if token == "mi":
        return [bnd.bound_mi(prob, alg)]
    if token == "cmi":
        return [bnd.bound_cmi(prob, alg)]
    if token == "coupling":
        return [bnd.bound_coupling(prob, alg), bnd.bound_coupling_simplified(prob, alg)]
    if token == "chain":
        metric = replace(root_chain, metric=bnd.chain_metric(prob))
        return [bnd.bound_chain(prob, alg, root_chain), bnd.bound_chain(prob, alg, metric)]
    if token == "stochain":
        parts = bnd.dyadic_partitions(prob.num_hypotheses, include_root=False)
        return [bnd.bound_stochastic_chain(prob, alg, bnd.chain_from_partitions(prob, alg, parts))]
    if token == "wass":
        return [bnd.bound_wasserstein_geodesic(prob, alg)]
    if token == "transductive":
        return [bnd.tail_transductive(prob, alg, root_chain, delta)]
    raise GenboundError(f"unknown bound name {token!r}")


def _report_rows(prob, report, seed: int, components: dict) -> dict:
    return {"bound_name": report.bound_name, "mode": report.mode,
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


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [run_suite(name, args.trials, seed, args.tol) for name in names]
    payload = [json.loads(r.to_json()) for r in results]
    text = json.dumps(payload[0] if len(payload) == 1 else payload,
                      sort_keys=True, indent=2) + "\n"
    _write(args.out, text)
    return 0 if all(r.passed for r in results) else 1


def _violated(report) -> bool:
    """A Monte Carlo lhs counts as a violation only beyond four standard errors."""
    if report.mode == "mc":
        return report.lhs - 4.0 * report.details["stderr"] > report.rhs + SLACK_TOL
    return report.slack < -SLACK_TOL


def cmd_bounds(args) -> int:
    seed = _resolve_seed(args)
    cfg = _load_config(args.config)
    tokens = args.bounds.split(",") if args.bounds else list(BOUND_TOKENS)
    for token in tokens:
        if token not in BOUND_TOKENS:
            raise GenboundError(f"unknown bound name {token!r}")
    rows, violated = [], False
    for prob, alg in _entries(cfg):
        # the dyadic chain with its root, shared by the chain and transductive tokens
        root_chain = (_root_chain(prob, alg) if {"chain", "transductive"} & set(tokens)
                      else None)
        for token in sorted(set(tokens)):
            for report in _token_reports(prob, alg, token, args.delta, root_chain):
                kind = getattr(report, "lhs_kind", None)
                if args.mc_samples and kind in ("absolute", "signed"):
                    est = expected_gen(prob, alg, mode="mc", samples=args.mc_samples,
                                       seed=seed, workers=args.workers)
                    lhs = est.absolute if kind == "absolute" else est.signed
                    stderr = (est.stderr_absolute if kind == "absolute"
                              else est.stderr_signed)
                    report = replace(report, lhs=lhs, mode="mc",
                                     details={**report.details, "samples": est.samples,
                                              "stderr": stderr})
                rows.append(_report_rows(prob, report, seed, getattr(report, "components", {})))
                violated = violated or _violated(report)
    _write(args.out, _csv_text(CSV_COLUMNS, rows))
    return 1 if violated else 0


def cmd_tail(args) -> int:
    seed = _resolve_seed(args)
    cfg = _load_config(args.config)
    delta = args.delta
    if not 0.0 < delta < 1.0:
        raise GenboundError("--delta must be in (0, 1)")
    rows, violated = [], False
    for prob, alg in _entries(cfg):
        mc_arg = (args.mc_samples, seed) if args.mc_samples else None
        reports = [bnd.tail_pointwise_check(prob, alg, delta, mc=mc_arg, workers=args.workers),
                   bnd.tail_pac_bayes(prob, alg, delta),
                   bnd.tail_transductive(prob, alg, _root_chain(prob, alg), delta)]
        for rep in reports:
            rows.append(_report_rows(prob, rep, seed, {
                k: v for k, v in rep.details.items() if not isinstance(v, np.ndarray)}))
            if not rep.passed:
                violated = True
    _write(args.out, _csv_text(CSV_COLUMNS, rows))
    return 1 if violated else 0


def cmd_ft(args) -> int:
    seed = _resolve_seed(args)
    cfg = _load_config(args.config)
    spaces = cfg.get("spaces")
    if spaces is None:
        spaces = [cfg]
    rows, violated = [], False
    for idx, entry in enumerate(spaces):
        try:
            space = read_field(entry, "dist", sup.FiniteMetricSpace)
            p = read_field(entry, "p", float, 2.0)
            proc = read_field(entry, "process", lambda obj: sup.process_from_json(space, obj),
                              None) or sup.gaussian_from_metric(space, p)
        except ConfigurationError as exc:
            raise ConfigurationError(f"spaces[{idx}]: {exc}") from exc
        if args.mu_mode == "uniform":
            mu = FiniteMeasure.uniform(space.size)
        else:
            mu, _ = sup.optimize_mu(FiniteMeasure.uniform(space.size), space, p,
                                    method=args.mu_mode, seed=seed)
        bound = sup.ft_sup_bound(mu, space, p)
        est, stderr = sup.expected_sup_mc(proc, space, sup.Selector("argmax"),
                                          args.mc_samples, seed, workers=args.workers)
        if est - 4.0 * stderr > bound:
            violated = True
        rows.append({"space_id": entry.get("id", idx), "p": _fmt(p),
                     "mu_mode": args.mu_mode, "bound": _fmt(bound),
                     "mc_mean": _fmt(est), "mc_stderr": _fmt(stderr),
                     "samples": args.mc_samples, "seed": seed})
    _write(args.out, _csv_text(FT_COLUMNS, rows))
    return 1 if violated else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genbound",
                                     description="generalization-bound verification harness")
    subs = parser.add_subparsers(dest="command", required=True)

    pv = subs.add_parser("verify", help="run property suites")
    pv.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    pv.add_argument("--trials", type=int, default=1000)
    pv.add_argument("--tol", type=float, default=None)

    pb = subs.add_parser("bounds", help="evaluate expectation bounds on problems")
    pb.add_argument("--config", required=False)
    pb.add_argument("--bounds", default=None,
                    help="comma-separated subset of " + ",".join(BOUND_TOKENS))
    pb.add_argument("--delta", type=float, default=0.05)
    pb.add_argument("--mc-samples", type=int, default=0)

    pt = subs.add_parser("tail", help="evaluate tail bounds on problems")
    pt.add_argument("--config", required=False)
    pt.add_argument("--delta", type=float, default=0.05)
    pt.add_argument("--mc-samples", type=int, default=0)

    pf = subs.add_parser("ft", help="majorizing-measure bound vs MC supremum")
    pf.add_argument("--config", required=False)
    pf.add_argument("--mu-mode", choices=("uniform", "grid", "eg"), default="uniform")
    pf.add_argument("--mc-samples", type=int, default=10000)

    for sub in (pv, pb, pt, pf):
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--out", default=None)
        sub.add_argument("--workers", type=int, default=1)
    return parser


COMMANDS = {"verify": cmd_verify, "bounds": cmd_bounds, "tail": cmd_tail, "ft": cmd_ft}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        if getattr(args, "mc_samples", 0) < 0:
            raise GenboundError("--mc-samples must be nonnegative")
        return COMMANDS[args.command](args)
    except (GenboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
