import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from genbound import (ConfigurationError, FiniteMeasure, LearningProblem, algorithm_from_json,
                      cli, expected_gen, hypothesis_marginal, mc, problem_from_json,
                      tail_pointwise_check, transport)
from genbound.errors import MEMORY_BUDGET

from conftest import random_problem, src_env


def problem_entry(seed=2, algorithm=None):
    gen = np.random.default_rng(seed)
    prob = random_problem(gen)
    entry = json.loads(prob.to_json())
    entry["algorithm"] = algorithm or {"kind": "gibbs", "beta": 1.0}
    return entry


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def without_mc_flags(argv):
    """argv without --mc-samples and --workers and their values."""
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg in ("--mc-samples", "--workers"):
            skip = True
        else:
            out.append(arg)
    return out


def run_exact_and_flagged(argv, capsys):
    """(code, stdout, stderr) of argv; each must equal the run without the Monte Carlo flags."""
    outs = []
    for args in (argv, without_mc_flags(argv)):
        code = cli.main(args)
        captured = capsys.readouterr()
        outs.append((code, captured.out, captured.err))
    assert outs[0] == outs[1], argv
    return outs[0]


def test_verify_single_suite_exit_zero(tmp_path, capsys):
    rc = cli.main(["verify", "--suite", "psi", "--trials", "200", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["suite"] == "psi"
    assert payload["passed"] is True


def test_verify_all_suites(tmp_path):
    out = tmp_path / "suites.json"
    rc = cli.main(["verify", "--trials", "60", "--seed", "0",
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list)
    assert sorted(item["suite"] for item in payload) == [
        "golden", "lemma", "psi", "transport"]
    assert all(item["passed"] for item in payload)


def test_verify_unknown_suite_exits_two():
    assert cli.main(["verify", "--suite", "mystery"]) == 2


def test_bounds_unknown_token_exits_two(tmp_path):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    assert cli.main(["bounds", "--config", cfg, "--bounds", "nope"]) == 2


def test_corrupt_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["bounds", "--config", str(bad)]) == 2
    assert cli.main(["bounds", "--config", str(tmp_path / "missing.json")]) == 2


def test_config_missing_field_exits_two_naming_it(tmp_path, capsys):
    entry = problem_entry()
    del entry["N"]
    cfg = write_config(tmp_path, {"problems": [problem_entry(), entry]})
    assert cli.main(["bounds", "--config", cfg, "--bounds", "thm1"]) == 2
    assert "problems[1]: field 'N' is missing" in capsys.readouterr().err
    bad_beta = problem_entry(algorithm={"kind": "gibbs", "beta": "hot"})
    cfg = write_config(tmp_path, {"problems": [bad_beta]})
    assert cli.main(["tail", "--config", cfg]) == 2
    assert "problems[0]: field 'algorithm': field 'beta'" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"spaces": [{"dist": [[0.0]], "process": {"kind": "gaussian"}}]})
    assert cli.main(["ft", "--config", cfg]) == 2
    assert "spaces[0]: field 'process': field 'cov' is missing" in capsys.readouterr().err


def test_config_non_integral_size_exits_two_naming_it(tmp_path, capsys):
    # int() truncated these: n 2.7 ran at n = 2, n true at n = 1, N 2.9 passed as 2
    for field, shift in (("n", 0.7), ("n", None), ("N", 0.9)):
        entry = problem_entry()
        entry[field] = True if shift is None else entry[field] + shift
        cfg = write_config(tmp_path, {"problems": [entry]})
        assert cli.main(["bounds", "--config", cfg, "--bounds", "thm1"]) == 2
        assert f"problems[0]: field {field!r}: expected an integer" in capsys.readouterr().err
    for n in (2.7, True):
        with pytest.raises(ConfigurationError):
            LearningProblem([[0.0, 1.0]], FiniteMeasure([0.5, 0.5]), n=n)
    assert LearningProblem([[0.0, 1.0]], FiniteMeasure([0.5, 0.5]), n=2.0).n == 2


def test_config_embedding_dim_must_match_its_points(tmp_path, capsys):
    entry = problem_entry()
    entry["embedding"] = {"dim": 7, "points": entry["embedding"]["points"]}
    cfg = write_config(tmp_path, {"problems": [entry]})
    assert cli.main(["bounds", "--config", cfg, "--bounds", "thm1"]) == 2
    assert "problems[0]: field 'embedding': dim 7 disagrees" in capsys.readouterr().err
    entry["embedding"]["dim"] = len(entry["embedding"]["points"][0])
    cfg = write_config(tmp_path, {"problems": [entry]})
    assert cli.main(["bounds", "--config", cfg, "--bounds", "thm1"]) == 0


@pytest.mark.parametrize("argv, dropped, message", [
    (["bounds", "--bounds", "wass"], "embedding",
     "bound_wasserstein_geodesic: problem has no embedding"),
    (["tail"], "bound", "subgaussian_sigma: declare bounded-loss mode"),
    (["bounds", "--bounds", "chain"], "bound", "chain_metric: bounded-loss mode required"),
    (["bounds", "--bounds", "thm1"], "N", "field 'N' is missing")])
def test_entry_errors_name_their_entry(tmp_path, capsys, argv, dropped, message):
    # only a config error in reading an entry named it; an error a bound raised on
    # the entry printed without problems[i]
    entry = problem_entry(seed=3)
    del entry[dropped]
    cfg = write_config(tmp_path, {"problems": [problem_entry(), entry]})
    assert cli.main([*argv, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: problems[1]: {message}"), captured.err
    assert captured.err.count("problems[") == 1, captured.err


def range_entry(scale):
    return {"m": 2, "N": 2, "n": 1, "loss": [[scale, 0.0], [0.0, scale]], "p_z": [0.5, 0.5],
            "bound": scale}


@pytest.mark.parametrize("scale", [1e308, 1e154])
def test_loss_range_whose_squares_overflow_exits_two(tmp_path, capsys, scale):
    # at 1e308 thm1, mi and tail died of OverflowError and chain printed nan;
    # at 1e154 coupling, stochain and transductive overflowed
    cfg = write_config(tmp_path, {"problems": [range_entry(scale)]})
    for argv in [["bounds", "--bounds", token] for token in cli.BOUND_TOKENS] + [["tail"]]:
        assert cli.main([*argv, "--config", cfg]) == 2, argv
        captured = capsys.readouterr()
        assert "loss range exceeds 1e+150" in captured.err and captured.out == "", argv


def test_loss_range_at_the_cap_still_answers(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problems": [range_entry(1e150)]})
    runs = [["bounds", "--bounds", token] for token in cli.BOUND_TOKENS if token != "wass"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow warns before it gives inf
        for argv in runs + [["tail"], ["tail", "--mc-samples", "1000"]]:
            assert cli.main([*argv, "--config", cfg]) == 0, argv
            rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert rows and all(math.isfinite(float(row[key])) for row in rows
                                for key in ("lhs", "rhs", "slack")), argv


def test_loss_magnitude_past_the_cap_exits_two(tmp_path, capsys):
    # a range of 0 passed the range cap; the n-draw means overflowed to inf,
    # and coupling and cmi printed lhs and slack nan with exit 0
    entry = {"m": 2, "N": 2, "n": 2, "loss": [[1e308, 1e308], [1e308, 1e308]],
             "p_z": [0.5, 0.5], "algorithm": {"kind": "erm"}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    for argv in [["bounds", "--bounds", token] for token in cli.BOUND_TOKENS] + [["tail"]]:
        assert cli.main([*argv, "--config", cfg]) == 2, argv
        captured = capsys.readouterr()
        assert "|loss| exceeds 1e+150" in captured.err and captured.out == "", argv


def test_transport_costs_highs_reads_as_infinite_exit_two(tmp_path, capsys):
    # squared distances of 2e22 made HiGHS fail the W_2 LP (a RuntimeError traceback)
    entry = {"m": 2, "N": 2, "n": 1, "loss": [[1e11, 0], [0, 1e11]], "p_z": [0.5, 0.5],
             "bound": 1e11, "embedding": {"points": [[1e11, 0], [0, 1e11]]}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    for token in ("coupling", "wass"):
        assert cli.main(["bounds", "--config", cfg, "--bounds", token]) == 2, token
        captured = capsys.readouterr()
        assert "LP_COST_CAP = 1e+18" in captured.err and captured.out == "", token
        assert "Traceback" not in captured.err


def test_embedded_points_too_far_apart_exit_two(tmp_path, capsys):
    # the squared coordinate differences overflowed: a RuntimeWarning, then a
    # CostMatrix error that named neither the entry nor the embedding
    entry = {"m": 2, "N": 2, "n": 1, "loss": [[1, 0], [0, 1]], "p_z": [0.5, 0.5],
             "bound": 1, "embedding": {"points": [[1e200, 0], [0, 1e200]]}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    for token in ("coupling", "wass"):
        assert cli.main(["bounds", "--config", cfg, "--bounds", token]) == 2, token
        captured = capsys.readouterr()
        assert "embedded points are too far apart" in captured.err and captured.out == "", token


def test_problem_over_the_memory_budget_exits_two(tmp_path, capsys):
    # a 2^21 * 2 problem was refused by the table store, after Gibbs had built the
    # samples, the risks and the kernel (6 s and 800 MB); the problem now refuses it
    entry = {"m": 2, "N": 2, "n": 21, "loss": [[1, 0], [0, 1]], "p_z": [0.5, 0.5], "bound": 1}
    cfg = write_config(tmp_path, {"problems": [entry]})
    for argv in (["bounds", "--bounds", "mi"], ["tail"]):
        assert cli.main([*argv, "--config", cfg]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert ("problems[0]: LearningProblem: an (m^n, max(n, N)) = (2^21, 21) table"
                in captured.err), argv
        assert "MEMORY_BUDGET" in captured.err, argv


def test_tables_over_the_memory_budget_exit_two_before_allocating(tmp_path, capsys,
                                                                   monkeypatch):
    # the first two passed the old cell cap and then asked numpy for the table: an 8 GiB
    # (S, S) pair table in tail_transductive, and a 1.3 GiB block of a 118 MB (S, N, N)
    # table (the chain's then; the product couplings' now, as chains are pair lists).
    # The (N, N, m) loss differences were counted by no check: chain peaked at 491 MiB
    # and stochain at 285 MiB at N = 3000. The distinct-row plans of wass are refused
    # before any LP runs
    gen = np.random.default_rng(60)
    tail = {"m": 2, "N": 1, "n": 15, "loss": [[0.2, 0.7]], "p_z": [0.5, 0.5], "bound": 1.0}
    loss = gen.uniform(0.0, 1.0, size=(60, 2)).tolist()
    wide = {"m": 2, "N": 60, "n": 12, "loss": loss, "p_z": [0.4, 0.6], "bound": 1.0}
    many = {"m": 2, "N": 3000, "n": 1, "loss": gen.uniform(size=(3000, 2)).tolist(),
            "p_z": [0.5, 0.5], "bound": 1.0}
    plans = gen.uniform(size=(1000, 2))
    embedded = {"m": 2, "N": 1000, "n": 8, "loss": plans.tolist(), "p_z": [0.5, 0.5],
                "bound": 1.0, "embedding": {"points": (np.sqrt(6.0) * plans).tolist()},
                "algorithm": {"kind": "gibbs", "beta": 5.0}}
    differences = "loss_differences: an (N, N, m) = (3000, 3000, 2) table"
    cases = ((tail, ["tail"], "tail_transductive: an (S, S) = (32768, 32768)"),
             (many, ["bounds", "--bounds", "chain"], differences),
             (many, ["bounds", "--bounds", "stochain"], differences),
             (embedded, ["bounds", "--bounds", "wass"], "an (R, N, N) = (9, 1000, 1000) table"),
             (wide, ["bounds", "--bounds", "coupling"], "(S, N, N) = (4096, 60, 60)"))

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the plan table was checked")

    monkeypatch.setattr(cli.bnd, "wasserstein_batch", no_lp)
    for entry, argv, site in cases:
        cfg = write_config(tmp_path, {"problems": [entry]})
        tracemalloc.start()
        try:
            code = cli.main([*argv, "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert site in captured.err and "MEMORY_BUDGET" in captured.err, argv
        assert peak < 2 * MEMORY_BUDGET, argv
    # on the N = 60 problem, the bounds that build no (S, N, N) table still answer
    assert cli.main(["bounds", "--bounds", "thm1,mi,chain", "--config", cfg]) == 0


def test_chain_ops_stay_within_four_budgets(tmp_path, capsys):
    # each chain level was an (S, N, N) coupling, its density table and a bytes copy
    # of it as the store key, beside the (S, N, N) empirical distances: at these edge
    # shapes chain peaked at 361 and 1521 MiB, transductive at 405 and 1421 MiB, and
    # tail --mc-samples at N = 2000 at 3610 MB, each array within the budget. coupling
    # without an embedding holds several (S, N^2)-sized arrays at once: 79 MiB at N = 700
    # wass held the (S, N, N) plan stack and its merged copies: 184.5 MiB at N = 88; its
    # pair lists stay within one budget
    gen = np.random.default_rng(12)
    shapes = [(2, 1, 700, ["chain", "stochain", "transductive", "coupling"]),
              (2, 10, 88, ["chain", "stochain", "transductive", "wass"]), (2, 1, 2000, ["tail"])]
    for m, n, N, tokens in shapes:
        loss = gen.uniform(size=(N, m))
        entry = {"m": m, "N": N, "n": n, "loss": loss.tolist(), "p_z": [1.0 / m] * m,
                 "bound": 1.0, "algorithm": {"kind": "gibbs", "beta": 5.0}}
        if "wass" in tokens:  # the loss embedding
            entry["embedding"] = {"points": (np.sqrt(6.0) * loss).tolist()}
        cfg = write_config(tmp_path, {"problems": [entry]})
        for token in tokens:
            argv = (["tail", "--mc-samples", "10000"] if token == "tail"
                    else ["bounds", "--bounds", token])
            tracemalloc.start()
            try:
                code = cli.main([*argv, "--config", cfg])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and capsys.readouterr().err == "", (N, token)
            assert peak <= (1 if token == "wass" else 4) * MEMORY_BUDGET, (N, token, peak)


def test_tail_refuses_its_sample_pair_table_before_other_work(tmp_path, capsys):
    # tail ran the pointwise and PAC-Bayes tails and built the root chain before
    # tail_transductive refused its (S, S) tables: 3.4 s and a 1002 MiB peak here
    gen = np.random.default_rng(5)
    entry = {"m": 2, "N": 1000, "n": 12, "loss": gen.uniform(size=(1000, 2)).tolist(),
             "p_z": [0.5, 0.5], "bound": 1.0, "algorithm": {"kind": "gibbs", "beta": 5.0}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    tracemalloc.start()
    try:
        code = cli.main(["tail", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "tail_transductive: an (S, S) = (4096, 4096) pair table" in captured.err
    assert peak <= 4 * MEMORY_BUDGET, peak


def test_the_tails_answer_past_the_pair_table_cap(tmp_path, capsys):
    # tail ran its three tails as one unit, so the transductive row's (S, S) table
    # refused every problem at m = 2, n >= 12; the other two need (S, N) tables only
    gen = np.random.default_rng(16)
    entry = {"m": 2, "N": 32, "n": 16, "loss": gen.uniform(size=(32, 2)).tolist(),
             "p_z": [0.5, 0.5], "bound": 1.0, "algorithm": {"kind": "gibbs", "beta": 5.0}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    tracemalloc.start()
    try:
        code = cli.main(["bounds", "--bounds", "pointwise,pacbayes", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [row["bound_name"] for row in rows] == ["tail_pointwise", "tail_pac_bayes"]
    assert peak <= 4 * MEMORY_BUDGET, peak
    assert cli.main(["tail", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tail_transductive: an (S, S) = (65536, 65536) pair table" in captured.err


def test_one_transductive_row_one_line_one_verdict(tmp_path, monkeypatch, capsys):
    # bounds printed the tail_transductive row with components_json {} where tail
    # printed its details, and passed a violation of delta + 1e-10 that tail failed
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    lines = {}
    for name, argv in (("tail", ["tail"]), ("bounds", ["bounds", "--bounds", "transductive"]),
                       ("subset", ["bounds", "--bounds", "transductive,pacbayes,pointwise"])):
        assert cli.main([*argv, "--config", cfg]) == 0, name
        lines[name] = capsys.readouterr().out.splitlines()
    assert lines["subset"] == lines["tail"]  # tail is bounds with the three tail tokens
    assert lines["bounds"] == [lines["tail"][0], lines["tail"][3]]
    assert json.loads(next(csv.reader([lines["bounds"][1]]))[-1]) == {
        "level_weights": [1.0], "levels": 1}
    assert cli.main(["tail", "--bounds", "mi", "--config", cfg]) == 2  # tail takes no subset
    capsys.readouterr()
    monkeypatch.setattr(cli.bnd, "tail_transductive", lambda prob, alg, chain, delta:
                        cli.bnd.TailReport("tail_transductive", delta, delta + 1e-10))
    for argv in (["tail"], ["bounds", "--bounds", "transductive"]):
        assert cli.main([*argv, "--config", cfg]) == 1, argv
        assert capsys.readouterr().err.startswith("violated: problems[0] tail_transductive:")


def test_monte_carlo_draws_at_a_huge_n_stay_within_the_memory_budget(tmp_path, capsys):
    # one outcome lets n reach 2^17 within the problem's own tables; each Monte Carlo
    # block once asked numpy for an 8 GiB (8192, n) table of uniforms. bounds and tail
    # now draw nothing: the flags are ignored, and the rows are the exact ones
    entry = {"m": 1, "N": 2, "n": 131072, "loss": [[1.0], [0.0]], "p_z": [1.0], "bound": 1.0}
    cfg = write_config(tmp_path, {"problems": [entry]})
    for argv in (["bounds", "--bounds", "mi"], ["tail"]):
        tracemalloc.start()
        try:
            code, out, err = run_exact_and_flagged(
                [*argv, "--mc-samples", "10000", "--config", cfg], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and err == "", argv
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["mode"] == "exact" and float(rows[0]["lhs"]) == 0.0, argv
        assert peak < 2 * MEMORY_BUDGET, argv


def test_monte_carlo_draws_past_a_thousand_hypotheses(tmp_path, capsys):
    # the Monte Carlo draws checked a (size, max(n, N)) block, though they held only
    # (size, n) uniforms, so every N > 1024 was refused under --mc-samples; the
    # flags are now ignored, and the exact rows answer at this N
    gen = np.random.default_rng(8)
    entry = {"m": 2, "N": 2000, "n": 2, "loss": gen.uniform(size=(2000, 2)).tolist(),
             "p_z": [0.4, 0.6], "bound": 1.0, "algorithm": {"kind": "gibbs", "beta": 1.0}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    code, out, _ = run_exact_and_flagged(
        ["bounds", "--bounds", "mi", "--mc-samples", "10000", "--config", cfg], capsys)
    rows = csv.DictReader(io.StringIO(out))
    assert code == 0 and [(row["bound_name"], row["mode"]) for row in rows] == [("mi", "exact")]
    # the transductive chain, which needed an (S, N, N) table per level over the
    # budget at this N, is a list of pairs
    code, out, _ = run_exact_and_flagged(["tail", "--mc-samples", "10000", "--config", cfg],
                                         capsys)
    rows = csv.DictReader(io.StringIO(out))
    assert code == 0 and [row["bound_name"] for row in rows] == [
        "tail_pointwise", "tail_pac_bayes", "tail_transductive"]
    prob = problem_from_json(entry)
    report = tail_pointwise_check(prob, algorithm_from_json(prob, entry["algorithm"]), 0.05)
    assert set(report.details) == {"sigma"} and report.passed


def test_negative_mc_samples_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    for command in ("bounds", "tail"):
        assert cli.main([command, "--config", cfg, "--mc-samples", "-5"]) == 2
        assert "--mc-samples must be nonnegative" in capsys.readouterr().err


def test_verify_refuses_fewer_than_one_trial(capsys):
    # zero trials ran zero checks and reported passed with max_violation -Infinity
    for trials in ("0", "-3"):
        assert cli.main(["verify", "--suite", "lemma", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "--trials must be at least 1" in captured.err and captured.out == ""


def test_verify_refuses_a_non_finite_tol(capsys):
    # --tol nan failed every check (exit 1) and --tol inf passed every one,
    # and both printed a tol that is not JSON
    for tol in ("nan", "inf", "-inf"):
        assert cli.main(["verify", "--suite", "lemma", "--trials", "3", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert "--tol must be finite" in captured.err and captured.out == ""


def test_verify_takes_no_workers_option(capsys):
    assert cli.main(["verify", "--suite", "psi", "--trials", "5", "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_out_of_range_workers_and_delta_exit_two(tmp_path, capsys):
    # --workers 0 and -3 ran as 1; bounds took --delta 1.5 unless a
    # transductive token was asked for
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    cases = [(["tail", "--mc-samples", "1000", "--workers", "-3"], "--workers must be at least 1"),
             (["bounds", "--bounds", "thm1", "--workers", "0"], "--workers must be at least 1"),
             (["ft", "--workers", "0"], "--workers must be at least 1"),
             (["bounds", "--bounds", "thm1", "--delta", "1.5"], "--delta must be in (0, 1)"),
             (["bounds", "--bounds", "thm1", "--delta", "0"], "--delta must be in (0, 1)"),
             (["bounds", "--bounds", "thm1", "--delta", "nan"], "--delta must be in (0, 1)"),
             (["tail", "--delta", "1"], "--delta must be in (0, 1)")]
    for argv, message in cases:
        assert cli.main([*argv, "--config", cfg]) == 2, argv
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == "", argv


def test_internal_value_error_is_not_an_input_error(tmp_path, monkeypatch):
    def broken(prob, alg):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli.bnd, "bound_mi", broken)
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["bounds", "--config", cfg, "--bounds", "mi"])


def test_bounds_full_sweep_and_csv_shape(tmp_path):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    out = tmp_path / "rows.csv"
    rc = cli.main(["bounds", "--config", cfg, "--seed", "4",
                   "--bounds", "thm1,mi,cmi,coupling,chain,stochain,wass",
                   "--out", str(out)])
    assert rc == 0
    rows = read_rows(str(out))
    names = [r["bound_name"] for r in rows]
    # coupling and chain each expand to two reports
    for expect in ("density", "mi", "cmi", "coupling", "coupling_simplified",
                   "chain", "chain_metric", "stochastic_chain",
                   "wasserstein_geodesic"):
        assert expect in names
    for row in rows:
        assert float(row["slack"]) >= -1e-9
        json.loads(row["components_json"])


def test_bounds_ignore_coupling_rows_are_zero(tmp_path):
    entry = problem_entry(algorithm={"kind": "ignore"})
    cfg = write_config(tmp_path, {"problems": [entry]})
    out = tmp_path / "rows.csv"
    rc = cli.main(["bounds", "--config", cfg, "--bounds", "coupling,wass",
                   "--out", str(out)])
    assert rc == 0
    for row in read_rows(str(out)):
        assert float(row["rhs"]) == 0.0


def test_bounds_mc_mode_marks_rows(tmp_path, capsys):
    # --mc-samples is accepted and ignored: the row is the exact one
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    code, out, _ = run_exact_and_flagged(["bounds", "--config", cfg, "--bounds", "mi",
                                          "--mc-samples", "2000", "--seed", "9"], capsys)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["mode"] == "exact"


def test_bounds_mc_draws_once_per_problem(tmp_path, monkeypatch, capsys):
    # every absolute and signed report of a problem shares one exact estimate, and
    # no Monte Carlo block runs, so each row equals the row of its token alone
    entries = [problem_entry(seed=2), problem_entry(seed=3)]
    cfg = write_config(tmp_path, {"problems": entries})
    draws = []
    run_blocks = mc.run_blocks

    def counted(fn, n_tasks, workers=1):
        draws.append(n_tasks)
        return run_blocks(fn, n_tasks, workers)

    monkeypatch.setattr(mc, "run_blocks", counted)
    tokens = "thm1,mi,cmi,coupling,chain,stochain,wass"
    base = ["--config", cfg, "--mc-samples", "3000", "--seed", "5"]
    out = tmp_path / "rows.csv"
    assert cli.main(["bounds", *base, "--bounds", tokens, "--out", str(out)]) == 0
    assert draws == []
    together = read_rows(str(out))
    assert cli.main(["bounds", *without_mc_flags(base), "--bounds", tokens]) == 0
    assert capsys.readouterr().out == out.read_text()
    alone = []
    for token in tokens.split(","):
        assert cli.main(["bounds", *base, "--bounds", token, "--out", str(out)]) == 0
        alone += read_rows(str(out))
    assert {row["mode"] for row in together} == {"exact"}
    text = [json.dumps(row, sort_keys=True) for row in together]
    assert sorted(text) == sorted(json.dumps(row, sort_keys=True) for row in alone)


def count_builds(monkeypatch) -> list:
    """Patch LearningProblem.table to record (problem id, table name) of every build."""
    builds = []
    table = LearningProblem.table

    def counted(prob, kernel, name, build):
        return table(prob, kernel, name, lambda: builds.append((id(prob), name)) or build())

    monkeypatch.setattr(LearningProblem, "table", counted)
    return builds


def test_bounds_op_builds_each_table_once_per_entry(tmp_path, monkeypatch):
    # E[gen] was summed once per report, the marginal built once per bound
    entries = [problem_entry(seed=2), problem_entry(seed=3)]
    cfg = write_config(tmp_path, {"problems": entries})
    builds = count_builds(monkeypatch)
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 0
    assert len(builds) == len(set(builds))  # no table twice for one problem
    names = [name for _, name in builds]
    assert names.count("gen") == names.count("marginal") == len(entries)
    # the kernel's density against Q_W, the marginal; chain steps keep theirs on the chain
    assert sum(name[0] == "density" for name in names) == len(entries)
    prob = problem_from_json(entries[0])
    alg = algorithm_from_json(prob, entries[0]["algorithm"])
    marginal = hypothesis_marginal(prob, alg)
    assert prob.table(alg.kernel, "marginal", None) is marginal  # read, never built
    # tables are keyed on the kernel object: an equal kernel built anew gets its own
    again = algorithm_from_json(prob, entries[0]["algorithm"])
    assert again.matrix is not alg.matrix
    assert expected_gen(prob, again) is not expected_gen(prob, alg)
    assert expected_gen(prob, again) == expected_gen(prob, alg)
    assert np.array_equal(hypothesis_marginal(prob, again).weights, marginal.weights)


def test_chain_token_computes_each_step_once(monkeypatch):
    entry = problem_entry(seed=4)
    prob = problem_from_json(entry)
    alg = algorithm_from_json(prob, entry["algorithm"])
    plain = cli.bnd.bound_chain(prob, alg, cli.bnd.root_chain(prob, alg))
    prob = problem_from_json(entry)  # fresh tables
    alg = algorithm_from_json(prob, entry["algorithm"])
    chain = cli.bnd.root_chain(prob, alg)
    assert cli.bnd.root_chain(prob, alg) is chain
    steps, densities = [], []
    step_terms, inv_ratio = cli.bnd._chain_step_terms, cli.bnd._psi2_inv_ratio

    def counted(*args):
        steps.append(1)
        return step_terms(*args)

    def counted_inv(num, den):
        densities.append(num.shape)
        return inv_ratio(num, den)

    monkeypatch.setattr(cli.bnd, "_chain_step_terms", counted)
    monkeypatch.setattr(cli.bnd, "_psi2_inv_ratio", counted_inv)
    loss, metric = cli._token_reports(prob, alg, "chain", 0.05)
    cli._token_reports(prob, alg, "transductive", 0.05)
    assert len(steps) == len(chain.couplings)
    # one psi_2^{-1} table per step, read by both chain forms and the transductive tail
    assert densities == [pairs.weights.shape for pairs in chain.couplings]
    assert loss == plain
    assert metric.bound_name == "chain_metric"
    assert metric.details["loss_form_rhs"] == plain.rhs


def test_bounds_build_the_couplings_and_the_dyadic_chain_once(tmp_path, monkeypatch):
    # coupling and coupling_simplified read one coupling chain; chain, stochain
    # and transductive read one dyadic chain (each was built twice)
    calls = {"optimal_couplings": 0, "chain_from_partitions": 0}
    for name in calls:
        def counted(*args, _fn=getattr(cli.bnd, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli.bnd, name, counted)
    cfg = write_config(tmp_path, {"problems": [problem_entry(seed=5)]})
    tokens = ",".join(token for token in cli.BOUND_TOKENS if token != "cmi")
    assert cli.main(["bounds", "--config", cfg, "--bounds", tokens,
                     "--out", str(tmp_path / "rows.csv")]) == 0
    assert calls == {"optimal_couplings": 1, "chain_from_partitions": 1}


def test_bounds_check_the_root_chain_once(tmp_path, monkeypatch):
    # chain and transductive each re-checked the stored root chain; a chain is now
    # checked when it is built, and each of these two is built once per problem
    built, checked = {"root_chain": [], "coupling_chain": []}, []
    for name in built:
        def recorded(*args, _fn=getattr(cli.bnd, name), _seen=built[name]):
            chain = _fn(*args)
            _seen.append(chain)
            return chain

        monkeypatch.setattr(cli.bnd, name, recorded)
    validate = cli.bnd.ChainSpec.__post_init__

    def counted(chain):
        checked.append(chain.kernels)
        validate(chain)

    monkeypatch.setattr(cli.bnd.ChainSpec, "__post_init__", counted)
    cfg = write_config(tmp_path, {"problems": [problem_entry(seed=5)]})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 0
    for chains in built.values():
        assert chains and all(chain is chains[0] for chain in chains)
        assert sum(kernels is chains[0].kernels for kernels in checked) == 1


def test_tail_constant_loss_rounding_is_no_violation(tmp_path):
    # sigma = 0 puts both thresholds at 0 and |gen| at 1e-16 of rounding: exit 1
    entry = {"m": 3, "N": 2, "n": 1, "loss": [[0.7, 0.7, 0.7], [0.7, 0.7, 0.7]],
             "p_z": [0.4927471760914686, 0.38320546088691965, 0.1240473630216118],
             "bound": 1.0, "algorithm": {"kind": "erm"}}
    out = tmp_path / "tail.csv"
    assert cli.main(["tail", "--config", write_config(tmp_path, {"problems": [entry]}),
                     "--out", str(out)]) == 0
    assert [float(row["lhs"]) for row in read_rows(str(out))] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("scale", [1.0, 1e-3, 2e7])
def test_tail_transductive_rounding_is_no_violation(tmp_path, scale):
    # equal loss rows: every pair's lhs and rhs are exactly 0, but the Gibbs posterior
    # rows of 1/3 do not sum to 1 and the lhs computed as 1.1e-16: violation 0.25, exit 1
    entry = {"m": 2, "N": 3, "n": 1, "loss": [[0.0, scale]] * 3, "p_z": [0.5, 0.5],
             "bound": scale, "algorithm": {"kind": "gibbs", "beta": 1.0 / scale}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    out = tmp_path / "rows.csv"
    for argv in (["tail"], ["bounds", "--bounds", "transductive"]):
        assert cli.main(argv + ["--config", cfg, "--out", str(out)]) == 0, argv
        row = read_rows(str(out))[-1]
        assert row["bound_name"] == "tail_transductive" and float(row["lhs"]) == 0.0


def test_one_hypothesis_is_not_bad_input(tmp_path):
    # tail and the chain tokens exited 2: "chain: need K+1 kernels and K couplings"
    loss = [[0.2, 0.9]]
    entry = {"m": 2, "N": 1, "n": 2, "loss": loss, "p_z": [0.5, 0.5], "bound": 1.0,
             "embedding": {"dim": 2, "points": (np.sqrt(6.0) * np.array(loss)).tolist()}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    out = tmp_path / "rows.csv"
    assert cli.main(["tail", "--config", cfg, "--out", str(out)]) == 0
    transductive = read_rows(str(out))[2]
    assert float(transductive["lhs"]) == 0.0
    assert json.loads(transductive["components_json"]) == {"levels": 0, "level_weights": []}
    assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = {row["bound_name"]: row for row in read_rows(str(out))}
    assert len(rows) == 10
    for name in ("chain", "chain_metric"):
        assert float(rows[name]["rhs"]) == 0.0
        assert json.loads(rows[name]["components_json"]) == {}


def test_one_hypothesis_rounding_is_no_violation_at_any_loss_scale(tmp_path, capsys):
    # E[gen] is exactly 0 on one hypothesis; at losses near 1e9 it computed as 1.1e-8,
    # past SLACK_TOL against the chain's exact rhs 0, and the op exited 1
    tokens = "thm1,mi,cmi,coupling,chain,stochain,transductive"
    for k in range(-9, 4):
        scale = 10.0**k
        entry = {"m": 3, "N": 1, "n": 3, "loss": [[0.47e9 * scale, 0.9e9 * scale, 0.46e9 * scale]],
                 "p_z": [0.2, 0.3, 0.5], "bound": 1e9 * scale, "algorithm": {"kind": "erm"}}
        cfg = write_config(tmp_path, {"problems": [entry]})
        assert cli.main(["bounds", "--config", cfg, "--bounds", tokens]) == 0, k
        assert capsys.readouterr().err == "", k


def test_an_exact_row_below_its_lhs_still_exits_one(tmp_path, monkeypatch):
    # chain_metric reads lhs / rhs = 0.25 on this problem; at a tenth of its rhs it fails
    cfg = write_config(tmp_path, {"problems": [problem_entry(47, {"kind": "erm"})]})
    out = tmp_path / "rows.csv"
    argv = ["bounds", "--config", cfg, "--bounds", "chain", "--out", str(out)]
    assert cli.main(argv) == 0
    real = cli.bnd.bound_chain

    def shrunk(*args):
        report = real(*args)
        return replace(report, rhs=0.1 * report.rhs,
                       components={k: 0.1 * v for k, v in report.components.items()})

    monkeypatch.setattr(cli.bnd, "bound_chain", shrunk)
    assert cli.main(argv) == 1
    metric = {row["bound_name"]: row for row in read_rows(str(out))}["chain_metric"]
    assert 2.0 < float(metric["lhs"]) / float(metric["rhs"]) < 3.0


def test_monte_carlo_flags_on_a_constant_loss_give_the_exact_rows(tmp_path, capsys):
    # under --mc-samples every draw read the same rounded gen, so the row's standard
    # error was 0: lhs 1.49e-8 against the chain's rhs 0 exited 1 with empty stderr
    entry = {"m": 3, "N": 1, "n": 3, "loss": [[123456789.123] * 3], "p_z": [0.2, 0.3, 0.5],
             "bound": 2e9, "algorithm": {"kind": "erm"}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    code, out, err = run_exact_and_flagged(
        ["bounds", "--bounds", "chain", "--mc-samples", "10000", "--config", cfg], capsys)
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["bound_name"], row["mode"], row["rhs"]) for row in rows] == [
        ("chain", "exact", "0"), ("chain_metric", "exact", "0")]


def test_an_exit_one_names_each_failing_row(tmp_path, capsys):
    # at losses near 1e-170 the squares underflow and these rows fail; both
    # commands exited 1 with nothing on stderr
    entry = {"m": 2, "N": 3, "n": 3, "loss": [[0.3e-170, 0.9e-170], [0.5e-170, 0.2e-170],
                                              [0.7e-170, 0.6e-170]],
             "p_z": [0.4, 0.6], "bound": 1e-170, "algorithm": {"kind": "erm"}}
    cfg = write_config(tmp_path, {"problems": [problem_entry(), entry]})
    for argv, names in ((["tail"], ["tail_pac_bayes", "tail_transductive"]),
                        (["bounds", "--bounds", "mi,chain,transductive"],
                         ["tail_transductive"])):
        assert cli.main([*argv, "--config", cfg]) == 1, argv
        captured = capsys.readouterr()
        rows = [row for row in csv.DictReader(io.StringIO(captured.out))
                if row["bound_name"] in names and float(row["slack"]) < 0.0][-len(names):]
        assert [row["bound_name"] for row in rows] == names, argv
        assert captured.err.splitlines() == [
            f"violated: problems[1] {row['bound_name']}: lhs {row['lhs']}, rhs {row['rhs']}, "
            f"slack {row['slack']}" for row in rows], argv


def test_an_ft_exit_one_names_its_space(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.sup, "ft_sup_bound", lambda mu, space, p: 0.0)
    cfg = write_config(tmp_path, {"spaces": [{"dist": [[0.0]]}, {"dist": [[0.0, 1.0],
                                                                          [1.0, 0.0]]}]})
    assert cli.main(["ft", "--config", cfg, "--mc-samples", "2000", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    row = list(csv.DictReader(io.StringIO(captured.out)))[1]
    assert captured.err == (f"violated: spaces[1] ft_sup_bound: lhs {row['mc_mean']}, rhs 0, "
                            f"slack {cli._fmt(-float(row['mc_mean']))}\n")


@pytest.mark.parametrize("k", [-150, -13, 0, 10])
def test_metric_checks_do_not_depend_on_the_scale(tmp_path, capsys, k):
    # the checks were absolute (1e-12): this non-metric passed at 1e-13 and below
    bad = 10.0**k * np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    paths = {"kind": "tabulated", "paths": [[0.0] * 3], "weights": [1.0]}
    cfg = write_config(tmp_path, {"spaces": [{"dist": bad.tolist(), "process": paths}]})
    assert cli.main(["ft", "--config", cfg, "--mc-samples", "100"]) == 2
    assert "triangle inequality fails" in capsys.readouterr().err
    pts = np.random.default_rng(40).normal(size=(40, 3))
    euclid = 10.0**k * np.linalg.norm(pts[:, None] - pts[None], axis=2)
    cfg = write_config(tmp_path, {"spaces": [{"dist": euclid.tolist()}]})
    assert cli.main(["ft", "--config", cfg, "--mc-samples", "100"]) == 0
    assert capsys.readouterr().err == ""


def test_bounds_transductive_refuses_its_pair_table_before_the_root_chain(tmp_path, monkeypatch,
                                                                          capsys):
    # the root chain was built first, and then tail_transductive refused its (S, S) tables;
    # default bounds built it for chain and then exited on bound_cmi's refusal
    calls, real = [], cli.bnd.root_chain
    monkeypatch.setattr(cli.bnd, "root_chain", lambda *args: calls.append(args) or real(*args))
    gen = np.random.default_rng(5)
    entry = {"m": 2, "N": 3, "n": 12, "loss": gen.uniform(size=(3, 2)).tolist(),
             "p_z": [0.5, 0.5], "bound": 1.0, "algorithm": {"kind": "erm"}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    for argv in (["bounds", "--bounds", "transductive"], ["bounds"]):
        assert cli.main([*argv, "--config", cfg]) == 2, argv
        assert calls == [], argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith(
            "error: problems[0]: tail_transductive: an (S, S) = (4096, 4096) pair table"), argv


# Run in a fresh interpreter: argv[1] is a JSON list of (label, cli argv);
# prints, per label, the scipy modules loaded once that command has run (the
# HiGHS extension, which transport loads by file outside sys.modules, counted
# once its loader has run), and under "mpmath" the mpmath modules loaded after
# every command.
IMPORT_PROBE = """
import json, sys
from genbound import transport
def modules(top):
    loaded = [m for m in sys.modules if m.split(".")[0] == top]
    if top == "scipy" and transport._highs.cache_info().currsize:
        loaded.append(transport._highs().__name__)
    return sorted(loaded)
import genbound
seen = {"import genbound": modules("scipy")}
from genbound import cli
seen["import genbound.cli"] = modules("scipy")
for label, argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    seen[label] = modules("scipy") if code == 0 else f"exit {code}"
seen["mpmath"] = modules("mpmath")
print(json.dumps(seen))
"""


def test_import_and_numpy_only_commands_load_no_scipy(tmp_path):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    space = write_config(tmp_path, {"dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                                             [2.0, 1.0, 0.0]]}, "space.json")
    numpy_only = [
        ("bounds", ["bounds", "--config", cfg, "--bounds",
                    "thm1,mi,cmi,chain,stochain,transductive"]),
        ("tail", ["tail", "--config", cfg]),
        ("tail mc", ["tail", "--config", cfg, "--mc-samples", "500"]),
        ("ft eg", ["ft", "--config", space, "--mu-mode", "eg", "--mc-samples", "500"]),
        ("verify lemma", ["verify", "--suite", "lemma", "--trials", "20"]),
        ("verify psi", ["verify", "--suite", "psi", "--trials", "20"]),
        ("verify golden", ["verify", "--suite", "golden", "--trials", "20"])]
    with_lp = [("coupling", ["bounds", "--config", cfg, "--bounds", "coupling"]),
               ("wass", ["bounds", "--config", cfg, "--bounds", "wass"]),
               ("verify transport", ["verify", "--suite", "transport", "--trials", "2"])]
    runs = [(label, argv + ["--out", str(tmp_path / "out")]) for label, argv in
            numpy_only + with_lp]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(runs)], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout)
    for label in ["import genbound", "import genbound.cli"] + [lb for lb, _ in numpy_only]:
        assert seen[label] == [], label
    # the first LP loads the HiGHS extension by itself, never scipy.optimize
    for label, _ in with_lp:
        assert "scipy.optimize._highspy._core" in seen[label], label
        assert "scipy.optimize" not in seen[label], label
    assert seen["mpmath"] == []


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    builds, build_parser = [], cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    for argv in (["bounds", "--config", cfg, "--bounds", "thm1"], ["tail", "--config", cfg],
                 ["verify", "--suite", "mystery"], ["verify", "--suite", "psi", "--trials", "3"]):
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert len(builds) == 1
    assert build_parser() is not build_parser()  # callers still get a parser of their own


PARSER_PROBE = """
import argparse, json
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
from genbound import cli
after_import = len(built)
for _ in range(3):
    cli.main(["verify", "--suite", "mystery"])
print(json.dumps([after_import, len(built)]))
"""


def test_import_builds_no_parser(tmp_path):
    # one parser and its four subcommand parsers, on the first main call only
    proc = subprocess.run([sys.executable, "-c", PARSER_PROBE], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [0, 5]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("GENBOUND_SEED", raising=False)
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    plain = ["bounds", "--config", cfg, "--bounds", "thm1,mi"]
    assert cli.main([*plain, "--workers", "two"]) == 2
    assert cli.main([*plain, "--seed", "4", "--out", str(tmp_path / "seeded.csv")]) == 0
    capsys.readouterr()
    assert cli.main(plain) == 0
    out = capsys.readouterr().out
    fresh = subprocess.run([sys.executable, "-m", "genbound.cli", *plain], cwd=tmp_path,
                           env=src_env(), capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr[-2000:]
    assert out == fresh.stdout
    assert [row["seed"] for row in csv.DictReader(io.StringIO(out))] == ["0", "0"]


def test_bounds_mc_noise_is_not_a_violation(tmp_path, small_problem, capsys):
    # A data-ignoring learner has exact rhs 0 for the coupling bounds, so the
    # Monte Carlo lhs was pure noise around 0; a bare slack test flagged it on
    # seeds 2, 3, 4, 5 and 7. The flags are now ignored and the lhs is exact.
    entry = json.loads(small_problem.to_json())
    entry["algorithm"] = {"kind": "ignore"}
    cfg = write_config(tmp_path, {"problems": [entry]})
    for seed in range(8):
        code, out, err = run_exact_and_flagged(
            ["bounds", "--config", cfg, "--bounds", "coupling", "--mc-samples", "2000",
             "--seed", str(seed)], capsys)
        assert code == 0 and err == "", seed
        for row in csv.DictReader(io.StringIO(out)):
            assert row["mode"] == "exact" and float(row["rhs"]) == 0.0


def count_linprog_calls(monkeypatch) -> list:
    """Patch transport.linprog to record the variable count of every call."""
    calls = []
    linprog = transport.linprog

    def counted(c, *args, **kwargs):
        calls.append(len(c))
        return linprog(c, *args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counted)
    return calls


def test_bounds_solve_one_lp_per_target_law(tmp_path, monkeypatch):
    entry = problem_entry(seed=5)
    prob = problem_from_json(entry)
    alg = algorithm_from_json(prob, entry["algorithm"])
    rows = {FiniteMeasure(row).weights.tobytes() for row in alg.matrix}
    calls = count_linprog_calls(monkeypatch)
    cfg = write_config(tmp_path, {"problems": [entry]})
    assert cli.main(["bounds", "--config", cfg, "--bounds", "coupling,chain,wass",
                     "--out", str(tmp_path / "rows.csv")]) == 0
    assert calls == [len(rows) * prob.num_hypotheses**2]


def test_verify_transport_batches_its_lps(monkeypatch, capsys):
    calls = count_linprog_calls(monkeypatch)
    assert cli.main(["verify", "--suite", "transport", "--trials", "4",
                     "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    # round one is one batch per p, the geodesic LPs inside the p = 2 batch;
    # round two is one batch of segment LPs: [220, 194, 1180] variables
    assert len(calls) == 3
    assert min(calls) > 6 * 6  # no lone geodesic LP: a trial has at most 6 atoms
    assert max(calls) <= transport.LP_CHUNK_VARS


def test_lp_solver_failure_is_not_an_input_error(tmp_path, monkeypatch):
    # a transport LP between validated measures is always feasible, so a
    # failed solve is a fault of the program, not exit 2 for bad input
    def failing(*args, **kwargs):
        return transport.LPResult(success=False, message="numerical difficulties",
                                  x=None, nit=0)

    monkeypatch.setattr(transport, "linprog", failing)
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    with pytest.raises(RuntimeError, match="LP failed"):
        cli.main(["bounds", "--config", cfg, "--bounds", "wass",
                  "--out", str(tmp_path / "rows.csv")])


def test_bounds_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bounds", "--config", cfg, "--bounds", "thm1,cmi",
            "--mc-samples", "500", "--seed", "11"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(without_mc_flags(argv) + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_and_flag_precedence(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    out = tmp_path / "rows.csv"
    monkeypatch.setenv("GENBOUND_SEED", "21")
    assert cli.main(["bounds", "--config", cfg, "--bounds", "mi",
                     "--out", str(out)]) == 0
    assert read_rows(str(out))[0]["seed"] == "21"
    assert cli.main(["bounds", "--config", cfg, "--bounds", "mi",
                     "--seed", "5", "--out", str(out)]) == 0
    assert read_rows(str(out))[0]["seed"] == "5"
    monkeypatch.setenv("GENBOUND_SEED", "not-a-number")
    assert cli.main(["bounds", "--config", cfg, "--bounds", "mi",
                     "--out", str(out)]) == 2


def test_tail_rows_and_delta_validation(tmp_path):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    out = tmp_path / "rows.csv"
    rc = cli.main(["tail", "--config", cfg, "--delta", "0.1", "--out", str(out)])
    assert rc == 0
    rows = read_rows(str(out))
    assert [r["bound_name"] for r in rows] == [
        "tail_pointwise", "tail_pac_bayes", "tail_transductive"]
    for row in rows:
        assert float(row["lhs"]) <= float(row["rhs"]) + 1e-12
    assert cli.main(["tail", "--config", cfg, "--delta", "0"]) == 2
    assert cli.main(["tail", "--config", cfg, "--delta", "1.5"]) == 2


def test_tail_mc_honours_workers_with_identical_stdout(tmp_path, capsys, monkeypatch):
    # tail draws nothing: --mc-samples and --workers are ignored, the rows are exact
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    counts = []
    run_blocks = mc.run_blocks

    def recorded(fn, n_tasks, workers=1):
        counts.append(workers)
        return run_blocks(fn, n_tasks, workers)

    monkeypatch.setattr(mc, "run_blocks", recorded)
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run_exact_and_flagged(["tail", "--config", cfg, "--mc-samples", "20000",
                                              "--seed", "4", "--workers", workers], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert {row["mode"] for row in csv.DictReader(io.StringIO(outs[0]))} == {"exact"}
    assert counts == []

def test_ft_single_point_space(tmp_path):
    cfg = write_config(tmp_path, {"dist": [[0.0]]})
    out = tmp_path / "rows.csv"
    rc = cli.main(["ft", "--config", cfg, "--mc-samples", "100",
                   "--seed", "2", "--out", str(out)])
    assert rc == 0
    (row,) = read_rows(str(out))
    assert float(row["bound"]) == 0.0
    assert float(row["mc_mean"]) == 0.0


def test_ft_refuses_tiny_covariances_that_break_their_process(tmp_path, capsys):
    # absolute tolerances let both through: an increment variance 5e4 times its
    # psi_2 limit (ft exited 1), and an indefinite cov (ft exited 0); scaled to
    # unit cov, both exited 2, as they now do at any scale
    cases = (([[0, 1e-10], [1e-10, 0]], [[1e-16, 0], [0, 1e-16]], 1e16,
              "psi_2 increment condition fails"),
             ([[0, 1], [1, 0]], [[1e-12, 2e-12], [2e-12, 1e-12]], 1e12,
              "covariance not positive semidefinite"))
    for dist, cov, unit, msg in cases:
        for scale in (1.0, unit):
            space = {"dist": (math.sqrt(scale) * np.array(dist)).tolist(),
                     "process": {"kind": "gaussian", "cov": (scale * np.array(cov)).tolist()}}
            assert cli.main(["ft", "--config", write_config(tmp_path, {"spaces": [space]})]) == 2
            assert msg in capsys.readouterr().err


def test_ft_spaces_list_and_modes(tmp_path):
    dist = [[0.0, 1.0], [1.0, 0.0]]
    cfg = write_config(tmp_path, {"spaces": [
        {"id": "pair", "dist": dist},
        {"dist": [[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]]},
    ]})
    out = tmp_path / "rows.csv"
    for mode in ("uniform", "eg"):
        rc = cli.main(["ft", "--config", cfg, "--mu-mode", mode,
                       "--mc-samples", "4000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = read_rows(str(out))
        assert rows[0]["space_id"] == "pair"
        assert rows[1]["space_id"] == "1"
        for row in rows:
            assert (float(row["mc_mean"]) - 4 * float(row["mc_stderr"])
                    <= float(row["bound"]))


def test_ft_single_sample_runs(tmp_path):
    cfg = write_config(tmp_path, {"dist": [[0.0, 1.0], [1.0, 0.0]]})
    assert cli.main(["ft", "--config", cfg, "--mc-samples", "1",
                     "--seed", "0"]) == 0


def test_ft_worker_count_is_immaterial(tmp_path):
    cfg = write_config(tmp_path, {"dist": [[0.0, 3.0], [3.0, 0.0]]})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["ft", "--config", cfg, "--mc-samples", "20000", "--seed", "6"]
    assert cli.main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert cli.main(base + ["--workers", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ft_refuses_a_spaces_value_that_is_not_a_non_empty_list(tmp_path, capsys):
    # 5 raised a TypeError traceback and exited 1, [] printed a bare header and
    # exited 0, and an object was walked as its keys
    for spaces in (5, [], {"a": 1}):
        cfg = write_config(tmp_path, {"spaces": spaces})
        assert cli.main(["ft", "--config", cfg]) == 2, spaces
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config needs a non-empty 'spaces' list\n"


def test_ft_refuses_a_process_checked_at_another_p(tmp_path, capsys):
    # the process was validated at its own p and bounded at the entry's
    dist = [[0.0, 1.0], [1.0, 0.0]]
    tab = {"kind": "tabulated", "paths": [[0.1, -0.1], [-0.1, 0.1]], "weights": [0.5, 0.5]}
    gauss = {"kind": "gaussian", "cov": [[0.1, 0.0], [0.0, 0.1]]}
    for entry, proc_p, entry_p in (({"dist": dist, "process": dict(tab, p=1)}, "1", "2"),
                                   ({"dist": dist, "process": gauss, "p": 1}, "2", "1")):
        cfg = write_config(tmp_path, {"spaces": [entry]})
        assert cli.main(["ft", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: spaces[0]: process has p = {proc_p}, the entry "
                                f"p = {entry_p}: give both the same p\n")
    # the same p on both runs, and the row is bounded at that p
    cfg = write_config(tmp_path, {"spaces": [{"dist": dist, "process": dict(tab, p=1), "p": 1}]})
    out = tmp_path / "rows.csv"
    assert cli.main(["ft", "--config", cfg, "--out", str(out)]) == 0
    assert read_rows(str(out))[0]["p"] == "1"


def test_ft_process_errors_name_the_entry(tmp_path, capsys):
    # only a ConfigurationError was prefixed; these exited 2 naming no entry
    dist = [[0.0, 1.0], [1.0, 0.0]]
    cycle = [[0.0, 1.0, 2.0, 1.0], [1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, 1.0],
             [1.0, 2.0, 1.0, 0.0]]  # the 4-cycle metric embeds in no Euclidean space
    for spaces, err in (
            ([{"dist": dist}, {"dist": dist, "p": 1}],
             "error: spaces[1]: gaussian_process: only p = 2 has a verifiable closed-form "
             "increment\n"),
            ([{"dist": cycle}],
             "error: spaces[0]: gaussian_from_metric: metric is not Euclidean-embeddable\n")):
        cfg = write_config(tmp_path, {"spaces": spaces})
        assert cli.main(["ft", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err


def test_ft_zero_samples_runs_tabulated_processes_only(tmp_path, capsys):
    # a tabulated row draws nothing, so --mc-samples 0 was refused for no draw
    cfg = str(DATA / "mc_spaces.json")
    assert cli.main(["ft", "--config", cfg, "--mc-samples", "0", "--seed", "5"]) == 0
    assert capsys.readouterr().out == (DATA / "ft_mc.csv").read_text()
    cfg = write_config(tmp_path, {"spaces": [{"dist": [[0.0, 1.0], [1.0, 0.0]]}]})
    assert cli.main(["ft", "--config", cfg, "--mc-samples", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spaces[0]: expected_sup_mc: samples >= 1\n"


def test_ft_tabulated_row_is_the_exact_sum(tmp_path):
    # every path has max 0.1: 10000 draws at seed 4 read 0.10000000000000002, stderr 1.3e-11
    paths = [[0.1, -0.1, 0.0], [-0.1, 0.1, 0.0], [0.1, -0.1, 0.1], [-0.1, 0.1, -0.1]]
    cfg = write_config(tmp_path, {"spaces": [{
        "dist": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
        "process": {"kind": "tabulated", "paths": paths, "weights": [0.25] * 4}}]})
    outs = []
    for workers, samples in (("1", "10000"), ("3", "7")):
        out = tmp_path / f"rows{workers}.csv"
        assert cli.main(["ft", "--config", cfg, "--mc-samples", samples, "--seed", "4",
                         "--workers", workers, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    (row,) = read_rows(str(out))
    assert (row["mc_mean"], row["mc_stderr"], row["samples"]) == (cli._fmt(0.1), "0", "0")


def test_ft_tabulated_verdict_allows_its_rounding_level(tmp_path, monkeypatch, capsys):
    # a bound one ulp below the exact value is rounding, (P + 1) ulps of max|paths| is
    # the level over P = 2 paths, and a bound 1e-15 below it is a violation
    cfg = write_config(tmp_path, {"spaces": [{
        "dist": [[0.0, 1.0], [1.0, 0.0]],
        "process": {"kind": "tabulated", "paths": [[0.1, -0.1], [-0.1, 0.1]],
                    "weights": [0.5, 0.5]}}]})
    for bound, code in ((math.nextafter(0.1, 0.0), 0), (0.1 - 3 * 0.1 * 2.0**-52, 0),
                        (0.1 - 1e-15, 1)):
        monkeypatch.setattr(cli.sup, "ft_sup_bound", lambda mu, space, p: bound)
        assert cli.main(["ft", "--config", cfg]) == code, bound
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"violated: spaces[0] ft_sup_bound: lhs "
                       f"0.10000000000000001, rhs {cli._fmt(bound)}, slack {cli._fmt(bound - 0.1)}\n")


def test_stdout_when_no_out_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    rc = cli.main(["bounds", "--config", cfg, "--bounds", "mi"])
    assert rc == 0
    out = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(out))
    assert [row["bound_name"] for row in reader] == ["mi"]


def test_a_streamed_row_over_the_memory_budget_exits_two(tmp_path, capsys):
    # one outcome lets n reach 2^17, and one empirical_matrix row of 64 hypotheses
    # is then 8 (N (n + 1) + n) bytes, over the budget: a 66 MB peak, answered
    entry = {"m": 1, "N": 64, "n": 131072, "loss": [[i / 64] for i in range(64)], "p_z": [1.0],
             "bound": 1.0, "algorithm": {"kind": "gibbs", "beta": 1.0}}
    cfg = write_config(tmp_path, {"problems": [entry]})
    tracemalloc.start()
    try:
        code = cli.main(["bounds", "--bounds", "mi", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "empirical_matrix: one streamed row needs 68157952 bytes" in captured.err
    assert "MEMORY_BUDGET" in captured.err
    assert peak < MEMORY_BUDGET


def test_tail_mc_stdout_is_the_same_for_any_worker_count(tmp_path, capsys):
    # at delta 0.99 these problems exceed the pointwise tail with positive mass;
    # the flags are ignored, so every worker count prints the exact rows
    gen = np.random.default_rng(3)
    entries = [{"m": 2, "N": 3, "n": 3, "loss": (gen.uniform(size=(3, 2)) ** 4).tolist(),
                "p_z": gen.dirichlet([0.3, 0.3]).tolist(), "bound": 1.0, "algorithm": alg}
               for alg in ({"kind": "gibbs", "beta": 1.0}, {"kind": "erm"}) for _ in range(4)]
    cfg = write_config(tmp_path, {"problems": entries})
    outs = []
    for workers in ("1", "3"):
        argv = ["tail", "--config", cfg, "--mc-samples", "30000", "--delta", "0.99"]
        code, out, _ = run_exact_and_flagged(argv + ["--seed", "4", "--workers", workers],
                                             capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    rows = csv.DictReader(io.StringIO(outs[0]))
    assert any(float(row["lhs"]) > 0.0 for row in rows if row["bound_name"] == "tail_pointwise")


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv, golden", [
    (["bounds", "--config", "mc_problems.json", "--mc-samples", "3000"], "bounds_mc.csv"),
    (["tail", "--config", "mc_problems.json", "--mc-samples", "3000"], "tail_mc.csv"),
    (["ft", "--config", "mc_spaces.json", "--mc-samples", "2000"], "ft_mc.csv"),
    (["bounds", "--config", "mc_problems.json"], "bounds_exact.csv"),
    (["tail", "--config", "mc_problems.json"], "tail_exact.csv"),
    (["tail", "--config", "tail_heavy.json", "--mc-samples", "30000", "--delta", "0.99"],
     "tail_heavy_mc.csv"),
    (["ft", "--config", "ft_gauss.json", "--mc-samples", "10000"], "ft_gauss.csv")])
def test_mc_stdout_matches_the_recorded_csv(argv, golden, workers, capsys):
    # The benchmark oracle checks ft means within standard errors only, so these
    # recorded bytes are what pins the draw stream itself, and the exact rows to
    # their last bit. bounds and tail ignore --mc-samples and --workers, so their
    # *_mc.csv files hold the exact rows: bounds_mc.csv is bounds_exact.csv byte
    # for byte, tail_mc.csv is tail_exact.csv, and tail_heavy_mc.csv is the exact
    # tail of the heavy-tailed losses of tail_heavy.json at delta 0.99, whose
    # pointwise tail has positive mass. ft_mc.csv holds the exact rows of the
    # tabulated processes of mc_spaces.json, 0.05 and 0.25 with stderr 0, and
    # ft_gauss.json pins the Gaussian stream over two blocks, a rank-2 Gram of
    # points in R^2 and a full-rank explicit cov. An intended change to an exact
    # bound shows up here too: re-record the file with the same command and say so.
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv + ["--seed", "5", "--workers", workers]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()
