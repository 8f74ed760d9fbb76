import csv
import io
import json

import numpy as np
import pytest

from genbound import (FiniteMeasure, algorithm_from_json, cli, mc, problem_from_json,
                      transport)

from conftest import random_problem


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


def test_verify_zero_trials_is_vacuous():
    assert cli.main(["verify", "--suite", "lemma", "--trials", "0"]) == 0


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


def test_negative_mc_samples_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    for command in ("bounds", "tail"):
        assert cli.main([command, "--config", cfg, "--mc-samples", "-5"]) == 2
        assert "--mc-samples must be nonnegative" in capsys.readouterr().err


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


def test_bounds_mc_mode_marks_rows(tmp_path):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    out = tmp_path / "rows.csv"
    rc = cli.main(["bounds", "--config", cfg, "--bounds", "mi",
                   "--mc-samples", "2000", "--seed", "9", "--out", str(out)])
    assert rc == 0
    (row,) = read_rows(str(out))
    assert row["mode"] == "mc"


def test_bounds_mc_noise_is_not_a_violation(tmp_path, small_problem):
    # A data-ignoring learner has exact rhs 0 for the coupling bounds, so the
    # Monte Carlo lhs is pure noise around 0; a bare slack test flagged it on
    # seeds 2, 3, 4, 5 and 7.
    entry = json.loads(small_problem.to_json())
    entry["algorithm"] = {"kind": "ignore"}
    cfg = write_config(tmp_path, {"problems": [entry]})
    out = tmp_path / "rows.csv"
    for seed in range(8):
        rc = cli.main(["bounds", "--config", cfg, "--bounds", "coupling",
                       "--mc-samples", "2000", "--seed", str(seed), "--out", str(out)])
        assert rc == 0, seed
        for row in read_rows(str(out)):
            assert row["mode"] == "mc" and float(row["rhs"]) == 0.0


def test_bounds_solve_one_lp_per_distinct_posterior_row(tmp_path, monkeypatch):
    entry = problem_entry(seed=5)
    prob = problem_from_json(entry)
    alg = algorithm_from_json(prob, entry["algorithm"])
    rows = {FiniteMeasure(row).weights.tobytes() for row in alg.matrix}
    calls = []
    linprog = transport.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counted)
    cfg = write_config(tmp_path, {"problems": [entry]})
    assert cli.main(["bounds", "--config", cfg, "--bounds", "coupling,chain,wass",
                     "--out", str(tmp_path / "rows.csv")]) == 0
    assert len(calls) == len(rows)


def test_bounds_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bounds", "--config", cfg, "--bounds", "thm1,cmi",
            "--mc-samples", "500", "--seed", "11"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
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
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    counts = []
    run_blocks = mc.run_blocks

    def recorded(fn, n_tasks, workers=1):
        counts.append(workers)
        return run_blocks(fn, n_tasks, workers)

    monkeypatch.setattr(mc, "run_blocks", recorded)
    outs = []
    for workers in ("1", "2"):
        assert cli.main(["tail", "--config", cfg, "--mc-samples", "20000", "--seed", "4",
                         "--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "mc" in outs[0]
    assert counts == [1, 2]

def test_ft_single_point_space(tmp_path):
    cfg = write_config(tmp_path, {"dist": [[0.0]]})
    out = tmp_path / "rows.csv"
    rc = cli.main(["ft", "--config", cfg, "--mc-samples", "100",
                   "--seed", "2", "--out", str(out)])
    assert rc == 0
    (row,) = read_rows(str(out))
    assert float(row["bound"]) == 0.0
    assert float(row["mc_mean"]) == 0.0


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


def test_stdout_when_no_out_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problems": [problem_entry()]})
    rc = cli.main(["bounds", "--config", cfg, "--bounds", "mi"])
    assert rc == 0
    out = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(out))
    assert [row["bound_name"] for row in reader] == ["mi"]
