import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pool_outputs.py"
spec = importlib.util.spec_from_file_location("pool_outputs", TOOL)
pool_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pool_outputs)

HEADER = "space_id,p,mu_mode,bound,mc_mean,mc_stderr,samples,seed\n"


def ft_record(bound, mean, stderr):
    return {"argv": ["ft", "--config", "{config}"], "code": 0, "stderr": "",
            "stdout": HEADER + f"space,2,uniform,{bound},{mean},{stderr},2000,0\n"}


def test_compare_judges_an_ft_mean_by_its_standard_errors(tmp_path, capsys):
    # combined standard error 0.05: a move of 0.19 is 3.8 of them, 0.21 is 4.2
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps({"mc/ft": ft_record(10.5, 1.0, 0.03)}))
    verdicts = {}
    for name, record in (("within", ft_record(10.5, 1.19, 0.04)),
                         ("beyond", ft_record(10.5, 1.21, 0.04)),
                         ("bound", ft_record(10.500001, 1.0, 0.03))):
        change = tmp_path / f"{name}.json"
        change.write_text(json.dumps({"mc/ft": record}))
        verdicts[name] = pool_outputs.compare(parent, change, rel_tol=0.0)
        verdicts[name, "out"] = capsys.readouterr().out
    out = verdicts["within", "out"]
    assert verdicts["within"] == 0
    assert "1 ft ops whose mc_mean moved within 4 combined standard errors" in out
    assert "largest relative change, mc_stderr: 0.25" in out
    assert verdicts["beyond"] == 1 and "4.2 standard errors" in verdicts["beyond", "out"]
    # the bound keeps the relative rule, so at --rel-tol 0 any change to it fails
    assert verdicts["bound"] == 1
    # without --rel-tol every difference fails, as before
    assert pool_outputs.compare(parent, tmp_path / "within.json") == 1


def verify_record(violation, trial=0, checks=30, passed=True):
    payload = {"checks": checks, "max_violation": violation, "passed": passed,
               "suite": "transport", "tol": 1e-06, "trials": 2,
               "worst_case_input": {"side": "constant_speed", "trial": trial}}
    return {"argv": ["verify", "--suite", "transport", "--trials", "2", "--seed", "3"],
            "code": 0 if passed else 1, "stderr": "",
            "stdout": json.dumps(payload, sort_keys=True, indent=2) + "\n"}


def test_compare_judges_a_verify_violation_by_an_absolute_tolerance(tmp_path, capsys):
    # a rounding move of max_violation (4 transport ops moved by 1e-16 once) used to
    # fail at any --rel-tol; its verdict, checks and shape must still match exactly
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps({"verify/0/transport/3": verify_record(4.9785e-13)}))
    cases = {"rounding": verify_record(4.9785e-13 + 1e-16, trial=1),
             "beyond": verify_record(4.9785e-13 + 2e-14),
             "checks": verify_record(4.9785e-13, checks=31),
             "verdict": verify_record(4.9785e-13, passed=False),
             "nan": verify_record("nan")}
    verdicts = {}
    for name, record in cases.items():
        change = tmp_path / f"{name}.json"
        change.write_text(json.dumps({"verify/0/transport/3": record}))
        verdicts[name] = pool_outputs.compare(parent, change, rel_tol=1e-12)
        verdicts[name, "out"] = capsys.readouterr().out
    assert verdicts["rounding"] == 0
    assert "worst_case_input moved (reported, not failed)" in verdicts["rounding", "out"]
    assert "largest verify max_violation move: 1e-16 absolute" in verdicts["rounding", "out"]
    assert "0 of 1 ops identical, 1 more within the tolerances" in verdicts["rounding", "out"]
    for name in ("beyond", "checks", "verdict", "nan"):
        assert verdicts[name] == 1, name
    assert "max_violation moved by 2e-14" in verdicts["beyond", "out"]
    # without --rel-tol every difference fails, as before
    assert pool_outputs.compare(parent, tmp_path / "rounding.json") == 1


def test_reach_lists_only_the_functions_kept_on_purpose():
    # each is kept for a reason the README gives; a new name here needs a caller,
    # a reason added there and here, or its deletion
    proc = subprocess.run([sys.executable, str(TOOL), "reach", "."], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *missed, summary = proc.stdout.splitlines()
    assert [line.split()[1] for line in missed] == [
        "measures.MarkovKernel.input_size", "measures.MarkovKernel.output_size",
        "measures.conditional_divergence", "measures.conditional_mutual_information",
        "suprema.process_from_json"]
    assert summary.startswith("5 of ")
