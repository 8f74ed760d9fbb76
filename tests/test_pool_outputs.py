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
