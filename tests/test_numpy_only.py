"""numpy is the package's only runtime dependency: every CLI subcommand
runs in a fresh interpreter in which importing scipy fails."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TP2 = {"schema_version": 1, "name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]}
PQD = {"schema_version": 1, "name": "pqd", "logits": "global", "constraints": [{"kind": "pqd"}]}
SATURATED = {"schema_version": 1, "name": "saturated", "logits": "local", "constraints": []}

# a None entry in sys.modules makes every `import scipy...` raise ImportError
BLOCKED = ("import sys; sys.modules['scipy'] = None; "
           "from margbayes.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("command", ["bf", "sensitivity", "fit", "posterior"])
def test_cli_runs_with_scipy_blocked(tmp_path, command):
    (tmp_path / "tp2.json").write_text(json.dumps(TP2))
    (tmp_path / "pqd.json").write_text(json.dumps(PQD))
    (tmp_path / "saturated.json").write_text(json.dumps(SATURATED))
    # father_son TP2 is rare on both sides and its rows are linear in log G:
    # the split route. PQD (global logits) is rare on the prior side: the
    # importance route, whose weights need the Dirichlet log normaliser
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "dataset": "father_son", "models": ["tp2.json", "pqd.json"], "replicates": 1, "seed": 7,
        "settings": {"n_draws": 4000, "pilot_n": 4000}}))
    argv = {
        "bf": ["bf", str(manifest), "--format", "json"],
        "sensitivity": ["sensitivity", str(manifest), "--concentrations", "1", "2",
                        "--format", "json"],
        "fit": ["fit", "father_son", str(tmp_path / "tp2.json"), "--format", "json"],
        "posterior": ["posterior", "skin_trial", str(tmp_path / "saturated.json"),
                      "--draws", "2000", "--format", "json"],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", BLOCKED, *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == command
    if command in ("bf", "sensitivity"):
        routes = [r["route"] for r in report["results"]]
        assert routes[::2] == ["split/split"] * (len(routes) // 2)
        assert all(r.startswith("importance/") for r in routes[1::2])
