"""Tests of the benchmark itself (not of margbayes).

    python3 -m pytest perfbench -q

Smoke runs use tiny sizes and a one-second window; they check that every
metric BENCHMARK.json names is printed with its unit, in both modes.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_targets_cover_per_layer_metrics():
    targets = json.loads((HERE / "targets.json").read_text())
    assert set(targets) == {m["name"] for m in SPEC["per_layer"]}
    e2e = set(harness.REPORT_UNITS)
    for entry in targets.values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert {k: v["unit"] for k, v in report["metrics"].items()} == harness.REPORT_UNITS
        assert report["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert report["checks"] and all(c["passed"] for c in report["checks"])
    else:
        assert report["absent_hooks"] == []
    for name in result["metrics"]:
        assert f"# {workload}: {name} = " in done.stdout


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    w = workloads.get("chain-ci")
    ia, ib = workloads.write_inputs(w, 7, a), workloads.write_inputs(w, 7, b)
    assert ia["program_seed"] == ib["program_seed"]
    assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()
    assert workloads.write_inputs(w, 8, b)["program_seed"] != ia["program_seed"]


def test_absent_hook_is_recorded_not_fatal():
    from margbayes import engine
    orig = engine._dirichlet_chunk
    hooks = tracing.HOOKS + (("margbayes.engine", "no_such_function", "sample"),
                             ("margbayes.no_such_module", "x", "eta"))
    t = tracing.Tracer().install(hooks)
    try:
        assert engine._dirichlet_chunk is not orig
        assert t.absent == ["margbayes.engine.no_such_function", "margbayes.no_such_module.x"]
        assert "link.eta.s" in t.absent_metrics(hooks)
    finally:
        t.remove()
    assert engine._dirichlet_chunk is orig
    assert set(t.layer_metrics()) <= {m["name"] for m in SPEC["per_layer"]}


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
               ["b", 5.0, 6.0, 0]]
    incl, selft = t.times()
    assert incl["a"] == 10.0 and selft["a"] == 6.0
    assert incl["b"] == 4.0 and selft["b"] == 3.0
    assert selft["c"] == 1.0


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "direct-so", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
