"""Benchmark driver: runs one workload (or all) through `margbayes.cli.main`.

One run of a workload:

1. writes the workload's inputs from the workload seed;
2. calls the CLI in-process on the same inputs again and again until
   `--seconds` of calls have passed (at least once), and reports the median
   wall time. Every call must print the same result as the first: the
   program is deterministic per seed;
3. with tracing off, times the program's set-up (import, fixture load,
   manifest and model build) in a fresh child process after each call, and
   at least SETUP_REPEATS times, and reports the median as `setup_s`. The
   set-ups are spread over the run so host speed drift hits them as it
   hits the calls; their time is not counted in the `--seconds` window;
4. reads accuracy figures from the estimates the engine returned, taken
   by wrapping `margbayes.engine.bayes_factor`;
5. with `--trace 1`, alternates untraced and traced calls over the window
   and reports per-layer metrics plus `trace_overhead_s` (traced minus
   untraced median wall);
6. runs the known-answer checks; a failed check marks the run incorrect.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
full report (workload seed, program seed, environment, every metric).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads
from run import THREAD_VARS
from tracing import Tracer

import margbayes
from margbayes import cli, engine

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5

# Metrics printed in the report of an untraced run: accuracy beside speed.
# Only wall_s, peak_rss_mb and setup_s are in BENCHMARK.json's end-to-end
# set; the accuracy figures are zero on some workloads or (rare-tp2 ESS of
# 1-16) swing across seeds by more than any bound a gate may use, so their
# deterministic parts are recorded as engine.* per-layer metrics instead.
# `accepted_per_s` exists for the posterior workload only, `bf_seed_sd` for
# the bf workloads only.
REPORT_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ess_per_s": "1/s",
    "bf_seed_sd": "decades", "weak_frac": "ratio", "fail_frac": "ratio",
    "accepted_per_s": "1/s",
}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import margbayes.cli
from margbayes import PriorSpec, load_fixture, model_from_dict
if sys.argv[4]:
    json.loads(open(sys.argv[4]).read())
table = load_fixture(sys.argv[2])
model_from_dict(json.loads(open(sys.argv[3]).read()), table.dims, table.s)
PriorSpec.flat(table.r, table.s, 1.0)
print(time.perf_counter() - t0)
"""


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__, "numpy_blas": blas(np),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "margbayes": margbayes.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# One CLI call
# ---------------------------------------------------------------------------

class Capture:
    """Records what each `engine.bayes_factor` call returned or raised."""

    def __init__(self):
        self.records = []
        self._orig = engine.bayes_factor

    def __enter__(self):
        orig = self._orig

        def bayes_factor(*args, **kwargs):
            try:
                est = orig(*args, **kwargs)
            except Exception as err:
                self.records.append(err)
                raise
            self.records.append(est)
            return est
        engine.bayes_factor = bayes_factor
        return self

    def __exit__(self, *exc):
        engine.bayes_factor = self._orig


def call_cli(argv, tracer: Tracer | None = None):
    """(exit code, parsed stdout or None, wall seconds, captured estimates)."""
    out, err = io.StringIO(), io.StringIO()
    with Capture() as cap:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        idx = tracer.open("cli") if tracer is not None else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = -1
        finally:
            if tracer is not None:
                tracer.close(idx)
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.remove()
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    try:
        parsed = json.loads(out.getvalue()) if rc == 0 else None
    except json.JSONDecodeError:
        parsed = None
    return rc, parsed, wall, cap.records


def canonical(parsed) -> str:
    """Output with its timing field removed, for bit-for-bit comparison."""
    if not isinstance(parsed, dict):
        return repr(parsed)
    return json.dumps({k: v for k, v in parsed.items() if k != "elapsed_s"}, sort_keys=True)


# ---------------------------------------------------------------------------
# Accuracy figures
# ---------------------------------------------------------------------------

def side_ess(components: dict):
    """(prior ESS, posterior ESS) of one replicate estimate: the side
    estimates of a plain ratio, or the minimum over a chain's stages."""
    stages = components.get("stages")
    if stages is not None:
        if not stages:
            return 0.0, 0.0
        return (min(s.get("prior_ess", 0.0) for s in stages),
                min(s.get("posterior_ess", 0.0) for s in stages))
    return (components.get("prior", {}).get("ess", 0.0),
            components.get("posterior", {}).get("ess", 0.0))


def accuracy(w, parsed, records, ess_floor: float) -> dict:
    """Deterministic accuracy figures of one CLI call.

    A bf replicate contributes two side estimates (prior, posterior); it
    fails when it raised, came back non-finite or with `truncated` set. The
    posterior workload is one estimate whose ESS is its accepted count.
    """
    out = {"ess_sum": 0.0, "accepted": None, "bf_seed_sd": None, "replicates": [],
           "ess_min": {"prior": 0.0, "posterior": 0.0},
           "chain": {"levels": 0, "retunes": 0, "truncated": 0}}
    if w.command == "posterior":
        acc = parsed["summary"]["n_accepted"] if parsed else 0
        out.update(ess_sum=float(acc), accepted=acc, weak_frac=float(acc < ess_floor),
                   fail_frac=float(parsed is None))
        return out
    weak = failed = 0
    ess_min = {"prior": math.inf, "posterior": math.inf}
    chain = out["chain"]
    for rec in records:
        if isinstance(rec, Exception):
            weak += 2
            failed += 1
            continue
        comp = rec.components
        ess = side_ess(comp)
        weak += sum(e < ess_floor for e in ess)
        out["ess_sum"] += min(ess)
        ess_min["prior"] = min(ess_min["prior"], ess[0])
        ess_min["posterior"] = min(ess_min["posterior"], ess[1])
        trunc = bool(comp.get("truncated", False))
        failed += trunc or not math.isfinite(rec.log10_bf)
        chain["truncated"] += trunc
        chain["levels"] += len(comp.get("stages", ()))
        chain["retunes"] += sum(sum(v) for v in comp.get("retunes", {}).values())
    reps = parsed["results"][0]["replicates"] if parsed else []
    finite = [v for v in reps if math.isfinite(v)]
    n = max(len(records), 1)
    out.update(
        replicates=reps, weak_frac=weak / (2 * n), fail_frac=failed / n,
        bf_seed_sd=statistics.stdev(finite) if len(finite) > 1 else None,
        ess_min={k: (v if math.isfinite(v) else 0.0) for k, v in ess_min.items()},
    )
    return out


# ---------------------------------------------------------------------------
# Set-up timing
# ---------------------------------------------------------------------------

def setup_timer(w, inputs, times: list):
    """A function that times one set-up in a fresh child process and
    appends the seconds to `times`."""
    manifest = str(inputs["manifest"]) if inputs["manifest"] else ""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), w.dataset, str(inputs["model"]), manifest]

    def once():
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return once


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def timed_calls(argv, seconds: float, trace: bool = False, between=None):
    """Repeat the CLI call until `seconds` of calls pass (at least once).
    With `trace`, calls alternate untraced and traced, starting untraced,
    with at least one of each, so slow drift of the host hits both alike.
    `between`, if given, runs after each call, outside the window."""
    calls = []
    t_end = time.perf_counter() + seconds
    while True:
        tracer = Tracer() if trace and len(calls) % 2 else None
        rc, parsed, wall, records = call_cli(argv, tracer)
        calls.append({"rc": rc, "parsed": parsed, "wall": wall, "records": records,
                      "tracer": tracer})
        if time.perf_counter() >= t_end and len(calls) >= 1 + trace:
            return calls
        if between is not None:
            t0 = time.perf_counter()
            between()
            t_end += time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, ess_floor: float,
                 smoke: bool) -> tuple:
    """(report, result) for one workload run."""
    w = workloads.get(name, smoke)
    spec = benchmark_spec()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        inputs = workloads.write_inputs(w, seed, workdir)
        argv = inputs["argv"]
        report = {"workload": name, "seed": seed, "program_seed": inputs["program_seed"],
                  "smoke": smoke, "trace": int(trace), "ess_floor": ess_floor,
                  "argv": [a if not a.startswith(str(ROOT)) else os.path.relpath(a, ROOT)
                           for a in argv],
                  "environment": environment()}
        setup = []
        setup_once = setup_timer(w, inputs, setup) if not trace else None
        calls = timed_calls(argv, seconds, trace, setup_once)
        while setup_once is not None and len(setup) < SETUP_REPEATS:
            setup_once()
        untraced = [c for c in calls if c["tracer"] is None]
        traced = [c for c in calls if c["tracer"] is not None]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = calls[0]
        acc = accuracy(w, first["parsed"], first["records"], ess_floor)
        ref = canonical(first["parsed"])
        bad_calls = [i for i, c in enumerate(calls)
                     if c["rc"] != 0 or c["parsed"] is None or canonical(c["parsed"]) != ref]
        wall = statistics.median(c["wall"] for c in untraced)

        check_list = [checks.tp2_2x2_half(workloads.derive_seed(seed, name, "check-tp2"),
                                          20_000 if smoke else 100_000)]
        if name == "direct-so" and first["parsed"]:
            check_list.append(checks.direct_bf_agrees(
                w.dataset, w.model, first["parsed"]["results"][0]["log10_bf"],
                w.n_draws, w.replicates, workloads.derive_seed(seed, name, "check-bf"),
                20_000 if smoke else 100_000))
        correct = not bad_calls and all(c["passed"] for c in check_list)

        report.update({
            "calls": len(calls), "calls_untraced": len(untraced), "calls_traced": len(traced),
            "bad_calls": bad_calls, "checks": check_list,
            "wall_s_samples": [c["wall"] for c in untraced],
            "setup_s_samples": setup, "replicate_log10_bf": acc["replicates"],
        })
        e2e = {
            "wall_s": wall,
            "setup_s": statistics.median(setup) if setup else None,
            "peak_rss_mb": peak_rss_mb,
            "ess_per_s": acc["ess_sum"] / wall,
            "bf_seed_sd": acc["bf_seed_sd"],
            "weak_frac": acc["weak_frac"],
            "fail_frac": acc["fail_frac"],
            "accepted_per_s": acc["accepted"] / wall if acc["accepted"] is not None else None,
        }
        report["end_to_end"] = {k: {"value": v, "unit": REPORT_UNITS[k]} for k, v in e2e.items()}
        if trace:
            layers = [c["tracer"].layer_metrics() for c in traced]
            values = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
            values.update({
                "trace_overhead_s": statistics.median(c["wall"] for c in traced) - wall,
                "engine.chain.levels": acc["chain"]["levels"],
                "engine.chain.retunes": acc["chain"]["retunes"],
                "engine.chain.truncated": acc["chain"]["truncated"],
                "engine.ess.prior_min": acc["ess_min"]["prior"],
                "engine.ess.posterior_min": acc["ess_min"]["posterior"],
                "engine.ess.sum": acc["ess_sum"],
                "engine.bf_seed_sd": acc["bf_seed_sd"] or 0.0,
                "engine.weak_frac": acc["weak_frac"],
                "engine.fail_frac": acc["fail_frac"],
            })
            wanted = spec["per_layer"]
            report["absent_hooks"] = traced[0]["tracer"].absent
            report["absent_metrics"] = traced[0]["tracer"].absent_metrics()
            report["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                 for m in wanted}
        else:
            values, wanted = e2e, spec["end_to_end"]
            report["metrics"] = report["end_to_end"]
        result = {
            "correct": correct,
            "attempted": len(calls),
            "failed": len(bad_calls),
            "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                        for m in wanted},
        }
        return report, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_run(report: dict, result: dict) -> None:
    for k, m in report["metrics"].items():
        v = m["value"]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"# {report['workload']}: {k} = {shown} {m['unit']}")
    print(f"# {report['workload']}: wall_s is the median of {report['calls_untraced']} calls")
    for c in report["checks"]:
        print(f"# {report['workload']}: check {c['name']}: {'ok' if c['passed'] else 'FAILED'}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--ess-floor", str(args.ess_floor)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            continue
        print("\n".join(line for line in lines[:-1] if line.startswith("# ")))
        results[name] = json.loads(lines[-1])
        results[name]["report"] = json.loads(lines[-2])["report"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }, sort_keys=True))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ess-floor", type=float, default=50.0,
                   help="ESS under which a replicate side counts as weak")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.ess_floor, args.smoke)
    print_run(report, result)
    return 0
