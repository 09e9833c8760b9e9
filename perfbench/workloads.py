"""Workload definitions and their seeded inputs.

A workload is a fixture, a model spec and run sizes. From a workload seed
the benchmark writes the files the program reads (a `bf` manifest plus a
model-spec JSON, or a model-spec JSON for `posterior`) and returns the CLI
arguments that run them. The program sees only those files and arguments.

Only dataset, model spec, epsilon schedule, `n_draws`, `pilot_n`,
replicates and the program seed are set; every tuning knob keeps the
program's own default.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "bf" | "posterior"
    dataset: str                  # bundled fixture name
    model: dict                   # model-spec JSON object
    n_draws: int
    pilot_n: int = 0              # bf only
    replicates: int = 1           # bf only
    schedule: dict = field(default_factory=dict)   # bf epsilon schedule, if any


WORKLOADS = {
    w.name: w for w in (
        Workload("direct-so", "bf", "father_son",
                 {"schema_version": 1, "name": "stochastic_order", "logits": "global",
                  "constraints": [{"kind": "stochastic_order", "direction": "ge"}]},
                 n_draws=100_000, pilot_n=25_000, replicates=3),
        Workload("rare-tp2", "bf", "father_son",
                 {"schema_version": 1, "name": "tp2", "logits": "local",
                  "constraints": [{"kind": "tp2"}]},
                 n_draws=30_000, pilot_n=20_000, replicates=3),
        Workload("chain-ci", "bf", "alzheimer",
                 {"schema_version": 1, "name": "conditional_independence", "logits": "local",
                  "constraints": [{"kind": "independence", "epsilon": 0.1}]},
                 n_draws=10_000, pilot_n=8_000, replicates=1,
                 schedule={"epsilon_start": 0.1, "b": 0.25, "stop_tol": 0.05,
                           "max_stages": 12}),
        Workload("posterior-skin", "posterior", "skin_trial",
                 {"schema_version": 1, "name": "saturated", "logits": "local",
                  "constraints": []},
                 n_draws=50_000),
    )
}

# Tiny sizes for the benchmark's own tests: every code path, seconds per run.
SMOKE = {
    "direct-so": dict(n_draws=4_000, pilot_n=2_000, replicates=2),
    "rare-tp2": dict(n_draws=2_000, pilot_n=2_000, replicates=1),
    "chain-ci": dict(n_draws=2_000, pilot_n=1_000, replicates=1,
                     schedule={"epsilon_start": 0.1, "b": 0.5, "stop_tol": 0.05,
                               "max_stages": 1}),
    "posterior-skin": dict(n_draws=2_000),
}


def get(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w


def derive_seed(seed: int, *tags) -> int:
    """Deterministic 31-bit seed for (workload seed, tags); string seeding
    of `random.Random` is stable across runs and platforms."""
    key = ":".join(str(t) for t in (seed, *tags))
    return random.Random(key).randrange(1, 2**31)


def write_inputs(w: Workload, seed: int, workdir: Path) -> dict:
    """Write the workload's input files under workdir.

    Returns {"argv": CLI arguments, "program_seed": int, "manifest": path
    or None, "model": path}.
    """
    program_seed = derive_seed(seed, w.name, "program")
    model_path = workdir / "model.json"
    model_path.write_text(json.dumps(w.model, indent=1))
    if w.command == "posterior":
        argv = ["posterior", w.dataset, str(model_path), "--draws", str(w.n_draws),
                "--seed", str(program_seed), "--format", "json"]
        return {"argv": argv, "program_seed": program_seed, "manifest": None,
                "model": model_path}
    manifest = {
        "dataset": w.dataset,
        "models": [model_path.name],
        "settings": {"n_draws": w.n_draws, "pilot_n": w.pilot_n},
        "replicates": w.replicates,
        "seed": program_seed,
    }
    if w.schedule:
        manifest["epsilon_schedule"] = dict(w.schedule)
    manifest_path = workdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return {"argv": ["bf", str(manifest_path), "--format", "json"],
            "program_seed": program_seed, "manifest": manifest_path, "model": model_path}
