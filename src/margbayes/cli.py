"""Command-line front end.

Subcommands: datasets (bundled fixtures), bf (Bayes factors from a run
manifest), sensitivity (the same over a prior-concentration sweep), fit
(constrained MLE), posterior (accepted-draw summaries). Exit codes: 0
success, 1 input error, 2 estimation failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .engine import (
    LN10,
    EngineError,
    EpsilonSchedule,
    PriorSpec,
    RunSettings,
    compare_models,
    jeffreys_label,
    posterior_draws_under_model,
    replicate_bf,
)
from .fit import FitError, FitOptions, constrained_mle
from .hypotheses import ConstraintError, model_from_dict
from .link import LinkError
from .tables import TableError, list_fixtures, load_fixture, load_table, validate

INPUT_ERRORS = (TableError, ConstraintError, LinkError, FitError, FileNotFoundError,
                json.JSONDecodeError, KeyError, ValueError)

# bases a log Bayes factor may be printed in
LOG_BASES = ("10", "e")


def _load_dataset(ref: str, base: Path):
    try:
        return load_fixture(ref)
    except TableError:
        return load_table(base / ref if not Path(ref).is_absolute() else ref)


def _load_manifest(path: str) -> dict:
    p = Path(path)
    manifest = json.loads(p.read_text())
    manifest["_base"] = p.parent
    return manifest


def _models_from_manifest(manifest: dict, table):
    base = manifest["_base"]
    models = []
    for entry in manifest.get("models", []):
        obj = json.loads((base / entry).read_text()) if isinstance(entry, str) else entry
        models.append(model_from_dict(obj, table.dims, table.s))
    if not models:
        raise ValueError("manifest lists no models")
    return models


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _setting(k: str, default, v):
    """Manifest value v as the type of the setting's default; a ValueError
    naming the setting when it cannot be one."""
    if isinstance(default, tuple):
        if isinstance(v, list) and all(_is_number(x) for x in v):
            return tuple(v)
        raise ValueError(f"setting {k!r} must be a list of numbers, got {v!r}")
    if isinstance(default, int):
        if isinstance(v, int) and not isinstance(v, bool):
            return v
    elif isinstance(default, float):
        if _is_number(v):
            return float(v)
    elif isinstance(v, str):
        return v
    raise ValueError(f"setting {k!r} must be a single {type(default).__name__}, got {v!r}")


# Range of each tuning setting: name -> (test of one value or list entry,
# what the test asks). A tune_extend_factor <= 1 would never end the
# tuner's grid extension, and a negative smoothing sends the centring fit
# to its iteration cap. A direct_threshold above 1 is kept: it sends every
# side down the importance route.
_TUNING_RANGES = {
    "tune_extend_factor": (lambda v: 1 < v < math.inf, "a finite number > 1"),
    "tune_extend_max_multiplier": (lambda v: 0 < v < math.inf, "a finite number > 0"),
    "alpha_grid": (lambda v: 0 < v < math.inf, "a non-empty list of finite numbers > 0"),
    "margin_ladder": (lambda v: 0 <= v < math.inf, "a list of finite numbers >= 0"),
    "tune_accept_min": (lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "ess_floor": (lambda v: v >= 0, "a number >= 0"),
    "max_retunes": (lambda v: v >= 0, "a whole number >= 0"),
    "smoothing": (lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    "prior_margin": (lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    "direct_threshold": (lambda v: 0 <= v < math.inf, "a finite number >= 0"),
}


def _check_tuning(name: str, v) -> None:
    """A ValueError naming the tuning setting when v is out of its range."""
    ok, want = _TUNING_RANGES[name]
    values = v if isinstance(v, tuple) else (v,)
    if (name == "alpha_grid" and not values) or not all(ok(x) for x in values):
        raise ValueError(f"{name} must be {want}, got {v!r}")


def _check_run(sizes: dict, concentrations, settings: RunSettings | None = None) -> None:
    """The one range check of a run's sizes, prior and tuning settings: a
    ValueError naming the first size that is not a whole number >= 1, the
    first prior concentration that is not a positive finite number, or the
    first tuning setting out of its range (_TUNING_RANGES)."""
    for name, v in sizes.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name} must be a whole number >= 1, got {v!r}")
    for k in concentrations:
        if not _is_number(k) or not 0 < k < math.inf:
            raise ValueError(f"prior concentration must be a positive number, got {k!r}")
    for name in _TUNING_RANGES if settings is not None else ():
        _check_tuning(name, getattr(settings, name))


def _settings_from(manifest: dict, args) -> RunSettings:
    s = RunSettings()
    given = manifest.get("settings", {})
    if not isinstance(given, dict):
        raise ValueError(f"settings must be an object, got {given!r}")
    for k, v in given.items():
        if not hasattr(s, k):
            raise ValueError(f"unknown setting {k!r}")
        setattr(s, k, _setting(k, getattr(s, k), v))
    if args.draws is not None:
        s.n_draws = args.draws
    if args.pilot is not None:
        s.pilot_n = args.pilot
    if args.log_base:
        s.log_base = args.log_base
    if s.log_base not in LOG_BASES:
        raise ValueError(f"log_base must be one of {', '.join(LOG_BASES)}, got {s.log_base!r}")
    return s


def _schedule_from(manifest: dict) -> EpsilonSchedule | None:
    sched = manifest.get("epsilon_schedule")
    if not sched:
        return None
    if not isinstance(sched, dict):
        raise ValueError(f"epsilon_schedule must be an object, got {sched!r}")
    defaults = asdict(EpsilonSchedule())
    for k, v in sched.items():
        if k not in defaults:
            raise ValueError(f"unknown epsilon_schedule key {k!r}")
        want_int = isinstance(defaults[k], int)
        if not _is_number(v) or (want_int and not isinstance(v, int)):
            raise ValueError(f"epsilon_schedule key {k!r} must be "
                             f"{'an integer' if want_int else 'a number'}, got {v!r}")
    try:
        return EpsilonSchedule(**sched)
    except EngineError as err:           # a value out of range is an input error too
        raise ValueError(f"epsilon_schedule: {err}") from None


def _display_log(est_log10: float, base: str) -> float:
    return est_log10 if base == "10" else est_log10 * LN10


def _save(report: dict, args, name: str) -> None:
    """Write the report to <--out>/<name> when --out is given."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(json.dumps(report, indent=1, sort_keys=True))


def _emit(report: dict, args) -> None:
    fmt = args.format
    _save(report, args, "report.json")
    if fmt == "json":
        print(json.dumps(report, indent=1, sort_keys=True))
    elif fmt == "csv":
        rows = report.get("results", [])
        cols = ["model", "log_bf", "sd", "label", "route", "vs_reference"]
        print(",".join(cols))
        for r in rows:
            print(",".join(str(r.get(c, "")) for c in cols))
    else:
        print(f"# {report.get('command')} (base {report.get('log_base')}, seed {report.get('seed')})")
        for r in report.get("results", []):
            ref = f"  vs-ref {r['vs_reference']:+.3f}" if "vs_reference" in r else ""
            print(f"{r['model']:>24}: log BF = {r['log_bf']:+9.3f}  sd {r['sd']:.3f}  "
                  f"[{r['label']}] ({r['route']}){ref}")
            for i, rep in enumerate(r["estimate"]["components"]["replicates"], 1):
                for w in rep["warnings"]:
                    print(f"warning: {r['model']} replicate {i}: {w}")
        for k in ("dataset", "n", "elapsed_s"):
            if k in report:
                print(f"# {k} = {report[k]}")


def _bf_table(table, models, prior, settings, schedule, seed, B, reference):
    results = []
    estimates = {}
    for model in models:
        est = replicate_bf(model, table, prior, settings, B, seed, schedule)
        estimates[model.name] = est
        results.append({
            "model": model.name,
            "log10_bf": est.log10_bf,
            "ln_bf": est.ln_bf,
            "sd": est.sd if settings.log_base == "10" else est.sd * LN10,
            "log_bf": _display_log(est.log10_bf, settings.log_base),
            "label": jeffreys_label(_display_log(est.log10_bf, settings.log_base)),
            "route": est.route,
            "replicates": est.replicates,
            "estimate": est.to_dict(),
        })
    if reference:
        if reference not in estimates:
            raise ValueError(f"reference model {reference!r} not among {sorted(estimates)}")
        ref_est = estimates[reference]
        for row in results:
            delta10 = compare_models(estimates[row["model"]], ref_est)
            row["vs_reference"] = _display_log(delta10, settings.log_base)
    return results


def cmd_datasets(args) -> int:
    rows = list_fixtures()
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        for row in rows:
            dims = "x".join(str(d) for d in row["dims"])
            print(f"{row['name']:>12}: {dims} table, {row['strata']} stratum(s)")
    return 0


def cmd_sensitivity(args) -> int:
    """bf and sensitivity: Bayes factors of the manifest's models under a
    flat prior, for each prior concentration of the sweep. bf is the sweep
    over the manifest's one concentration."""
    manifest = _load_manifest(args.manifest)
    table = _load_dataset(manifest["dataset"], manifest["_base"])
    models = _models_from_manifest(manifest, table)
    settings = _settings_from(manifest, args)
    schedule = _schedule_from(manifest)
    seed = args.seed if args.seed is not None else int(manifest.get("seed", 20240901))
    B = args.replicates if args.replicates is not None else manifest.get("replicates", 1)
    reference = args.reference or manifest.get("reference")
    prior = manifest.get("prior", {})
    if not isinstance(prior, dict):
        raise ValueError(f"prior must be an object, got {prior!r}")
    if args.command == "bf":
        kappas = [prior.get("concentration", 1.0)]
    else:
        kappas = args.concentrations or manifest.get("concentrations", [1.0])
        if not isinstance(kappas, list):
            raise ValueError(f"concentrations must be a list, got {kappas!r}")
    _check_run({"n_draws": settings.n_draws, "pilot_n": settings.pilot_n,
                "chunk": settings.chunk, "replicates": B}, kappas, settings)
    kappas = [float(k) for k in kappas]
    t0 = time.time()
    sweeps = [{"concentration": kappa,
               "results": _bf_table(table, models, PriorSpec.flat(table.r, table.s, kappa),
                                    settings, schedule, seed, B, reference)}
              for kappa in kappas]
    report = {
        "command": args.command,
        "dataset": manifest["dataset"],
        "n": table.n,
        "seed": seed,
        "replicates": B,
        "log_base": settings.log_base,
        "settings": settings.to_dict(),
    }
    if args.command == "bf":
        report.update(prior_concentration=kappas[0], reference=reference,
                      results=sweeps[0]["results"])
    else:
        report.update(concentrations=kappas, sweeps=sweeps,
                      results=[dict(r, model=f"{r['model']} @k={sw['concentration']}")
                               for sw in sweeps for r in sw["results"]])
    report.update(elapsed_s=round(time.time() - t0, 3), version=__version__)
    _emit(report, args)
    return 0


def cmd_fit(args) -> int:
    _check_tuning("smoothing", args.smoothing)
    table = _load_dataset(args.dataset, Path.cwd())
    obj = json.loads(Path(args.model).read_text())
    model = model_from_dict(obj, table.dims, table.s)
    options = FitOptions(smoothing=args.smoothing)
    res = constrained_mle(table, model, options)
    report = {
        "command": "fit",
        "dataset": args.dataset,
        "model": model.name,
        "fit": res.to_dict(),
        "diagnostics": asdict(validate(table)),
        "version": __version__,
    }
    if args.format == "text":
        print(f"model {model.name}: loglik {res.loglik:.4f}  converged {res.converged}  "
              f"kkt {res.kkt_residual:.2e}  outer {res.n_outer}")
    else:
        print(json.dumps(report, indent=1, sort_keys=True))
    _save(report, args, "fit.json")
    return 0


def cmd_posterior(args) -> int:
    table = _load_dataset(args.dataset, Path.cwd())
    obj = json.loads(Path(args.model).read_text())
    model = model_from_dict(obj, table.dims, table.s)
    draws = args.draws if args.draws is not None else 100_000
    _check_run({"draws": draws}, [args.concentration])
    prior = PriorSpec.flat(table.r, table.s, args.concentration)
    summary = posterior_draws_under_model(model, table, prior, draws,
                                          args.seed if args.seed is not None else 20240901)
    report = {
        "command": "posterior",
        "dataset": args.dataset,
        "model": model.name,
        "summary": summary.to_dict(),
        "version": __version__,
    }
    if args.format == "text":
        print(f"model {model.name}: accepted {summary.n_accepted}/{summary.n_drawn} "
              f"({summary.acceptance:.3%})")
        for w in summary.warnings:
            print(f"warning: {w}")
    else:
        print(json.dumps(report, indent=1, sort_keys=True))
    _save(report, args, "posterior.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="margbayes",
                                description="Bayes factors for constrained marginal models")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("datasets", help="list bundled fixtures")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_datasets)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--draws", type=int, default=None)
        sp.add_argument("--pilot", type=int, default=None)
        sp.add_argument("--replicates", type=int, default=None)
        sp.add_argument("--reference", default=None)
        sp.add_argument("--log-base", choices=LOG_BASES, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=["text", "json", "csv"], default="text")

    b = sub.add_parser("bf", help="Bayes factors for the models in a manifest")
    b.add_argument("manifest")
    common(b)
    b.set_defaults(func=cmd_sensitivity)

    s = sub.add_parser("sensitivity", help="prior-concentration sweep")
    s.add_argument("manifest")
    s.add_argument("--concentrations", type=float, nargs="+", default=None)
    common(s)
    s.set_defaults(func=cmd_sensitivity)

    f = sub.add_parser("fit", help="constrained maximum likelihood")
    f.add_argument("dataset")
    f.add_argument("model", help="model-spec JSON path")
    f.add_argument("--smoothing", type=float, default=0.5)
    f.add_argument("--format", choices=["text", "json"], default="text")
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_fit)

    q = sub.add_parser("posterior", help="accepted posterior draw summaries")
    q.add_argument("dataset")
    q.add_argument("model", help="model-spec JSON path")
    q.add_argument("--draws", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--concentration", type=float, default=1.0)
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_posterior)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineError as err:
        print(f"estimation failure: {err}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
