"""Command-line front end.

Subcommands: datasets (bundled fixtures), bf (Bayes factors from a run
manifest), sensitivity (the same over a prior-concentration sweep), fit
(constrained MLE), posterior (accepted-draw summaries). Exit codes: 0
success, 1 input error, 2 estimation failure.

Each bf and sensitivity result names its route, "<prior>/<posterior>":
per side "limit" (an equality model whose rows are linear in log G: the
epsilon -> 0 limit, by importance sampling on the null space of its
rows; its tolerances and epsilon_schedule go unread), "direct" (counted
draws of the side's Dirichlet), "split" (splitting in log-gamma
coordinates, for rare regions whose rows are +-1 combinations of log G)
or "importance" (a tuned Dirichlet with weights), the routes of a side's
strata joined by "+" where they differ.

A run manifest is a JSON object with these top-level keys:
    dataset           string, required: a bundled fixture's name, or the
                      path of a table file (a relative one is read from
                      the manifest's folder)
    models            list, required, non-empty: model-spec objects, or
                      paths of model-spec JSON files relative to the
                      manifest; no two models may share a name
    settings          object: n_draws, pilot_n and log_base, the fields of
                      engine.RunSettings, whose docstring gives each one's
                      meaning and range; the routing threshold, tuning grid,
                      ESS floor and chunk size are fixed in the engine
    epsilon_schedule  object: fields of engine.EpsilonSchedule
    seed              whole number >= 0 (default 20240901; --seed overrides)
    replicates        whole number >= 1 (default 1; --replicates overrides)
    reference         string: the name of one of the models (--reference
                      overrides)
    prior             object {"concentration": number > 0, finite}
                      (default 1): the concentration of bf, and of
                      sensitivity when no concentrations are given
    concentrations    non-empty list of numbers > 0, finite (default [the
                      prior's concentration]; sensitivity only;
                      --concentrations overrides)
Any other key in "settings" or "epsilon_schedule" is an input error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .engine import (
    LN10,
    LOG_BASES,
    EngineError,
    EpsilonSchedule,
    PriorSpec,
    RunSettings,
    compare_models,
    jeffreys_label,
    posterior_draws_under_model,
    replicate_bf,
)
from .fit import FitError, constrained_mle
from .hypotheses import ConstraintError, model_from_dict
from .link import LinkError
from .tables import TableError, list_fixtures, load_fixture, load_table, validate

INPUT_ERRORS = (TableError, ConstraintError, LinkError, FitError, FileNotFoundError,
                json.JSONDecodeError, KeyError, ValueError)


def _load_dataset(ref: str, base: Path):
    try:
        return load_fixture(ref)
    except TableError:
        path = base / ref if not Path(ref).is_absolute() else ref
    try:
        return load_table(path)
    except IsADirectoryError:
        raise ValueError(f"dataset {ref!r} names a folder, not a fixture or a table file") \
            from None


def _load_manifest(path: str) -> dict:
    p = Path(path)
    manifest = json.loads(p.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"a manifest must be an object, got {manifest!r}")
    manifest["_base"] = p.parent
    return manifest


def _models_from_manifest(manifest: dict, table):
    base = manifest["_base"]
    models = []
    entries = manifest.get("models", [])
    if not isinstance(entries, list):
        raise ValueError(f"models must be a list, got {entries!r}")
    for entry in entries:
        obj = json.loads((base / entry).read_text()) if isinstance(entry, str) else entry
        model = model_from_dict(obj, table.dims, table.s)
        if any(m.name == model.name for m in models):   # results are keyed by name
            raise ValueError(f"model name {model.name!r} is used more than once")
        models.append(model)
    if not models:
        raise ValueError("manifest lists no models")
    return models


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _setting(label: str, k: str, default, v):
    """Manifest value v as the type of its default; a ValueError naming
    the key when it cannot be one."""
    if isinstance(default, int):
        if isinstance(v, int) and not isinstance(v, bool):
            return v
    elif isinstance(default, float):
        if _is_number(v):
            return float(v)
    elif isinstance(v, str):
        return v
    raise ValueError(f"{label} {k!r} must be a single {type(default).__name__}, got {v!r}")


def _from_manifest(manifest: dict, key: str, cls, label: str, **overrides):
    """cls built from the manifest's object under key, each value typed as
    the field's default (_setting), then the overrides that are not None.
    An unknown key, and a value cls rejects, are ValueErrors."""
    given = manifest.get(key, {})
    if not isinstance(given, dict):
        raise ValueError(f"{key} must be an object, got {given!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    for k, v in given.items():
        if k not in defaults:
            raise ValueError(f"unknown {label} {k!r}")
        values[k] = _setting(label, k, defaults[k], v)
    values.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        return cls(**values)
    except EngineError as err:           # a value out of range is an input error too
        raise ValueError(f"{key}: {err}") from None


def _whole(name: str, v, least: int = 1) -> int:
    """v, when it is a whole number >= least; else a ValueError naming it."""
    if not isinstance(v, int) or isinstance(v, bool) or v < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {v!r}")
    return v


def _text(name: str, v) -> str:
    """v, when it is a string; else a ValueError naming it."""
    if not isinstance(v, str):
        raise ValueError(f"{name} must be a string, got {v!r}")
    return v


def _check_run(sizes: dict, concentrations) -> None:
    """The range check of what a run takes besides its RunSettings: a
    ValueError naming the first size that is not a whole number >= 1 or
    the first prior concentration that is not a positive finite number."""
    for name, v in sizes.items():
        _whole(name, v)
    for k in concentrations:
        if not _is_number(k) or not 0 < k < math.inf:
            raise ValueError(f"prior concentration must be a positive number, got {k!r}")


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
            "label": jeffreys_label(est.log10_bf),
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
    dataset = _text("dataset", manifest["dataset"])
    table = _load_dataset(dataset, manifest["_base"])
    models = _models_from_manifest(manifest, table)
    settings = _from_manifest(manifest, "settings", RunSettings, "setting", n_draws=args.draws,
                              pilot_n=args.pilot, log_base=args.log_base)
    schedule = _from_manifest(manifest, "epsilon_schedule", EpsilonSchedule,
                              "epsilon_schedule key")
    seed = _whole("seed", args.seed if args.seed is not None else manifest.get("seed", 20240901),
                  least=0)
    B = args.replicates if args.replicates is not None else manifest.get("replicates", 1)
    reference = args.reference or manifest.get("reference")
    if reference is not None:
        _text("reference", reference)
    prior = manifest.get("prior", {})
    if not isinstance(prior, dict):
        raise ValueError(f"prior must be an object, got {prior!r}")
    kappas = [prior.get("concentration", 1.0)]
    if args.command == "sensitivity":
        kappas = args.concentrations or manifest.get("concentrations", kappas)
        if not isinstance(kappas, list) or not kappas:
            raise ValueError(f"concentrations must be a non-empty list, got {kappas!r}")
    _check_run({"replicates": B}, kappas)
    kappas = [float(k) for k in kappas]
    t0 = time.time()
    sweeps = [{"concentration": kappa,
               "results": _bf_table(table, models, PriorSpec.flat(table.r, table.s, kappa),
                                    settings, schedule, seed, B, reference)}
              for kappa in kappas]
    report = {
        "command": args.command,
        "dataset": dataset,
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
    table = _load_dataset(args.dataset, Path.cwd())
    obj = json.loads(Path(args.model).read_text())
    model = model_from_dict(obj, table.dims, table.s)
    res = constrained_mle(table, model, smoothing=args.smoothing)
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
    seed = _whole("seed", args.seed if args.seed is not None else 20240901, least=0)
    summary = posterior_draws_under_model(model, table, prior, draws, seed)
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
