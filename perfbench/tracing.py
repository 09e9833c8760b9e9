"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces module attributes of `margbayes` with wrappers
that open a span around each call and count the work it did, judged from
the call's result where possible so a changed signature still counts.
`Tracer.remove()` puts the originals back. A hook whose module or
attribute no longer exists is recorded in `absent` and skipped, so the
layer reports zeros instead of crashing the run.

Spans are kept in memory as (name, start, end, parent); a span's self time
is its duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, hook kind). Kinds are handled in Tracer._wrap.
HOOKS = (
    ("margbayes.cli", "replicate_bf", "engine_entry"),
    ("margbayes.cli", "posterior_draws_under_model", "posterior"),
    ("margbayes.engine", "_dirichlet_chunk", "sample"),
    ("margbayes.engine", "logsumexp", "logsumexp"),
    ("margbayes.engine", "tune_alpha", "tune"),
    ("margbayes.engine", "_importance_stream", "probe"),
    ("margbayes.engine", "eta_batch", "eta"),
    ("margbayes.engine", "ModelEval.delta", "constraints"),
    ("margbayes.engine", "ModelEval.eq_stat_and_ineq", "constraints"),
    ("margbayes.fit", "constrained_mle", "fit_mle"),
    ("margbayes.fit", "prior_center", "fit_prior_center"),
    ("margbayes.hypotheses", "link_for", "link_build"),
)

# Hook kind -> the layer metrics it feeds; a missing hook marks these absent.
HOOK_METRICS = {
    "engine_entry": ["cli.s"],
    "posterior": ["engine.posterior.summary_s"],
    "sample": ["engine.sample.calls", "engine.sample.draws", "engine.sample.s",
               "engine.sample.tune_draws", "engine.sample.main_draws",
               "engine.tune.draw_share"],
    "logsumexp": ["engine.sample.normalise_s", "engine.weights.calls", "engine.weights.s"],
    "tune": ["engine.tune.calls", "engine.tune.s", "engine.sample.tune_draws",
             "engine.tune.draw_share"],
    "probe": ["engine.tune.probes"],
    "eta": ["link.eta.calls", "link.eta.rows", "link.eta.s"],
    "constraints": ["engine.constraints.s", "engine.constraints.evaluated",
                    "engine.constraints.accept_ratio"],
    "fit_mle": ["fit.mle.calls", "fit.mle.s", "fit.outer_iters", "fit.unconverged"],
    "fit_prior_center": ["fit.prior_center.calls", "fit.prior_center.s",
                         "fit.outer_iters", "fit.unconverged"],
    "link_build": ["link.build.calls", "link.build.s"],
}


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) or None when any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) else 0


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.absent = []          # "module.attr" of hooks that could not be set
        self._open = []           # indices of spans not yet closed
        self._restore = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def parent_name(self):
        return self.spans[self._open[-1]][0] if self._open else None

    def times(self):
        """({name: inclusive seconds}, {name: self seconds})."""
        incl = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selft = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            incl[name] += t1 - t0
            selft[name] += t1 - t0 - child[i]
        return incl, selft

    # -- hooks -------------------------------------------------------------
    def install(self, hooks=HOOKS) -> "Tracer":
        for module, path, kind in hooks:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, orig = found
            setattr(owner, attr, self._wrap(kind, orig))
            self._restore.append((owner, attr, orig))
        return self

    def remove(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def absent_metrics(self, hooks=HOOKS) -> list:
        gone = {kind for module, path, kind in hooks if f"{module}.{path}" in self.absent}
        return sorted({m for kind in gone for m in HOOK_METRICS[kind]})

    def _spanned(self, orig, name_of, after=None):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self.open(name_of())
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out)
            return out
        return wrapper

    def _wrap(self, kind: str, orig):
        c = self.counts
        if kind == "sample":
            def after(out):
                n = _rows(out)
                c["engine.sample.calls"] += 1
                c["engine.sample.draws"] += n
                c["engine.sample.tune_draws" if self.inside("engine.tune")
                  else "engine.sample.main_draws"] += n
            return self._spanned(orig, lambda: "engine.sample", after)
        if kind == "logsumexp":
            def name_of():
                if self.parent_name() == "engine.sample":
                    return "engine.sample.normalise"
                c["engine.weights.calls"] += 1
                return "engine.weights"
            return self._spanned(orig, name_of)
        if kind == "probe":
            @functools.wraps(orig)
            def probe(*args, **kwargs):
                if self.inside("engine.tune"):
                    c["engine.tune.probes"] += 1
                return orig(*args, **kwargs)
            return probe
        if kind == "eta":
            def after(out):
                c["link.eta.calls"] += 1
                c["link.eta.rows"] += _rows(out)
            return self._spanned(orig, lambda: "link.eta", after)
        if kind == "constraints":
            def after(out):
                if isinstance(out, tuple):        # (stat, ineq_ok) at stage-1 tolerance
                    stat, ok = out
                    hit = (np.asarray(stat) <= 1.0) & np.asarray(ok)
                else:
                    hit = np.asarray(out, dtype=bool)
                c["engine.constraints.evaluated"] += hit.size
                c["engine.constraints.accepted"] += int(hit.sum())
            return self._spanned(orig, lambda: "engine.constraints", after)
        if kind in ("fit_mle", "fit_prior_center"):
            prefix = "fit.mle" if kind == "fit_mle" else "fit.prior_center"

            def after(out):
                c[f"{prefix}.calls"] += 1
                c["fit.outer_iters"] += getattr(out, "n_outer", 0)
                c["fit.unconverged"] += not getattr(out, "converged", True)
            return self._spanned(orig, lambda: prefix, after)
        name, counter = {"engine_entry": ("engine.entry", None),
                         "posterior": ("engine.posterior", None),
                         "tune": ("engine.tune", "engine.tune.calls"),
                         "link_build": ("link.build", "link.build.calls")}[kind]

        def after(out):
            if counter:
                c[counter] += 1
        return self._spanned(orig, lambda: name, after)

    # -- layer metrics -----------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer values from the spans and counters of this tracer."""
        incl, selft = self.times()
        c = self.counts
        draws = c["engine.sample.draws"]
        evaluated = c["engine.constraints.evaluated"]
        return {
            "engine.sample.calls": c["engine.sample.calls"],
            "engine.sample.draws": draws,
            "engine.sample.s": selft["engine.sample"],
            "engine.sample.normalise_s": incl["engine.sample.normalise"],
            "engine.sample.tune_draws": c["engine.sample.tune_draws"],
            "engine.sample.main_draws": c["engine.sample.main_draws"],
            "engine.tune.draw_share": c["engine.sample.tune_draws"] / draws if draws else 0.0,
            "engine.tune.calls": c["engine.tune.calls"],
            "engine.tune.probes": c["engine.tune.probes"],
            "engine.tune.s": incl["engine.tune"],
            "fit.mle.calls": c["fit.mle.calls"],
            "fit.mle.s": incl["fit.mle"],
            "fit.prior_center.calls": c["fit.prior_center.calls"],
            "fit.prior_center.s": incl["fit.prior_center"],
            "fit.outer_iters": c["fit.outer_iters"],
            "fit.unconverged": c["fit.unconverged"],
            "link.eta.calls": c["link.eta.calls"],
            "link.eta.rows": c["link.eta.rows"],
            "link.eta.s": selft["link.eta"],
            "link.build.calls": c["link.build.calls"],
            "link.build.s": selft["link.build"],
            "engine.constraints.s": selft["engine.constraints"],
            "engine.constraints.evaluated": evaluated,
            "engine.constraints.accept_ratio":
                c["engine.constraints.accepted"] / evaluated if evaluated else 0.0,
            "engine.weights.calls": c["engine.weights.calls"],
            "engine.weights.s": incl["engine.weights"],
            "engine.posterior.summary_s": selft["engine.posterior"],
            "cli.s": selft["cli"],
        }
