"""Known-answer checks, run through the program's public API.

Each check returns a dict with `name`, `passed` and the figures it
compared. Tolerances are four binomial standard errors, so a correct
program fails a check with probability below 1e-4 per seed.
"""
from __future__ import annotations

import math

from margbayes import (
    ModelEval,
    PriorSpec,
    estimate_proportion_direct,
    load_fixture,
    model_from_dict,
    sample_posterior,
    sample_prior,
)

Z = 4.0


def _ln_var(p: float, n: int) -> float:
    """Delta-method variance of ln(p_hat) for a binomial proportion."""
    return (1.0 - p) / (n * p) if p > 0 else math.inf


def tp2_2x2_half(seed: int, n: int) -> dict:
    """On a 2x2 table under a flat Dirichlet prior the log-odds ratio is
    symmetric about zero, so the TP2 prior proportion is exactly 1/2."""
    model = model_from_dict({"name": "tp2", "logits": "local",
                             "constraints": [{"kind": "tp2"}]}, (2, 2), 1)
    est = estimate_proportion_direct(sample_prior(PriorSpec.flat(4, 1), n, seed),
                                     ModelEval(model, (2, 2), 1))
    tol = Z * math.sqrt(0.25 / n)
    return {"name": "tp2_2x2_prior_half", "value": est.value, "expected": 0.5,
            "tolerance": tol, "passed": abs(est.value - 0.5) <= tol}


def direct_bf_agrees(dataset: str, model_obj: dict, log10_bf: float, n_per_rep: int,
                     replicates: int, seed: int, n: int) -> dict:
    """The workload's log10 BF (mean of `replicates` direct estimates with
    `n_per_rep` draws per side) against posterior-over-prior acceptance
    counted directly on `n` fresh prior and posterior draws."""
    table = load_fixture(dataset)
    model = model_from_dict(model_obj, table.dims, table.s)
    ev = ModelEval(model, table.dims, table.s)
    prior = PriorSpec.flat(table.r, table.s, 1.0)
    c = estimate_proportion_direct(sample_prior(prior, n, seed), ev).value
    d = estimate_proportion_direct(sample_posterior(prior, table, n, seed + 1), ev).value
    ln10 = math.log(10.0)
    if c <= 0 or d <= 0:
        return {"name": "direct_bf_independent", "passed": False,
                "prior_p": c, "posterior_p": d}
    ref = math.log10(d / c)
    var_ref = (_ln_var(c, n) + _ln_var(d, n)) / ln10 ** 2
    var_run = (_ln_var(c, n_per_rep) + _ln_var(d, n_per_rep)) / ln10 ** 2 / replicates
    tol = Z * math.sqrt(var_ref + var_run)
    return {"name": "direct_bf_independent", "value": log10_bf, "expected": ref,
            "tolerance": tol, "prior_p": c, "posterior_p": d,
            "passed": math.isfinite(log10_bf) and abs(log10_bf - ref) <= tol}
