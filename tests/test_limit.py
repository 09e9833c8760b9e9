"""The limit route: equality models whose rows are linear in y = log G,
estimated at epsilon -> 0 as a Savage-Dickey density ratio by importance
sampling on the null space of the rows."""
import json
import math
from collections import defaultdict

import numpy as np
import pytest

from margbayes import (
    ContingencyTable,
    EpsilonSchedule,
    ModelEval,
    ModelSpec,
    PriorSpec,
    RunSettings,
    StratifiedTable,
    bayes_factor,
    equal_association,
    independence,
    link_for,
    load_fixture,
    model_from_dict,
    replicate_bf,
    uniform_association,
)
from margbayes import engine

from oracles import independence_limit, one_row_tube_limit
from test_engine import registry_units, set_engine


def one_stratum(dims, counts):
    return StratifiedTable(("all",), (ContingencyTable(dims, np.array(counts, dtype=float)),))


def conditional_independence(table, eps=0.1):
    return model_from_dict({"name": "ci", "logits": "local",
                            "constraints": [{"kind": "independence", "epsilon": eps}]},
                           table.dims, table.s)


def one_row_tubes():
    """(name, model, table, weights of the row over the cells): three
    tubes with one row each. The 2x3 uniform association row has a
    coefficient of 2; the 2x2x2 equal association row couples the strata."""
    ua = ModelSpec("ua", ("local", "local"), uniform_association(link_for((2, 3), "local")))
    ind = ModelSpec("ind", ("local", "local"), independence(link_for((2, 2), "local")))
    ea = ModelSpec("ea", ("local", "local"), equal_association(link_for((2, 2), "local"), s=2))
    strata = StratifiedTable(("a", "b"), (ContingencyTable((2, 2), np.array([6.0, 3, 2, 4])),
                                          ContingencyTable((2, 2), np.array([3.0, 11, 15, 4]))))
    return [
        ("2x3_uniform_association", ua, one_stratum((2, 3), [6, 3, 2, 2, 4, 5]),
         [1, -2, 1, -1, 2, -1]),
        ("2x2_independence", ind, one_stratum((2, 2), [3, 11, 15, 4]), [1, -1, -1, 1]),
        ("2x2x2_equal_association", ea, strata, [-1, 1, 1, -1, 1, -1, -1, 1]),
    ]


@pytest.mark.parametrize("name,model,table,weights", one_row_tubes(),
                         ids=[t[0] for t in one_row_tubes()])
def test_limit_route_matches_the_one_row_oracle(name, model, table, weights):
    exact = one_row_tube_limit(table.counts_matrix(), weights) / math.log(10)
    est = bayes_factor(model, table, PriorSpec.flat(table.r, table.s), RunSettings(n_draws=20_000),
                       seed=5)
    assert est.route == "limit/limit"
    assert abs(est.log10_bf - exact) <= 3 * est.components["log10_se"], (est.log10_bf, exact)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("dataset", ["father_son", "alzheimer"])
def test_limit_route_matches_independence_limit(dataset, kappa):
    # Gunel & Dickey's closed form; the mean of 4 seeds must lie within 3
    # of its reported SEs
    table = load_fixture(dataset)
    exact = independence_limit(table.counts_matrix().reshape(table.s, *table.dims),
                               kappa) / math.log(10)
    ests = [bayes_factor(conditional_independence(table), table,
                         PriorSpec.flat(table.r, table.s, kappa), RunSettings(n_draws=10_000),
                         seed=seed) for seed in range(1, 5)]
    assert {e.route for e in ests} == {"limit/limit"}
    mean = np.mean([e.log10_bf for e in ests])
    se = math.sqrt(sum(e.components["log10_se"] ** 2 for e in ests)) / len(ests)
    assert abs(mean - exact) <= 3 * se, (mean, exact, se)


def test_limit_route_se_matches_the_seed_spread():
    # alzheimer conditional independence at the benchmark's size: the
    # reported SE must lie within 30% of the sd over seeds. 32 seeds, as
    # the sd of 8 has a relative error of about 27% on its own.
    table = load_fixture("alzheimer")
    ests = [bayes_factor(conditional_independence(table), table, PriorSpec.flat(table.r, table.s),
                         RunSettings(n_draws=10_000), seed=seed) for seed in range(1, 33)]
    sd = np.std([e.log10_bf for e in ests], ddof=1)
    se = np.mean([e.components["log10_se"] for e in ests])
    assert 0.7 <= se / sd <= 1.3, (se, sd)
    assert abs(np.mean([e.log10_bf for e in ests]) - (-119.1373)) < 0.03


def test_limit_route_reports_one_level_at_tolerance_zero():
    table = load_fixture("alzheimer")
    prior = PriorSpec.flat(table.r, table.s)
    settings = RunSettings(n_draws=4_000, pilot_n=1_000)
    est = bayes_factor(conditional_independence(table), table, prior, settings, seed=3)
    comp = est.components
    assert est.route == "limit/limit"
    [stage] = comp["stages"]
    assert stage["level"] == 1 and stage["log10_stage"] == est.log10_bf
    assert stage["posterior_ln"] - stage["prior_ln"] == est.ln_bf == est.log10_bf * engine.LN10
    assert comp["truncated"] is False and comp["warnings"] == []
    assert comp["final_epsilon"] == [0.0] * 24
    assert comp["retunes"] == {"prior": [0, 0], "posterior": [0, 0]}
    assert comp["split"] == {"prior": [], "posterior": []}
    # each side's SE of ln over its two strata, sqrt(1/ESS - 1/n) each
    for side in ("prior", "posterior"):
        assert 0 < stage[f"{side}_ln_se"] ** 2 <= 2 * (1 / stage[f"{side}_ess"] - 1 / 4_000)
    assert comp["log10_se"] == math.hypot(stage["prior_ln_se"], stage["posterior_ln_se"]) \
        / math.log(10)
    assert "schedule" not in est.settings
    # the model's tolerance and the schedule are not read
    other = bayes_factor(conditional_independence(table, eps=0.3), table, prior, settings,
                         seed=3, schedule=EpsilonSchedule(epsilon_start=0.5, b=0.9, max_stages=3))
    assert json.dumps(other.to_dict(), sort_keys=True) == json.dumps(est.to_dict(), sort_keys=True)
    rep = replicate_bf(conditional_independence(table), table, prior, settings, B=2, seed=3)
    assert rep.route == "limit/limit" and "schedule" not in rep.settings
    for info in rep.components["replicates"]:
        assert info["n_stages"] == 1 and info["log10_se"] > 0


def test_limit_route_warns_on_a_weak_side(monkeypatch):
    # the ESS floor's warning covers a limit side as any other
    set_engine(monkeypatch, _ESS_FLOOR=1e9)
    table = load_fixture("father_son")
    est = bayes_factor(conditional_independence(table), table, PriorSpec.flat(table.r),
                       RunSettings(n_draws=2_000), seed=4)
    assert est.components["warnings"] == ["level 1: ESS under 1e+09 on prior/posterior side"]


def test_limit_scope_on_the_fixtures():
    # every registry kind, direction and logit type on the three fixtures:
    # a model takes the limit route when every unit with rows reads a null
    # basis, and then the basis is orthonormal and spans the null space of
    # the rows in y
    reads = defaultdict(list)
    for (dataset, kind, _, logits), ev in registry_units():
        if ev.cs.is_empty():
            continue
        N = engine._null_basis(ev)
        reads[dataset, kind, logits].append(N is not None)
        if N is not None:
            A = engine._rows_in_y(ev, ev.E)
            assert np.allclose(N.T @ N, np.eye(N.shape[1]), rtol=0, atol=1e-12)
            assert np.allclose(A @ N, 0.0, rtol=0, atol=1e-12)
            assert N.shape[1] == A.shape[1] - np.linalg.matrix_rank(A)
    assert all(all(v) or not any(v) for v in reads.values())
    assert {k for k, v in reads.items() if all(v)} == {
        (dataset, kind, "local") for dataset in ("father_son", "alzheimer")
        for kind in ("independence", "uniform_association")} | {
        ("alzheimer", "equal_association", "local")}


def test_rows_in_y_reads_equality_rows_and_any_coefficient():
    # the one reader serves both routes: the split route then keeps only
    # inequality models with +-1 coefficients
    table = load_fixture("father_son")
    ev = ModelEval(conditional_independence(table), table.dims, table.s)
    assert engine._linear_rows(ev) is None
    A = engine._rows_in_y(ev, ev.E)
    assert A.shape == (25, 36) and np.isin(A, (-1.0, 0.0, 1.0)).all()
    ua = ModelEval(one_row_tubes()[0][1], (2, 3), 1)
    assert engine._rows_in_y(ua, ua.E).tolist() == [[-1.0, 2.0, -1.0, 1.0, -2.0, 1.0]]
