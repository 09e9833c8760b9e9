import json

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
    TuningError,
    UnboundedEstimateError,
    bayes_factor,
    compare_models,
    compose,
    empty_constraints,
    estimate_proportion_direct,
    independence,
    jeffreys_label,
    link_for,
    load_fixture,
    make_density,
    positive_association,
    posterior_draws_under_model,
    replicate_bf,
    sample_posterior,
    sample_prior,
    tune_alpha,
)
from margbayes import fit as fitmod
from margbayes import engine
from margbayes.engine import _importance_stream, substream
from margbayes.hypotheses import ConstraintSet, model_from_dict

from oracles import about_equality_2x2, posterior_summary_reference, tp2_2x2


def table_2x2(counts=(40.0, 10.0, 12.0, 38.0)):
    return StratifiedTable(("all",), (ContingencyTable((2, 2), np.array(counts)),))


def model_pa(dims=(2, 2), kind="local", s=1):
    link = link_for(dims, kind)
    return ModelSpec("positive_association", tuple([kind] * len(dims)),
                     positive_association(link, s=s))


def model_indep(dims=(2, 2), kind="local", s=1, eps=0.1):
    link = link_for(dims, kind)
    return ModelSpec("independence", tuple([kind] * len(dims)),
                     independence(link, s=s, epsilon=eps))


def model_saturated(dims=(2, 2), s=1):
    link = link_for(dims, "local")
    return ModelSpec("saturated", tuple(["local"] * len(dims)),
                     empty_constraints(s * link.t))


SMALL = RunSettings(n_draws=40_000, pilot_n=8_000, chunk=8192)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_prior_moments():
    prior = PriorSpec.flat(4, 1, 2.0)
    draws = sample_prior(prior, 100_000, seed=11)
    mean = draws[:, 0, :].mean(axis=0)
    se = np.sqrt(0.25 * 0.75 / (4 * 2.0 + 1)) / np.sqrt(100_000)
    assert np.max(np.abs(mean - 0.25)) < 3 * se * 1.5


def test_prior_determinism():
    prior = PriorSpec.flat(6, 2, 1.0)
    a = sample_prior(prior, 5_000, seed=99)
    b = sample_prior(prior, 5_000, seed=99)
    assert np.array_equal(a, b)
    c = sample_prior(prior, 5_000, seed=100)
    assert not np.array_equal(a, c)


def test_prior_strata_independent():
    prior = PriorSpec.flat(4, 2, 1.0)
    draws = sample_prior(prior, 120_000, seed=5)
    x = draws[:, 0, 0]
    y = draws[:, 1, 0]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(len(x))


def test_posterior_zero_counts_reduces_to_prior():
    prior = PriorSpec.flat(4, 1, 1.0)
    t = StratifiedTable(("all",), (ContingencyTable((2, 2), np.zeros(4)),))
    a = sample_prior(prior, 4_000, seed=3)
    b = sample_posterior(prior, t, 4_000, seed=3)
    assert np.array_equal(a, b)


def test_posterior_moments_father_son():
    t = load_fixture("father_son")
    prior = PriorSpec.flat(36, 1, 1.0)
    draws = sample_posterior(prior, t, 60_000, seed=17)
    mean = draws[:, 0, :].mean(axis=0)
    expect = (t.tables[0].counts + 1.0) / (t.n + 36.0)
    se = np.sqrt(expect * (1 - expect) / (t.n + 37)) / np.sqrt(60_000)
    assert np.max(np.abs(mean - expect) / (3 * se + 1e-9)) < 2.0


def test_posterior_moments_kappa5():
    t = table_2x2()
    prior = PriorSpec.flat(4, 1, 5.0)
    draws = sample_posterior(prior, t, 80_000, seed=29)
    n = t.n
    expect = (t.tables[0].counts + 5.0) / (n + 5.0 * 4)
    mean = draws[:, 0, :].mean(axis=0)
    assert np.max(np.abs(mean - expect)) < 0.004


def test_tiny_concentration_draws_are_finite_and_positive():
    prior = PriorSpec(np.full((1, 36), 0.002))
    draws = sample_prior(prior, 20_000, seed=1)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


# ---------------------------------------------------------------------------
# direct estimator
# ---------------------------------------------------------------------------

def test_direct_encompassing_is_one():
    ev = ModelEval(model_saturated(), (2, 2), 1)
    draws = sample_prior(PriorSpec.flat(4, 1, 1.0), 2_000, seed=2)
    est = estimate_proportion_direct(draws, ev)
    assert est.value == 1.0 and est.route == "direct"


def test_direct_2x2_positive_association_is_half():
    # label-swap symmetry makes the prior proportion exactly 1/2
    ev = ModelEval(model_pa(), (2, 2), 1)
    n = 100_000
    draws = sample_prior(PriorSpec.flat(4, 1, 1.0), n, seed=23)
    est = estimate_proportion_direct(draws, ev)
    assert abs(est.value - 0.5) < 3 * est.se
    assert est.ess == est.accepted <= n


def test_direct_zero_acceptance_warns():
    # force an impossible-ish region: lambda >= 0 and -lambda >= 1e-12 jointly
    link = link_for((2, 2), "local")
    U = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    cs = ConstraintSet(np.zeros((0, 3)), U, np.zeros(0), 3)
    cs = compose(cs, ConstraintSet(np.zeros((0, 3)),
                                   np.array([[0.0, 1.0, 0.0]]), np.zeros(0), 3))
    ev = ModelEval(ModelSpec("impossible", ("local", "local"), cs), (2, 2), 1)
    draws = sample_prior(PriorSpec.flat(4, 1, 1.0), 5_000, seed=31)
    est = estimate_proportion_direct(draws, ev)
    assert est.value == 0.0 and est.ess == 0.0
    assert any("rare event" in w for w in est.warnings)


# ---------------------------------------------------------------------------
# importance estimator
# ---------------------------------------------------------------------------

def test_importance_with_g_equal_target_matches_direct():
    ev = ModelEval(model_pa(), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    g = make_density(np.full((1, 4), 0.25), prior.concentration, 1.0)
    assert np.allclose(g.params, prior.concentration)
    est = _importance_stream(ev, prior.concentration, g, 60_000,
                             substream(77, "prior", "main"), 16384)
    # weights are identically 1, so value is the plain acceptance fraction
    assert est.max_abs_log_weight < 1e-9
    assert abs(est.value - 0.5) < 3.5 * est.se
    assert est.ess == pytest.approx(est.accepted)


def test_importance_agrees_with_direct_2x2():
    ev = ModelEval(model_pa(), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    direct = estimate_proportion_direct(sample_prior(prior, 150_000, seed=4), ev)
    center = np.full((1, 4), 0.25)
    g = make_density(center, prior.concentration, 2.0)
    imp = _importance_stream(ev, prior.concentration, g, 150_000,
                             substream(5, "prior", "main"), 32768)
    diff = abs(imp.value - direct.value)
    assert diff < 3.0 * np.sqrt(imp.se ** 2 + direct.se ** 2)


def test_importance_nesting_monotone_on_same_draws():
    # composing more constraints can only lower the satisfied proportion
    link = link_for((3, 3), "local")
    pa = positive_association(link)
    both = compose(pa, ModelSpec("x", ("local", "local"),
                                 independence(link, epsilon=0.5)).constraints)
    ev_small = ModelEval(ModelSpec("pa", ("local", "local"), pa), (3, 3), 1)
    ev_big = ModelEval(ModelSpec("pa+ind", ("local", "local"), both), (3, 3), 1)
    draws = sample_prior(PriorSpec.flat(9, 1, 1.0), 60_000, seed=6)
    p_small = estimate_proportion_direct(draws, ev_small).value
    p_big = estimate_proportion_direct(draws, ev_big).value
    assert p_big <= p_small


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------

def test_tune_alpha_grid_contains_paper_values():
    s = RunSettings()
    assert 1.0 in s.alpha_grid and 20.0 in s.alpha_grid
    assert len(s.alpha_grid) == 12
    assert min(s.alpha_grid) == 0.02 and max(s.alpha_grid) == 50.0


def test_tune_alpha_unconstrained_maximises_ess():
    ev = ModelEval(model_saturated(), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    settings = RunSettings(pilot_n=4_000, chunk=4096, alpha_grid=(0.5, 1.0, 2.0))
    g, diag = tune_alpha(ev, prior.concentration, np.full((1, 4), 0.25), settings, seed=8)
    # with delta == 1 everywhere the best ESS is at g == target
    assert g.multiplier == 1.0
    assert diag["fallback"] is None


def test_tune_alpha_extends_grid_for_tight_tubes():
    # |log-odds| <= 0.01 on a 2x2: nothing on the default grid reaches 1%
    ev = ModelEval(model_indep(eps=0.01), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    settings = RunSettings(pilot_n=4_000, chunk=4096, alpha_grid=(0.5, 1.0))
    g, diag = tune_alpha(ev, prior.concentration, np.full((1, 4), 0.25), settings, seed=9)
    assert g.multiplier > 1.0
    assert diag["chosen"] == g.multiplier


def test_tune_alpha_error_when_nothing_accepts():
    link = link_for((2, 2), "local")
    U = np.vstack([np.eye(3)[2], -np.eye(3)[2]])
    cs = ConstraintSet(np.zeros((0, 3)), U, np.zeros(0), 3)
    # lambda must be exactly 0: measure-zero, no draw ever satisfies it
    strict = ConstraintSet(np.zeros((0, 3)),
                           np.vstack([U, [[0, 1.0, 0]], [[0, -1.0, 0]],
                                      [[1.0, 0, 0]], [[-1.0, 0, 0]]]),
                           np.zeros(0), 3)
    ev = ModelEval(ModelSpec("point", ("local", "local"), strict), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    settings = RunSettings(pilot_n=2_000, chunk=2048, alpha_grid=(1.0,),
                           tune_extend_max_multiplier=4.0)
    with pytest.raises(TuningError):
        tune_alpha(ev, prior.concentration, np.full((1, 4), 0.25), settings, seed=10)


@pytest.mark.parametrize("factor", [1.0, 0.5])
def test_tune_alpha_rejects_an_extension_that_never_grows(monkeypatch, factor):
    # a tight tube where nothing on the grid qualifies, so the extension
    # would run, and with a factor <= 1 never end
    probes = []
    monkeypatch.setattr(engine, "_importance_stream", lambda *a: probes.append(a))
    ev = ModelEval(model_indep(eps=0.01), (2, 2), 1)
    settings = RunSettings(pilot_n=4_000, chunk=4096, alpha_grid=(0.5, 1.0),
                           tune_extend_factor=factor)
    with pytest.raises(engine.EngineError, match="tune_extend_factor must be > 1"):
        tune_alpha(ev, np.ones((1, 4)), np.full((1, 4), 0.25), settings, seed=9)
    assert probes == []


# ---------------------------------------------------------------------------
# Bayes factors
# ---------------------------------------------------------------------------

def test_bf_encompassing_vs_itself_is_zero():
    t = table_2x2()
    est = bayes_factor(model_saturated(), t, PriorSpec.flat(4, 1, 1.0), SMALL, seed=12)
    assert est.log10_bf == 0.0 and est.ln_bf == 0.0


def test_bf_positive_association_2x2():
    # posterior acceptance ~1 for strongly positive data, prior = 1/2:
    # ln BF should sit near ln(acc/0.5)
    t = table_2x2()
    est = bayes_factor(model_pa(), t, PriorSpec.flat(4, 1, 1.0), SMALL, seed=13)
    assert 0.55 < est.ln_bf < 0.75


def test_bf_determinism_byte_identical():
    t = table_2x2()
    a = bayes_factor(model_pa(), t, PriorSpec.flat(4, 1, 1.0), SMALL, seed=15)
    b = bayes_factor(model_pa(), t, PriorSpec.flat(4, 1, 1.0), SMALL, seed=15)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_unbounded_estimate_error_names_side(monkeypatch):
    # eta = 0 written as U eta >= 0 and -U eta >= 0: a region without
    # interior, which no draw can hit. It fails before any centring fit.
    strict = ConstraintSet(np.zeros((0, 3)),
                           np.vstack([np.eye(3), -np.eye(3)]), np.zeros(0), 3)
    model = ModelSpec("point", ("local", "local"), strict)
    t = table_2x2()
    settings = RunSettings(n_draws=4_000, pilot_n=2_000, chunk=2048,
                           alpha_grid=(1.0, 5.0), tune_extend_max_multiplier=20.0)
    calls = record_fits(monkeypatch)
    with pytest.raises((UnboundedEstimateError, TuningError), match="no interior"):
        bayes_factor(model, t, PriorSpec.flat(4, 1, 1.0), settings, seed=16)
    assert calls == []


@pytest.mark.parametrize("side", ["prior", "posterior"])
def test_interior_check_finds_the_slack_of_each_region(side):
    # the slack of |eta_1| <= eps next to eta_2 >= margin is positive, and
    # the point eta_1 = 0 written as two inequalities has none at any margin
    tube = ConstraintSet(np.eye(3)[:1], np.eye(3)[1:2], np.array([0.1]), 3)
    point = ConstraintSet(np.zeros((0, 3)), np.vstack([np.eye(3)[:1], -np.eye(3)[:1]]),
                          np.zeros(0), 3)
    for cs, want in ((tube, True), (point, False)):
        model = ModelSpec("m", ("local", "local"), cs)
        assert [engine._has_interior(side, model, m) for m in (0.0, 2.0)] == [want, want]


# ---------------------------------------------------------------------------
# about-equality chain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [{"epsilon_start": np.array([0.1, 0.2])},
                                {"epsilon_start": np.array([0.1])},
                                {"epsilon_start": 0.0}, {"b": 1.0}, {"max_stages": 0}])
def test_epsilon_schedule_rejects_bad_values(kw):
    with pytest.raises(engine.EngineError):
        EpsilonSchedule(**kw)


def test_zero_chunk_is_rejected_not_looped_on():
    ev = ModelEval(model_pa(), (2, 2), 1)
    with pytest.raises(engine.EngineError, match="chunk"):
        engine._direct_stream(ev, np.ones((1, 4)), 100, substream(1, 0), 0)


def test_about_equality_single_stage_is_fixed_epsilon():
    t = table_2x2((20.0, 18.0, 22.0, 21.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.0, max_stages=1)
    est = bayes_factor(model_indep(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                       seed=19, schedule=sched)
    assert len(est.components["stages"]) == 1
    assert est.components["final_epsilon"] == [pytest.approx(0.2)]


def test_about_equality_stage_sum_bookkeeping_exact():
    t = table_2x2((20.0, 18.0, 22.0, 21.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.02, max_stages=5)
    est = bayes_factor(model_indep(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                       seed=20, schedule=sched)
    assert est.log10_bf == sum(est.components["stage_log10s"])
    assert est.ln_bf == pytest.approx(est.log10_bf * np.log(10.0), rel=1e-12)


def test_about_equality_near_independent_data_mild_bf():
    # data generated from an independent table: about-equality BF should be
    # clearly positive (the model is supported)
    t = table_2x2((25.0, 25.0, 25.0, 25.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.05, max_stages=6)
    est = bayes_factor(model_indep(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                       seed=21, schedule=sched)
    assert est.ln_bf > 0.5
    assert not est.components["truncated"]


def test_about_equality_determinism():
    t = table_2x2((20.0, 18.0, 22.0, 21.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.02, max_stages=4)
    a = bayes_factor(model_indep(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                     seed=22, schedule=sched)
    b = bayes_factor(model_indep(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                     seed=22, schedule=sched)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_about_equality_fixed_epsilon_matches_exact_2x2():
    # log10 P_post(|log OR| <= 0.1) - log10 P_prior(|log OR| <= 0.1) under a
    # flat prior, exactly -2.2926; the seed mean must lie within 4 SE of it
    counts, eps = (30.0, 10.0, 12.0, 25.0), 0.1
    exact = np.log10(about_equality_2x2(counts, eps, 1.0)
                     / about_equality_2x2((0, 0, 0, 0), eps, 1.0))
    sched = EpsilonSchedule(epsilon_start=eps, max_stages=1)
    ests = [bayes_factor(model_indep(eps=eps), table_2x2(counts), PriorSpec.flat(4, 1, 1.0),
                         SMALL, seed=seed, schedule=sched).log10_bf for seed in range(1, 13)]
    se = np.std(ests, ddof=1) / np.sqrt(len(ests))
    assert abs(np.mean(ests) - exact) < 4 * se


def test_tp2_importance_route_matches_exact_2x2():
    # log10 P_post(log OR >= 0) - log10(1/2) under a flat prior, exactly
    # 0.30099; a threshold above 1 sends both sides down the importance
    # route, and the seed mean must lie within 4 SE of the exact value
    counts = (30.0, 10.0, 12.0, 25.0)
    exact = np.log10(tp2_2x2(counts) / tp2_2x2((0, 0, 0, 0)))
    settings = RunSettings(n_draws=40_000, pilot_n=8_000, chunk=8192, direct_threshold=1.1)
    ests = [bayes_factor(model_pa(), table_2x2(counts), PriorSpec.flat(4, 1, 1.0), settings,
                         seed=seed) for seed in range(1, 9)]
    assert {e.route for e in ests} == {"importance/importance"}
    values = [e.log10_bf for e in ests]
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(np.mean(values) - exact) < 4 * se


def test_tp2_2x4_prior_proportion_is_one_over_4_factorial():
    # under a flat prior the row log-ratios of a 2x4 table are i.i.d., so
    # local TP2 (all three local log odds ratios >= 0) has prior proportion
    # exactly 1/4!; below the default direct_threshold, the pilot sends the
    # prior side down the importance route without any override
    table = StratifiedTable(("all",), (ContingencyTable((2, 4), np.array(
        [30.0, 20.0, 10.0, 5.0, 5.0, 10.0, 20.0, 30.0])),))
    settings = RunSettings(n_draws=20_000, pilot_n=20_000, chunk=8192)
    ests = [bayes_factor(model_pa((2, 4)), table, PriorSpec.flat(8, 1, 1.0), settings,
                         seed=seed) for seed in range(1, 9)]
    assert all(e.route.startswith("importance/") for e in ests)
    prior_ln = [e.components["stages"][0]["prior_ln"] for e in ests]
    se = np.std(prior_ln, ddof=1) / np.sqrt(len(prior_ln))
    assert abs(np.mean(prior_ln) - np.log(1 / 24)) < 4 * se


# ---------------------------------------------------------------------------
# replication, comparison, labels
# ---------------------------------------------------------------------------

def test_replicate_single_equals_point_estimate():
    t = table_2x2()
    est = replicate_bf(model_pa(), t, PriorSpec.flat(4, 1, 1.0), SMALL, B=1, seed=24)
    assert est.sd == 0.0 and len(est.replicates) == 1
    assert est.mean == est.replicates[0] == est.log10_bf


def test_replicate_mean_sd():
    t = table_2x2()
    est = replicate_bf(model_pa(), t, PriorSpec.flat(4, 1, 1.0),
                       RunSettings(n_draws=20_000, pilot_n=4_000, chunk=8192),
                       B=4, seed=25)
    assert len(est.replicates) == 4
    assert est.mean == pytest.approx(np.mean(est.replicates))
    assert est.sd == pytest.approx(np.std(est.replicates, ddof=1))


def test_replicate_dispatches_equality_models():
    t = table_2x2((20.0, 18.0, 22.0, 21.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.05, max_stages=3)
    est = replicate_bf(model_indep(eps=0.2), t, PriorSpec.flat(4, 1, 1.0),
                       SMALL, B=2, seed=26, schedule=sched)
    # the pilots send both sides to direct sampling; the chain walks its levels
    assert est.route == "direct/direct"
    assert len(est.replicates) == 2
    for rep in est.components["replicates"]:
        assert rep["n_stages"] > 1 and not rep["truncated"]
        assert rep["final_epsilon"] == [pytest.approx(0.2 * 0.5 ** (rep["n_stages"] - 1))]


def test_more_draws_do_not_increase_sd():
    t = table_2x2()
    prior = PriorSpec.flat(4, 1, 1.0)
    sds_small, sds_big = [], []
    for trial in range(5):
        small = replicate_bf(model_pa(), t, prior,
                             RunSettings(n_draws=4_000, pilot_n=2_000, chunk=4096),
                             B=6, seed=300 + trial)
        big = replicate_bf(model_pa(), t, prior,
                           RunSettings(n_draws=16_000, pilot_n=2_000, chunk=4096),
                           B=6, seed=600 + trial)
        sds_small.append(small.sd)
        sds_big.append(big.sd)
    assert np.mean(sds_big) <= np.mean(sds_small) * 1.25


# ---------------------------------------------------------------------------
# centring fits within one replicate_bf call
# ---------------------------------------------------------------------------

def record_fits(monkeypatch):
    """Count the centring fits the engine makes, each as (kind, E, U, eps,
    counts, interior margin): the problem the fit was asked to solve."""
    calls = []

    def problem(kind, model, counts, margin):
        cs = model.constraints
        return (kind, cs.E.tobytes(), cs.U.tobytes(), cs.epsilon.tobytes(),
                None if counts is None else counts.tobytes(), margin)

    orig_mle, orig_pc = fitmod.constrained_mle, fitmod.prior_center

    def constrained_mle(table, model, options=None):
        calls.append(problem("mle", model, table.counts_matrix(), options.interior_margin))
        return orig_mle(table, model, options)

    def prior_center(model, dims, s, options=None, interior_margin=1.0):
        calls.append(problem("prior_center", model, None, interior_margin))
        return orig_pc(model, dims, s, options, interior_margin)

    monkeypatch.setattr(fitmod, "constrained_mle", constrained_mle)
    monkeypatch.setattr(fitmod, "prior_center", prior_center)
    return calls


def test_centring_fits_made_once_per_problem_equality_model(monkeypatch):
    # alzheimer conditional independence: equality rows only, split per stratum
    table = load_fixture("alzheimer")
    model = model_from_dict({"name": "ci", "logits": "local",
                             "constraints": [{"kind": "independence", "epsilon": 0.1}]},
                            table.dims, table.s)
    prior = PriorSpec.flat(table.r, table.s, 1.0)
    settings = RunSettings(n_draws=2_000, pilot_n=1_000, chunk=4096,
                           alpha_grid=(20.0,), max_retunes=0)
    sched = EpsilonSchedule(epsilon_start=0.1, b=0.25, max_stages=2)
    calls = record_fits(monkeypatch)

    first = replicate_bf(model, table, prior, settings, B=1, seed=5, schedule=sched)
    n_first = len(calls)
    # the interior margin reaches the fit only through inequality rows, so
    # the margin ladder has one rung here, and the two strata's prior parts
    # pose one problem: one prior fit and one posterior fit per stratum
    assert [c[0] for c in calls] == ["prior_center", "mle", "mle"]
    assert n_first == len({c[:-1] for c in calls})

    second = replicate_bf(model, table, prior, settings, B=1, seed=5, schedule=sched)
    assert json.dumps(first.to_dict(), sort_keys=True) == \
        json.dumps(second.to_dict(), sort_keys=True)
    assert len(calls) == 2 * n_first            # nothing carried over between calls

    # outside replicate_bf each of the four chain parts (two sides, two
    # strata) fits once, the same problems, to the same estimate
    problems = {c[:-1] for c in calls}
    del calls[:]
    rep_seed = first.components["replicates"][0]["seed"]
    plain = bayes_factor(model, table, prior, settings, rep_seed, sched)
    assert plain.log10_bf == first.log10_bf
    assert len(calls) == 4 and {c[:-1] for c in calls} == problems

    sub = engine._centring_model(model, "prior")
    pcs = [fitmod.prior_center(sub, table.dims, table.s, interior_margin=m)
           for m in (0.25, 2.0)]
    assert pcs[0].pi_hat.tobytes() == pcs[1].pi_hat.tobytes()


def test_centring_fits_keep_distinct_margins_for_inequalities(monkeypatch):
    t = StratifiedTable(("all",), (ContingencyTable((3, 3), np.array(
        [20.0, 9.0, 4.0, 8.0, 15.0, 9.0, 3.0, 10.0, 22.0])),))
    # importance route on both sides, and an ESS target no pilot reaches,
    # so each side walks the whole margin ladder in both replicates
    settings = RunSettings(n_draws=4_000, pilot_n=4_000, chunk=4096,
                           direct_threshold=1.1, ess_floor=1e9, alpha_grid=(5.0, 50.0))
    calls = record_fits(monkeypatch)
    replicate_bf(model_pa((3, 3)), t, PriorSpec.flat(9, 1, 1.0), settings, B=2, seed=8)
    margins = {kind: [c[-1] for c in calls if c[0] == kind] for kind in ("prior_center", "mle")}
    assert margins == {"prior_center": [1.0, 0.25, 2.0], "mle": [0.0, 0.25, 1.0, 2.0]}


# ---------------------------------------------------------------------------
# the margin ladder walks distinct centring problems
# ---------------------------------------------------------------------------

def record_tunes(monkeypatch):
    """The seed of each tune_alpha call the engine makes."""
    seeds = []
    orig = engine.tune_alpha

    def tune_alpha(ev, target_alpha, center, settings, seed, **kw):
        seeds.append(seed)
        return orig(ev, target_alpha, center, settings, seed, **kw)

    monkeypatch.setattr(engine, "tune_alpha", tune_alpha)
    return seeds


def ladder_walk(monkeypatch, model, table, side, seed=100):
    """(fit margin, tuning seed offset) of each rung one _tuned_density call
    runs, with an ESS target no pilot reaches so that no rung ends the walk."""
    settings = RunSettings(pilot_n=4_000, chunk=4096, ess_floor=1e9, alpha_grid=(5.0, 50.0))
    prior = PriorSpec.flat(table.r, table.s, 1.0)
    target = prior.concentration if side == "prior" else prior.posterior(table)
    fits, seeds = record_fits(monkeypatch), record_tunes(monkeypatch)
    engine._tuned_density(side, ModelEval(model, table.dims, table.s), target, model,
                          table, settings, seed)
    assert len(fits) == len(seeds)
    return [(c[-1], s - seed) for c, s in zip(fits, seeds)]


@pytest.mark.parametrize("side,margin", [("prior", 1.0), ("posterior", 0.0)])
def test_ladder_tunes_an_equality_model_once(monkeypatch, side, margin):
    # the margin reaches the centring fit only through inequality rows
    walk = ladder_walk(monkeypatch, model_indep(eps=0.1), table_2x2((30.0, 10.0, 12.0, 25.0)),
                       side)
    assert walk == [(margin, 0)]


def test_ladder_skips_a_repeated_margin_and_keeps_rung_seeds(monkeypatch):
    t = StratifiedTable(("all",), (ContingencyTable((3, 3), np.array(
        [20.0, 9.0, 4.0, 8.0, 15.0, 9.0, 3.0, 10.0, 22.0])),))
    # the first rung is prior_margin = 1.0 on the prior side, so rung 1.0 repeats it
    assert ladder_walk(monkeypatch, model_pa((3, 3)), t, "prior") == \
        [(1.0, 0), (0.25, 1), (2.0, 3)]
    monkeypatch.undo()
    # the first rung is 0.0 on the posterior side: every rung is a new problem
    assert ladder_walk(monkeypatch, model_pa((3, 3)), t, "posterior") == \
        [(0.0, 0), (0.25, 1), (1.0, 2), (2.0, 3)]


def test_compare_models_antisymmetric_and_zero():
    t = table_2x2()
    a = bayes_factor(model_pa(), t, PriorSpec.flat(4, 1, 1.0), SMALL, seed=27)
    assert compare_models(a, a) == 0.0
    b = bayes_factor(model_saturated(), t, PriorSpec.flat(4, 1, 1.0), SMALL, seed=28)
    assert compare_models(a, b) == -compare_models(b, a)


def test_jeffreys_labels():
    assert jeffreys_label(0.19) == "poor"
    assert jeffreys_label(0.78) == "substantial"
    assert jeffreys_label(-1.4) == "strong"
    assert jeffreys_label(2.38) == "decisive"
    assert jeffreys_label(0.5) == "substantial"
    assert jeffreys_label(-2.0) == "decisive"


# ---------------------------------------------------------------------------
# posterior draws under a model
# ---------------------------------------------------------------------------

def test_posterior_summary_encompassing_accepts_all():
    t = table_2x2()
    s = posterior_draws_under_model(model_saturated(), t, PriorSpec.flat(4, 1, 1.0),
                                    n=20_000, seed=30)
    assert s.n_accepted == s.n_drawn and s.acceptance == 1.0
    assert s.pi_mean.shape == (1, 4)
    assert np.all(s.pi_lo <= s.pi_mean) and np.all(s.pi_mean <= s.pi_hi)


def test_posterior_summary_acceptance_matches_direct():
    t = table_2x2()
    prior = PriorSpec.flat(4, 1, 1.0)
    s = posterior_draws_under_model(model_pa(), t, prior, n=50_000, seed=32)
    ev = ModelEval(model_pa(), (2, 2), 1)
    direct = estimate_proportion_direct(sample_posterior(prior, t, 50_000, seed=900), ev)
    se = np.sqrt(direct.se ** 2 + s.acceptance * (1 - s.acceptance) / s.n_drawn)
    assert abs(s.acceptance - direct.value) < 3 * se + 1e-12
    assert s.mean_satisfies


def test_posterior_summary_rare_model_raises_or_warns():
    t = table_2x2()
    with pytest.raises(UnboundedEstimateError):
        posterior_draws_under_model(model_indep(eps=1e-6), t,
                                    PriorSpec.flat(4, 1, 1.0), n=20_000, seed=33)


def posterior_cases():
    """(name, model, table, prior, run sizes) of the posterior summary
    checks: one constrained stratum, and two unconstrained strata."""
    fs = load_fixture("father_son")
    so = model_from_dict({"name": "so", "logits": "global",
                          "constraints": [{"kind": "stochastic_order", "direction": "ge"}]},
                         fs.dims, fs.s)
    skin = load_fixture("skin_trial")
    sat = model_from_dict({"name": "saturated", "logits": "local", "constraints": []},
                          skin.dims, skin.s)
    return [
        ("father_son_so", so, fs, PriorSpec.flat(fs.r, fs.s, 1.0),
         dict(n=20_000, seed=41, chunk=4096)),
        ("skin_trial_saturated", sat, skin, PriorSpec.flat(skin.r, skin.s, 1.0),
         dict(n=3_000, seed=42, chunk=1024)),
    ]


@pytest.mark.parametrize("case", posterior_cases(), ids=lambda c: c[0])
def test_posterior_summary_matches_reference_bit_for_bit(case):
    _, model, table, prior, sizes = case
    s = posterior_draws_under_model(model, table, prior, **sizes)
    assert 0 < s.n_accepted <= s.n_drawn
    assert json.dumps(s.to_dict()) == json.dumps(
        posterior_summary_reference(model, table, prior, **sizes))


@pytest.mark.parametrize("model, chunk", [(model_saturated(), 30), (model_pa(), 7)])
def test_posterior_summary_keeps_first_keep_cap_accepted_draws(model, chunk):
    # the chunk that crosses keep_cap is cut, not dropped
    t = table_2x2()
    prior = PriorSpec.flat(4, 1, 1.0)
    s = posterior_draws_under_model(model, t, prior, n=100, seed=43, chunk=chunk, keep_cap=50)
    assert s.n_accepted > 50
    assert json.dumps(s.to_dict()) == json.dumps(posterior_summary_reference(
        model, t, prior, n=100, seed=43, chunk=chunk, keep_cap=50))
    draws = np.concatenate([D for _, D in engine._chunks(substream(43, 0), prior.posterior(t),
                                                          100, chunk)])
    ev = ModelEval(model, (2, 2), 1)
    accepted = draws if ev.cs.is_empty() else draws[ev.delta(draws)]
    assert np.array_equal(s.pi_mean, accepted[:50].mean(axis=0))


@pytest.mark.parametrize("n", [0, -5])
def test_posterior_summary_needs_a_draw(n):
    with pytest.raises(engine.EngineError, match=f"got {n}"):
        posterior_draws_under_model(model_saturated(), table_2x2(), PriorSpec.flat(4, 1, 1.0),
                                    n=n, seed=1)
