import dataclasses
import json
import re

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
    marginal_homogeneity,
    positive_association,
    posterior_draws_under_model,
    replicate_bf,
    sample_posterior,
    sample_prior,
)
from margbayes import fit as fitmod
from margbayes import engine
from margbayes.engine import _importance_stream, make_density, substream, tune_alpha
from margbayes.hypotheses import ConstraintError, ConstraintSet, model_from_dict, registry_names
from margbayes.tables import LOGIT_TYPES

from oracles import (about_equality_2x2, posterior_summary_reference, tp2_2x2, tp2_2xk,
                     tp2_equal_columns)


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


def model_mh(s=1, eps=0.1):
    """Marginal homogeneity of a 2x2 table: its margin logits sum cells,
    so its row is not linear in log G and the model stays on the chain."""
    link = link_for((2, 2), "local")
    return ModelSpec("marginal_homogeneity", ("local", "local"),
                     marginal_homogeneity(link, s=s, epsilon=eps))


def se(est, n):
    """Standard error of a proportion estimate over n draws, from its ESS."""
    return est.value * np.sqrt(1.0 / est.ess - 1.0 / n)


def model_saturated(dims=(2, 2), s=1):
    link = link_for(dims, "local")
    return ModelSpec("saturated", tuple(["local"] * len(dims)),
                     empty_constraints(s * link.t))


SMALL = RunSettings(n_draws=40_000, pilot_n=8_000)


def set_engine(monkeypatch, **constants):
    """Set engine constants, such as _DIRECT_THRESHOLD, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(engine, name, value)


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
    assert est.value == 1.0 and est.ess == est.accepted == 2_000


def test_direct_2x2_positive_association_is_half():
    # label-swap symmetry makes the prior proportion exactly 1/2
    ev = ModelEval(model_pa(), (2, 2), 1)
    n = 100_000
    draws = sample_prior(PriorSpec.flat(4, 1, 1.0), n, seed=23)
    est = estimate_proportion_direct(draws, ev)
    assert abs(est.value - 0.5) < 3 * se(est, n)
    assert se(est, n) == pytest.approx(np.sqrt(est.value * (1 - est.value) / n), rel=1e-12)
    assert est.ess == est.accepted <= n


def test_direct_zero_acceptance_is_zero():
    # force an impossible-ish region: lambda >= 0 and -lambda >= 1e-12 jointly
    link = link_for((2, 2), "local")
    U = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    cs = ConstraintSet(np.zeros((0, 3)), U, np.zeros(0), 3)
    cs = compose(cs, ConstraintSet(np.zeros((0, 3)),
                                   np.array([[0.0, 1.0, 0.0]]), np.zeros(0), 3))
    ev = ModelEval(ModelSpec("impossible", ("local", "local"), cs), (2, 2), 1)
    draws = sample_prior(PriorSpec.flat(4, 1, 1.0), 5_000, seed=31)
    est = estimate_proportion_direct(draws, ev)
    assert est.value == 0.0 and est.ess == 0.0 and est.accepted == 0
    assert est.log_value == -np.inf


# father_son stochastic order on global logits: one unit, every shape >= 1
SO = {"name": "so", "logits": "global",
      "constraints": [{"kind": "stochastic_order", "direction": "ge"}]}


def pilot_case(posterior):
    t = load_fixture("father_son")
    alpha = PriorSpec.flat(t.r, t.s, 1.0)
    alpha = alpha.posterior(t) if posterior else alpha.concentration
    return ModelEval(model_from_dict(SO, t.dims, t.s), t.dims, t.s), alpha


@pytest.mark.parametrize("posterior", [False, True])
def test_early_pilot_routes_as_the_full_pilot(posterior):
    # the full pilot read the acceptance of all n normalised draws; on a
    # one-stratum unit with every shape >= 1 the early pilot's blocks hold
    # the same rows, so it routes alike at every threshold
    ev, alpha = pilot_case(posterior)
    n = 3 * engine._BLOCK + 100
    acc = sum(int(ev.delta(P).sum()) for _, P in engine._chunks(substream(5, 0), alpha, n, 32768))
    assert 0 < acc < n
    p = acc / n
    for threshold in (0.0, np.nextafter(p, 0.0), p, np.nextafter(p, 1.0), (acc - 1) / n,
                      (acc + 1) / n, 1.0, 2.0):
        assert engine._pilot_routes_direct(ev, alpha, n, threshold, substream(5, 0)) \
            == (acc / n >= threshold), threshold


def pilot_stop(blocks, n, threshold):
    """(steps, answer) of a pilot over these (rows, accepted) blocks: it
    stops at the first step after which all n draws fix the answer, or
    after which m * KL(acc/m || threshold) >= ln(1/_PILOT_ERROR)."""
    k, got, m = 0, 0, 0
    while got / n < threshold <= (got + n - m) / n:
        got, m, k = got + blocks[k][1], m + blocks[k][0], k + 1
        p = got / m
        if 0 < threshold < 1 and m * sum(a * np.log(a / b) for a, b in (
                (p, threshold), (1 - p, 1 - threshold)) if a) >= -np.log(engine._PILOT_ERROR):
            return k, p >= threshold
    return k, got / n >= threshold


@pytest.mark.parametrize("chunk", [32768, 1000])
def test_pilot_stops_once_its_route_is_fixed(monkeypatch, chunk):
    # the pilot draws min(_CHUNK, _BLOCK) rows a step, unnormalised, and
    # stops after the first step that fixes the route or after which the
    # sequential bound rules a route out; a route fixed before any draw
    # (threshold 0, or above 1) draws nothing
    set_engine(monkeypatch, _CHUNK=chunk)
    ev, alpha = pilot_case(False)
    n = 10 * engine._BLOCK + 5
    step = min(chunk, engine._BLOCK)
    blocks = [(P.shape[0], int(ev.delta(P).sum()))
              for _, P in engine._chunks(substream(6, 0), alpha, n, step)]
    acc = sum(a for _, a in blocks)
    p = acc / n
    calls = []
    orig = engine._dirichlet_chunk

    def counted(rng, a, k, normalise=True):
        calls.append((k, normalise))
        return orig(rng, a, k, normalise)

    monkeypatch.setattr(engine, "_dirichlet_chunk", counted)
    seen = set()
    for threshold in (0.0, 0.01, 0.1, p - 0.03, p - 0.015, p, np.nextafter(p, 1.0),
                      p + 0.015, p + 0.03, 0.5, 0.9, 1.0, 2.0):
        k, want = pilot_stop(blocks, n, threshold)
        del calls[:]
        got = engine._pilot_routes_direct(ev, alpha, n, threshold, substream(6, 0))
        assert got == want == (p >= threshold), threshold
        assert calls == [(size, False) for size, _ in blocks[:k]], threshold
        seen.add(k)
    # routes fixed before any draw, after the first step, midway and at the end
    assert {0, 1, len(blocks)} <= seen and any(1 < k < len(blocks) for k in seen)


def test_rare_pilot_draws_one_step(monkeypatch):
    # father_son TP2 accepts no prior draw of the first step: 4096 draws
    # put m * KL(0 || 0.05) near 210 nats, past ln(1e12), so the pilot of
    # 20 000 draws stops after that step
    t = load_fixture("father_son")
    ev = ModelEval(model_from_dict({"name": "tp2", "logits": "local",
                                    "constraints": [{"kind": "tp2"}]}, t.dims, t.s), t.dims, t.s)
    calls = []
    orig = engine._dirichlet_chunk

    def counted(rng, a, k, normalise=True):
        calls.append(k)
        return orig(rng, a, k, normalise)

    monkeypatch.setattr(engine, "_dirichlet_chunk", counted)
    assert not engine._pilot_routes_direct(ev, PriorSpec.flat(t.r, t.s, 1.0).concentration,
                                           20_000, engine._DIRECT_THRESHOLD, substream(7, 0))
    assert calls == [engine._BLOCK]


# ---------------------------------------------------------------------------
# importance estimator
# ---------------------------------------------------------------------------

def test_importance_with_g_equal_target_matches_direct():
    ev = ModelEval(model_pa(), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    g = make_density(np.full((1, 4), 0.25), prior.concentration, 1.0)
    assert np.allclose(g, prior.concentration)
    est = _importance_stream(ev, prior.concentration, g, 60_000,
                             substream(77, "prior", "main"))
    # weights are identically 1, so value is the plain acceptance fraction
    assert est.value == pytest.approx(est.accepted / 60_000, rel=1e-9)
    assert abs(est.value - 0.5) < 3.5 * se(est, 60_000)
    assert est.ess == pytest.approx(est.accepted)


def test_make_density_rejects_a_zero_concentration():
    with pytest.raises(engine.EngineError, match="strictly positive"):
        make_density(np.array([[0.5, 0.5, 0.0, 0.0]]), np.ones((1, 4)), 1.0)


def test_importance_agrees_with_direct_2x2():
    ev = ModelEval(model_pa(), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    direct = estimate_proportion_direct(sample_prior(prior, 150_000, seed=4), ev)
    center = np.full((1, 4), 0.25)
    g = make_density(center, prior.concentration, 2.0)
    imp = _importance_stream(ev, prior.concentration, g, 150_000,
                             substream(5, "prior", "main"))
    diff = abs(imp.value - direct.value)
    assert diff < 3.0 * np.sqrt(se(imp, 150_000) ** 2 + se(direct, 150_000) ** 2)


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
    grid = engine.DEFAULT_ALPHA_GRID
    assert 1.0 in grid and 20.0 in grid
    assert len(grid) == 12
    assert min(grid) == 0.02 and max(grid) == 50.0


def test_tune_alpha_unconstrained_maximises_ess():
    ev = ModelEval(model_saturated(), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    center = np.full((1, 4), 0.25)
    params, diag = tune_alpha(ev, prior.concentration, center, RunSettings(pilot_n=4_000),
                              seed=8, grid=(0.5, 1.0, 2.0))
    # with delta == 1 everywhere the best ESS is at g == target
    assert diag["chosen"] == 1.0
    assert np.array_equal(params, make_density(center, prior.concentration, 1.0))
    assert diag["fallback"] is None


def test_tune_alpha_extends_grid_for_tight_tubes():
    # |log-odds| <= 0.01 on a 2x2: nothing on the default grid reaches 1%
    ev = ModelEval(model_indep(eps=0.01), (2, 2), 1)
    prior = PriorSpec.flat(4, 1, 1.0)
    center = np.full((1, 4), 0.25)
    params, diag = tune_alpha(ev, prior.concentration, center, RunSettings(pilot_n=4_000),
                              seed=9, grid=(0.5, 1.0))
    assert diag["chosen"] > 1.0
    assert np.array_equal(params, make_density(center, prior.concentration, diag["chosen"]))


def test_tune_alpha_error_when_nothing_accepts(monkeypatch):
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
    monkeypatch.setattr(engine, "_TUNE_EXTEND_MAX_MULTIPLIER", 4.0)
    with pytest.raises(TuningError):
        tune_alpha(ev, prior.concentration, np.full((1, 4), 0.25), RunSettings(pilot_n=2_000),
                   seed=10, grid=(1.0,))


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


def model_log_or_zero():
    """2x2 log odds ratio = 0, written as >= 0 and <= 0."""
    log_or = ConstraintSet(np.zeros((0, 3)), np.array([[0.0, 0, 1], [0, 0, -1]]),
                           np.zeros(0), 3)
    return ModelSpec("log_or_zero", ("local", "local"), log_or)


def test_unbounded_estimate_error_names_side(monkeypatch):
    # eta = 0 written as U eta >= 0 and -U eta >= 0: a region without
    # interior, which no draw can hit. It fails before any centring fit.
    strict = ConstraintSet(np.zeros((0, 3)),
                           np.vstack([np.eye(3), -np.eye(3)]), np.zeros(0), 3)
    model = ModelSpec("point", ("local", "local"), strict)
    t = table_2x2()
    settings = RunSettings(n_draws=4_000, pilot_n=2_000)
    calls = record_fits(monkeypatch)
    with pytest.raises((UnboundedEstimateError, TuningError), match="no interior"):
        bayes_factor(model, t, PriorSpec.flat(4, 1, 1.0), settings, seed=16)
    assert calls == []
    # the log odds ratio alone, written as >= 0 and <= 0: its row is linear
    # in log G, so the side would split; it raises before any split draw
    # instead of walking levels towards a threshold that never reaches 0
    model = model_log_or_zero()
    assert engine._linear_rows(ModelEval(model, (2, 2), 1)) is not None
    with pytest.raises(UnboundedEstimateError, match="no interior") as err:
        bayes_factor(model, t, PriorSpec.flat(4, 1, 1.0), settings, seed=16)
    assert err.value.side == "prior"
    assert calls == []


def test_split_run_that_stops_gaining_raises(monkeypatch):
    # past the interior check (forced here), splitting towards the point
    # log OR = 0 halves its threshold each level until rounding keeps it
    # from falling, then raises rather than walking on
    monkeypatch.setattr(engine, "_has_interior", lambda *a: True)
    with pytest.raises(UnboundedEstimateError, match="splitting stalled") as err:
        bayes_factor(model_log_or_zero(), table_2x2(), PriorSpec.flat(4, 1, 1.0),
                     RunSettings(n_draws=4_000, pilot_n=2_000), seed=16)
    assert err.value.side == "prior"


@pytest.mark.parametrize("prior_accepted", [30, 60])
def test_a_side_with_no_accepted_draw_raises(monkeypatch, prior_accepted):
    # an empty posterior side at level 1 is unbounded even when the prior
    # side has too few accepted draws to count (under 50): the call
    # returned log10 BF -inf, marked truncated
    n = 4_000

    def level(self, scale):
        if self.side == "prior":
            return float(np.log(prior_accepted / n)), float(prior_accepted), prior_accepted
        return -np.inf, 0.0, 0

    monkeypatch.setattr(engine._Part, "level", level)
    with pytest.raises(UnboundedEstimateError) as err:
        bayes_factor(model_pa(), table_2x2(), PriorSpec.flat(4, 1, 1.0),
                     RunSettings(n_draws=n, pilot_n=2_000), seed=16)
    assert err.value.side == "posterior"


@pytest.mark.parametrize("bad", [
    {"n_draws": 0}, {"pilot_n": 0}, {"log_base": "2"},
], ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))))
def test_run_settings_check_their_range(bad):
    # n_draws 0 ended in a ZeroDivisionError
    [name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(bad[name]))}$"):
        RunSettings(**bad)


def test_run_settings_are_frozen():
    with pytest.raises(AttributeError):
        SMALL.n_draws = 1


def test_run_settings_are_the_run_sizes_and_print_base():
    # the routing threshold, tuning grid, ESS floor and chunk size are
    # engine constants, not settings
    assert [f.name for f in dataclasses.fields(RunSettings)] == ["n_draws", "pilot_n", "log_base"]
    assert SMALL.to_dict() == {"n_draws": 40_000, "pilot_n": 8_000, "log_base": "10"}
    with pytest.raises(TypeError):
        RunSettings(direct_threshold=0.5)


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
                                {"epsilon_start": 0.0}, {"b": 1.0}, {"max_stages": 0},
                                {"epsilon_start": np.inf}, {"epsilon_start": np.nan},
                                {"stop_tol": -0.01}, {"stop_tol": np.inf},
                                {"stop_tol": np.nan}])
def test_epsilon_schedule_rejects_bad_values(kw):
    with pytest.raises(engine.EngineError):
        EpsilonSchedule(**kw)


def test_about_equality_single_stage_is_fixed_epsilon():
    t = table_2x2((20.0, 18.0, 22.0, 21.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.0, max_stages=1)
    est = bayes_factor(model_mh(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                       seed=19, schedule=sched)
    assert len(est.components["stages"]) == 1
    assert est.components["final_epsilon"] == [pytest.approx(0.2)]


def test_about_equality_stage_sum_bookkeeping_exact():
    t = table_2x2((20.0, 18.0, 22.0, 21.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.02, max_stages=5)
    est = bayes_factor(model_mh(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                       seed=20, schedule=sched)
    assert len(est.components["stages"]) > 1
    assert est.log10_bf == sum(est.components["stage_log10s"])
    assert est.ln_bf == pytest.approx(est.log10_bf * np.log(10.0), rel=1e-12)


def test_about_equality_near_independent_data_mild_bf():
    # data generated from an independent table with equal margins: the
    # about-equality BF of marginal homogeneity should be clearly positive
    # (the model is supported)
    t = table_2x2((25.0, 25.0, 25.0, 25.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.05, max_stages=6)
    est = bayes_factor(model_mh(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                       seed=21, schedule=sched)
    assert est.ln_bf > 0.5
    assert not est.components["truncated"]


def test_about_equality_determinism():
    t = table_2x2((20.0, 18.0, 22.0, 21.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.02, max_stages=4)
    a = bayes_factor(model_mh(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                     seed=22, schedule=sched)
    b = bayes_factor(model_mh(eps=0.2), t, PriorSpec.flat(4, 1, 1.0), SMALL,
                     seed=22, schedule=sched)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_about_equality_fixed_epsilon_matches_exact_2x2(monkeypatch):
    # log10 P_post(|log OR| <= 0.1) - log10 P_prior(|log OR| <= 0.1) under a
    # flat prior, exactly -2.2926; the seed mean must lie within 4 SE of it.
    # The log odds ratio is linear in log G, so the model takes the limit
    # route; with no null basis read, it runs the chain's first level, the
    # fixed-epsilon estimate that this exact value checks.
    monkeypatch.setattr(engine, "_null_basis", lambda ev: None)
    counts, eps = (30.0, 10.0, 12.0, 25.0), 0.1
    exact = np.log10(about_equality_2x2(counts, eps, 1.0)
                     / about_equality_2x2((0, 0, 0, 0), eps, 1.0))
    sched = EpsilonSchedule(epsilon_start=eps, max_stages=1)
    ests = [bayes_factor(model_indep(eps=eps), table_2x2(counts), PriorSpec.flat(4, 1, 1.0),
                         SMALL, seed=seed, schedule=sched).log10_bf for seed in range(1, 13)]
    se = np.std(ests, ddof=1) / np.sqrt(len(ests))
    assert abs(np.mean(ests) - exact) < 4 * se


def on_routes(monkeypatch):
    """Yield "split" (the default for rows linear in log G), then
    "importance", under which the linearity read finds no linear rows, so
    a side that the pilot does not send to direct sampling is tuned."""
    yield "split"
    monkeypatch.setattr(engine, "_linear_rows", lambda ev: None)
    yield "importance"


def test_tp2_importance_route_matches_exact_2x2(monkeypatch):
    # log10 P_post(log OR >= 0) - log10(1/2) under a flat prior, exactly
    # 0.30099; a threshold above 1 sends both sides down the split route,
    # or the importance route where the rows do not read as linear, and
    # on each the seed mean must lie within 4 SE of the exact value
    counts = (30.0, 10.0, 12.0, 25.0)
    exact = np.log10(tp2_2x2(counts) / tp2_2x2((0, 0, 0, 0)))
    settings = RunSettings(n_draws=40_000, pilot_n=8_000)
    set_engine(monkeypatch, _DIRECT_THRESHOLD=1.1)
    for route in on_routes(monkeypatch):
        ests = [bayes_factor(model_pa(), table_2x2(counts), PriorSpec.flat(4, 1, 1.0),
                             settings, seed=seed) for seed in range(1, 9)]
        assert {e.route for e in ests} == {f"{route}/{route}"}
        values = [e.log10_bf for e in ests]
        se = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(np.mean(values) - exact) < 4 * se, route


def test_tp2_2x4_prior_proportion_is_one_over_4_factorial(monkeypatch):
    # under a flat prior the row log-ratios of a 2x4 table are i.i.d., so
    # local TP2 (all three local log odds ratios >= 0) has prior proportion
    # exactly 1/4!; below the routing threshold, the pilot sends the
    # prior side down the split (or importance) route without any override
    table = StratifiedTable(("all",), (ContingencyTable((2, 4), np.array(
        [30.0, 20.0, 10.0, 5.0, 5.0, 10.0, 20.0, 30.0])),))
    settings = RunSettings(n_draws=20_000, pilot_n=20_000)
    for route in on_routes(monkeypatch):
        ests = [bayes_factor(model_pa((2, 4)), table, PriorSpec.flat(8, 1, 1.0), settings,
                             seed=seed) for seed in range(1, 9)]
        assert all(e.route.startswith(f"{route}/") for e in ests)
        prior_ln = [e.components["stages"][0]["prior_ln"] for e in ests]
        se = np.std(prior_ln, ddof=1) / np.sqrt(len(prior_ln))
        assert abs(np.mean(prior_ln) - np.log(1 / 24)) < 4 * se, route


def test_tp2_equal_columns_bayes_factor_is_one(monkeypatch):
    # with the same counts in every column the exact Bayes factor of local
    # TP2 on 2xK is 1 (see oracles.tp2_equal_columns); at K = 4 both sides
    # take the split (or importance) route, and the seed mean of log10 BF
    # must lie within 4 SE of 0
    K = 4
    exact = np.log10(tp2_equal_columns(K) / tp2_equal_columns(K))     # posterior / prior
    table = StratifiedTable(("all",), (ContingencyTable((2, K), np.array(
        [5.0] * K + [3.0] * K)),))
    settings = RunSettings(n_draws=20_000, pilot_n=5_000)
    for route in on_routes(monkeypatch):
        ests = [bayes_factor(model_pa((2, K)), table, PriorSpec.flat(2 * K, 1, 1.0), settings,
                             seed=seed) for seed in range(1, 9)]
        assert {e.route for e in ests} == {f"{route}/{route}"}
        values = [e.log10_bf for e in ests]
        se = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(np.mean(values) - exact) <= 4 * se, route


def table_2xk(row1, row2):
    K = len(row1)
    return StratifiedTable(("all",), (ContingencyTable((2, K), np.array(
        [*row1, *row2], dtype=float)),))


@pytest.mark.parametrize("row1,row2", [
    ([12, 11, 9, 8, 6, 5], [4, 6, 7, 9, 10, 12]),
    ([14, 12, 13, 10, 9, 9, 7, 5], [3, 5, 4, 7, 8, 9, 11, 12]),
    ([8, 9, 7, 8, 9, 8, 7, 8], [8, 7, 9, 8, 7, 8, 9, 8]),
], ids=["K6_trend", "K8_trend", "K8_flat"])
def test_tp2_2xk_bayes_factor_matches_exact(row1, row2):
    # exactly 1.773, 2.594 and 0.037 (oracles.tp2_2xk); the prior side is
    # rare at K = 8 (1/8!), and the seed mean must lie within 4 SE
    K = len(row1)
    exact = np.log10(tp2_2xk(row1, row2) / tp2_2xk([0] * K, [0] * K))
    settings = RunSettings(n_draws=100_000, pilot_n=20_000)
    ests = [bayes_factor(model_pa((2, K)), table_2xk(row1, row2), PriorSpec.flat(2 * K),
                         settings, seed=seed) for seed in range(1, 9)]
    assert all(e.route.startswith("split/") for e in ests)
    values = [e.log10_bf for e in ests]
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(np.mean(values) - exact) < 4 * se


@pytest.mark.parametrize("kappa", [0.5, 2.0, 10.0])
def test_tp2_2x8_prior_proportion_is_one_over_8_factorial(kappa):
    # 1/8! at every flat concentration (oracles.tp2_equal_columns); with
    # shapes other than 1 the split moves are Metropolis proposals from
    # the untruncated log-gammas, and below 1 they use the boost
    row1, row2 = [14, 12, 13, 10, 9, 9, 7, 5], [3, 5, 4, 7, 8, 9, 11, 12]
    settings = RunSettings(n_draws=20_000, pilot_n=20_000)
    ests = [bayes_factor(model_pa((2, 8)), table_2xk(row1, row2), PriorSpec.flat(16, 1, kappa),
                         settings, seed=seed) for seed in range(1, 9)]
    assert all(e.route.startswith("split/") for e in ests)
    prior_ln = [e.components["stages"][0]["prior_ln"] for e in ests]
    se = np.std(prior_ln, ddof=1) / np.sqrt(len(prior_ln))
    assert abs(np.mean(prior_ln) - np.log(tp2_equal_columns(8))) < 4 * se


def test_father_son_tp2_reads_about_12_7():
    # no exact answer is known; splitting with exact moves read 12.71 at
    # N 2000 and two sweep counts. The seed mean must lie within 3 SE.
    table = load_fixture("father_son")
    model = model_from_dict({"name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]},
                            table.dims, table.s)
    settings = RunSettings(n_draws=2_000, pilot_n=2_000)
    ests = [bayes_factor(model, table, PriorSpec.flat(table.r), settings, seed=seed)
            for seed in range(1, 9)]
    assert {e.route for e in ests} == {"split/split"}
    values = [e.log10_bf for e in ests]
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(np.mean(values) - 12.71) < 3 * se
    split = ests[0].components["split"]
    assert [len(split[side]) for side in ("prior", "posterior")] == [1, 1]
    for entry in split["prior"] + split["posterior"]:
        assert entry["particles"] == engine._SPLIT_PARTICLES
        assert entry["sweeps"] == engine._SPLIT_SWEEPS
        assert entry["levels"] > 1 and 0.5 <= entry["survivor_share"] <= 1.0


@pytest.mark.parametrize("dataset,spec", [
    ("father_son", {"name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]}),
    ("alzheimer", {"name": "trend", "logits": "local",
                   "constraints": [{"kind": "association_trend", "direction": "increasing"}]}),
])
def test_linear_rows_reproduce_the_constraint_rows(dataset, spec):
    # A y = U eta for y = log G, unnormalised; alzheimer's trend couples
    # its two strata, so A spans both strata's cells
    table = load_fixture(dataset)
    ev = ModelEval(model_from_dict(spec, table.dims, table.s), table.dims, table.s)
    A = engine._linear_rows(ev)
    assert A.shape == (ev.U.shape[0], table.s * table.r)
    G = np.random.default_rng(3).gamma(2.0, size=(50, table.s, table.r))
    P = G / G.sum(axis=2, keepdims=True)
    assert np.allclose(np.log(G).reshape(50, -1) @ A.T, ev.eta_reduced(P) @ ev.U.T,
                       rtol=0, atol=1e-9)


@pytest.mark.parametrize("dataset,spec", [
    ("father_son", {"name": "pqd", "logits": "global", "constraints": [{"kind": "pqd"}]}),
    ("father_son", {"name": "so", "logits": "global",
                    "constraints": [{"kind": "stochastic_order", "direction": "ge"}]}),
    ("father_son", {"name": "so", "logits": "local",
                    "constraints": [{"kind": "stochastic_order", "direction": "ge"}]}),
    ("father_son", {"name": "ind", "logits": "local",
                    "constraints": [{"kind": "independence", "epsilon": 0.1}]}),
    ("2x2", ModelSpec("two_log_or", ("local", "local"), ConstraintSet(
        np.zeros((0, 3)), np.array([[0.0, 0, 2]]), np.zeros(0), 3))),
], ids=["pqd_global", "stochastic_order_global", "margin_logits_local", "equality_rows",
        "coefficient_2"])
def test_linear_rows_read_none_when_not_linear(dataset, spec):
    # global logits sum cells, margin logits sum over the other variable,
    # a model with equality rows is left to the limit route (its rows are
    # read by _rows_in_y, see tests/test_limit.py) or the chain, and a row
    # linear in log G with coefficients +-2 (twice the 2x2 log odds ratio)
    # is left to the importance route, as the split moves take unit
    # coefficients
    if dataset == "2x2":
        ev = ModelEval(spec, (2, 2), 1)
    else:
        table = load_fixture(dataset)
        ev = ModelEval(model_from_dict(spec, table.dims, table.s), table.dims, table.s)
    assert engine._linear_rows(ev) is None
    if ev.E.shape[0]:
        assert engine._rows_in_y(ev, ev.E) is not None


def registry_units():
    """(label, unit evaluator) for every registry kind, in each direction
    it takes, on each logit type it accepts, per _units unit of the three
    fixtures."""
    directions = {"association_trend": ("increasing", "decreasing"),
                  "logit_trend": ("increasing", "decreasing"),
                  "marginal_trend": ("increasing", "decreasing"),
                  "stochastic_order": ("ge", "le")}
    for dataset in ("father_son", "alzheimer", "skin_trial"):
        table = load_fixture(dataset)
        for kind in registry_names():
            for params in [{"direction": d} for d in directions.get(kind, ())] or [{}]:
                for logits in LOGIT_TYPES:
                    spec = {"name": kind, "logits": logits,
                            "constraints": [{"kind": kind, **params}]}
                    try:
                        model = model_from_dict(spec, table.dims, table.s)
                    except ConstraintError:
                        continue
                    ev = ModelEval(model, table.dims, table.s)
                    for unit, *_ in engine._units(ev, table):
                        yield (dataset, kind, params, logits), unit


def test_every_linear_registry_model_has_unit_coefficients():
    # _linear_rows reads None when A has an entry outside {-1, 0, 1}, so a
    # registry model whose rows are linear in y = log G must have unit
    # coefficients, or it would lose the split route. Linearity is read
    # independently of _linear_rows: U eta is additive in y.
    rng = np.random.default_rng(4)
    accepted = []
    for label, ev in registry_units():
        A = engine._linear_rows(ev)
        if A is not None:
            assert np.isin(A, (-1.0, 0.0, 1.0)).all(), label
            accepted.append(label)
        if ev.E.shape[0] or not ev.U.shape[0]:
            assert A is None, label
            continue
        y1, y2 = rng.normal(size=(2, 20, ev.s, ev.link.r))

        def rows(y):
            G = np.exp(y)
            return ev.eta_reduced(G / G.sum(axis=2, keepdims=True)) @ ev.U.T

        additive = np.allclose(rows(y1 + y2), rows(y1) + rows(y2), rtol=0, atol=1e-9)
        assert (A is not None) == additive, label
    # TP2 and positive association on father_son, and on each of
    # alzheimer's strata, and alzheimer's association trend both ways
    assert len(accepted) == 8


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
                       RunSettings(n_draws=20_000, pilot_n=4_000),
                       B=4, seed=25)
    assert len(est.replicates) == 4
    assert est.mean == pytest.approx(np.mean(est.replicates))
    assert est.sd == pytest.approx(np.std(est.replicates, ddof=1))


def test_replicate_route_joins_every_replicates_route(monkeypatch):
    # 2x2 TP2 with the routing threshold at the prior's acceptance, 1/2:
    # the pilots send some replicates' prior sides to direct sampling and
    # split the others. The estimate's route named replicate 0's alone.
    set_engine(monkeypatch, _DIRECT_THRESHOLD=0.5)
    est = replicate_bf(model_pa(), table_2x2((30.0, 10.0, 12.0, 25.0)),
                       PriorSpec.flat(4, 1, 1.0), RunSettings(n_draws=2_000, pilot_n=200),
                       B=6, seed=3)
    assert {rep["route"] for rep in est.components["replicates"]} \
        == {"direct/direct", "split/direct"}
    assert est.route == "direct+split/direct"


def test_replicate_dispatches_equality_models():
    t = table_2x2((20.0, 18.0, 22.0, 21.0))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.05, max_stages=3)
    est = replicate_bf(model_mh(eps=0.2), t, PriorSpec.flat(4, 1, 1.0),
                       SMALL, B=2, seed=26, schedule=sched)
    # the pilots send both sides to direct sampling; the chain walks its levels
    assert est.route == "direct/direct"
    assert len(est.replicates) == 2
    for rep in est.components["replicates"]:
        assert rep["n_stages"] > 1 and not rep["truncated"]
        assert rep["final_epsilon"] == [pytest.approx(0.2 * 0.5 ** (rep["n_stages"] - 1))]


def test_replicate_reports_the_schedule_its_replicates_used():
    # the report printed the schedule it was passed: none for a tube model
    # run on the default schedule, and one an inequality-only model ignores
    settings = RunSettings(n_draws=2_000, pilot_n=1_000)
    prior = PriorSpec.flat(4, 1, 1.0)
    tube = replicate_bf(model_mh(), table_2x2(), prior, settings, B=2, seed=27)
    assert tube.settings["schedule"] == dataclasses.asdict(EpsilonSchedule())
    sched = EpsilonSchedule(epsilon_start=0.2, max_stages=3)
    ineq = replicate_bf(model_pa(), table_2x2(), prior, settings, B=2, seed=27,
                        schedule=sched)
    assert "schedule" not in ineq.settings
    assert all(rep["n_stages"] == 1 for rep in ineq.components["replicates"])


def test_more_draws_do_not_increase_sd():
    t = table_2x2()
    prior = PriorSpec.flat(4, 1, 1.0)
    sds_small, sds_big = [], []
    for trial in range(5):
        small = replicate_bf(model_pa(), t, prior,
                             RunSettings(n_draws=4_000, pilot_n=2_000),
                             B=6, seed=300 + trial)
        big = replicate_bf(model_pa(), t, prior,
                           RunSettings(n_draws=16_000, pilot_n=2_000),
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

    def constrained_mle(table, model, smoothing=0.5, interior_margin=0.0):
        calls.append(problem("mle", model, table.counts_matrix(), interior_margin))
        return orig_mle(table, model, smoothing, interior_margin)

    def prior_center(model, dims, s, interior_margin=1.0):
        calls.append(problem("prior_center", model, None, interior_margin))
        return orig_pc(model, dims, s, interior_margin)

    monkeypatch.setattr(fitmod, "constrained_mle", constrained_mle)
    monkeypatch.setattr(fitmod, "prior_center", prior_center)
    return calls


def test_centring_fits_made_once_per_problem_equality_model(monkeypatch):
    # alzheimer uniform association on global logits: equality rows only,
    # not linear in log G, split per stratum
    table = load_fixture("alzheimer")
    model = model_from_dict({"name": "ua", "logits": "global",
                             "constraints": [{"kind": "uniform_association", "epsilon": 0.1}]},
                            table.dims, table.s)
    prior = PriorSpec.flat(table.r, table.s, 1.0)
    settings = RunSettings(n_draws=2_000, pilot_n=1_000)
    set_engine(monkeypatch, DEFAULT_ALPHA_GRID=(20.0,))
    monkeypatch.setattr(engine, "_MAX_RETUNES", 0)
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
    # PQD (global logits, rows not linear in log G): importance route on
    # both sides, and an ESS target no pilot reaches, so each side walks
    # the whole margin ladder in both replicates
    settings = RunSettings(n_draws=4_000, pilot_n=4_000)
    set_engine(monkeypatch, _DIRECT_THRESHOLD=1.1, _ESS_FLOOR=1e9,
               DEFAULT_ALPHA_GRID=(5.0, 50.0))
    calls = record_fits(monkeypatch)
    est = replicate_bf(model_pa((3, 3), "global"), t, PriorSpec.flat(9, 1, 1.0), settings,
                       B=2, seed=8)
    assert est.route == "importance/importance"
    margins = {kind: [c[-1] for c in calls if c[0] == kind] for kind in ("prior_center", "mle")}
    assert margins == {"prior_center": [1.0, 0.25, 2.0], "mle": [0.0, 0.25, 1.0, 2.0]}


# ---------------------------------------------------------------------------
# the margin ladder walks distinct centring problems
# ---------------------------------------------------------------------------

def record_tunes(monkeypatch):
    """(seed, probe stream path) of each tune_alpha call the engine makes."""
    calls = []
    orig = engine.tune_alpha

    def tune_alpha(ev, target_alpha, center, settings, seed, path=("tune",), grid=None):
        calls.append((seed, path))
        return orig(ev, target_alpha, center, settings, seed, path=path, grid=grid)

    monkeypatch.setattr(engine, "tune_alpha", tune_alpha)
    return calls


def ladder_walk(monkeypatch, model, table, side, seed=100):
    """(fit margin, rung index) of each rung one _tuned_density call runs,
    with an ESS target no pilot reaches so that no rung ends the walk.
    Every rung tunes at the part's seed, on the part's path plus its index."""
    settings = RunSettings(pilot_n=4_000)
    set_engine(monkeypatch, _ESS_FLOOR=1e9, DEFAULT_ALPHA_GRID=(5.0, 50.0))
    prior = PriorSpec.flat(table.r, table.s, 1.0)
    target = prior.concentration if side == "prior" else prior.posterior(table)
    fits, tunes = record_fits(monkeypatch), record_tunes(monkeypatch)
    path = (side, "tune", 0)
    engine._tuned_density(side, ModelEval(model, table.dims, table.s), target, table,
                          settings, seed, path)
    assert len(fits) == len(tunes)
    assert all(s == seed and p[:-1] == path for s, p in tunes)
    return [(c[-1], p[-1]) for c, (_, p) in zip(fits, tunes)]


@pytest.mark.parametrize("side,margin", [("prior", 1.0), ("posterior", 0.0)])
def test_ladder_tunes_an_equality_model_once(monkeypatch, side, margin):
    # the margin reaches the centring fit only through inequality rows
    walk = ladder_walk(monkeypatch, model_indep(eps=0.1), table_2x2((30.0, 10.0, 12.0, 25.0)),
                       side)
    assert walk == [(margin, 0)]


def test_ladder_skips_a_repeated_margin_and_keeps_rung_seeds(monkeypatch):
    t = StratifiedTable(("all",), (ContingencyTable((3, 3), np.array(
        [20.0, 9.0, 4.0, 8.0, 15.0, 9.0, 3.0, 10.0, 22.0])),))
    # the prior side's first rung is 1.0, so its rung 2, 1.0 again, repeats
    # it; the skipped rung's index 2 names no stream
    assert ladder_walk(monkeypatch, model_pa((3, 3)), t, "prior") == \
        [(1.0, 0), (0.25, 1), (2.0, 3)]
    monkeypatch.undo()
    # the first rung is 0.0 on the posterior side: every rung is a new problem
    assert ladder_walk(monkeypatch, model_pa((3, 3)), t, "posterior") == \
        [(0.0, 0), (0.25, 1), (1.0, 2), (2.0, 3)]


def test_every_stream_is_drawn_once(monkeypatch):
    # every pilot, sample, tuning probe, split run and limit run of a
    # replicate_bf call draws from its own (seed, spawn key). PQD's rows
    # are not linear in log G, so both sides are tuned, and no pilot ESS is
    # enough, so every rung of both sides' margin ladders runs: once on one
    # unit over three rungs, and once per stratum on a chain (marginal
    # homogeneity) whose parts are redrawn at every level. TP2 splits both
    # sides of each stratum; independence takes the limit route on each.
    uses = []
    orig = engine.substream

    def substream(seed, *path):
        rng = orig(seed, *path)
        uses.append((int(seed), tuple(rng.bit_generator.seed_seq.spawn_key)))
        return rng

    monkeypatch.setattr(engine, "substream", substream)
    t = StratifiedTable(("all",), (ContingencyTable((3, 3), np.array(
        [20.0, 9.0, 4.0, 8.0, 15.0, 9.0, 3.0, 10.0, 22.0])),))
    settings = RunSettings(n_draws=4_000, pilot_n=4_000)
    set_engine(monkeypatch, _DIRECT_THRESHOLD=1.1, _ESS_FLOOR=1e9,
               DEFAULT_ALPHA_GRID=(5.0, 50.0))
    monkeypatch.setattr(engine, "_MAX_RETUNES", 2)
    est = replicate_bf(model_pa((3, 3), "global"), t, PriorSpec.flat(9, 1, 1.0), settings,
                       B=2, seed=8)
    assert est.route == "importance/importance"
    # per replicate and side: pilot, sample, two probes on each rung
    assert len(uses) == 2 * (2 + 2 + 2 * 3 + 2 * 4)
    assert len(set(uses)) == len(uses)

    del uses[:]
    strata = StratifiedTable(("a", "b"), (ContingencyTable((2, 2), np.array([20.0, 18, 22, 21])),
                                          ContingencyTable((2, 2), np.array([30.0, 10, 12, 25]))))
    sched = EpsilonSchedule(epsilon_start=0.2, b=0.5, stop_tol=0.0, max_stages=2)
    est = replicate_bf(model_mh(s=2, eps=0.2), strata, PriorSpec.flat(4, 2, 1.0), settings,
                       B=2, seed=9, schedule=sched)
    assert est.route == "importance/importance"
    assert all(rep["n_stages"] == 2 for rep in est.components["replicates"])
    # per replicate, side and stratum: pilot, three samples, and the probes
    # of three tunings, the two redraws' on a six-point grid about the last pick
    assert len(uses) == 2 * 2 * 2 * (1 + 3 + 2 + 6 + 6)
    assert len(set(uses)) == len(uses)

    del uses[:]
    est = replicate_bf(model_indep(s=2, eps=0.2), strata, PriorSpec.flat(4, 2, 1.0), settings,
                       B=2, seed=9, schedule=sched)
    assert est.route == "limit/limit"
    # per replicate, side and stratum: one limit run, on (side, "limit", b)
    seeds = [rep["seed"] for rep in est.components["replicates"]]
    assert sorted(uses) == sorted((seed, (side, engine._PURPOSE["limit"], b))
                                  for seed in seeds for side in (0, 1) for b in (0, 1))

    del uses[:]
    strata = StratifiedTable(("a", "b"), (ContingencyTable((3, 3), t.tables[0].counts),
                                          ContingencyTable((3, 3), t.tables[0].counts[::-1])))
    est = replicate_bf(model_pa((3, 3), s=2), strata, PriorSpec.flat(9, 2, 1.0), settings,
                       B=2, seed=8)
    assert est.route == "split/split"
    # per replicate, side and stratum: pilot and split run
    assert len(uses) == 2 * 2 * 2 * 2
    assert len(set(uses)) == len(uses)

    # posterior summaries: a model that factorises over two strata draws
    # one "summary" stream per stratum, a one-unit model the one stream
    # ("prior", "summary")
    skin = load_fixture("skin_trial")
    for model, table, want in ((model_saturated((3, 3, 3, 3), s=2), skin,
                                [(10, (0, 5, 0)), (10, (0, 5, 1))]),
                               (model_saturated((3, 3)), t, [(10, (0, 5))])):
        del uses[:]
        posterior_draws_under_model(model, table, PriorSpec.flat(table.r, table.s, 1.0),
                                    n=100, seed=10)
        assert uses == want
    # and at one seed no posterior summary reads the stream of sample_prior
    del uses[:]
    sample_prior(PriorSpec.flat(9, 1, 1.0), 100, seed=10)
    assert uses == [(10, (0,))]
    assert set(uses).isdisjoint(want)

    # at one seed, a two-stratum posterior and a one-unit Bayes factor
    # (its prior pilot is ("prior", "pilot"), spawn key (0, 0)) draw from
    # disjoint streams
    del uses[:]
    posterior_draws_under_model(model_saturated((3, 3, 3, 3), s=2), skin,
                                PriorSpec.flat(skin.r, skin.s, 1.0), n=100, seed=10)
    summary = set(uses)
    del uses[:]
    bayes_factor(model_pa((3, 3)), t, PriorSpec.flat(9, 1, 1.0), settings, seed=10)
    assert (10, (0, 0)) in uses
    assert summary.isdisjoint(uses)


@pytest.mark.parametrize("s", [1, 2])
def test_empty_model_bayes_factor_draws_nothing(monkeypatch, s):
    # no constraint: every part accepts all its draws without drawing one,
    # on one stratum and on each of two
    uses = []
    orig = engine.substream

    def substream(seed, *path):
        uses.append(path)
        return orig(seed, *path)

    monkeypatch.setattr(engine, "substream", substream)
    table = StratifiedTable(("a", "b")[:s], tuple(
        ContingencyTable((2, 2), np.array([20.0, 18, 22, 21]) + b) for b in range(s)))
    est = replicate_bf(model_saturated(s=s), table, PriorSpec.flat(4, s, 1.0), SMALL,
                       B=2, seed=11)
    assert uses == []
    assert est.log10_bf == 0.0 and est.replicates == [0.0, 0.0]
    assert est.route == "direct/direct"


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
    both = np.sqrt(se(direct, 50_000) ** 2 + s.acceptance * (1 - s.acceptance) / s.n_drawn)
    assert abs(s.acceptance - direct.value) < 3 * both + 1e-12
    assert s.mean_satisfies


def test_posterior_summary_rare_model_raises_or_warns():
    t = table_2x2()
    with pytest.raises(UnboundedEstimateError):
        posterior_draws_under_model(model_indep(eps=1e-6), t,
                                    PriorSpec.flat(4, 1, 1.0), n=20_000, seed=33)


def alzheimer_models():
    """alzheimer with positive association on global logits (two strata
    that factorise, each with rejection) and with the logits of variable 0
    decreasing across strata (rows that couple the strata)."""
    az = load_fixture("alzheimer")
    pa = model_from_dict({"name": "pa", "logits": "global",
                          "constraints": [{"kind": "positive_association"}]}, az.dims, az.s)
    trend = model_from_dict({"name": "trend", "logits": "global", "constraints": [
        {"kind": "logit_trend", "direction": "decreasing", "variables": [0]}]}, az.dims, az.s)
    return az, pa, trend


def posterior_cases():
    """(name, model, table, prior, run sizes) of the posterior summary
    checks: one constrained stratum, two unconstrained strata, two
    constrained strata that factorise, and two that a model couples. The
    factorising and coupled cases name their unit layout for the oracle."""
    fs = load_fixture("father_son")
    so = model_from_dict({"name": "so", "logits": "global",
                          "constraints": [{"kind": "stochastic_order", "direction": "ge"}]},
                         fs.dims, fs.s)
    skin = load_fixture("skin_trial")
    sat = model_from_dict({"name": "saturated", "logits": "local", "constraints": []},
                          skin.dims, skin.s)
    az, pa, trend = alzheimer_models()
    return [
        ("father_son_so", so, fs, PriorSpec.flat(fs.r, fs.s, 1.0),
         dict(n=20_000, seed=41, chunk=4096)),
        ("skin_trial_saturated", sat, skin, PriorSpec.flat(skin.r, skin.s, 1.0),
         dict(n=3_000, seed=42, chunk=1024)),
        ("alzheimer_pa", pa, az, PriorSpec.flat(az.r, az.s, 1.0),
         dict(n=6_000, seed=44, chunk=2048, by_stratum=True)),
        ("alzheimer_trend", trend, az, PriorSpec.flat(az.r, az.s, 1.0),
         dict(n=6_000, seed=45, chunk=2048, by_stratum=False)),
    ]


@pytest.mark.parametrize("case", posterior_cases(), ids=lambda c: c[0])
def test_posterior_summary_matches_reference_bit_for_bit(monkeypatch, case):
    _, model, table, prior, sizes = case
    set_engine(monkeypatch, _CHUNK=sizes["chunk"])
    s = posterior_draws_under_model(model, table, prior, sizes["n"], sizes["seed"])
    assert 0 < s.n_accepted <= s.n_drawn
    assert json.dumps(s.to_dict()) == json.dumps(
        posterior_summary_reference(model, table, prior, **sizes))


def test_factorising_posterior_multiplies_unit_acceptances(monkeypatch):
    # each stratum draws from its own stream and keeps its own accepted
    # draws: the acceptance is the product of the strata's fractions, the
    # accepted count the smaller one
    az, pa, _ = alzheimer_models()
    set_engine(monkeypatch, _CHUNK=2048)
    prior = PriorSpec.flat(az.r, az.s, 1.0)
    s = posterior_draws_under_model(pa, az, prior, 6_000, seed=44)
    accs = []
    for b, ev in enumerate(ModelEval(pa, az.dims, az.s).stratum_split()):
        draws = np.concatenate([D for _, D in engine._chunks(
            substream(44, "prior", "summary", b), prior.posterior(az)[b:b + 1], 6_000, 2048)])
        accs.append(int(ev.delta(draws).sum()))
    assert accs[0] != accs[1] and max(accs) < 6_000
    assert s.n_drawn == 6_000 and s.n_accepted == min(accs)
    assert s.acceptance == (accs[0] / 6_000) * (accs[1] / 6_000)


@pytest.mark.parametrize("model, chunk", [(model_saturated(), 30), (model_pa(), 7)])
def test_posterior_summary_keeps_first_keep_cap_accepted_draws(monkeypatch, model, chunk):
    # the chunk that crosses _KEEP_CAP is cut, not dropped
    set_engine(monkeypatch, _CHUNK=chunk, _KEEP_CAP=50)
    t = table_2x2()
    prior = PriorSpec.flat(4, 1, 1.0)
    s = posterior_draws_under_model(model, t, prior, n=100, seed=43)
    assert s.n_accepted > 50
    assert json.dumps(s.to_dict()) == json.dumps(posterior_summary_reference(
        model, t, prior, n=100, seed=43, chunk=chunk, keep_cap=50))
    draws = np.concatenate([D for _, D in engine._chunks(
        substream(43, "prior", "summary"), prior.posterior(t), 100, chunk)])
    ev = ModelEval(model, (2, 2), 1)
    accepted = draws if ev.cs.is_empty() else draws[ev.delta(draws)]
    assert np.array_equal(s.pi_mean, accepted[:50].mean(axis=0))


@pytest.mark.parametrize("n", [0, -5])
def test_posterior_summary_needs_a_draw(n):
    with pytest.raises(engine.EngineError, match=f"got {n}"):
        posterior_draws_under_model(model_saturated(), table_2x2(), PriorSpec.flat(4, 1, 1.0),
                                    n=n, seed=1)
