import numpy as np
import pytest

from margbayes import (
    FitError,
    ModelSpec,
    constrained_mle,
    empty_constraints,
    eta_from_pi,
    independence,
    link_for,
    load_fixture,
    positive_association,
    prior_center,
    satisfies,
    ContingencyTable,
    StratifiedTable,
)

from oracles import independence_mle

rng = np.random.default_rng(424242)


def saturated_model(dims, kind="local", s=1, name="saturated"):
    link = link_for(dims, kind)
    return ModelSpec(name, tuple([kind] * len(dims)), empty_constraints(s * link.t))


def indep_model(dims, kind="local", s=1, eps=0.1):
    link = link_for(dims, kind)
    return ModelSpec("independence", tuple([kind] * len(dims)),
                     independence(link, s=s, epsilon=eps))


def tp2_model(dims=(6, 6)):
    link = link_for(dims, "local")
    return ModelSpec("tp2", ("local", "local"), positive_association(link))


def test_unconstrained_fit_is_smoothed_proportions():
    t = load_fixture("father_son")
    res = constrained_mle(t, saturated_model((6, 6)), smoothing=0.5)
    expect = (t.tables[0].counts + 0.5) / (t.n + 0.5 * 36)
    assert res.converged
    assert np.max(np.abs(res.pi_hat[0] - expect)) < 1e-8


def test_unconstrained_fit_no_smoothing_is_raw_proportions():
    counts = np.array([[5.0, 7.0, 3.0, 9.0]])
    t = StratifiedTable(("all",), (ContingencyTable((2, 2), counts[0]),))
    res = constrained_mle(t, saturated_model((2, 2)), smoothing=0.0)
    assert np.max(np.abs(res.pi_hat[0] - counts[0] / counts.sum())) < 1e-9


def test_independence_fit_matches_outer_product():
    t = load_fixture("father_son")
    res = constrained_mle(t, indep_model((6, 6), eps=1e-6), smoothing=0.5)
    smoothed = (t.tables[0].counts + 0.5).reshape(6, 6)
    expect = independence_mle(smoothed).ravel()
    assert res.converged
    assert np.max(np.abs(res.pi_hat[0] - expect)) < 2e-5


def test_independence_fit_stratified():
    t = load_fixture("alzheimer")
    model = indep_model((5, 4), kind="reverse_continuation", s=2, eps=1e-6)
    res = constrained_mle(t, model, smoothing=0.5)
    for b, tab in enumerate(t.tables):
        smoothed = (tab.counts + 0.5).reshape(5, 4)
        expect = independence_mle(smoothed).ravel()
        assert np.max(np.abs(res.pi_hat[b] - expect)) < 2e-5


def test_tp2_loglik_dominates_independence():
    # the independence point satisfies TP2 weakly, so the TP2 optimum
    # cannot be worse
    t = load_fixture("father_son")
    res_tp2 = constrained_mle(t, tp2_model(), smoothing=0.5)
    res_ind = constrained_mle(t, indep_model((6, 6), eps=1e-8), smoothing=0.5)
    assert res_tp2.loglik >= res_ind.loglik - 1e-6


def test_fit_satisfies_constraints_within_tolerance():
    t = load_fixture("father_son")
    model = tp2_model()
    res = constrained_mle(t, model, smoothing=0.5)
    link = link_for((6, 6), "local")
    eta = eta_from_pi(res.pi_hat[0], link)
    assert np.min(eta @ model.constraints.U.T) >= -1e-8
    assert res.max_violation <= 1e-8


def test_fit_beats_random_feasible_points():
    # local-optimality smoke test on a 3x3 TP2 problem
    dims = (3, 3)
    link = link_for(dims, "local")
    model = ModelSpec("tp2", ("local", "local"), positive_association(link))
    counts = np.array([[18.0, 6, 2, 5, 12, 7, 1, 8, 21]])
    t = StratifiedTable(("all",), (ContingencyTable(dims, counts[0]),))
    res = constrained_mle(t, model, smoothing=0.5)
    y = counts[0] + 0.5

    def loglik(pi):
        return float(y @ np.log(pi))

    found = 0
    while found < 100:
        pi = rng.dirichlet(np.ones(9))
        if satisfies(eta_from_pi(pi, link), model.constraints):
            found += 1
            assert loglik(pi) <= loglik(res.pi_hat[0]) + 1e-7


def test_fit_rejects_a_negative_smoothing():
    # at -5 the fit ran to its iteration cap
    with pytest.raises(FitError, match="smoothing must be a finite number >= 0, got -5"):
        constrained_mle(load_fixture("father_son"), tp2_model(), smoothing=-5)


def test_fit_rejects_empty_table():
    t = StratifiedTable(("all",), (ContingencyTable((2, 2), np.zeros(4)),))
    with pytest.raises(FitError):
        constrained_mle(t, saturated_model((2, 2)))


def test_skin_trial_no_high_order_fit_converges():
    from margbayes import zero_higher_interactions
    t = load_fixture("skin_trial")
    link = link_for((3, 3, 3, 3), "global")
    model = ModelSpec("no3way", tuple(["global"] * 4),
                      zero_higher_interactions(link, s=2, order=2, epsilon=0.1))
    res = constrained_mle(t, model, smoothing=0.5)
    assert res.converged
    assert res.max_violation <= 1e-8
    assert np.all(res.pi_hat > 0)


# ---------------------------------------------------------------------------
# prior centres
# ---------------------------------------------------------------------------

def test_prior_center_unconstrained_is_uniform():
    res = prior_center(saturated_model((3, 3)), (3, 3), 1)
    assert res.converged
    assert np.max(np.abs(res.pi_hat - 1.0 / 9)) < 1e-8


def test_prior_center_independence_is_uniform():
    res = prior_center(indep_model((3, 3), eps=0.05), (3, 3), 1)
    assert np.max(np.abs(res.pi_hat - 1.0 / 9)) < 1e-6


def test_prior_center_tp2_is_interior_feasible():
    model = tp2_model()
    res = prior_center(model, (6, 6), 1, interior_margin=1.0)
    link = link_for((6, 6), "local")
    eta = eta_from_pi(res.pi_hat[0], link)
    assert satisfies(eta, model.constraints)
    # strictly inside the cone, not on its boundary
    assert np.min(eta @ model.constraints.U.T) > 0.5


def test_prior_center_stratified_shapes():
    model = indep_model((5, 4), kind="reverse_continuation", s=2, eps=0.1)
    res = prior_center(model, (5, 4), 2)
    assert res.pi_hat.shape == (2, 20)
    assert np.allclose(res.pi_hat.sum(axis=1), 1.0, atol=1e-10)
