"""Numerical kernels against their references, bit for bit.

`margbayes.link.logsumexp` must do scipy.special.logsumexp's arithmetic
for real input, the in-place, blocked Dirichlet sampler must reproduce the
out-of-place scipy-based recipe in `oracles.dirichlet_chunk_reference`,
the row-blocked eta and constraint checks must match one evaluation over
all rows and each draw evaluated alone, and the posterior quantiles,
taken on sorted blocks, must match np.quantile over the unsorted array,
and the unit-coefficient split kernel must walk the levels of the kernel
first written for any coefficients (`oracles.split_run_reference`). Equal bytes, not a
tolerance: every estimate is reproducible per seed, and these kernels sit
under all of them. Only against the dense C log(M pi) product, whose sums
run in another order, is a tolerance (1e-12) allowed, likewise between the
eta of a draw and of the same draw scaled per stratum (unnormalised), whose
logs round differently, and against scipy.special.gammaln, a different
lgamma than the engine's math.lgamma, a few ulp of the summed magnitudes
of the log-gamma terms.
"""
import itertools

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp as scipy_logsumexp

from margbayes import ContingencyTable, ModelEval, StratifiedTable, engine, link, load_fixture
from margbayes.engine import (PriorSpec, _dirichlet_chunk, _linear_rows, _log_weight,
                              _quantiles, _split_run, substream)
from margbayes.hypotheses import model_from_dict
from margbayes.link import eta_batch, eta_from_logpi, link_for, logsumexp

from oracles import dirichlet_chunk_reference, eta_batch_reference, split_run_reference


def assert_same(ours, ref):
    assert type(ours) is type(ref)
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes(), (ours, ref)


def both(a, **kw):
    with np.errstate(all="ignore"):
        ref = scipy_logsumexp(a, **kw)
    return logsumexp(a, **kw), ref


# ---------------------------------------------------------------------------
# logsumexp
# ---------------------------------------------------------------------------

def fuzz_arrays(rng):
    """Real inputs covering ties, -inf entries and rows, +inf and nan,
    huge magnitudes and 1-, 2- and 3-d shapes."""
    yield rng.normal(size=7)
    yield rng.normal(scale=300.0, size=(6, 9))
    yield rng.integers(-2, 3, size=(8, 5)).astype(float)           # many ties
    a = rng.normal(size=(5, 6))
    a[rng.random(a.shape) < 0.3] = -np.inf
    a[2] = -np.inf                                                   # all -inf row
    yield a
    a = rng.normal(size=(4, 7))
    a[1, 3] = np.inf
    a[2, 0] = np.nan
    yield a
    yield np.full((3, 4), 710.0)                                     # exp overflows
    yield rng.normal(scale=5.0, size=(3, 4, 5))


@pytest.mark.parametrize("seed", range(6))
def test_logsumexp_fuzz_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    for a in fuzz_arrays(rng):
        axes = [None] + list(range(-a.ndim, a.ndim)) + ([(0, a.ndim - 1)] if a.ndim > 1 else [])
        for axis, keepdims in itertools.product(axes, (False, True)):
            assert_same(*both(a, axis=axis, keepdims=keepdims))


def test_logsumexp_scalar_results_are_float64():
    for a in (np.array([1.0, 2.0, 2.0]), np.float64(3.0), [0.5, -1.0], np.arange(4)):
        ours, ref = both(a)
        assert_same(ours, ref)
        assert isinstance(ours, np.float64)
    assert_same(*both(np.float64(3.0), keepdims=True))
    assert_same(*both(np.zeros((0, 3)), axis=1))


@pytest.mark.parametrize("dims,kind", [((2, 2), "local"), ((3, 4), "global"),
                                       ((3, 2, 3), "continuation"), ((3, 3, 3, 3), "local")])
def test_logsumexp_broadcast_link_form(dims, kind):
    # the form eta_from_logpi uses: one log pi row against every row of M,
    # masked to -inf off each row's support
    link = link_for(dims, kind)
    rng = np.random.default_rng(7)
    for scale in (0.1, 3.0, 200.0):
        logpi = rng.normal(scale=scale, size=link.r)
        logpi -= scipy_logsumexp(logpi)
        a = np.where(link.M != 0, logpi, -np.inf)
        assert_same(*both(a, axis=1))
        ref = link.C @ scipy_logsumexp(a, axis=1)
        assert eta_from_logpi(logpi, link).tobytes() == ref.tobytes()


def test_logsumexp_rejects_complex():
    with pytest.raises(TypeError):
        logsumexp(np.array([1.0 + 1.0j]))


# ---------------------------------------------------------------------------
# Dirichlet kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [
    np.array([[1.0, 2.5, 7.0, 1.0]]),                                 # shapes >= 1
    np.array([[0.02, 0.5, 0.9, 0.3, 0.1, 0.05]]),                    # boost path
    np.array([[0.2, 3.0, 1.0], [45.0, 0.7, 12.0]]),                  # mixed, s = 2
    np.array([[1.5, 3.0, 1.0], [45.0, 2.0, 12.0]]),                  # shapes >= 1, s = 2
    np.full((2, 36), 1e-3),                                          # floor hits
])
def test_dirichlet_chunk_matches_reference(alpha):
    # the kernel normalises engine._BLOCK rows at a time, so sizes around
    # the block and a ragged last block are covered too
    block = engine._BLOCK
    for seed, n in ((1, 1), (2, 257), (3, block - 1), (4, block), (5, block + 1),
                    (6, 3 * block + 7)):
        ours = _dirichlet_chunk(substream(seed, 0), alpha, n)
        ref = dirichlet_chunk_reference(substream(seed, 0), alpha, n)
        assert ours.shape == (n,) + alpha.shape
        assert ours.tobytes() == ref.tobytes()


SIZES = ((1, 1), (2, 257), (3, engine._BLOCK), (4, engine._BLOCK + 1),
         (5, 3 * engine._BLOCK + 7))


@pytest.mark.parametrize("alpha", [
    np.array([[1.0, 2.5, 7.0, 1.0]]),                                 # shapes >= 1
    np.array([[1.5, 3.0, 1.0], [45.0, 2.0, 12.0]]),                  # shapes >= 1, s = 2
    np.full((2, 81), 1.0),                                           # skin_trial's shape
])
def test_unnormalised_draws_are_the_normalised_ones_scaled(alpha):
    # with every shape >= 1 the unnormalised call returns the floored
    # gammas, takes the same variates from the stream, and the kernel's
    # normalisation of its rows gives the normalised call's bits
    for seed, n in SIZES:
        rng_raw, rng = substream(seed, 0), substream(seed, 0)
        raw = _dirichlet_chunk(rng_raw, alpha, n, normalise=False)
        P = _dirichlet_chunk(rng, alpha, n)
        assert rng_raw.bit_generator.state == rng.bit_generator.state
        assert raw.shape == P.shape and np.all(raw >= 1e-300)
        L = np.log(raw)
        for b in range(alpha.shape[0]):
            L[:, b, :] -= logsumexp(L[:, b, :], axis=1, keepdims=True)
        assert_same(np.exp(np.maximum(L, link.LOG_FLOOR)), P)


@pytest.mark.parametrize("alpha", [
    np.array([[0.02, 0.5, 0.9, 0.3, 0.1, 0.05]]),                    # boost path
    np.array([[1.5, 3.0, 1.0], [45.0, 0.7, 12.0]]),                  # one shape < 1
    np.array([[1.5, 3.0, 1.0], [1e307, 2.0, 1e307]]),                # a row sum overflows
])
def test_unnormalised_draws_fall_back_to_normalised(alpha):
    for seed, n in SIZES:
        rng_raw, rng = substream(seed, 0), substream(seed, 0)
        assert_same(_dirichlet_chunk(rng_raw, alpha, n, normalise=False),
                    _dirichlet_chunk(rng, alpha, n))
        assert rng_raw.bit_generator.state == rng.bit_generator.state


# ---------------------------------------------------------------------------
# Importance weight log p/g
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("kappa", [1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6, 1e8])
def test_log_weight_constant_matches_gammaln(kappa, s):
    # the tuner's proposals reach 1e7 times the target's concentration, so
    # the constant cancels two large log-gamma sums; each lgamma is within
    # a few ulp of the exact value, and so is the difference of the sums
    rng = np.random.default_rng(int(np.log10(kappa)) + 10 * s)

    def terms(alpha):
        return [gammaln(a.sum()) - gammaln(a).sum() for a in alpha]

    for multiplier in (1.0, 10.0, 1e3, 1e7):
        target = kappa * rng.uniform(0.2, 5.0, size=(s, 36)) + rng.integers(0, 40, size=(s, 36))
        proposal = multiplier * target * rng.uniform(0.5, 2.0, size=(s, 36))
        # a draw of ones has log P = 0, so its weight is the constant alone
        ours = _log_weight(target, proposal)(np.ones((1, s, 36)))[0]
        ref = float(np.sum(terms(target))) - float(np.sum(terms(proposal)))
        magnitude = sum(abs(gammaln(a.sum())) + np.abs(gammaln(a)).sum()
                        for a in (*target, *proposal))
        assert abs(ours - ref) <= 4 * np.spacing(magnitude), (multiplier, ours, ref)


@pytest.mark.parametrize("alpha", [
    np.array([[0.02, 0.5, 0.9, 0.3, 0.1, 0.05]]),
    np.array([[0.2, 3.0, 1.0], [45.0, 0.7, 12.0]]),
    np.full((2, 36), 1e7),
])
def test_proposal_equal_to_target_weighs_zero(alpha):
    P = _dirichlet_chunk(substream(1, 0), alpha, 1000)
    assert np.all(_log_weight(alpha, alpha.copy())(P) == 0.0)


# ---------------------------------------------------------------------------
# Row-blocked eta and constraint checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dataset, spec", [
    ("father_son", {"name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]}),
    ("father_son", {"name": "so", "logits": "global",
                    "constraints": [{"kind": "stochastic_order", "direction": "ge"}]}),
    ("alzheimer", {"name": "ci", "logits": "local",                  # s = 2, strided strata
                   "constraints": [{"kind": "independence", "epsilon": 0.1}]}),
    ("skin_trial", {"name": "sat", "logits": "local", "constraints": []}),   # full eta, 3^4
])
def test_blocked_constraint_checks_match_one_product(monkeypatch, dataset, spec):
    table = load_fixture(dataset)
    ev = ModelEval(model_from_dict(spec, table.dims, table.s), table.dims, table.s)

    def evaluate(P):
        return (ev.delta(P), *ev.eq_stat_and_ineq(P), eta_batch(P[:, 0, :], ev.link))

    block = link.BLOCK_ROWS
    for seed, n in ((1, 1), (2, block - 1), (3, block + 1), (4, 3 * block + 7), (5, 32768)):
        P = _dirichlet_chunk(substream(seed, 0), np.full((table.s, table.r), 0.7), n)
        if seed == 3:
            P[::5, :, 0] = 0.0                                   # below the floor
        blocked = evaluate(P)
        with monkeypatch.context() as m:
            m.setattr(link, "BLOCK_ROWS", n)
            whole = evaluate(P)
        for ours, ref in zip(blocked, whole):
            assert_same(ours, ref)
        for k in sorted({0, n // 2, n - 1}):
            for ours, ref in zip(evaluate(P[k:k + 1]), blocked):
                assert_same(ours, ref[k:k + 1])
        assert np.all(np.isfinite(blocked[-1]))

        # the dense product sums in another order: eta within 1e-12, and a
        # check may differ only for a draw within 1e-12 of a bound
        eta_ref = eta_batch_reference(P[:, 0, :], ev.link)
        assert np.max(np.abs(blocked[-1] - eta_ref)) <= 1e-12
        with monkeypatch.context() as m:
            m.setattr(engine, "eta_batch", eta_batch_reference)
            dense = evaluate(P)[:3]
            red = ev.eta_reduced(P)
        near = np.zeros(n, dtype=bool)
        if ev.E.shape[0]:
            near |= np.any(np.abs(np.abs(red @ ev.E.T) - ev.epsilon) <= 1e-12, axis=1)
            stat_tol = 1e-12 / ev.epsilon.min()
            assert np.max(np.abs(blocked[1] - dense[1])) <= stat_tol
        if ev.U.shape[0]:
            near |= np.any(np.abs(red @ ev.U.T) <= 1e-12, axis=1)
        for ours, ref in ((blocked[0], dense[0]), (blocked[2], dense[2])):
            assert not np.any((ours != ref) & ~near)


# each fixture's inequality and about-equality constraint; alzheimer's
# association trend couples its two strata
SCALE_FREE = {
    "father_son": ({"kind": "stochastic_order", "direction": "ge"},
                   {"kind": "marginal_homogeneity", "epsilon": 0.3}),
    "alzheimer": ({"kind": "association_trend", "direction": "increasing"},
                  {"kind": "independence", "epsilon": 0.5}),
    "skin_trial": ({"kind": "marginal_trend", "direction": "increasing"},
                   {"kind": "uniform_association", "epsilon": 1.0}),
}


@pytest.mark.parametrize("logits", ["local", "global", "continuation", "reverse_continuation"])
@pytest.mark.parametrize("dataset", sorted(SCALE_FREE))
def test_constraint_checks_read_unnormalised_draws(dataset, logits):
    # every eta row is a log ratio of sums of one stratum's cells, so a
    # draw scaled per stratum has the same eta up to rounding, and the
    # constraint checks accept the same draws
    table = load_fixture(dataset)
    ineq, eq = SCALE_FREE[dataset]
    for constraints in ([ineq], [eq], [ineq, eq]):
        spec = {"name": "m", "logits": logits, "constraints": constraints}
        ev = ModelEval(model_from_dict(spec, table.dims, table.s), table.dims, table.s)
        for alpha in (np.ones((table.s, table.r)), 1.0 + table.counts_matrix()):
            raw = _dirichlet_chunk(substream(2, 0), alpha, 2000, normalise=False)
            P = _dirichlet_chunk(substream(2, 0), alpha, 2000)
            np.testing.assert_allclose(ev.eta_reduced(raw), ev.eta_reduced(P),
                                       rtol=1e-12, atol=1e-12)
            assert_same(ev.delta(raw), ev.delta(P))
            (stat_raw, ok_raw), (stat, ok) = ev.eq_stat_and_ineq(raw), ev.eq_stat_and_ineq(P)
            np.testing.assert_allclose(stat_raw, stat, rtol=1e-12, atol=1e-12)
            assert_same(ok_raw, ok)


# ---------------------------------------------------------------------------
# posterior quantiles
# ---------------------------------------------------------------------------

def quantile_columns():
    """(name, draws x columns): normal columns with ties, Dirichlet cell
    probabilities, and skin_trial's posterior eta."""
    rng = np.random.default_rng(5)
    normal = rng.normal(size=(5001, 19))
    normal[::7, 3] = 0.25                                # ties
    yield "normal", normal
    yield "dirichlet", _dirichlet_chunk(substream(6, 0), np.full((1, 12), 0.5), 3000)[:, 0, :]
    skin = load_fixture("skin_trial")
    P = _dirichlet_chunk(substream(7, 0), 1.0 + skin.counts_matrix(), 2000)
    yield "skin_trial_eta", eta_batch(P[:, 1, :], link_for(skin.dims, "local"))


@pytest.mark.parametrize("q", [[0.025, 0.975], [0.5], [0.0, 0.3, 1.0]])
@pytest.mark.parametrize("case", list(quantile_columns()), ids=lambda c: c[0])
def test_quantiles_of_sorted_blocks_match_np_quantile(case, q):
    _, X = case
    before = X.copy()
    assert_same(_quantiles(X, q), np.quantile(X.copy(), q, axis=0))
    assert_same(X, before)                               # the input is not sorted in place


def split_case(name):
    """(A, shapes) of one side of a split unit: father_son TP2 at shapes 1
    (exact exponential moves) and at 1 + counts (Metropolis), alzheimer
    TP2's stratum 0, alzheimer's association trend (both strata's 40
    cells in one unit) and the 2x8 TP2 prior at concentrations below 1
    (boosted proposals) and above."""
    tp2 = {"name": "tp2", "logits": "local", "constraints": [{"kind": "tp2"}]}
    trend = {"name": "trend", "logits": "local",
             "constraints": [{"kind": "association_trend", "direction": "increasing"}]}
    if name.startswith("2x8"):
        counts = np.array([14, 12, 13, 10, 9, 9, 7, 5, 3, 5, 4, 7, 8, 9, 11, 12], dtype=float)
        table = StratifiedTable(("all",), (ContingencyTable((2, 8), counts),))
    else:
        table = load_fixture("father_son" if name.startswith("father_son") else "alzheimer")
    spec = trend if "trend" in name else tp2
    ev = ModelEval(model_from_dict(spec, table.dims, table.s), table.dims, table.s)
    posterior = PriorSpec.flat(table.r, table.s).posterior(table)
    if name == "alzheimer_tp2_stratum0":
        return _linear_rows(ev.stratum_split()[0]), posterior[0]
    if name.startswith("2x8"):
        return _linear_rows(ev), np.full(16, float(name.split("kappa")[1]))
    return _linear_rows(ev), np.ones(posterior.size) if "prior" in name else posterior.ravel()


@pytest.mark.parametrize("name", ["father_son_tp2_prior", "father_son_tp2_posterior",
                                  "alzheimer_tp2_stratum0", "alzheimer_trend_posterior",
                                  "2x8_tp2_kappa0.5", "2x8_tp2_kappa2"])
def test_split_run_matches_reference(name):
    # same ln P, survivors and levels, and the same draws taken from the
    # stream, as the kernel with per-coefficient bounds and row adds
    A, a = split_case(name)
    assert set(np.unique(A)) == {-1.0, 0.0, 1.0}
    ours, ref = substream(5, "prior", "split"), substream(5, "prior", "split")
    got = _split_run(A, a, ours, "prior")
    assert got == split_run_reference(A, a, ref, "prior")
    assert got[2] > 1
    assert ours.bit_generator.state == ref.bit_generator.state
