import numpy as np
import pytest

from margbayes import (
    ConstraintError,
    additive_margin_shifts,
    build_constraint,
    compose,
    empty_constraints,
    equal_association,
    eta_from_pi,
    first_differences,
    independence,
    link_for,
    marginal_homogeneity,
    marginal_trend,
    model_from_dict,
    positive_association,
    registry_names,
    satisfies,
    stochastic_order,
    stratify,
    uniform_association,
    zero_higher_interactions,
)

from margbayes.link import eta_batch

rng = np.random.default_rng(7071)


def test_first_differences_h2():
    assert np.array_equal(first_differences(2), [[-1.0, 1.0]])


def test_first_differences_h3():
    assert np.array_equal(first_differences(3), [[-1, 1, 0], [0, -1, 1]])


@pytest.mark.parametrize("h", range(2, 7))
def test_first_differences_annihilates_constants(h):
    assert np.allclose(first_differences(h) @ np.ones(h), 0.0)


def test_first_differences_rejects_h1():
    with pytest.raises(ConstraintError):
        first_differences(1)


# ---------------------------------------------------------------------------
# builder shapes
# ---------------------------------------------------------------------------

def test_positive_association_2x2():
    link = link_for((2, 2), "local")
    cs = positive_association(link)
    assert cs.U.shape == (1, 3)
    assert np.array_equal(cs.U, [[0, 0, 1]])
    assert cs.n_eq == 0


def test_positive_association_6x6():
    link = link_for((6, 6), "local")
    cs = positive_association(link)
    assert cs.U.shape == (25, 35)
    # selects exactly the log-odds block
    assert np.allclose(cs.U[:, :10], 0.0)
    assert np.array_equal(cs.U[:, 10:], np.eye(25))


def test_independence_matches_positive_association_rows():
    link = link_for((6, 6), "global")
    ca = positive_association(link)
    ci = independence(link, epsilon=0.025)
    assert np.array_equal(ci.E, ca.U)
    assert np.allclose(ci.epsilon, 0.025)


def test_uniform_association_3x3():
    link = link_for((3, 3), "local")
    cs = uniform_association(link, epsilon=0.1)
    assert cs.E.shape == (3, 8)


def test_uniform_association_2x2_vacuous():
    link = link_for((2, 2), "local")
    cs = uniform_association(link, epsilon=0.1)
    assert cs.n_eq == 0


def test_marginal_homogeneity_6x6_shape():
    link = link_for((6, 6), "local")
    cs = marginal_homogeneity(link, epsilon=0.1)
    assert cs.E.shape == (5, 35)


def test_stochastic_order_m6_shape():
    link = link_for((6, 6), "global")
    cs = stochastic_order(link)
    assert cs.U.shape == (5, 35)


def test_no_high_order_on_skin_link():
    link = link_for((3, 3, 3, 3), "global")
    cs = zero_higher_interactions(link, s=2, order=2, epsilon=0.1)
    # 4 three-way blocks of 8 rows + one four-way block of 16, per stratum
    assert cs.E.shape == (2 * (4 * 8 + 16), 2 * 80)


def test_no_high_order_vacuous_for_q2():
    link = link_for((3, 3), "local")
    assert zero_higher_interactions(link, order=2).n_eq == 0


def test_builders_column_counts_match_link():
    link = link_for((5, 4), "reverse_continuation")
    for cs in (positive_association(link, s=2), independence(link, s=2),
               equal_association(link, s=2), marginal_trend(link, s=2)):
        assert cs.ncols == 2 * link.t


# ---------------------------------------------------------------------------
# satisfaction semantics
# ---------------------------------------------------------------------------

def test_empty_constraints_always_satisfied():
    cs = empty_constraints(5)
    assert satisfies(rng.normal(size=5), cs)


def test_independence_satisfied_by_uniform():
    link = link_for((2, 2), "local")
    cs = independence(link, epsilon=0.025)
    eta = eta_from_pi(np.full(4, 0.25), link)
    assert satisfies(eta, cs)


def test_independence_violated_by_log6_table():
    link = link_for((2, 2), "local")
    cs = independence(link, epsilon=0.025)
    eta = eta_from_pi(np.array([0.4, 0.2, 0.1, 0.3]), link)
    assert not satisfies(eta, cs)


def test_uniform_association_implied_by_independence():
    link = link_for((4, 4), "local")
    eps = 0.05
    ci = independence(link, epsilon=eps)
    cu = uniform_association(link, epsilon=eps)
    for _ in range(200):
        eta = rng.normal(scale=0.4, size=link.t)
        if satisfies(eta, ci):
            assert satisfies(eta, cu)


def test_boundary_inequality_counts_as_satisfied():
    link = link_for((2, 2), "local")
    cs = positive_association(link)
    assert satisfies(np.array([0.3, -0.2, 0.0]), cs)


def test_marginal_homogeneity_at_symmetric_pi():
    link = link_for((3, 3), "local")
    cs = marginal_homogeneity(link, epsilon=1e-9)
    pi = np.array([[0.2, 0.05, 0.05], [0.05, 0.2, 0.1], [0.05, 0.1, 0.2]]).ravel()
    assert satisfies(eta_from_pi(pi / pi.sum(), link), cs)


def test_stochastic_order_boundary_and_strict():
    link = link_for((6, 6), "local")
    cs = stochastic_order(link)
    # exact boundary: identical margin logits satisfy the weak inequality
    eta = rng.normal(size=link.t)
    eta[5:10] = eta[0:5]
    assert satisfies(eta, cs)
    assert np.allclose(eta @ cs.U.T, 0.0)
    # smoothed near-degenerate: A1 mass sliding to category 1, A2 to
    # category 6 -> every logit difference strictly positive
    i = np.arange(6)
    B = np.outer(np.exp(-3.0 * i), np.exp(3.0 * i))
    pi2 = (B / B.sum()).ravel()
    eta2 = eta_from_pi(pi2, link)
    assert np.all(eta2 @ cs.U.T > 0)


def test_marginal_homogeneity_violated_at_father_son_mode():
    from margbayes import load_fixture
    t = load_fixture("father_son")
    link = link_for((6, 6), "local")
    cs = marginal_homogeneity(link, epsilon=0.025)
    eta = eta_from_pi(t.tables[0].counts / t.n, link)
    assert not satisfies(eta, cs)


def test_tp2_implies_continuation_and_pqd():
    # hierarchy of positive-association notions, over at least 500
    # TP2-feasible draws, drawn and checked in batches
    dims = (3, 3)
    link_l = link_for(dims, "local")
    link_c = link_for(dims, "continuation")
    link_g = link_for(dims, "global")
    cs_l = positive_association(link_l)
    cs_c = positive_association(link_c)
    cs_g = positive_association(link_g)
    found = 0
    while found < 500:
        P = rng.dirichlet(np.ones(9), size=4000)
        P = P[satisfies(eta_batch(P, link_l), cs_l)]
        found += len(P)
        assert satisfies(eta_batch(P, link_c), cs_c).all()
        assert satisfies(eta_batch(P, link_g), cs_g).all()


def test_epsilon_shrinking_shrinks_satisfied_set():
    link = link_for((3, 3), "local")
    loose = independence(link, epsilon=0.2)
    tight = independence(link, epsilon=0.05)
    for _ in range(300):
        eta = rng.normal(scale=0.3, size=link.t)
        if satisfies(eta, tight):
            assert satisfies(eta, loose)


# ---------------------------------------------------------------------------
# composition and stratification
# ---------------------------------------------------------------------------

def test_compose_identity_with_empty():
    link = link_for((3, 3), "local")
    cs = positive_association(link)
    both = compose(cs, empty_constraints(link.t))
    assert np.array_equal(both.U, cs.U) and both.n_eq == 0


def test_compose_is_conjunction():
    link = link_for((6, 6), "local")
    a = positive_association(link)
    b = marginal_homogeneity(link, epsilon=0.1)
    both = compose(a, b)
    for _ in range(300):
        eta = rng.normal(scale=0.5, size=link.t)
        assert satisfies(eta, both) == (satisfies(eta, a) and satisfies(eta, b))


def test_compose_rejects_mismatched_columns():
    with pytest.raises(ConstraintError):
        compose(empty_constraints(3), empty_constraints(4))


def test_stratify_within_is_kron_identity():
    base = np.array([[0.0, 0.0, 1.0]])
    out = stratify(base, 2, "within")
    assert np.array_equal(out, np.kron(np.eye(2), base))


def test_stratify_between_is_kron_differences():
    base = np.array([[1.0, 0.0, 0.0]])
    out = stratify(base, 3, "between")
    assert np.array_equal(out, np.kron(first_differences(3), base))


def test_stratify_between_needs_two_strata():
    with pytest.raises(ConstraintError):
        stratify(np.eye(2), 1, "between")


def test_conditional_independence_shape_alzheimer():
    link = link_for((5, 4), "reverse_continuation")
    cs = independence(link, s=2, epsilon=0.1)
    assert cs.E.shape == (24, 38)
    sel = np.zeros((12, 19))
    sel[:, 7:] = np.eye(12)
    assert np.array_equal(cs.E, np.kron(np.eye(2), sel))


def test_equal_association_is_between_form():
    link = link_for((5, 4), "reverse_continuation")
    cs = equal_association(link, s=2, epsilon=0.1)
    sel = np.zeros((12, 19))
    sel[:, 7:] = np.eye(12)
    assert np.array_equal(cs.E, np.kron(first_differences(2), sel))


def test_marginal_trend_sign_map():
    # global logits move with the trend, reverse-continuation against it
    link_g = link_for((3, 3), "global")
    up_g = marginal_trend(link_g, s=2, direction="increasing")
    sel = np.zeros((4, 8))
    sel[:, :4] = np.eye(4)
    assert np.array_equal(up_g.U, np.kron(first_differences(2), sel))
    link_r = link_for((3, 3), "reverse_continuation")
    up_r = marginal_trend(link_r, s=2, direction="increasing")
    assert np.array_equal(up_r.U, -np.kron(first_differences(2), sel))


def test_additive_margin_shifts_rank():
    # additive (cutpoint + variable + stratum) structure on the skin link:
    # 16 marginal logits minus 6 free parameters = rank 10
    link = link_for((3, 3, 3, 3), "global")
    cs = additive_margin_shifts(link, s=2, epsilon=0.1)
    assert np.linalg.matrix_rank(cs.E) == 10
    # additive logits satisfy it: eta_i^s(a) = th_a + b_i + t_s
    th = rng.normal(size=2)
    bi = rng.normal(size=4)
    ts = rng.normal(size=2)
    eta = np.zeros(2 * link.t)
    for s_ix in range(2):
        for v in range(4):
            z = tuple(1 if i == v else 0 for i in range(4))
            b = link.block_for(z)
            eta[s_ix * link.t + b.lo:s_ix * link.t + b.hi] = th + bi[v] + ts[s_ix]
    assert np.max(np.abs(cs.E @ eta)) < 1e-12



def test_additive_margin_shifts_on_two_category_variables():
    # one cutpoint: only the (stratum x variable) rows remain,
    # (q - 1)(s - 1) of them, and none in one stratum
    link = link_for((2, 2, 2), "global")
    assert additive_margin_shifts(link, s=1).n_eq == 0
    cs = additive_margin_shifts(link, s=2)
    assert np.linalg.matrix_rank(cs.E) == 2
    bi = rng.normal(size=3)
    ts = rng.normal(size=2)
    eta = np.zeros(2 * link.t)
    for s_ix in range(2):
        for v in range(3):
            b = link.block_for(tuple(1 if i == v else 0 for i in range(3)))
            eta[s_ix * link.t + b.lo] = bi[v] + ts[s_ix]
    assert np.max(np.abs(cs.E @ eta)) < 1e-12
    eta[link.t + link.block_for((0, 1, 0)).lo] += 0.5     # one variable shifts alone
    assert not satisfies(eta, cs)

def test_uniform_association_all_pairs_across_strata():
    link = link_for((3, 3, 3, 3), "global")
    cs = uniform_association(link, s=2, epsilon=0.1, across_strata=True)
    # 24 two-way values per stratum pooled over 2 strata -> 47 difference rows
    assert cs.E.shape == (47, 160)
    # a constant loaded on every two-way row satisfies it
    eta = np.zeros(160)
    for s_ix in range(2):
        for b in link.blocks:
            if b.order == 2:
                eta[s_ix * link.t + b.lo:s_ix * link.t + b.hi] = 0.7
    assert satisfies(eta, cs)


# ---------------------------------------------------------------------------
# registry and model specs
# ---------------------------------------------------------------------------

def test_registry_contains_spec_names():
    names = registry_names()
    for want in ("tp2", "pqd", "independence", "uniform_association",
                 "marginal_homogeneity", "stochastic_order", "no_high_order"):
        assert want in names


def test_tp2_requires_local_logits():
    link = link_for((3, 3), "global")
    with pytest.raises(ConstraintError, match="local"):
        build_constraint("tp2", link, 1)


def test_model_from_dict_round():
    obj = {
        "schema_version": 1,
        "name": "M4",
        "logits": "local",
        "constraints": [{"kind": "tp2"}],
    }
    model = model_from_dict(obj, (6, 6), 1)
    assert model.name == "M4"
    assert model.constraints.n_ineq == 25
    assert model.constraints.n_eq == 0


def test_model_from_dict_composes():
    obj = {
        "name": "M6",
        "logits": ["local", "local"],
        "constraints": [{"kind": "tp2"},
                        {"kind": "marginal_homogeneity", "epsilon": 0.05}],
    }
    model = model_from_dict(obj, (6, 6), 1)
    assert model.constraints.n_ineq == 25
    assert model.constraints.n_eq == 5
    assert np.allclose(model.constraints.epsilon, 0.05)


def test_model_from_dict_rejects_unknown_kind():
    with pytest.raises(ConstraintError, match="unknown hypothesis"):
        model_from_dict({"name": "x", "constraints": [{"kind": "nope"}]}, (2, 2), 1)


def test_epsilon_must_be_positive():
    link = link_for((2, 2), "local")
    with pytest.raises(ConstraintError):
        independence(link, epsilon=0.0)
