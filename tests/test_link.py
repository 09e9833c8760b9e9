import numpy as np
import pytest

from margbayes import (
    LinkError,
    build_logit_block,
    eta_from_pi,
    link_for,
)
from margbayes.link import eta_batch, eta_jacobian_from_logpi, margin_sets

from oracles import eta_reference

KINDS = ("local", "global", "continuation", "reverse_continuation")
SHAPES = [(2, 2), (3, 3), (6, 6), (5, 4), (2, 3, 4), (3, 3, 3, 3)]

rng = np.random.default_rng(20240901)


def random_pi(r, n=1):
    draws = rng.dirichlet(np.ones(r), size=n)
    return draws[0] if n == 1 else draws


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_logit_block_binary_local_is_identity():
    assert np.array_equal(build_logit_block(2, "local"), np.eye(2))


def test_logit_block_binary_all_types_column_equivalent():
    blocks = {k: build_logit_block(2, k) for k in KINDS}
    for k in KINDS:
        assert np.array_equal(blocks[k], blocks["local"])


def test_logit_block_global_m3():
    # denominator rows p1, p1+p2; numerator rows p2+p3, p3
    expect = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=float)
    assert np.array_equal(build_logit_block(3, "global"), expect)


def test_logit_block_continuation_m3():
    expect = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=float)
    assert np.array_equal(build_logit_block(3, "continuation"), expect)


def test_logit_block_rejects_m1():
    with pytest.raises(LinkError):
        build_logit_block(1, "local")



@pytest.mark.parametrize("dims,logits,needle", [
    ((3, 3), "probit", "unknown logit type 'probit'"),
    ((1, 3), "local", "m must be >= 2, got 1"),
    ((3, 3), ["local"], "one logit type per variable required"),
    ((3, 3), ["local"] * 3, "one logit type per variable required"),
])
def test_link_for_rejects_a_bad_variable(dims, logits, needle):
    with pytest.raises(LinkError, match=needle):
        link_for(dims, logits)

def test_margin_set_order():
    assert margin_sets(2) == [(1, 0), (0, 1), (1, 1)]


def test_link_dimensions():
    assert link_for((2, 2), "local").t == 3
    link66 = link_for((6, 6), "local")
    assert link66.t == 35
    b = link66.block_for((1, 1))
    assert b.hi - b.lo == 25
    assert link_for((3,), "local").t == 2
    # t = r - 1 for the saturated parameterisation
    for dims in SHAPES:
        link = link_for(dims, "local")
        assert link.t == int(np.prod(dims)) - 1


# ---------------------------------------------------------------------------
# eta values against the first-principles oracle
# ---------------------------------------------------------------------------

def test_eta_uniform_is_zero():
    link = link_for((2, 2), "local")
    assert np.allclose(eta_from_pi(np.full(4, 0.25), link), 0.0, atol=1e-12)


def test_eta_2x2_worked_example():
    link = link_for((2, 2), "local")
    eta = eta_from_pi(np.array([0.4, 0.2, 0.1, 0.3]), link)
    assert eta[0] == pytest.approx(np.log(0.4 / 0.6), abs=1e-12)
    assert eta[1] == pytest.approx(0.0, abs=1e-12)
    assert eta[2] == pytest.approx(np.log(6.0), abs=1e-12)


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
def test_eta_matches_reference_single_type(dims, kind):
    link = link_for(dims, kind)
    for _ in range(8):
        pi = random_pi(link.r)
        ref = eta_reference(pi, dims, tuple([kind] * len(dims)))
        assert np.allclose(eta_from_pi(pi, link), ref, atol=1e-10)


def test_eta_matches_reference_mixed_types():
    cases = [((3, 4), ("local", "global")),
             ((5, 4), ("reverse_continuation", "reverse_continuation")),
             ((2, 3, 4), ("global", "continuation", "local")),
             ((3, 3, 3, 3), ("global", "global", "global", "global"))]
    for dims, kinds in cases:
        link = link_for(dims, list(kinds))
        for _ in range(5):
            pi = random_pi(link.r)
            assert np.allclose(eta_from_pi(pi, link), eta_reference(pi, dims, kinds),
                               atol=1e-10)


def test_binary_variables_all_types_coincide():
    pis = random_pi(4, n=20)
    etas = {k: np.array([eta_from_pi(p, link_for((2, 2), k)) for p in pis]) for k in KINDS}
    for k in KINDS:
        assert np.allclose(etas[k], etas["local"], atol=1e-12)


def test_reverse_continuation_is_reversed_continuation():
    # eta_rc(pi)[a] == -eta_c(pi reversed)[m-1-a], per-variable index maps
    m = 5
    link_rc = link_for((m,), "reverse_continuation")
    link_c = link_for((m,), "continuation")
    for _ in range(10):
        pi = random_pi(m)
        rc = eta_from_pi(pi, link_rc)
        c_rev = eta_from_pi(pi[::-1].copy(), link_c)
        assert np.allclose(rc, -c_rev[::-1], atol=1e-12)


def test_eta_rejects_nonpositive():
    link = link_for((2, 2), "local")
    with pytest.raises(LinkError):
        eta_from_pi(np.array([0.5, 0.5, 0.0, 0.0]), link)


BATCH_SHAPES = [(2, 2), (3, 4), (6, 6), (5, 4), (2, 3, 4), (3, 3, 3, 3)]


@pytest.mark.parametrize("dims", BATCH_SHAPES)
@pytest.mark.parametrize("kinds", KINDS + ("mixed",))
def test_eta_batch_matches_reference(dims, kinds):
    # "mixed" gives variable i the logit type KINDS[i]
    kinds = tuple(KINDS[i % 4] if kinds == "mixed" else kinds for i in range(len(dims)))
    link = link_for(dims, list(kinds))
    P = random_pi(link.r, n=6)
    ref = np.array([eta_reference(p, dims, kinds) for p in P])
    full = eta_batch(P, link)
    assert np.allclose(full, ref, rtol=0, atol=1e-10)
    subsets = [link.rows_of(b.z) for b in link.blocks]
    subsets.append(np.sort(rng.choice(link.t, size=max(1, link.t // 3), replace=False)))
    subsets.append(np.array([link.t - 1, 0]))                   # out of order
    for rows in subsets:
        assert np.allclose(eta_batch(P, link, rows=rows), ref[:, rows], rtol=0, atol=1e-10)


def test_eta_batch_matches_single():
    link = link_for((3, 3), "global")
    P = random_pi(9, n=40)
    batch = eta_batch(P, link)
    for i in range(40):
        assert np.allclose(batch[i], eta_from_pi(P[i] / P[i].sum(), link), atol=1e-9)


def test_eta_batch_row_restriction():
    link = link_for((6, 6), "local")
    rows = link.rows_of((1, 1))
    P = random_pi(36, n=25)
    # the same margins, summed in the same order: the same bits
    assert eta_batch(P, link, rows=rows).tobytes() == eta_batch(P, link)[:, rows].tobytes()


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def fd_jacobian(pi, link, h=1e-6):
    lam = np.log(pi / pi[0])
    theta = lam[1:]

    def eta_of(th):
        lam_full = np.concatenate([[0.0], th])
        p = np.exp(lam_full)
        p /= p.sum()
        return eta_from_pi(p, link)

    J = np.zeros((link.t, link.r - 1))
    for j in range(link.r - 1):
        e = np.zeros(link.r - 1)
        e[j] = h
        J[:, j] = (eta_of(theta + e) - eta_of(theta - e)) / (2 * h)
    return J


@pytest.mark.parametrize("dims,kind", [((2, 2), "local"), ((3, 3), "global"),
                                       ((5, 4), "reverse_continuation")])
def test_jacobian_matches_central_differences(dims, kind):
    link = link_for(dims, kind)
    pts = [np.full(link.r, 1.0 / link.r), random_pi(link.r)]
    for pi in pts:
        J = eta_jacobian_from_logpi(np.log(pi), link)
        J_fd = fd_jacobian(pi, link)
        denom = np.maximum(np.abs(J_fd), 1.0)
        assert np.max(np.abs(J - J_fd) / denom) < 1e-5


def test_jacobian_at_father_son_mle():
    from margbayes import load_fixture
    t = load_fixture("father_son")
    pi = t.tables[0].counts / t.n
    link = link_for((6, 6), "local")
    J = eta_jacobian_from_logpi(np.log(pi), link)
    J_fd = fd_jacobian(pi, link)
    denom = np.maximum(np.abs(J_fd), 1.0)
    assert np.max(np.abs(J - J_fd) / denom) < 1e-5


def test_jacobian_full_rank_at_interior():
    # eta is locally invertible at interior points for every logit type, on
    # the small shapes and on the bundled fixtures' shapes
    for dims in [(2, 2), (3, 3), (6, 6), (5, 4), (3, 3, 3, 3)]:
        for kind in KINDS:
            link = link_for(dims, kind)
            J = eta_jacobian_from_logpi(np.log(random_pi(link.r)), link)
            assert J.shape == (link.t, link.r - 1)
            assert np.linalg.matrix_rank(J) == link.t, (dims, kind)
