"""The exact oracles against closed forms, and against themselves at half
the grid step."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import logistic

from margbayes import load_fixture

from oracles import (about_equality_2x2, independence_limit, one_row_tube_limit, tp2_2x2,
                     tp2_2xk)


@pytest.mark.parametrize("eps", [0.0125, 0.1, 1.0])
def test_about_equality_2x2_flat_prior_is_a_sum_of_two_logistics(eps):
    # under Dirichlet(1, 1, 1, 1) the gammas are unit exponentials, so
    # L1 - L2 and L4 - L3 are independent standard logistics
    exact, _ = quad(lambda x: logistic.pdf(x) * (logistic.cdf(eps - x) - logistic.cdf(-eps - x)),
                    -np.inf, np.inf, epsabs=0, epsrel=1e-12)
    assert about_equality_2x2((0, 0, 0, 0), eps, 1.0) == pytest.approx(exact, rel=1e-7)


@pytest.mark.parametrize("counts", [(0, 0, 0, 0), (30, 10, 12, 25)])
@pytest.mark.parametrize("eps", [0.0125, 0.1])
def test_about_equality_2x2_is_converged_in_the_grid_step(counts, eps):
    coarse = about_equality_2x2(counts, eps, 1.0)
    fine = about_equality_2x2(counts, eps, 1.0, h=0.005)
    assert abs(np.log10(fine) - np.log10(coarse)) < 1e-4


@pytest.mark.parametrize("kappa", [1.0, 2.5])
def test_tp2_2x2_is_one_half_at_zero_counts(kappa):
    # a symmetric Dirichlet makes the log odds ratio symmetric about zero
    assert tp2_2x2((0, 0, 0, 0), kappa) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("counts", [(3, 1, 1, 3), (30, 10, 12, 25)])
def test_tp2_2x2_is_converged_in_the_grid_step(counts):
    coarse = tp2_2x2(counts, 1.0)
    fine = tp2_2x2(counts, 1.0, h=0.005)
    assert abs(np.log10(fine) - np.log10(coarse)) < 1e-5


@pytest.mark.parametrize("K", range(1, 9))
def test_tp2_2xk_is_one_over_k_factorial_at_equal_columns(K):
    # zero counts make the D_j i.i.d., so each of the K! orders is as likely
    assert tp2_2xk([0] * K, [0] * K) == pytest.approx(1 / math.factorial(K), rel=1e-5)


def test_tp2_2xk_matches_tp2_2x2():
    assert tp2_2xk([30, 10], [12, 25]) == pytest.approx(tp2_2x2((30, 10, 12, 25)), rel=1e-6)


@pytest.mark.parametrize("rows", [
    ([12, 11, 9, 8, 6, 5], [4, 6, 7, 9, 10, 12]),
    ([14, 12, 13, 10, 9, 9, 7, 5], [3, 5, 4, 7, 8, 9, 11, 12]),
    ([8, 9, 7, 8, 9, 8, 7, 8], [8, 7, 9, 8, 7, 8, 9, 8]),
])
def test_tp2_2xk_is_converged_in_the_grid_step(rows):
    coarse = tp2_2xk(*rows)
    fine = tp2_2xk(*rows, h=0.001)
    assert abs(np.log10(fine) - np.log10(coarse)) < 1e-4


def test_independence_limit_is_about_equality_at_small_epsilon():
    # the 2x2 about-equality Bayes factor at eps 0.003 reads -2.33631
    # decades; its eps -> 0 limit is -2.33635
    counts = (30, 10, 12, 25)
    eps = 0.003
    at_eps = np.log10(about_equality_2x2(counts, eps) / about_equality_2x2((0, 0, 0, 0), eps))
    limit = independence_limit(np.reshape(counts, (2, 2))) / math.log(10)
    assert limit == pytest.approx(-2.33635, abs=1e-5)
    assert abs(limit - at_eps) < 1e-4


def test_independence_limit_of_alzheimer_conditional_independence():
    # the limit of the chain the benchmark's chain-ci workload walks: one
    # stratum term each, summed
    table = load_fixture("alzheimer")
    strata = table.counts_matrix().reshape(table.s, *table.dims)
    per_stratum = [independence_limit(t) / math.log(10) for t in strata]
    assert per_stratum == [pytest.approx(-39.3245, abs=1e-4), pytest.approx(-79.8128, abs=1e-4)]
    assert independence_limit(strata) / math.log(10) == pytest.approx(-119.1373, abs=1e-4)


@pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("counts", [(0, 0, 0, 0), (3, 11, 15, 4), (30, 10, 12, 25),
                                    (300, 100, 120, 250)])
def test_one_row_tube_limit_is_independence_limit_on_2x2(counts, kappa):
    # one log odds ratio: the Fourier inversion and Gunel & Dickey's closed
    # form agree, also where the density at 0 is far below its peak
    ln = one_row_tube_limit(counts, [1, -1, -1, 1], kappa)
    assert ln == pytest.approx(independence_limit(np.reshape(counts, (2, 2)), kappa),
                               rel=0, abs=1e-9)


def test_one_row_tube_limit_reads_the_2x2_value_of_the_prototype():
    # [[3, 11], [15, 4]] at kappa 1 reads -1.76006 decades
    assert one_row_tube_limit((3, 11, 15, 4), [1, -1, -1, 1]) / math.log(10) == \
        pytest.approx(-1.76006, abs=1e-5)


def test_one_row_tube_limit_ignores_the_row_scale():
    # the limit is a ratio of densities of the same row, so a factor on
    # every coefficient cancels
    w = np.array([1, -2, 1, -1, 2, -1])
    counts = (6, 3, 2, 2, 4, 5)
    assert one_row_tube_limit(counts, 3 * w) == pytest.approx(one_row_tube_limit(counts, w),
                                                              rel=0, abs=1e-9)
