"""The exact oracles against closed forms, and against themselves at half
the grid step."""
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import logistic

from oracles import about_equality_2x2, tp2_2x2


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
