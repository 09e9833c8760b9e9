"""Constrained maximum likelihood on the minimal log-scale
parameterisation, via an augmented Lagrangian with damped Newton inner
steps.

The fit's only downstream role is centring importance densities, so the
method favours robustness over active-set precision: equalities
|E eta| <= eps are recast as inequality pairs and all inequalities enter
a Rockafellar multiplier scheme with squared-hinge penalties.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypotheses import ModelSpec
from .link import (LOG_FLOOR, LinkMatrices, eta_from_logpi, eta_jacobian_from_logpi,
                   logsumexp)
from .tables import StratifiedTable


class FitError(RuntimeError):
    pass


@dataclass
class FitResult:
    eta_hat: np.ndarray          # stacked (s*t,)
    pi_hat: np.ndarray           # (s, r), strictly positive rows summing to 1
    loglik: float                # on the raw (unsmoothed) counts
    kkt_residual: float
    converged: bool
    n_outer: int = 0
    max_violation: float = 0.0
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "eta_hat": self.eta_hat.tolist(),
            "pi_hat": self.pi_hat.tolist(),
            "loglik": self.loglik,
            "kkt_residual": self.kkt_residual,
            "converged": self.converged,
            "n_outer": self.n_outer,
            "max_violation": self.max_violation,
            "notes": self.notes,
        }


# The solver's tolerances and limits. A fit only centres a density or
# answers `margbayes fit`, where a usable centre matters more than the last
# digit, so they are fixed rather than settable.
_VIOL_TOL = 1e-8             # worst constraint violation at convergence
_STAT_TOL = 1e-7             # on the gradient inf-norm, per unit count
_MAX_OUTER = 500             # multiplier updates
_MAX_INNER = 100             # Newton steps per multiplier update
_RHO0 = 10.0                 # the penalty weight starts here, and grows
_RHO_MAX = 1e10              # tenfold while the violation falls too slowly


def _theta_to_logpi(theta_b):
    lam = np.concatenate([[0.0], theta_b])
    return lam - logsumexp(lam)


class _Problem:
    """Stacked-strata objective, eta map and constraint linearisation."""

    def __init__(self, counts, link: LinkMatrices, constraints, smoothing: float, margin: float):
        self.link = link
        self.s, self.r = counts.shape
        self.k = self.r - 1
        self.y = counts + smoothing
        self.N = self.y.sum(axis=1)
        self.cs = constraints
        # rows: [U eta - margin; eps - E eta; E eta + eps] >= 0
        mats, offs = [], []
        if constraints.n_ineq:
            mats.append(constraints.U)
            offs.append(np.full(constraints.n_ineq, -margin))
        if constraints.n_eq:
            mats.append(-constraints.E)
            offs.append(constraints.epsilon.copy())
            mats.append(constraints.E)
            offs.append(constraints.epsilon.copy())
        if mats:
            self.S = np.vstack(mats)
            self.off = np.concatenate(offs)
        else:
            self.S = np.zeros((0, self.s * link.t))
            self.off = np.zeros(0)
        self.m_con = self.S.shape[0]

    def state(self, theta):
        theta = theta.reshape(self.s, self.k)
        logpi = np.stack([_theta_to_logpi(tb) for tb in theta])
        pi = np.exp(logpi)
        eta = np.concatenate([eta_from_logpi(lp, self.link) for lp in logpi])
        return logpi, pi, eta

    def f_grad_hess(self, logpi, pi):
        # negative log-likelihood of the smoothed counts, per-stratum blocks
        f = -float((self.y * logpi).sum())
        grads, hesss = [], []
        for b in range(self.s):
            g = self.N[b] * pi[b][1:] - self.y[b][1:]
            P = pi[b][1:]
            H = self.N[b] * (np.diag(P) - np.outer(P, P))
            grads.append(g)
            hesss.append(H)
        return f, grads, hesss

    def f_only(self, logpi):
        return -float((self.y * logpi).sum())

    def eta_jac(self, logpi):
        # block-diagonal d eta / d theta, (s*t, s*k)
        J = np.zeros((self.s * self.link.t, self.s * self.k))
        for b in range(self.s):
            Jb = eta_jacobian_from_logpi(logpi[b], self.link)
            J[b * self.link.t:(b + 1) * self.link.t, b * self.k:(b + 1) * self.k] = Jb
        return J

    def g_of(self, eta):
        return self.S @ eta + self.off

    def violation(self, eta):
        # worst violation of the penalised system (margin included, so this
        # is conservative for the model's own constraints)
        if self.m_con == 0:
            return 0.0
        return float(max(0.0, -np.min(self.g_of(eta))))


def _minimize_al(prob: _Problem, mu, rho, theta):
    """Inner damped-Newton minimisation of the augmented Lagrangian."""
    logpi, pi, eta = prob.state(theta)

    def phi_of(eta_, logpi_):
        val = prob.f_only(logpi_)
        if prob.m_con:
            g = prob.g_of(eta_)
            val += float((np.maximum(0.0, mu - rho * g) ** 2 - mu ** 2).sum() / (2 * rho))
        return val

    phi = phi_of(eta, logpi)
    for _ in range(_MAX_INNER):
        f, grads, hesss = prob.f_grad_hess(logpi, pi)
        J = prob.eta_jac(logpi) if prob.m_con else None
        grad = np.concatenate(grads)
        H = np.zeros((theta.size, theta.size))
        for b, Hb in enumerate(hesss):
            H[b * prob.k:(b + 1) * prob.k, b * prob.k:(b + 1) * prob.k] = Hb
        if prob.m_con:
            g = prob.g_of(eta)
            m_act = np.maximum(0.0, mu - rho * g)
            Jg = prob.S @ J
            grad -= Jg.T @ m_act
            act = m_act > 0
            if np.any(act):
                H += rho * Jg[act].T @ Jg[act]
        gnorm = np.max(np.abs(grad))
        if gnorm <= 0.1 * _STAT_TOL * max(1.0, prob.N.sum()):
            break
        H[np.diag_indices_from(H)] += 1e-9 * max(1.0, np.trace(H) / theta.size)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        scale, improved = 1.0, False
        for _ in range(40):
            cand = theta - scale * step
            logpi_c, pi_c, eta_c = prob.state(cand)
            phi_c = phi_of(eta_c, logpi_c)
            if phi_c <= phi - 1e-4 * scale * float(grad @ step):
                theta, logpi, pi, eta, phi = cand, logpi_c, pi_c, eta_c, phi_c
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return theta, logpi, pi, eta


def _fit(counts, link, constraints, smoothing: float, interior_margin: float,
         notes="") -> FitResult:
    """The fit of counts + smoothing, with U eta >= interior_margin."""
    # a negative smoothing would run the fit to its iteration cap
    if not (isinstance(smoothing, (int, float)) and 0 <= smoothing < np.inf):
        raise FitError(f"smoothing must be a finite number >= 0, got {smoothing!r}")
    prob = _Problem(counts, link, constraints, smoothing, interior_margin)
    ntot = max(1.0, float(prob.N.sum()))
    theta = np.zeros(prob.s * prob.k)
    mu = np.zeros(prob.m_con)
    rho = _RHO0
    logpi, pi, eta = prob.state(theta)
    viol = prob.violation(eta)
    stat = np.inf
    converged = False
    outer = 0
    for outer in range(1, _MAX_OUTER + 1):
        theta, logpi, pi, eta = _minimize_al(prob, mu, rho, theta)
        g = prob.g_of(eta) if prob.m_con else np.zeros(0)
        new_viol = prob.violation(eta)
        # first-order multiplier estimate, then true-Lagrangian stationarity
        mu = np.maximum(0.0, mu - rho * g)
        _, grads, _ = prob.f_grad_hess(logpi, pi)
        grad = np.concatenate(grads)
        if prob.m_con:
            grad -= (prob.S @ prob.eta_jac(logpi)).T @ mu
        stat = float(np.max(np.abs(grad))) / ntot
        if new_viol <= _VIOL_TOL and stat <= _STAT_TOL:
            converged = True
            viol = new_viol
            break
        if new_viol > 0.25 * viol and new_viol > _VIOL_TOL:
            rho = min(rho * 10.0, _RHO_MAX)
        viol = new_viol
    loglik = float((counts * logpi).sum())
    # strictly positive pi_hat even when the optimum hugs the boundary
    pi = np.exp(np.maximum(logpi, LOG_FLOOR))
    pi /= pi.sum(axis=1, keepdims=True)
    return FitResult(
        eta_hat=eta,
        pi_hat=pi,
        loglik=loglik,
        kkt_residual=float(max(viol, min(stat, 1e30))),
        converged=converged,
        n_outer=outer,
        max_violation=float(viol),
        notes=notes,
    )


def constrained_mle(table: StratifiedTable, model: ModelSpec, smoothing: float = 0.5,
                    interior_margin: float = 0.0) -> FitResult:
    """Maximise the product-multinomial likelihood of the counts plus
    `smoothing` in every cell, subject to the model's constraints with
    inequalities tightened to U eta >= interior_margin. Returns a usable
    centre even when converged is False."""
    counts = table.counts_matrix()
    if np.any(counts.sum(axis=1) < 1):
        raise FitError("every stratum needs a positive total count")
    link = model.link(table.dims)
    if model.constraints.ncols != table.s * link.t:
        raise FitError(
            f"model constraints cover {model.constraints.ncols} eta coordinates, "
            f"table needs {table.s * link.t}"
        )
    return _fit(counts, link, model.constraints, smoothing, interior_margin,
                notes=f"mle:{model.name}")


def prior_center(model: ModelSpec, dims, s: int, interior_margin: float = 1.0) -> FitResult:
    """Centring point for prior-proportion estimation: the constrained fit
    of an all-ones table (a flat-likelihood surrogate), with inequalities
    tightened by `interior_margin` so the centre is strictly inside the
    cone rather than on its boundary."""
    r = int(np.prod(dims))
    counts = np.ones((s, r))
    link = model.link(dims)
    if model.constraints.ncols != s * link.t:
        raise FitError("model constraints inconsistent with dims/strata")
    result = _fit(counts, link, model.constraints, 0.0, interior_margin,
                  notes=f"prior_center:{model.name}")
    result.loglik = 0.0
    return result
