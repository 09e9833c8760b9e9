"""Independent reference implementations used as test oracles.

Everything here computes from first principles (marginal sums and the
textbook logit/log-odds definitions, recursive contrasts for higher
interactions) without touching the package's matrix machinery.
"""
from __future__ import annotations

import numpy as np


def marginal(pi_nd: np.ndarray, keep: tuple) -> np.ndarray:
    """Marginal of a q-way probability array over the kept axes."""
    drop = tuple(i for i in range(pi_nd.ndim) if i not in keep)
    return pi_nd.sum(axis=drop) if drop else pi_nd


def _den_num_weights(m: int, kind: str):
    """Per-category aggregation masks (denominator, numerator) for each
    cut a = 1..m-1, straight from the definitions."""
    dens, nums = [], []
    for a in range(1, m):
        den = np.zeros(m)
        num = np.zeros(m)
        if kind == "local":
            den[a - 1] = 1
            num[a] = 1
        elif kind == "global":
            den[:a] = 1
            num[a:] = 1
        elif kind == "continuation":
            den[a - 1] = 1
            num[a:] = 1
        elif kind == "reverse_continuation":
            den[:a] = 1
            num[a] = 1
        else:
            raise ValueError(kind)
        dens.append(den)
        nums.append(num)
    return dens, nums


def interaction_block(pi_nd: np.ndarray, active: tuple, kinds: tuple) -> np.ndarray:
    """The eta block for one margin set, by recursive contrasts.

    Order 1 is the plain logit; order k contrasts the conditional order
    k-1 interaction between the numerator and denominator regions of the
    first active variable. Rows come out with the last active variable's
    cut index fastest.
    """
    sub = marginal(pi_nd, active)
    kind_list = [kinds[i] for i in active]

    def rec(arr: np.ndarray, kinds_l: list) -> np.ndarray:
        m = arr.shape[0]
        dens, nums = _den_num_weights(m, kinds_l[0])
        if arr.ndim == 1:
            return np.array([np.log(num @ arr) - np.log(den @ arr)
                             for den, num in zip(dens, nums)])
        out = []
        for den, num in zip(dens, nums):
            arr_num = np.tensordot(num, arr, axes=(0, 0))
            arr_den = np.tensordot(den, arr, axes=(0, 0))
            out.append(rec(arr_num, kinds_l[1:]) - rec(arr_den, kinds_l[1:]))
        return np.stack(out)

    return rec(sub, kind_list).ravel()


def eta_reference(pi: np.ndarray, dims: tuple, kinds: tuple) -> np.ndarray:
    """Full eta vector: all margin sets in {A1},{A2},{A1,A2},{A3},... order."""
    q = len(dims)
    pi_nd = np.asarray(pi, dtype=float).reshape(dims)
    parts = []
    for k in range(1, 2 ** q):
        active = tuple(i for i in range(q) if (k >> i) & 1)
        parts.append(interaction_block(pi_nd, active, kinds))
    return np.concatenate(parts)


def lex_cells(dims):
    """All cells in lexicographic order, last variable fastest, by
    explicit enumeration."""
    cells = [()]
    for m in dims:
        cells = [c + (a,) for c in cells for a in range(1, m + 1)]
    return cells


def independence_mle(counts_2d: np.ndarray) -> np.ndarray:
    """Closed-form bivariate independence MLE: outer product of margins."""
    n = counts_2d.sum()
    return np.outer(counts_2d.sum(axis=1), counts_2d.sum(axis=0)) / n ** 2


def dirichlet_chunk_reference(rng, alpha, n, log_floor=-625.0):
    """(n, s, r) Dirichlet draws by the engine's log-gamma recipe, written
    out of place with scipy's logsumexp; the engine's in-place kernel must
    reproduce it bit for bit from the same generator state."""
    from scipy.special import logsumexp

    s, r = alpha.shape
    out = np.empty((n, s, r))
    for b in range(s):
        a = alpha[b]
        small = a < 1.0
        g = rng.standard_gamma(np.where(small, a + 1.0, a), size=(n, r))
        logg = np.log(np.maximum(g, 1e-300))
        if np.any(small):
            u = rng.random((n, r))
            logg[:, small] += np.log(u[:, small]) / a[small]
        logpi = logg - logsumexp(logg, axis=1, keepdims=True)
        out[:, b, :] = np.exp(np.maximum(logpi, log_floor))
    return out


def eta_batch_reference(P, link, rows=None, log_floor=-625.0):
    """eta for a batch of rows P (N, r) as C log(M pi), one dense product
    over all rows: the engine's per-variable evaluation sums and
    differences in another order, so it must agree within 1e-12."""
    C = link.C if rows is None else link.C[rows]
    return np.log(np.maximum(P, np.exp(log_floor)) @ link.M.T) @ C.T


def posterior_summary_reference(model, table, prior, n, seed, chunk=32768,
                                keep_cap=200_000, level=0.95) -> dict:
    """PosteriorSummary.to_dict() the straightforward way: accepted draws
    kept in a list and concatenated, the first min(accepted, keep_cap) of
    them summarised by whole-array np.quantile calls, one per level, and
    eta concatenated over strata. The engine's per-stratum summaries must
    reproduce it bit for bit."""
    from margbayes.engine import ModelEval, _chunks, substream
    from margbayes.link import eta_batch

    ev = ModelEval(model, table.dims, table.s)
    kept, acc = [], 0
    for _, P in _chunks(substream(seed, 0), prior.posterior(table), n, chunk):
        d = ev.delta(P) if not ev.cs.is_empty() else np.ones(P.shape[0], dtype=bool)
        acc += int(d.sum())
        kept.append(P[d])
    P = np.concatenate(kept, axis=0)[:keep_cap]
    lo_q, hi_q = (1 - level) / 2, 1 - (1 - level) / 2
    eta = np.concatenate([eta_batch(P[:, b, :], ev.link) for b in range(table.s)], axis=1)
    mean_pi = P.mean(axis=0)
    frac = acc / n
    return {
        "n_drawn": n, "n_accepted": acc, "acceptance": frac,
        "pi_mean": mean_pi.tolist(),
        "pi_lo": np.quantile(P, lo_q, axis=0).tolist(),
        "pi_hi": np.quantile(P, hi_q, axis=0).tolist(),
        "eta_mean": eta.mean(axis=0).tolist(),
        "eta_lo": np.quantile(eta, lo_q, axis=0).tolist(),
        "eta_hi": np.quantile(eta, hi_q, axis=0).tolist(),
        "mean_satisfies": bool(ev.delta(mean_pi[None])[0]) if not ev.cs.is_empty() else True,
        "warnings": [] if frac >= 1e-3 else [
            f"acceptance {frac:.2e} is tiny; summaries rest on few draws and an "
            "about-equality route is likely more appropriate"],
    }


def _log_gamma_density(a: float, h: float):
    """Density of log G, G ~ Gamma(a), on the grid k*h over its mass:
    (first k, values). The grid runs 22 sd below the mean (the heavy
    side) and 10 above."""
    from scipy.special import digamma, gammaln, polygamma

    mu, sd = digamma(a), np.sqrt(polygamma(1, a))
    k = np.arange(np.floor((mu - 22 * sd) / h), np.ceil((mu + 10 * sd) / h) + 1)
    x = k * h
    return int(k[0]), np.exp(a * x - np.exp(x) - gammaln(a))


def _sum_density(d1, d2, h: float):
    """Density of the sum of two independent grid densities."""
    (k1, f1), (k2, f2) = d1, d2
    return k1 + k2, h * np.convolve(f1, f2)


def _difference_density_at(S, T, m: int, h: float) -> float:
    """Density of S - T at m*h: h * sum_i f_S(s_i) f_T(s_i - m*h)."""
    (kS, fS), (kT, fT) = S, T
    off = kS - kT - m                     # f_T index of s_i - m*h is i + off
    i0, i1 = max(0, -off), min(fS.size, fT.size - off)
    return h * float(fS[i0:i1] @ fT[i0 + off:i1 + off]) if i1 > i0 else 0.0


def about_equality_2x2(counts, eps: float, kappa: float = 1.0, h: float = 0.01) -> float:
    """P(|log odds ratio| <= eps) under Dirichlet(kappa + counts) on a 2x2
    table, cells in row-major order.

    The cells are normalised independent gammas G_i ~ Gamma(kappa + n_i),
    so the log odds ratio is L1 + L4 - L2 - L3 with L_i = log G_i. The
    densities of S = L1 + L4 and T = L2 + L3 are direct numerical
    convolutions on a grid of step at most h (the trapezoid rule, which
    for these smooth, fast-decaying densities is accurate far beyond the
    step); the density of S - T is then taken at the grid points of
    [-eps, eps] and integrated by Simpson's rule.
    """
    k = int(np.ceil(eps / h))
    h = eps / k                           # +-eps fall on the grid
    a = kappa + np.asarray(counts, dtype=float)
    dens = [_log_gamma_density(ai, h) for ai in a]
    S = _sum_density(dens[0], dens[3], h)
    T = _sum_density(dens[1], dens[2], h)
    f = np.array([_difference_density_at(S, T, m, h) for m in range(-k, k + 1)])
    w = np.ones(2 * k + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(h / 3.0 * (w @ f))


def tp2_2x2(counts, kappa: float = 1.0, h: float = 0.01) -> float:
    """P(log odds ratio >= 0) under Dirichlet(kappa + counts) on a 2x2
    table, cells in row-major order: the TP2 proportion.

    With S = L1 + L4 and T = L2 + L3 as in about_equality_2x2, the density
    of S - T is the direct numerical convolution of S's grid density with
    T's mirrored one, and its mass on [0, inf) is taken by the trapezoid
    rule on the same grid of step h.
    """
    a = kappa + np.asarray(counts, dtype=float)
    dens = [_log_gamma_density(ai, h) for ai in a]
    S = _sum_density(dens[0], dens[3], h)
    kT, fT = _sum_density(dens[1], dens[2], h)
    k, f = _sum_density(S, (-(kT + fT.size - 1), fT[::-1]), h)
    m = k + np.arange(f.size)                    # S - T = m * h
    return float(h * (f[m > 0].sum() + 0.5 * f[m == 0].sum()))
