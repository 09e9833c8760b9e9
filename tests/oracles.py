"""Independent reference implementations used as test oracles.

Everything here computes from first principles (marginal sums and the
textbook logit/log-odds definitions, recursive contrasts for higher
interactions) without touching the package's matrix machinery.
"""
from __future__ import annotations

import math

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
                                keep_cap=200_000, level=0.95, by_stratum=None) -> dict:
    """PosteriorSummary.to_dict() the straightforward way. The posterior
    factorises over strata when no constraint row touches two of them (or
    by_stratum says so): then each stratum b is a unit drawn from stream
    ("prior", "summary", b), else the whole table is one unit drawn from
    ("prior", "summary").
    Per unit: accepted draws kept in a list and concatenated, the first
    min(accepted, keep_cap) of them summarised by whole-array np.quantile
    calls, one per level, and eta concatenated over the unit's strata; a
    stratum unit checks its draws with its ModelEval.stratum_split
    evaluator. The acceptance is the product of the units' fractions, the
    accepted count the smallest unit's. The engine must reproduce it bit
    for bit."""
    from margbayes.engine import ModelEval, _chunks, substream
    from margbayes.link import eta_batch

    ev = ModelEval(model, table.dims, table.s)
    cs, t, s = ev.cs, ev.link.t, table.s
    if by_stratum is None:
        rows = np.vstack([cs.E, cs.U])
        by_stratum = s > 1 and all(len({int(c) // t for c in np.flatnonzero(row)}) == 1
                                   for row in rows)
    paths = [("summary", b) for b in range(s)] if by_stratum else [("summary",)]
    checks = ev.stratum_split() if by_stratum else [ev]
    alpha = prior.posterior(table)
    lo_q, hi_q = (1 - level) / 2, 1 - (1 - level) / 2
    accs, parts = [], []
    for path, check in zip(paths, checks):
        strata = list(path[1:] or range(s))
        kept, acc = [], 0
        for _, P in _chunks(substream(seed, "prior", *path), alpha[strata], n, chunk):
            d = check.delta(P) if not cs.is_empty() else np.ones(P.shape[0], dtype=bool)
            acc += int(d.sum())
            kept.append(P[d])
        accs.append(acc)
        P = np.concatenate(kept, axis=0)[:keep_cap]
        eta = np.concatenate([eta_batch(P[:, i, :], ev.link) for i in range(len(strata))],
                             axis=1)
        parts.append((P.mean(axis=0), np.quantile(P, lo_q, axis=0),
                      np.quantile(P, hi_q, axis=0), eta.mean(axis=0),
                      np.quantile(eta, lo_q, axis=0), np.quantile(eta, hi_q, axis=0)))
    mean_pi, pi_lo, pi_hi = (np.concatenate(x, axis=0) for x in list(zip(*parts))[:3])
    eta_mean, eta_lo, eta_hi = (np.concatenate(x) for x in list(zip(*parts))[3:])
    frac = min(accs) / n
    return {
        "n_drawn": n, "n_accepted": min(accs), "acceptance": math.prod(a / n for a in accs),
        "pi_mean": mean_pi.tolist(),
        "pi_lo": pi_lo.tolist(),
        "pi_hi": pi_hi.tolist(),
        "eta_mean": eta_mean.tolist(),
        "eta_lo": eta_lo.tolist(),
        "eta_hi": eta_hi.tolist(),
        "mean_satisfies": bool(ev.delta(mean_pi[None])[0]) if not cs.is_empty() else True,
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


def tp2_equal_columns(K: int) -> float:
    """P(local TP2) on a 2 x K table whose columns all hold the same counts
    (n1 in row 1, n2 in row 2), under Dirichlet(kappa + counts) for any
    kappa > 0: exactly 1/K!.

    The cells are normalised independent gammas G_ij ~ Gamma(kappa + n_ij),
    so the local log odds ratios are D_j - D_{j+1} with
    D_j = log G_1j - log G_2j, and TP2 is D_1 >= D_2 >= ... >= D_K. With
    equal counts in every column the D_j are i.i.d. and continuous, so
    each of the K! orderings has the same probability. This holds at zero
    counts (the prior) and at any equal counts (the posterior) alike, so
    the exact TP2 Bayes factor of such a table is 1 (log10 BF 0) at every K.
    """
    return 1.0 / math.factorial(K)


def tp2_2xk(row1, row2, kappa: float = 1.0, h: float = 0.002, lim: float = 60.0) -> float:
    """P(local TP2) on a 2 x K table under Dirichlet(kappa + counts), rows
    row1 and row2 of counts.

    The cells are normalised independent gammas G_ij ~ Gamma(a_ij), so
    local TP2 is D_1 >= D_2 >= ... >= D_K with D_j = log G_1j - log G_2j.
    The D_j are independent log-beta-prime variables with density
    f_j(d) = e^{a d} (1 + e^d)^{-(a+b)} / B(a, b), a = a_1j, b = a_2j.
    With S_0 = 1 and S_k(x) = P(D_k >= x, D_{k-1} >= D_k, ..., D_1 >= D_2)
    = int_x^inf f_k(t) S_{k-1}(t) dt, the answer is S_K(-inf): K
    reverse cumulative trapezoid sums on one grid of step h over
    [-lim, lim].
    """
    from scipy.special import betaln

    a1 = kappa + np.asarray(row1, dtype=float)
    a2 = kappa + np.asarray(row2, dtype=float)
    x = np.linspace(-lim, lim, int(round(2 * lim / h)) + 1)
    step = x[1] - x[0]
    S = np.ones_like(x)
    for a, b in zip(a1, a2):
        g = np.exp(a * x - (a + b) * np.logaddexp(0.0, x) - betaln(a, b)) * S
        S = np.concatenate([np.cumsum((0.5 * step * (g[1:] + g[:-1]))[::-1])[::-1], [0.0]])
    return float(S[0])


def independence_limit(counts, kappa: float = 1.0) -> float:
    """ln of the epsilon -> 0 limit of the about-equality Bayes factor of
    independence (every local log odds ratio within epsilon of 0) on a
    two-way table (I, J), or on strata of them (s, I, J), under
    Dirichlet(kappa + counts) per stratum.

    The cells are normalised independent gammas with y_ij = log G_ij. As
    epsilon -> 0 the Bayes factor tends to the ratio, posterior over
    prior, of the densities of the interaction contrasts at 0. On the
    subspace y_ij = u_i + v_j the u and v integrals are gamma and
    Dirichlet integrals, so
        ln dens0(a) = sum_i lnG(a_i+) + sum_j lnG(a_+j) - lnG(a_++)
                      - sum_ij lnG(a_ij),
    and the answer is ln dens0(kappa + n) - ln dens0(kappa), summed over
    strata: the product-of-gammas form of Gunel & Dickey's (1974)
    independence Bayes factors.
    """
    from scipy.special import gammaln

    def ln_dens0(a):
        return (gammaln(a.sum(axis=1)).sum() + gammaln(a.sum(axis=0)).sum()
                - gammaln(a.sum()) - gammaln(a).sum())

    n = np.asarray(counts, dtype=float)
    strata = n.reshape(-1, *n.shape[-2:])
    return float(sum(ln_dens0(kappa + t) - ln_dens0(np.full_like(t, kappa)) for t in strata))


def one_row_tube_limit(counts, weights, kappa: float = 1.0) -> float:
    """ln of the epsilon -> 0 limit of the about-equality Bayes factor of
    one row |w . y| <= epsilon, linear in y = log G with any coefficients,
    under Dirichlet(kappa + counts) over the cells that counts and weights
    list alike (strata side by side).

    The cells are normalised independent gammas, and a row linear in y
    whose coefficients sum to zero within each stratum does not see the
    normalisers. The limit is the ratio, posterior over prior, of the
    densities of L = w . y at 0. L has the moment generating function
    M(s) = exp K(s) = prod_i Gamma(a_i + s w_i) / Gamma(a_i), so by
    Fourier inversion along the line Re s = c,
        f(0) = (1/pi) int_0^inf Re M(c + i t) dt,
    for any c where every a_i + c w_i > 0. c is the saddle point K'(c) = 0
    (brentq), where the integrand does not oscillate about t = 0, so a
    density far below its peak keeps its digits; quad integrates it on
    t = x / sqrt(K''(c)).
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq
    from scipy.special import loggamma, polygamma

    w = np.asarray(weights, dtype=float).ravel()

    def ln_dens0(a):
        lo = max((-a[i] / w[i] for i in range(w.size) if w[i] > 0), default=-np.inf)
        hi = min((-a[i] / w[i] for i in range(w.size) if w[i] < 0), default=np.inf)
        pad = 1e-9 * (hi - lo)
        c = brentq(lambda c: float(np.sum(w * polygamma(0, a + c * w))), lo + pad, hi - pad,
                   xtol=1e-14, rtol=1e-15)
        k0 = float(np.sum(loggamma(a + c * w).real - loggamma(a).real))
        sd = math.sqrt(float(np.sum(w ** 2 * polygamma(1, a + c * w))))

        def f(x):
            return float(np.exp(np.sum(loggamma(a + (c + 1j * x / sd) * w)
                                       - loggamma(a + c * w))).real)

        head, _ = quad(f, 0.0, 50.0, limit=400, epsabs=0.0, epsrel=1e-11)
        tail, _ = quad(f, 50.0, np.inf, limit=400)
        return k0 + math.log((head + tail) / (math.pi * sd))

    n = np.asarray(counts, dtype=float).ravel()
    return ln_dens0(kappa + n) - ln_dens0(np.full_like(n, kappa))


# The split kernel as first written: padded per-cell bound tensors with
# |coefficient| divisors, an out-of-place inversion and np.where rejects.
# The engine's unit-coefficient kernel must reproduce it bit for bit.

def _log_gammas_reference(rng, a, n, log_floor=-625.0):
    small = a < 1.0
    g = rng.standard_gamma(np.where(small, a + 1.0, a)[:, None], size=(a.size, n))
    y = np.log(np.maximum(g, 1e-300, out=g), out=g)
    if small.any():
        y[small] += np.log(rng.random((int(small.sum()), n))) / a[small, None]
    return np.maximum(y, log_floor, out=y)


def _split_classes_reference(A):
    nz = A != 0
    color = np.full(A.shape[1], -1)
    for i in np.flatnonzero(nz.any(axis=0)):
        taken = set(color[nz[nz[:, i]].any(axis=0)].tolist())
        color[i] = next(c for c in range(A.shape[1]) if c not in taken)
    classes = []
    for c in range(color.max() + 1):
        cells = np.flatnonzero(color == c)
        sub = A[:, cells]
        bounds = []
        for sign in (1.0, -1.0):
            lists = [np.flatnonzero(sign * sub[:, j] > 0) for j in range(cells.size)]
            width = max(1, max(len(rows) for rows in lists))
            idx = np.full((cells.size, width), A.shape[0])
            coef = np.ones((cells.size, width, 1))
            for j, rows in enumerate(lists):
                idx[j, :rows.size] = rows
                coef[j, :rows.size, 0] = np.abs(sub[rows, j])
            bounds += [idx, coef]
        rows, place = np.nonzero(sub)
        classes.append((cells, *bounds, rows, place, sub[rows, place][:, None]))
    return classes


def _split_move_reference(cls, y, R, tau, a, rng, exponential, log_floor=-625.0):
    cells, prow, pcoef, mrow, mcoef, rows, place, coef = cls
    yc = y[cells]
    lo = yc - np.min((R[prow] + tau) / pcoef, axis=1)
    hi = yc + np.min((R[mrow] + tau) / mcoef, axis=1)
    if exponential:
        el = np.exp(lo)
        width = np.maximum(np.exp(hi) - el, 0.0)
        g = el - np.log1p(rng.random(yc.shape) * np.expm1(-width))
        new = np.log(np.maximum(g, math.exp(log_floor), out=g), out=g)
    else:
        new = _log_gammas_reference(rng, a[cells], yc.shape[1])
        new = np.where((lo <= new) & (new <= hi), new, yc)
    R[rows] += coef * (new - yc)[place]
    y[cells] = new


def split_run_reference(A, a, rng, side, n=1000, sweeps=2):
    """(ln P(A y >= 0), final survivors, levels) for y = log G by subset
    simulation at rho 1/2 with colored exact moves, written for any
    coefficients; the engine's _split_run must return the same values
    and leave rng in the same state."""
    from margbayes.engine import UnboundedEstimateError

    classes = _split_classes_reference(A)
    exponential = bool(np.all(a == 1.0))
    y = _log_gammas_reference(rng, a, n)
    R = np.empty((A.shape[0] + 1, n))
    R[-1] = np.inf
    R[:-1] = 0.0
    for k, j in zip(*np.nonzero(A)):
        R[k] += A[k, j] * y[j]
    ln_p, prev, level = 0.0, np.inf, 0
    while True:
        level += 1
        s = -R[:-1].min(axis=0)
        tau = max(float(np.partition(s, n // 2)[n // 2]), 0.0)
        keep = np.flatnonzero(s <= tau)
        ln_p += math.log(keep.size / n)
        if tau == 0.0:
            return ln_p, keep.size, level
        if tau >= prev:
            raise UnboundedEstimateError(
                side, f"{side}-side splitting stalled at threshold {prev:g}; "
                "the Bayes factor is unbounded on this run")
        prev = tau
        pick = keep[rng.integers(0, keep.size, size=n)]
        y, R = y[:, pick], R[:, pick]
        for _ in range(sweeps):
            for cls in classes:
                _split_move_reference(cls, y, R, tau, a, rng, exponential)
