"""Marginal link construction and evaluation.

link_for is the one constructor of a link: from the category counts and
per-variable logit types it builds the contrast/marginalisation pair
(C, M) that maps a joint probability vector to its stacked
marginal-interaction parameters

    eta = C log(M pi),

with one block per non-empty margin set. This module also evaluates eta
and the analytic Jacobian used by the constrained fits.

C and M are Kronecker products of small per-variable blocks, and batches
of draws are evaluated through that structure rather than through the
dense pair: `eta_batch` sums each needed margin out of the joint table,
forms each active variable's distinct aggregates (cells, cumulative or
reverse-cumulative sums), takes their logs once and differences
numerator minus denominator along each active axis. It calls no BLAS:
OpenBLAS rounds a row of a product differently with the product's shape
and with how many threads split it, so a draw's eta would depend on the
rows evaluated beside it and on the host's thread count. With only
elementwise ufuncs and slice adds in a fixed order, each draw's eta
depends on that draw alone. The dense (C, M) pair serves the per-vector
`eta_from_logpi` and `eta_jacobian_from_logpi` used by the fits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import LOGIT_TYPES

# smallest log cell probability carried through batch evaluation; keeps
# exp() above the subnormal range so log(M pi) never hits -inf
LOG_FLOOR = -625.0

# eta_batch evaluates this many draws at a time, laid out cells x draws; the
# block's margins, aggregates and logs stay a few MB on the largest fixture
BLOCK_ROWS = 2048


class LinkError(ValueError):
    """Domain errors in link construction or evaluation."""


def margin_sets(q: int):
    """All non-empty margin sets as 0/1 tuples.

    Ordered so that {A1}, {A2}, {A1,A2}, {A3}, ... i.e. by the integer
    whose i-th bit (least significant first) marks variable i.
    """
    return [tuple((k >> i) & 1 for i in range(q)) for k in range(1, 2 ** q)]


def build_logit_block(m: int, logit_type: str) -> np.ndarray:
    """Aggregation block for one variable: 2(m-1) x m, denominator rows
    first, numerator rows second.

    With the contrast (-I | I) this reproduces the local / global /
    continuation / reverse-continuation logit definitions.
    """
    if m < 2:
        raise LinkError(f"m must be >= 2, got {m}")
    if logit_type not in LOGIT_TYPES:
        raise LinkError(f"unknown logit type {logit_type!r}; expected one of {LOGIT_TYPES}")
    I = np.eye(m - 1)
    T = np.tril(np.ones((m - 1, m - 1)))
    z = np.zeros((m - 1, 1))
    den_num = {
        "local": (np.hstack([I, z]), np.hstack([z, I])),
        "global": (np.hstack([T, z]), np.hstack([z, T.T])),
        "continuation": (np.hstack([I, z]), np.hstack([z, T.T])),
        "reverse_continuation": (np.hstack([T, z]), np.hstack([z, I])),
    }
    den, num = den_num[logit_type]
    return np.vstack([den, num])


@dataclass(frozen=True)
class MarginSet:
    """One margin: which variables are active, and where its interaction
    block sits inside eta."""

    z: tuple
    lo: int
    hi: int

    @property
    def order(self) -> int:
        return sum(self.z)


@dataclass
class LinkMatrices:
    """The (C, M) pair for one stratum plus the eta block layout."""

    dims: tuple
    logit_types: tuple
    C: np.ndarray
    M: np.ndarray
    blocks: list
    t: int

    @property
    def q(self) -> int:
        return len(self.dims)

    @property
    def r(self) -> int:
        return int(np.prod(self.dims))

    def block_for(self, z) -> MarginSet:
        z = tuple(z)
        for b in self.blocks:
            if b.z == z:
                return b
        raise LinkError(f"no margin block {z} for q = {self.q}")

    def rows_of(self, z) -> np.ndarray:
        b = self.block_for(z)
        return np.arange(b.lo, b.hi)


def link_for(dims, logit_types) -> LinkMatrices:
    """The link of variables with category counts `dims` and logit types
    `logit_types` (one per variable, or one string for all): C and M
    assembled over all margin sets."""
    dims = tuple(dims)
    if isinstance(logit_types, str):
        logit_types = [logit_types] * len(dims)
    if len(logit_types) != len(dims):
        raise LinkError("one logit type per variable required")
    if not dims:
        raise LinkError("need at least one variable")
    kinds = tuple(logit_types)
    # each variable's (aggregation, contrast) pair in a margin set it is
    # active in, and in one it is summed out of
    active = [(build_logit_block(m, kind), np.hstack([-np.eye(m - 1), np.eye(m - 1)]))
              for m, kind in zip(dims, kinds)]
    summed = [(np.ones((1, m)), np.ones((1, 1))) for m in dims]
    Cs, Ms, blocks = [], [], []
    lo = 0
    for z in margin_sets(len(dims)):
        C_z = np.ones((1, 1))
        M_z = np.ones((1, 1))
        for i, on in enumerate(z):
            M_i, C_i = active[i] if on else summed[i]
            C_z = np.kron(C_z, C_i)
            M_z = np.kron(M_z, M_i)
        Cs.append(C_z)
        Ms.append(M_z)
        blocks.append(MarginSet(z, lo, lo + C_z.shape[0]))
        lo += C_z.shape[0]
    M = np.vstack(Ms)
    C = np.zeros((lo, M.shape[0]))        # block diagonal: C_z acts on M_z's rows
    rm = 0
    for b, C_z in zip(blocks, Cs):
        C[b.lo:b.hi, rm:rm + C_z.shape[1]] = C_z
        rm += C_z.shape[1]
    return LinkMatrices(dims, kinds, C, M, blocks, lo)


# ---------------------------------------------------------------------------
# Log-sum-exp
# ---------------------------------------------------------------------------

def logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) over `axis` for real input, overflow-free.

    Does the same arithmetic as scipy.special.logsumexp (1.17, real input,
    no weights, no sign output), so results agree bit for bit: every tied
    maximum is taken out of the shifted sum and enters as log(m), and a
    result that comes out non-finite is replaced by the direct
    log(sum(exp(a))). That direct sum is formed only for the results that
    need it.
    """
    a = np.asarray(a)
    dtype = a.dtype
    if not np.issubdtype(dtype, np.floating):
        if np.issubdtype(dtype, np.complexfloating):
            raise TypeError("logsumexp takes real input only")
        dtype = np.float64
    a = np.atleast_1d(a.astype(dtype, copy=False))
    axis = tuple(range(a.ndim)) if axis is None else axis
    if a.size == 0:
        out = np.full(np.sum(a, axis=axis, keepdims=True).shape, -np.inf, dtype=dtype)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a_max = np.max(a, axis=axis, keepdims=True)
            top = a == a_max
            m = np.sum(top, axis=axis, keepdims=True, dtype=dtype)
            e = np.subtract(a, a_max)
            np.copyto(e, -np.inf, where=top)
            np.exp(e, out=e)
            s = np.sum(e, axis=axis, keepdims=True)
            np.divide(s, m, out=s, where=s != 0)
            # m is a count and s >= 0 or nan, so no sign can go negative
            out = np.log1p(s) + np.log(m) + a_max
            bad = ~np.isfinite(out)
            if bad.any():
                e = np.zeros(a.shape, dtype=dtype)
                np.exp(a, out=e, where=np.broadcast_to(bad, a.shape))
                out = np.where(bad, np.log(np.sum(e, axis=axis, keepdims=True)), out)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Forward map, batch evaluation, Jacobian
# ---------------------------------------------------------------------------

def _check_pi(pi, link, tol=1e-12):
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (link.r,):
        raise LinkError(f"pi has shape {pi.shape}, expected ({link.r},)")
    if np.any(pi <= 0) or not np.all(np.isfinite(pi)):
        raise LinkError("pi must be strictly positive and finite")
    if abs(pi.sum() - 1.0) > tol:
        raise LinkError(f"pi sums to {pi.sum()!r}, not 1 within {tol}")
    return pi


def eta_from_logpi(logpi, link: LinkMatrices) -> np.ndarray:
    """eta from log probabilities; exact per-row logsumexp, overflow-free."""
    logpi = np.asarray(logpi, dtype=float)
    logm = logsumexp(np.where(link.M != 0, logpi, -np.inf), axis=1)
    return link.C @ logm


def eta_from_pi(pi, link: LinkMatrices, sum_tol=1e-12) -> np.ndarray:
    pi = _check_pi(pi, link, sum_tol)
    return eta_from_logpi(np.log(pi), link)


def eta_batch(P: np.ndarray, link: LinkMatrices, rows=None) -> np.ndarray:
    """eta for a batch of probability vectors P of shape (N, r).

    Cells are floored at exp(LOG_FLOOR) so the log never produces -inf;
    draws affected by the floor carry negligible importance weight.
    Restricting to `rows` skips the margins no requested eta row needs.

    Draws are taken BLOCK_ROWS at a time and copied, floored, into a
    cells x draws table. For each margin set a requested row falls in, the
    table's inactive variables are summed out (_margin), the active
    variables' aggregates are logged and differenced (_margin_eta), and
    the block's rows are written to the result. Only elementwise ufuncs
    and slice adds, in an order fixed by the link, touch a draw's numbers.
    No BLAS product is used, since its rounding of a row varies with the
    product's shape and thread split, and no multi-axis or pairwise sum,
    whose order varies with the memory layout. So a draw's eta has the
    same bits in any batch, in any block, at any BLAS thread count.
    """
    n = P.shape[0]
    sel = np.arange(link.t) if rows is None else np.asarray(rows, dtype=np.intp)
    parts = []                  # (margin set, its rows wanted, their places in sel)
    for b in link.blocks:
        at = np.nonzero((sel >= b.lo) & (sel < b.hi))[0]
        if at.size:
            within = sel[at] - b.lo
            if np.array_equal(within, np.arange(b.hi - b.lo)):
                within = slice(None)
            if np.array_equal(at, np.arange(at[0], at[0] + at.size)):
                at = slice(at[0], at[0] + at.size)
            parts.append((b.z, within, at))
    floor = np.exp(LOG_FLOOR)
    joint = (1,) * link.q
    out = np.empty((n, sel.size))
    for i in range(0, n, BLOCK_ROWS):
        j = min(n, i + BLOCK_ROWS)
        X = np.empty((link.r, j - i))
        np.copyto(X, P[i:j].T)
        np.maximum(X, floor, out=X)
        margins = {joint: X.reshape(*link.dims, j - i)}
        res = np.empty((sel.size, j - i))
        for z, within, at in parts:
            eta = _margin_eta(_margin(margins, z), z, link.logit_types)
            res[at] = eta.reshape(-1, j - i)[within]
        out[i:j] = res.T
    return out


def _front(X, ax):
    """View of X with axis ax moved to the front."""
    return X.transpose(ax, *range(ax), *range(ax + 1, X.ndim))


def _margin(margins, z):
    """Margin table of set z, axes in variable order with draws last.

    Memoised in `margins` for one block; each margin is its parent's with
    the lowest inactive variable summed out by slice adds in category
    order, so its bits do not depend on which margins were asked for.
    """
    if z not in margins:
        v = z.index(0)
        parent = z[:v] + (1,) + z[v + 1:]
        cells = _front(_margin(margins, parent), sum(parent[:v]))
        acc = cells[0] + cells[1]
        for c in cells[2:]:
            acc += c
        margins[z] = acc
    return margins[z]


def _margin_eta(X, z, kinds):
    """eta block of margin set z from its margin table X: shape (m_i - 1
    for each active i, draws), first active variable slowest.

    Each active variable's distinct aggregates are stacked along its axis,
    denominators before numerators as in build_logit_block: local logits
    need the cells alone; global ones the cumulative and reverse-cumulative
    sums; continuation ones the cell and the reverse-cumulative sum;
    reverse-continuation ones the cumulative sum and the cell. Their logs
    are taken once and differenced, numerator minus denominator, one
    active axis after another.
    """
    active = [v for v in range(len(z)) if z[v]]
    cuts = []
    fresh = False
    for ax, v in enumerate(active):
        A, num_den = _aggregate(X, ax, kinds[v])
        fresh |= A is not X
        X = A
        cuts.append(num_den)
    L = np.log(X, out=X) if fresh else np.log(X)
    for ax, (num, den) in enumerate(cuts):
        L = np.subtract(L[(slice(None),) * ax + (num,)], L[(slice(None),) * ax + (den,)])
    return L


def _aggregate(X, ax, kind):
    """(aggregates, (numerator slice, denominator slice)) along axis ax."""
    cells = _front(X, ax)
    m = len(cells)
    if kind == "local" or m == 2:
        return X, (slice(1, m), slice(0, m - 1))
    A = np.empty(X.shape[:ax] + (2 * (m - 1),) + X.shape[ax + 1:])
    agg = _front(A, ax)
    den, num = agg[:m - 1], agg[m - 1:]
    if kind in ("global", "reverse_continuation"):
        np.copyto(den[0], cells[0])
        for k in range(1, m - 1):       # cells 0..k
            np.add(den[k - 1], cells[k], out=den[k])
    else:
        np.copyto(den, cells[:m - 1])
    if kind in ("global", "continuation"):
        np.copyto(num[-1], cells[-1])
        for k in range(m - 3, -1, -1):  # cells k+1..m-1
            np.add(num[k + 1], cells[k + 1], out=num[k])
    else:
        np.copyto(num, cells[1:])
    return A, (slice(m - 1, 2 * m - 2), slice(0, m - 1))


def eta_jacobian_from_logpi(logpi, link: LinkMatrices) -> np.ndarray:
    """d eta / d theta for the minimal parameterisation pi = softmax([0, theta]).

    Uses d eta/d lambda = C Q with Q[row, c] = pi_c / (M pi)_row on the row
    support; every C block row sums to zero so the softmax normalisation
    term drops out exactly.
    """
    logpi = np.asarray(logpi, dtype=float)
    logm = logsumexp(np.where(link.M != 0, logpi, -np.inf), axis=1)
    D = np.where(link.M != 0, logpi[None, :] - logm[:, None], -np.inf)
    J = link.C @ np.exp(D)       # in-support entries are <= 0, never overflow
    return J[:, 1:]
