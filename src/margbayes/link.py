"""Marginal link construction and evaluation.

Builds the contrast/marginalisation pair (C, M) that maps a joint
probability vector to its stacked marginal-interaction parameters

    eta = C log(M pi),

with one block per non-empty margin set, and the analytic Jacobian used
by the constrained fits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tables import LOGIT_TYPES, VariableSpec

# smallest log cell probability carried through batch evaluation; keeps
# exp() above the subnormal range so log(M pi) never hits -inf
LOG_FLOOR = -625.0

# eta_batch evaluates its rows in blocks whose matrix products each take at
# least this many multiply-adds. OpenBLAS on AVX-512 hosts hands products of
# up to 1e6 of them to small-matrix kernels that round differently, so with
# this floor a row's eta has the same bits whatever block it falls in, and
# the same as from one product over all rows.
BLOCK_WORK = 1 << 21


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
        raise LinkError(f"unknown logit type {logit_type!r}")
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
    _restricted_cache: dict = field(default_factory=dict, repr=False)

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

    def restricted(self, rows) -> tuple:
        """(C_sub, M_sub) touching only the given eta rows; cached.

        The check-then-insert is not atomic: an entry read from several
        threads at once must be filled first (engine.ModelEval does so).
        """
        key = tuple(int(i) for i in rows)
        if key not in self._restricted_cache:
            C_sub = self.C[list(key), :]
            needed = np.nonzero(np.any(C_sub != 0, axis=0))[0]
            self._restricted_cache[key] = (C_sub[:, needed], self.M[needed, :])
        return self._restricted_cache[key]


def build_link(variables) -> LinkMatrices:
    """Assemble C and M over all margin sets of the given variables."""
    variables = list(variables)
    if not variables:
        raise LinkError("need at least one variable")
    dims = tuple(v.m for v in variables)
    kinds = tuple(v.logit_type for v in variables)
    q = len(dims)
    Cs, Ms, blocks = [], [], []
    lo = 0
    for z in margin_sets(q):
        C_z = np.ones((1, 1))
        M_z = np.ones((1, 1))
        for i in range(q):
            if z[i]:
                m = dims[i]
                C_i = np.hstack([-np.eye(m - 1), np.eye(m - 1)])
                M_i = build_logit_block(m, kinds[i])
            else:
                C_i = np.ones((1, 1))
                M_i = np.ones((1, dims[i]))
            C_z = np.kron(C_z, C_i)
            M_z = np.kron(M_z, M_i)
        Cs.append(C_z)
        Ms.append(M_z)
        blocks.append(MarginSet(z, lo, lo + C_z.shape[0]))
        lo += C_z.shape[0]
    t = lo
    nm = sum(M.shape[0] for M in Ms)
    r = int(np.prod(dims))
    C = np.zeros((t, nm))
    M = np.zeros((nm, r))
    rc = rm = 0
    for C_z, M_z in zip(Cs, Ms):
        C[rc:rc + C_z.shape[0], rm:rm + M_z.shape[0]] = C_z
        M[rm:rm + M_z.shape[0], :] = M_z
        rc += C_z.shape[0]
        rm += M_z.shape[0]
    return LinkMatrices(dims, kinds, C, M, blocks, t)


def link_for(dims, logit_types) -> LinkMatrices:
    """Convenience constructor from dims and per-variable logit types."""
    if isinstance(logit_types, str):
        logit_types = [logit_types] * len(dims)
    if len(logit_types) != len(dims):
        raise LinkError("one logit type per variable required")
    return build_link(
        VariableSpec(f"A{i + 1}", m, lt) for i, (m, lt) in enumerate(zip(dims, logit_types))
    )


# ---------------------------------------------------------------------------
# Log-sum-exp
# ---------------------------------------------------------------------------

def logsumexp(a, axis=None, b=None, keepdims=False):
    """log(sum(b * exp(a))) over `axis` for real input, overflow-free.

    Does the same arithmetic as scipy.special.logsumexp (1.17, real input,
    no sign output), so results agree bit for bit: entries with b == 0
    are dropped, every tied maximum is taken out of the shifted sum and
    enters as log(m), and a result that comes out non-finite is replaced
    by the direct log(sum(b * exp(a))) over the unmasked input. That
    direct sum is formed only for the results that need it.
    """
    a = np.asarray(a)
    dtype = a.dtype if b is None else np.result_type(a, np.asarray(b))
    if not np.issubdtype(dtype, np.floating):
        if np.issubdtype(dtype, np.complexfloating):
            raise TypeError("logsumexp takes real input only")
        dtype = np.float64
    a = np.atleast_1d(a.astype(dtype, copy=False))
    if b is not None:
        a, b = np.broadcast_arrays(a, np.atleast_1d(np.asarray(b, dtype=dtype)))
    axis = tuple(range(a.ndim)) if axis is None else axis
    if a.size == 0:
        out = np.full(np.sum(a, axis=axis, keepdims=True).shape, -np.inf, dtype=dtype)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _logsumexp_shifted(a, b, axis, dtype)
            bad = ~np.isfinite(out)
            if bad.any():
                sel = np.broadcast_to(bad, a.shape)
                e = np.zeros(a.shape, dtype=dtype)
                np.exp(a, out=e, where=sel)
                if b is not None:
                    np.multiply(b, e, out=e, where=sel)
                out = np.where(bad, np.log(np.sum(e, axis=axis, keepdims=True)), out)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _logsumexp_shifted(a, b, axis, dtype):
    """Max-shifted log-sum-exp, keepdims shape; may be non-finite."""
    if b is not None:
        a = np.where(b == 0, -np.inf, a)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.sum(top if b is None else b * top, axis=axis, keepdims=True, dtype=dtype)
    e = np.subtract(a, a_max)
    np.copyto(e, -np.inf, where=top)
    np.exp(e, out=e)
    if b is not None:
        np.multiply(b, e, out=e)
    s = np.sum(e, axis=axis, keepdims=True)
    np.divide(s, m, out=s, where=s != 0)
    if b is None:
        # m is a count and s >= 0 or nan, so no sign can go negative
        return np.log1p(s) + np.log(m) + a_max
    sgn = np.sign(s + 1) * np.sign(m)
    s = np.where(s < -1, -s - 2, s)
    out = np.log1p(s) + np.log(np.abs(m)) + a_max
    out[sgn < 0] = np.nan
    return out


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
    logm = logsumexp(np.broadcast_to(logpi, link.M.shape), b=link.M, axis=1)
    return link.C @ logm


def eta_from_pi(pi, link: LinkMatrices, sum_tol=1e-12) -> np.ndarray:
    pi = _check_pi(pi, link, sum_tol)
    return eta_from_logpi(np.log(pi), link)


def eta_batch(P: np.ndarray, link: LinkMatrices, rows=None) -> np.ndarray:
    """eta for a batch of probability vectors P of shape (N, r).

    Cells are floored at exp(LOG_FLOOR) so the log never produces -inf;
    draws affected by the floor carry negligible importance weight.
    Restricting to `rows` skips the eta coordinates no constraint reads.
    Rows are taken in equal blocks of at least BLOCK_WORK / (M rows x
    min(r, eta rows)) rows, so the (block, M rows) product is the only
    large temporary besides the result. P is copied for the floor only
    when some cell is below it; the engine's sampler floors its draws.
    """
    C_sub, M_sub = (link.C, link.M) if rows is None else link.restricted(rows)
    floor = np.exp(LOG_FLOOR)
    if P.size and P.min() < floor:
        P = np.maximum(P, floor)
    n = P.shape[0]
    m, t = M_sub.shape[0], C_sub.shape[0]
    n_blocks = max(1, n * m * min(P.shape[1], t) // BLOCK_WORK)
    out = np.empty((n, t))
    for k in range(n_blocks):
        i, j = k * n // n_blocks, (k + 1) * n // n_blocks
        x = P[i:j] @ M_sub.T
        np.matmul(np.log(x, out=x), C_sub.T, out=out[i:j])
    return out


def eta_jacobian_from_logpi(logpi, link: LinkMatrices) -> np.ndarray:
    """d eta / d theta for the minimal parameterisation pi = softmax([0, theta]).

    Uses d eta/d lambda = C Q with Q[row, c] = pi_c / (M pi)_row on the row
    support; every C block row sums to zero so the softmax normalisation
    term drops out exactly.
    """
    logpi = np.asarray(logpi, dtype=float)
    logm = logsumexp(np.broadcast_to(logpi, link.M.shape), b=link.M, axis=1)
    D = np.where(link.M != 0, logpi[None, :] - logm[:, None], -np.inf)
    J = link.C @ np.exp(D)       # in-support entries are <= 0, never overflow
    return J[:, 1:]
