"""Encompassing-prior Monte Carlo engine.

Estimates constraint-satisfaction proportions under the encompassing
Dirichlet prior and posterior and assembles Bayes factors as
posterior-over-prior proportion ratios. bayes_factor is the one route:
a model with about-equality rows runs the geometric epsilon-shrinking
chain, and an inequality-only model is that chain's first level.

Each side of each unit takes one of four routes. The first is picked by
the model, before any pilot; the others by the side's pilot:
    limit       the model has equality rows, no inequality rows, and
                every row is linear in the log-gammas y = log G of the
                Dirichlet, with any coefficients (_rows_in_y): the
                epsilon -> 0 limit of the chain, a Savage-Dickey density
                ratio, by importance sampling on the null space of the
                rows (_limit_run); the model's tolerances and schedule go
                unread
    direct      the pilot accepts at least _DIRECT_THRESHOLD: count the
                accepted draws of the side's own Dirichlet
    split       otherwise, when the model has no equality rows and every
                inequality row is a +-1 combination of y (_linear_rows):
                subset simulation on y, with exact colored moves
                (_split_run)
    importance  otherwise: a Dirichlet tuned on the region, centred at a
                constrained fit, with importance weights

All weight arithmetic is in log space; draws are generated per stratum
from log-gamma variates (small shapes boosted) so tiny cell probabilities
never underflow into NaNs.

Every random stream is substream(seed, *path), a SeedSequence spawn key
under the master seed, so every estimate is reproducible bit for bit and
no two uses share a stream. A part of bayes_factor draws from paths of
side, purpose, unit path (the stratum (b,) of a split model, else ()),
then the purpose's own indices:
    (side, "limit", *unit)                        a limit run's t draws
    (side, "pilot", *unit)                        the routing pilot
    (side, "main", *unit)                         a direct sample
    (side, "main", *unit, draw_key)               a tuned sample
    (side, "tune", *unit, draw_key, rung, probe)  a tuning probe
    (side, "split", *unit)                        a split run: its first
                                                  draws, then each level's
                                                  resampling and moves
where draw_key counts the part's redraws and rung indexes the margin
ladder. sample_prior draws from ("prior",), posterior_draws_under_model
each unit from ("prior", "summary", *unit). Replicate i of replicate_bf
runs at a seed generated from the spawn key ("replicate", i).

The pilot draws _BLOCK rows a step (fewer if _CHUNK is smaller) and stops
once all its draws would fix its route or a sequential bound rules a
route out, wrongly at odds of at most _PILOT_ERROR a step: a rare side's
pilot stops after one step. On a one-stratum unit whose shapes are all
>= 1 a step holds the rows that a chunk of the whole pilot held. On other
units (several strata, or a shape below 1) the rows depend on the step
size; a route can then differ from a whole-chunk pilot's only where the
pilot's acceptance sits near _DIRECT_THRESHOLD.

Every Dirichlet sampling loop takes its draws from _chunks, the one
chunked draw loop; a limit run draws its t variates _CHUNK at a time. A
model that factorises over strata is estimated per stratum, as _units
splits it.

Independent units of work run concurrently through _ordered_map, one
level of fan-out at a time on up to _THREADS threads: the parts (sides
times stratum units) of every replicate of replicate_bf in one map, then
its replicates, each walking its levels, where the parts are re-checked;
the units of posterior_draws_under_model and the strata of one unit. A
map inside an item of a threaded map is a plain loop on that item's
thread, and a one-item map leaves the threads to the maps inside it, so
one replicate's levels and a one-unit posterior's strata still fan out.
Each unit draws from its own substream and results are combined in input
order, so every estimate is the same bits whatever the thread count.
Once a unit fails no further unit starts, the running ones run to their
end, and the failure of the lowest failing unit is raised.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import Future
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field, asdict, replace
from functools import partial

import numpy as np

from . import fit as fitmod
from .hypotheses import ModelSpec
from .link import LOG_FLOOR, eta_batch, logsumexp
from .tables import StratifiedTable

LN10 = np.log(10.0)

# Threads that may do margbayes work at once: the cores this process may
# run on. Numpy's gamma sampler, ufuncs and BLAS release the GIL.
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)

# Rows per block when the Dirichlet sampler draws and normalises, so the
# temporaries stay small whatever the chunk size. Row sums and elementwise
# maps do the same arithmetic on a row whatever block holds it.
_BLOCK = 4096

# Rows per sampling-loop step (_chunks): the draws a loop holds at once.
_CHUNK = 32768
# Accepted draws the posterior summaries keep, the first ones in draw order.
_KEEP_CAP = 200_000

# The routing and tuning policy, fixed: the paper fixes the estimator by
# the prior and the number of draws, not by how a side is routed or its
# importance density tuned. A side whose pilot accepts at least
# _DIRECT_THRESHOLD of its draws samples its target directly; the pilot
# stops once a sequential bound rules a route out at _PILOT_ERROR a step.
# A level with less ESS than _ESS_FLOOR is warned about, and a chain part
# under it is retuned. The tuner probes the multipliers of
# DEFAULT_ALPHA_GRID; a probe qualifies when it accepts at least
# _TUNE_ACCEPT_MIN of its draws, and when no grid probe does, the
# multiplier grows from the grid's top by _TUNE_EXTEND_FACTOR, up to the
# cap. Each is read at call time.
_DIRECT_THRESHOLD = 0.05
_PILOT_ERROR = 1e-12
_ESS_FLOOR = 50.0
DEFAULT_ALPHA_GRID = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0)
_TUNE_ACCEPT_MIN = 0.01
_TUNE_EXTEND_FACTOR = 4.0
_TUNE_EXTEND_MAX_MULTIPLIER = 1e7
_MAX_RETUNES = 8                 # redraws a chain part may make
# Interior margins of each side's centring fits, rung by rung. Rung j tunes
# on stream index j: the prior's second 1.0 repeats its first rung and is
# skipped, but keeps its index, so rung 2.0 draws from index 3 on both sides.
_MARGIN_LADDERS = {"prior": (1.0, 0.25, 1.0, 2.0), "posterior": (0.0, 0.25, 1.0, 2.0)}


class EngineError(RuntimeError):
    pass


class TuningError(EngineError):
    """No grid concentration produced draws satisfying the constraints."""


class UnboundedEstimateError(EngineError):
    """A proportion estimate collapsed to zero with zero ESS."""

    def __init__(self, side: str, msg: str = ""):
        super().__init__(msg or f"{side}-side proportion estimate is zero with zero ESS; "
                         "the Bayes factor is unbounded on this run")
        self.side = side


# ---------------------------------------------------------------------------
# Specs and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorSpec:
    """Per-stratum Dirichlet concentrations of the encompassing prior."""

    concentration: np.ndarray    # (s, r), all entries > 0

    def __post_init__(self):
        conc = np.atleast_2d(np.asarray(self.concentration, dtype=float))
        if np.any(conc <= 0) or not np.all(np.isfinite(conc)):
            raise EngineError("prior concentrations must be positive and finite")
        object.__setattr__(self, "concentration", conc)

    @classmethod
    def flat(cls, r: int, s: int = 1, kappa: float = 1.0) -> "PriorSpec":
        return cls(np.full((s, r), float(kappa)))

    def posterior(self, table: StratifiedTable) -> np.ndarray:
        counts = table.counts_matrix()
        if counts.shape != self.concentration.shape:
            raise EngineError(
                f"prior shape {self.concentration.shape} != table shape {counts.shape}"
            )
        return self.concentration + counts


@dataclass
class ProportionEstimate:
    """A constraint-satisfaction proportion over n draws. Its standard
    error is value * sqrt(1/ess - 1/n): the binomial one for a direct
    estimate, whose ESS is its accepted count."""

    value: float
    log_value: float             # natural log, survives underflow
    ess: float
    accepted: int


@dataclass
class EpsilonSchedule:
    """Geometric shrinking of the about-equality tolerances.

    Levels n = 1, 2, ... use eps_1 * b^(n-1); max_stages bounds the number
    of levels, so max_stages = 1 reproduces the fixed-epsilon estimate.
    stop_tol applies to |log10 stage factor|.
    """

    epsilon_start: float = 0.1
    b: float = 0.5
    stop_tol: float = 0.05
    max_stages: int = 12

    def __post_init__(self):
        if not (0 < self.b < 1):
            raise EngineError(f"shrink factor b must be in (0,1), got {self.b}")
        if np.ndim(self.epsilon_start):
            raise EngineError("epsilon_start must be a single number")
        if not (np.isfinite(self.epsilon_start) and self.epsilon_start > 0):
            raise EngineError(f"epsilon_start must be finite and positive, "
                              f"got {self.epsilon_start!r}")
        if not (np.isfinite(self.stop_tol) and self.stop_tol >= 0):
            raise EngineError(f"stop_tol must be finite and >= 0, got {self.stop_tol!r}")
        if self.max_stages < 1:
            raise EngineError("need at least one stage")


# bases a log Bayes factor may be printed in
LOG_BASES = ("10", "e")


@dataclass(frozen=True)
class RunSettings:
    """Run sizes of a Bayes factor and the base it is printed in, each
    checked against its range here: the fields of a run manifest's
    "settings" object. The routing threshold, the tuner's grid, the ESS
    floor and the loop sizes are engine constants (_DIRECT_THRESHOLD,
    DEFAULT_ALPHA_GRID, _ESS_FLOOR, _CHUNK), not settings.

    n_draws   whole number >= 1: draws per side and unit of a direct or
              tuned sample, and per redraw; a limit side draws n_draws
              t variates and runs no pilot; a split side runs
              _SPLIT_PARTICLES particles whatever it is
    pilot_n   whole number >= 1: routing pilot size per side and unit; the
              pilot stops drawing once the route is fixed, so it draws at
              most this many; a tuning probe takes max(4000, pilot_n // 4)
    log_base  "10" or "e": base of the printed log Bayes factors
    """

    n_draws: int = 1_000_000
    pilot_n: int = 100_000
    log_base: str = "10"

    def __post_init__(self):
        for name in ("n_draws", "pilot_n"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a whole number >= 1, got {v!r}")
        if self.log_base not in LOG_BASES:
            raise ValueError(f"log_base must be one of {', '.join(LOG_BASES)}, "
                             f"got {self.log_base!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BFEstimate:
    log10_bf: float
    ln_bf: float
    replicates: list                 # per-replicate log10 values
    mean: float                      # mean of replicates (log10)
    sd: float
    route: str                       # "<prior route>/<posterior route>", e.g. "split/direct"
    components: dict
    settings: dict

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Seeding and sampling
# ---------------------------------------------------------------------------

_SIDES = {"prior": 0, "posterior": 1}
_PURPOSE = {"pilot": 0, "main": 1, "tune": 2, "replicate": 3, "split": 4, "summary": 5,
            "limit": 6}


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator for a (seed, path) pair; path entries are
    small ints or the registered side/purpose names."""
    key = tuple(_SIDES.get(p, _PURPOSE.get(p, p)) if isinstance(p, str) else int(p)
                for p in path)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


# True while a threaded map's worker runs items, so a map inside them runs
# inline on the item's thread.
_IN_FAN: ContextVar[bool] = ContextVar("margbayes_in_fan", default=False)


def _ordered_map(fn, items) -> list:
    """[fn(x) for x in items], run on up to _THREADS threads.

    One level of fan-out: a map called inside an item of a threaded map,
    or one with no second thread to use (a single item, or _THREADS 1,
    read at call time), is that plain loop on the calling thread. Any
    other map starts min(_THREADS, len(items)) - 1 threads and works on
    the calling thread too, rather than waiting: each extra thread costs a
    malloc arena that keeps about one item's working set. So a one-item
    map leaves the fan-out to the maps inside it.

    Each worker takes the next unstarted index from a shared counter and
    runs in a copy of the caller's context, so it sees the caller's
    ContextVar values (the centring memo among them). Results land in
    input order whatever the thread count. Once an item fails no further
    item starts, and the items already running run to their end; once
    every thread has joined, the exception of the lowest failing index is
    re-raised: the one a plain loop would raise, since every item before
    it had started.
    """
    items = list(items)
    n_new = min(_THREADS, len(items)) - 1
    if n_new < 1 or _IN_FAN.get():
        return [fn(x) for x in items]
    out = [None] * len(items)
    errors = []                          # (index, exception)
    lock = threading.Lock()
    next_i = 0

    def work():
        nonlocal next_i
        _IN_FAN.set(True)                # in this worker's own context copy
        while True:
            with lock:
                i = next_i
                if errors or i >= len(items):
                    return
                next_i += 1
            try:
                out[i] = fn(items[i])
            except BaseException as err:
                with lock:
                    errors.append((i, err))
                return

    threads = []
    try:
        for k in range(n_new):
            t = threading.Thread(target=copy_context().run, args=(work,),
                                 name=f"margbayes-worker-{k}")
            t.start()
            threads.append(t)
        copy_context().run(work)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return out


def _dirichlet_chunk(rng: np.random.Generator, alpha: np.ndarray, n: int,
                     normalise: bool = True) -> np.ndarray:
    """(n, s, r) Dirichlet draws, sampled via log-gammas.

    Shapes below 1 use the boost G_a = G_{a+1} U^{1/a} evaluated in log
    space, then cells are floored at exp(LOG_FLOOR); the floor only touches
    draws whose importance weight is already negligible.

    Per stratum, the gammas are drawn _BLOCK rows at a time and all before
    any uniform, as one (n, r) draw would take them from the stream; their
    logs go straight into `out`, where the boost and the normalisation then
    work _BLOCK rows at a time.

    With normalise=False and every shape >= 1, the draws are the gammas
    themselves, floored at 1e-300 and not normalised: each row is its
    normalised draw times a positive factor per stratum, for callers that
    read only which draws a constraint check accepts. The stream is
    consumed as in the normalised call. Where any shape is below 1 (the
    boost needs log space) or a stratum's shapes sum past 1e300 (a row sum
    could overflow), the draws come normalised whatever the flag.
    """
    s, r = alpha.shape
    out = np.empty((n, s, r))
    raw = not normalise and alpha.min() >= 1.0 and alpha.sum(axis=1).max() < 1e300
    for b in range(s):
        a = alpha[b]
        small = a < 1.0
        shape = np.where(small, a + 1.0, a)
        dst = out[:, b, :]
        for i in range(0, n, _BLOCK):
            g = rng.standard_gamma(shape, size=(min(_BLOCK, n - i), r))
            if raw:
                np.maximum(g, 1e-300, out=dst[i:i + _BLOCK])
            else:
                np.log(np.maximum(g, 1e-300, out=g), out=dst[i:i + _BLOCK])
        if raw:
            continue
        for i in range(0, n, _BLOCK):
            blk = dst[i:i + _BLOCK]
            if np.any(small):
                u = rng.random((blk.shape[0], r))
                blk[:, small] += np.log(u[:, small]) / a[small]
            blk -= logsumexp(blk, axis=1, keepdims=True)
            np.exp(np.maximum(blk, LOG_FLOOR, out=blk), out=blk)
    return out


def _chunks(rng: np.random.Generator, alpha: np.ndarray, n: int, chunk: int,
            normalise: bool = True):
    """Yield (offset, draws) over n Dirichlet draws, at most `chunk` at a
    time, normalised or not as _dirichlet_chunk takes the flag.

    The one place that counts draws. The generator does not keep a chunk
    it has yielded, so a consumer that deletes each chunk before asking
    for the next never holds two.
    """
    done = 0
    while done < n:
        b = min(chunk, n - done)
        yield done, _dirichlet_chunk(rng, alpha, b, normalise)
        done += b


def sample_prior(prior: PriorSpec, n: int, seed: int) -> np.ndarray:
    """(n, s, r) i.i.d. draws from the per-stratum encompassing prior."""
    if n < 1:
        raise EngineError("need n >= 1 draws")
    return _dirichlet_chunk(substream(seed, "prior"), prior.concentration, n)


def sample_posterior(prior: PriorSpec, table: StratifiedTable, n: int, seed: int) -> np.ndarray:
    """(n, s, r) draws from D(concentration + y) per stratum."""
    return sample_prior(PriorSpec(prior.posterior(table)), n, seed)


def _log_weight(target_alpha: np.ndarray, params: np.ndarray):
    """log p/g as a function of draws (n, s, r), for the Dirichlet target p
    and proposal g with concentrations target_alpha and params. Per stratum
    b, logpdf(P) = (a_b - 1) . log P_b + lgamma(sum a_b) - sum_i lgamma(a_bi)."""
    def log_norm(alpha):
        return float(np.array([math.lgamma(a.sum()) - np.array([math.lgamma(x) for x in a]).sum()
                               for a in alpha]).sum())
    dcoef = (target_alpha - 1.0) - (params - 1.0)
    dconst = log_norm(target_alpha) - log_norm(params)
    return lambda P: np.einsum("nsr,sr->n", np.log(P), dcoef) + dconst


# ---------------------------------------------------------------------------
# Model evaluation on draw batches
# ---------------------------------------------------------------------------

class ModelEval:
    """Precomputed reduced constraint system for fast batch evaluation."""

    def __init__(self, model: ModelSpec, dims, s: int):
        self.model = model
        self.dims = tuple(dims)
        self.link = model.link(dims)
        self.s = s
        t = self.link.t
        cs = model.constraints
        if cs.ncols != s * t:
            raise EngineError(
                f"model {model.name!r}: constraints cover {cs.ncols} eta coordinates, "
                f"expected {s * t}"
            )
        active = cs.active_eta_rows()
        self.local_rows = np.unique(active % t) if active.size else np.zeros(0, dtype=int)
        cols = (self.local_rows + t * np.arange(s)[:, None]).ravel()     # stratum by stratum
        self.E = cs.E[:, cols]
        self.U = cs.U[:, cols]
        self.epsilon = cs.epsilon
        self.cs = cs

    def stratum_split(self):
        """Per-stratum sub-evaluators when every constraint row touches one
        stratum only, a model with no rows included (no row couples its
        strata); None when rows couple strata (or s == 1).

        With independent per-stratum Dirichlet draws the satisfaction
        proportion then factorises exactly over strata, and so does the
        posterior under the model.
        """
        sets = None if self.s == 1 else self.cs.per_stratum(self.s)
        if sets is None:
            return None
        return [ModelEval(replace(self.model, name=f"{self.model.name}@s{b}", constraints=cs),
                          self.dims, 1) for b, cs in enumerate(sets)]

    def eta_reduced(self, P: np.ndarray) -> np.ndarray:
        if self.local_rows.size == 0:
            return np.zeros((P.shape[0], 0))
        parts = [eta_batch(P[:, b, :], self.link, rows=self.local_rows)
                 for b in range(self.s)]
        return np.concatenate(parts, axis=1)

    def delta(self, P: np.ndarray) -> np.ndarray:
        """Per draw (n, s, r), whether it satisfies every constraint.

        Every eta row is a log ratio of sums of one stratum's cells, so a
        draw may come scaled by any positive factor per stratum (the
        unnormalised draws of _dirichlet_chunk) and is accepted alike, up
        to rounding in the last bits of eta. The same holds for
        eq_stat_and_ineq.
        """
        eta = self.eta_reduced(P)
        ok = np.ones(P.shape[0], dtype=bool)
        if self.E.shape[0]:
            dev = eta @ self.E.T
            ok &= np.all(np.abs(dev, out=dev) <= self.epsilon, axis=1)
        if self.U.shape[0]:
            ok &= np.all(eta @ self.U.T >= 0, axis=1)
        return ok

    def eq_stat_and_ineq(self, P: np.ndarray):
        """(max_j |E_j eta| / eps_j, U eta >= 0 flag) per draw.

        delta at tolerance scale c is (stat <= c) & ineq_ok, so one sample
        can be reweighted across a whole epsilon schedule.
        """
        eta = self.eta_reduced(P)
        if self.E.shape[0]:
            dev = eta @ self.E.T
            stat = np.max(np.divide(np.abs(dev, out=dev), self.epsilon, out=dev), axis=1)
        else:
            stat = np.zeros(P.shape[0])
        return stat, np.all(eta @ self.U.T >= 0, axis=1)


# ---------------------------------------------------------------------------
# Proportion estimators
# ---------------------------------------------------------------------------

def _direct_result(acc: int, n: int) -> ProportionEstimate:
    """The direct estimate from acc accepted draws out of n."""
    p = acc / n
    return ProportionEstimate(value=p, log_value=float(np.log(p)) if p > 0 else -np.inf,
                              ess=float(acc), accepted=acc)


def _log_mean_and_ess(logw: np.ndarray, n: int):
    """(ln of the mean weight over n draws, ESS) from the log-weights of
    the accepted ones; (-inf, 0) when none was accepted."""
    if not logw.size:
        return -np.inf, 0.0
    l1 = logsumexp(logw)
    l2 = logsumexp(2.0 * logw)
    return float(l1 - np.log(n)), float(np.exp(2.0 * l1 - l2))


def estimate_proportion_direct(draws: np.ndarray, ev: ModelEval) -> ProportionEstimate:
    """Acceptance fraction of delta over explicit draws (n, s, r)."""
    if draws.ndim != 3 or draws.shape[0] < 1:
        raise EngineError("draws must be a non-empty (n, s, r) array")
    return _direct_result(int(ev.delta(draws).sum()), draws.shape[0])


def _bernoulli_kl(p: float, q: float) -> float:
    """KL(p || q) between Bernoulli laws, in nats, with 0 ln 0 = 0."""
    return sum(a * math.log(a / b) for a, b in ((p, q), (1.0 - p, 1.0 - q)) if a > 0)


def _pilot_routes_direct(ev: ModelEval, alpha: np.ndarray, n: int, threshold: float,
                         rng) -> bool:
    """Whether the Dirichlet with concentrations alpha puts at least
    `threshold` on ev's region, judged on at most n draws: a _Part's pilot.

    The draws come min(_CHUNK, _BLOCK) at a time, unnormalised where every
    shape is >= 1. With acc of m draws accepted, the pilot stops once all
    n would fix the answer (acc >= threshold * n, or acc + draws left <
    threshold * n) and gives it, or, for 0 < threshold < 1, once
    m * KL(acc/m || threshold) >= ln(1/_PILOT_ERROR) (Wald's sequential
    test) and answers acc/m >= threshold: by Chernoff's bound and a union
    bound over steps, wrongly with probability at most (n / step) *
    _PILOT_ERROR. Nothing is drawn when the answer is fixed before any
    draw (threshold 0, or above 1).
    """
    acc, m, bound = 0, 0, math.log(1.0 / _PILOT_ERROR)
    draws = _chunks(rng, alpha, n, min(_CHUNK, _BLOCK), normalise=False)
    while acc / n < threshold <= (acc + n - m) / n:
        _, P = next(draws)
        acc += int(ev.delta(P).sum())
        m += P.shape[0]
        del P                   # not held while the next block is drawn
        if 0 < threshold < 1 and m * _bernoulli_kl(acc / m, threshold) >= bound:
            return acc / m >= threshold
    return acc / n >= threshold


def _importance_stream(ev: ModelEval, target_alpha: np.ndarray, params: np.ndarray,
                       n: int, rng) -> ProportionEstimate:
    """mean of delta * p/g over n draws from the Dirichlet g with
    concentrations params, all in log space."""
    weight = _log_weight(target_alpha, params)
    logws = []
    for _, P in _chunks(rng, params, n, _CHUNK):
        logws.append(weight(P[ev.delta(P)]))
        del P                   # not held while the next chunk is drawn
    logw = np.concatenate(logws)
    log_value, ess = _log_mean_and_ess(logw, n)
    return ProportionEstimate(value=float(np.exp(log_value)), log_value=log_value, ess=ess,
                              accepted=logw.size)


# ---------------------------------------------------------------------------
# Importance density tuning
# ---------------------------------------------------------------------------

def make_density(center: np.ndarray, target_alpha: np.ndarray,
                 multiplier: float) -> np.ndarray:
    """(s, r) concentrations of the Dirichlet proposal centred at center:
    each stratum's target concentration, scaled by multiplier."""
    conc = target_alpha.sum(axis=1)              # per-stratum target concentration
    params = multiplier * conc[:, None] * center
    if np.any(params <= 0):
        raise EngineError("importance density parameters must be strictly positive")
    return params


def tune_alpha(ev: ModelEval, target_alpha: np.ndarray, center: np.ndarray,
               settings: RunSettings, seed: int, path=("tune",), grid=None):
    """Pick the concentration multiplier with the best pilot ESS subject to
    an acceptance floor; extend the grid geometrically above its top when
    nothing on it reaches the floor.

    The grid is DEFAULT_ALPHA_GRID unless given. Returns (proposal
    concentrations, diagnostics); diagnostics["chosen"] is the multiplier
    picked. Raises TuningError when no concentration, extended included,
    yields a single accepted draw.

    The probes run one after another on the calling thread, in grid order
    and then along the extension; probe idx, counted that way, draws from
    its own stream substream(seed, *path, idx).
    """
    grid = list(grid if grid is not None else DEFAULT_ALPHA_GRID)
    probe_n = max(4000, settings.pilot_n // 4)
    results, qualifying = [], []

    def probe(mult) -> bool:
        """Draw and record the probe at mult; True if it qualifies."""
        est = _importance_stream(ev, target_alpha, make_density(center, target_alpha, mult),
                                 probe_n, substream(seed, *path, len(results)))
        results.append({"multiplier": float(mult), "acceptance": est.accepted / probe_n,
                        "ess": est.ess, "log_value": est.log_value})
        if est.accepted / probe_n < _TUNE_ACCEPT_MIN:
            return False
        qualifying.append((est.ess, mult))
        return True

    for mult in grid:
        probe(mult)
    if not qualifying:
        mult = max(grid)
        extra_hits = 0
        while mult < _TUNE_EXTEND_MAX_MULTIPLIER:
            mult *= _TUNE_EXTEND_FACTOR
            if probe(mult):
                extra_hits += 1
                if extra_hits >= 3:
                    break
            elif extra_hits:
                break
    if not qualifying:
        # fall back to the best raw acceptance if anything accepted at all
        best = max(results, key=lambda r: (r["acceptance"], r["ess"]))
        if best["acceptance"] > 0:
            return make_density(center, target_alpha, best["multiplier"]), {
                "grid": results, "chosen": best["multiplier"],
                "fallback": "max-acceptance", "ess": best["ess"]}
        raise TuningError(
            "no pilot draw satisfied the constraints at any tuned concentration; "
            "increase pilot_n or improve the centring point"
        )
    ess_best = max(q[0] for q in qualifying)
    if ess_best >= 10.0 * _ESS_FLOOR:
        ess_pick, mult_best = max(qualifying, key=lambda q: q[0])
    else:
        # degenerate regime: pilot ESS is too noisy to rank concentrations,
        # and wider proposals cover the unconstrained directions better, so
        # take the smallest concentration within a factor 3 of the best
        near_best = [q for q in qualifying if q[0] >= ess_best / 3.0]
        ess_pick, mult_best = min(near_best, key=lambda q: q[1])
    return make_density(center, target_alpha, mult_best), {
        "grid": results, "chosen": float(mult_best), "fallback": None, "ess": float(ess_pick)}


# ---------------------------------------------------------------------------
# Centring
# ---------------------------------------------------------------------------

def _centring_model(model: ModelSpec, side: str) -> ModelSpec:
    """Tolerance used by the centring fit for about-equality rows.

    The prior density is flat across the tube, so its centre belongs on the
    manifold (1% of the tolerance). The posterior is exponentially tilted
    across the tube whenever the data disagree with the constraint, so its
    centre is the constrained optimum pulled 30% inside the tube face;
    sitting exactly on the boundary would halve the acceptance per active
    row, sitting on the manifold would put the proposal where the
    posterior density is lowest and blow up the weight spread.
    """
    frac = 0.01 if side == "prior" else 0.7
    return replace(model, constraints=model.constraints.scaled_epsilon(frac))


class _CentreMemo:
    """Centring fits solved in one replicate_bf call, by _centre_key.

    Each key is fitted once even when concurrent replicates, chain parts or
    strata miss it together: the first caller stores an unfinished Future
    under the key and fits, and later callers wait on that Future. A
    failed fit hands its exception to every waiter and leaves the key
    empty, so a caller that comes after the failure fits again.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._fits = {}

    def get(self, key, fit):
        with self._lock:
            fut = self._fits.get(key)
            owner = fut is None
            if owner:
                fut = self._fits[key] = Future()
        if owner:
            try:
                fut.set_result(fit())
            except BaseException as err:
                with self._lock:
                    del self._fits[key]
                fut.set_exception(err)
        return fut.result()


# The memo of the running replicate_bf call; None outside such a call, so
# no fit outlives it.
_CENTRES: ContextVar[_CentreMemo | None] = ContextVar("margbayes_centres", default=None)


def _centre_key(side: str, fit_model: ModelSpec, table: StratifiedTable,
                margin: float) -> tuple:
    """Everything the centring fit reads. The interior margin enters the
    fit only through the inequality rows."""
    cs = fit_model.constraints
    key = [side, tuple(fit_model.logit_types), tuple(table.dims), table.s]
    arrays = [cs.E, cs.U, cs.epsilon]
    if side == "posterior":
        arrays.append(table.counts_matrix())
    for arr in arrays:
        key += [arr.shape, arr.tobytes()]
    if cs.n_ineq:
        key.append(margin)
    return tuple(key)


def _centre(side: str, model: ModelSpec, table: StratifiedTable, margin: float):
    """Importance-density centre per the side: the flat-likelihood interior
    point for the prior, the constrained MLE for the posterior. Inside a
    replicate_bf call a problem already solved there is not fitted again."""
    fit_model = _centring_model(model, side)

    def fit():
        if side == "prior":
            res = fitmod.prior_center(fit_model, table.dims, table.s, interior_margin=margin)
        else:
            res = fitmod.constrained_mle(table, fit_model, interior_margin=margin)
        res.pi_hat.flags.writeable = False      # may be handed out again from the memo
        return res.pi_hat

    memo = _CENTRES.get()
    if memo is None:
        return fit()
    return memo.get(_centre_key(side, fit_model, table, margin), fit)


def _max_slack(G: np.ndarray, h: np.ndarray, tol: float = 1e-12) -> float:
    """max s over (x, s), x free, subject to G x + s <= h and s <= 1.

    A dense tableau simplex with Bland's rule, which cannot cycle: x is
    split into its positive and negative parts and s = s0 + sigma with
    s0 = min(h, 1), so the slack basis at x = 0, sigma = 0 is feasible.
    Returns inf, which reads as slack, if the pivots do not settle.
    """
    m, n = G.shape
    s0 = min(float(np.min(h, initial=1.0)), 1.0)
    width = 2 * n + 1                            # x+, x-, sigma
    T = np.zeros((m + 2, width + m + 2))
    T[:m, :n], T[:m, n:2 * n] = G, -G
    T[:m + 1, 2 * n] = 1.0                       # the last constraint row is sigma <= 1 - s0
    T[:m + 1, width:width + m + 1] = np.eye(m + 1)
    T[:m, -1], T[m, -1] = h - s0, 1.0 - s0
    T[-1, 2 * n] = -1.0                          # maximise sigma
    basis = list(range(width, width + m + 1))
    for _ in range(50 * (m + n + 2)):
        entering = np.flatnonzero(T[-1, :-1] < -tol)
        if not entering.size:
            return s0 + T[-1, -1]
        j = entering[0]
        rows = np.flatnonzero(T[:-1, j] > tol)
        if not rows.size:
            return np.inf
        ratios = T[rows, -1] / T[rows, j]
        i = min(rows[ratios <= ratios.min() + tol], key=basis.__getitem__)
        T[i] /= T[i, j]
        pivot_row = T[i].copy()
        T -= np.outer(T[:, j], pivot_row)
        T[i] = pivot_row
        basis[i] = j
    return np.inf


def _has_interior(side: str, model: ModelSpec, margin: float) -> bool:
    """Whether the side's centring problem at this interior margin has an
    interior point: one LP over (eta, s) maximises the slack s subject to
    U eta - s >= margin, |E_j eta| <= eps_j (1 - s) and s <= 1, and the
    answer is s* > 1e-9. The tube rows measure their slack as a share of
    the tolerance, so the answer does not hang on its size. Without an
    interior the fit runs to its iteration cap, and at margin 0 the region
    has probability 0 under every Dirichlet, so no draw could be
    accepted."""
    cs = _centring_model(model, side).constraints
    E = cs.E / cs.epsilon[:, None]
    G = np.vstack([-cs.U, E, -E])                # G eta + s <= h
    h = np.concatenate([np.full(cs.n_ineq, -float(margin)), np.ones(2 * cs.n_eq)])
    return _max_slack(G, h) > 1e-9


def _tuned_density(side: str, ev: ModelEval, target_alpha, table,
                   settings: RunSettings, seed: int, path: tuple, grid=None):
    """Centre + tune, walking the side's interior-margin ladder
    (_MARGIN_LADDERS) until the pilot ESS looks healthy (or nothing works
    at any margin).

    The ladder walks distinct centring problems: a rung whose margin is
    that of an earlier rung, or any rung after the first when the model
    has no inequality rows (the margin then never reaches the fit), is
    skipped, and so is a rung whose problem has no interior
    (_has_interior), without a fit. Rung j's probes draw from stream paths
    (*path, j, probe), whether or not rungs before it were skipped.
    Returns (proposal concentrations, diagnostics); raises TuningError when
    no rung has an interior."""
    walked = set()
    last_err = None
    best = None
    for j, margin in enumerate(_MARGIN_LADDERS[side]):
        problem = margin if ev.cs.n_ineq else None
        if problem in walked:
            continue
        walked.add(problem)
        if not _has_interior(side, ev.model, margin):
            last_err = last_err or TuningError(
                f"the {side}-side constraint region has no interior at margin {margin:g}")
            continue
        try:
            center = _centre(side, ev.model, table, margin)
            params, diag = tune_alpha(ev, target_alpha, center, settings, seed,
                                      path=(*path, j), grid=grid)
        except (TuningError, fitmod.FitError) as err:
            last_err = err
            continue
        if best is None or diag.get("ess", 0.0) > best[1].get("ess", 0.0):
            best = (params, diag)
        if diag.get("ess", 0.0) >= 2.0 * _ESS_FLOOR:
            return params, diag
    if best is not None:
        return best
    raise last_err


def _units(ev: ModelEval, table: StratifiedTable) -> list:
    """(evaluator, strata slice, table, stream path) for each independent
    unit of an estimate: one per stratum when the model factorises over
    strata (see ModelEval.stratum_split), else the whole model."""
    subs = ev.stratum_split()
    if subs is None:
        return [(ev, slice(None), table, ())]
    return [(e, slice(b, b + 1), StratifiedTable((table.strata[b],), (table.tables[b],)), (b,))
            for b, e in enumerate(subs)]


# ---------------------------------------------------------------------------
# Splitting: rare regions with rows linear in log-gamma coordinates
# ---------------------------------------------------------------------------

# Particles per split run and colored sweeps per level; each level keeps
# the half of the particles (rho = 1/2) with the lowest level variable.
_SPLIT_PARTICLES = 1000
_SPLIT_SWEEPS = 2


def _rows_in_y(ev: ModelEval, rows: np.ndarray):
    """(len(rows), s*r) matrix A with rows @ eta = A y for y = log G, the
    log-gammas of the unit's cells (stratum by stratum, as
    target_alpha.ravel() lays them out), or None when a row is not linear
    in y. rows is ev.E or ev.U: the reader of both the limit route and the
    split route.

    Per stratum b, the rows are W = rows_b C[local_rows] applied to
    log(M pi). When every M row that W uses has exactly one nonzero, each
    of those logs is one cell's log pi, and A_b = W M. The contrast rows of
    C sum to zero, so each row of A sums to zero within each stratum: the
    normaliser of pi cancels, and unnormalised log-gammas give the same
    row values.
    """
    link, k = ev.link, ev.local_rows.size
    C = link.C[ev.local_rows]
    single = np.count_nonzero(link.M, axis=1) == 1
    blocks = []
    for b in range(ev.s):
        W = rows[:, b * k:(b + 1) * k] @ C
        if not single[np.any(W != 0, axis=0)].all():
            return None
        blocks.append(W @ link.M)
    return np.hstack(blocks)


def _linear_rows(ev: ModelEval):
    """The split route's rows: A with U eta = A y (_rows_in_y), or None
    when the model has equality rows, has no inequality rows, a row is
    not linear in y, or an entry of A is not -1, 0 or 1 (_split_move's
    bounds)."""
    if ev.E.shape[0] or not ev.U.shape[0]:
        return None
    A = _rows_in_y(ev, ev.U)
    return A if A is not None and np.isin(A, (-1, 0, 1)).all() else None


def _log_gammas(a: np.ndarray):
    """draw(rng, n): (len(a), n) draws of log G, G ~ Gamma(a_i) in row i,
    floored at LOG_FLOOR, with the shapes read once; shapes below 1 use
    the boost G_a = G_{a+1} U^{1/a} in log space, as _dirichlet_chunk."""
    small = a < 1.0
    shape, a_small = np.where(small, a + 1.0, a)[:, None], a[small, None]

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        g = rng.standard_gamma(shape, size=(a.size, n))
        y = np.log(np.maximum(g, 1e-300, out=g), out=g)
        if a_small.size:
            y[small] += np.log(rng.random((a_small.size, n))) / a_small
        return np.maximum(y, LOG_FLOOR, out=y)
    return draw


def _split_classes(A: np.ndarray, a: np.ndarray) -> list:
    """The move plan of A's cells, for A's entries in {-1, 0, 1}: a greedy
    coloring of the cells that some row uses, in which no two cells of a
    class share a row, so a class's cells are independent given the rest
    and move together.

    Per class: (cells; their _log_gammas; each cell's +1 rows, then each
    cell's -1 rows, as index columns padded with len(A), the row kept at
    +inf; the class's distinct +1 rows and their cells' places, then the
    -1 ones).
    """
    nz = A != 0
    color = np.full(A.shape[1], -1)
    for i in np.flatnonzero(nz.any(axis=0)):
        taken = set(color[nz[nz[:, i]].any(axis=0)].tolist())
        color[i] = next(c for c in range(A.shape[1]) if c not in taken)
    classes = []
    for c in range(color.max() + 1):
        cells = np.flatnonzero(color == c)
        sub = A[:, cells]
        lists = [np.flatnonzero(col == sign) for sign in (1.0, -1.0) for col in sub.T]
        idx = np.full((max(map(len, lists)), len(lists)), A.shape[0])
        for j, rows in enumerate(lists):
            idx[:rows.size, j] = rows
        classes.append((cells, _log_gammas(a[cells]), idx,
                        *np.nonzero(sub == 1.0), *np.nonzero(sub == -1.0)))
    return classes


def _split_move(cls, y, R, tau, rng, exponential):
    """Move one color class of every particle at level tau, in place.

    A cell's feasible interval [l, u] keeps every row it touches at
    R + tau >= 0: l = y - min over its +1 rows of (R + tau), u = y + min
    over its -1 rows. Each min is taken over R, one index row at a time,
    and tau added once: rounding is monotone, so min(R_k + tau) =
    min(R_k) + tau exactly, and +inf stays +inf. At shapes 1 the cell is
    Exp(1) truncated to [e^l, e^u], drawn exactly by inversion in place.
    Otherwise a proposal from its untruncated log-Gamma(a_i) is kept only
    inside [l, u]: a Metropolis move that leaves the restricted target
    invariant. The rows then take the change d by two row adds, +d and
    -d: a class's rows are distinct, and a product by +-1 is exact.
    """
    cells, propose, idx, prow, pplace, mrow, mplace = cls
    yc = y[cells]
    m = R[idx[0]]
    for rows in idx[1:]:
        np.minimum(m, R[rows], out=m)
    m += tau
    lo = np.subtract(yc, m[:cells.size], out=m[:cells.size])
    hi = np.add(m[cells.size:], yc, out=m[cells.size:])
    if exponential:
        el = np.exp(lo, out=lo)
        width = np.maximum(np.subtract(np.exp(hi, out=hi), el, out=hi), 0.0, out=hi)
        new = rng.random(yc.shape)
        new *= np.expm1(np.negative(width, out=width), out=width)
        np.subtract(el, np.log1p(new, out=new), out=new)
        np.log(np.maximum(new, math.exp(LOG_FLOOR), out=new), out=new)
    else:
        new = propose(rng, yc.shape[1])
        np.copyto(new, yc, where=(new < lo) | (hi < new))
    d = np.subtract(new, yc, out=yc)
    R[prow] += d[pplace]
    R[mrow] -= d[mplace]
    y[cells] = new


def _split_run(A: np.ndarray, a: np.ndarray, rng: np.random.Generator, side: str):
    """(ln P(A y >= 0), final survivors, levels) for y = log G, G_i
    independent Gamma(a_i): adaptive multilevel splitting (subset
    simulation) with rho = 1/2.

    _SPLIT_PARTICLES particles are drawn from the unconstrained target.
    The level variable is s = max_k(-R_k), with R = A y kept per particle.
    Each level sets tau to the median of s, but never below 0, and adds ln
    of the share with s <= tau to ln P; at tau = 0 the run ends.
    Otherwise the particles with s <= tau are resampled multinomially to
    _SPLIT_PARTICLES, and _SPLIT_SWEEPS sweeps of colored moves at tau
    (_split_move) spread them over the level's region. Raises
    UnboundedEstimateError when tau does not fall below the level before.

    Arrays are cells x particles, and R has one more row held at +inf
    that pads the bound lists. R is built and updated by elementwise
    adds in a fixed order, with no BLAS product, so its bits do not
    depend on the thread count. All randomness comes from rng, in order.
    """
    n = _SPLIT_PARTICLES
    classes = _split_classes(A, a)
    exponential = bool(np.all(a == 1.0))
    y = _log_gammas(a)(rng, n)
    R = np.zeros((A.shape[0] + 1, n))
    R[-1] = np.inf
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
        for _ in range(_SPLIT_SWEEPS):
            for cls in classes:
                _split_move(cls, y, R, tau, rng, exponential)


# ---------------------------------------------------------------------------
# The epsilon -> 0 limit: equality rows linear in log-gamma coordinates
# ---------------------------------------------------------------------------

# Degrees of freedom of the limit route's multivariate t proposal, and the
# Newton steps its mode search may take.
_LIMIT_DF = 5
_LIMIT_NEWTON = 100


def _null_basis(ev: ModelEval):
    """(s*r, d) orthonormal basis N of the null space of E', where
    E eta = E' y for y = log G (_rows_in_y, any coefficients), when the
    unit's model has equality rows and no inequality rows and every row is
    linear in y; else None. E' is rank-reduced by its singular values, so
    a redundant row changes nothing. Each row of E' sums to zero within a
    stratum, so d >= 1."""
    if not ev.E.shape[0] or ev.U.shape[0]:
        return None
    A = _rows_in_y(ev, ev.E)
    if A is None:
        return None
    _, sv, vt = np.linalg.svd(A)
    rank = int(np.count_nonzero(sv > sv[0] * max(A.shape) * np.finfo(float).eps))
    return np.ascontiguousarray(vt[rank:].T)


def _limit_run(N: np.ndarray, a: np.ndarray, n: int, rng: np.random.Generator):
    """(ln f(0), ESS) for the density f of E' y at 0, y_i = log G_i with
    G_i independent Gamma(a_i), up to a constant that depends only on E'.
    As eps -> 0 a side's tube proportion over f(0) tends to a factor that
    depends only on E' and eps, so the posterior-over-prior ratio of f(0)
    is the limit of the Bayes factor (the Savage-Dickey density ratio).

    On y = N z, ln f(0) = -sum lnGamma(a_i) + ln int exp(h(z)) dz with
    h(z) = a . Nz - sum exp(Nz), which is concave. Damped Newton finds its
    mode; n draws from a multivariate t (_LIMIT_DF degrees of freedom)
    with the Laplace fit's centre and scale estimate the integral by
    importance sampling, _CHUNK draws at a time: per chunk, the normal
    variates (d rows) and then the chi-square ones.

    The fit's algebra runs once, on matrices of at most s*r rows. Each
    draw's y is built by elementwise adds over the d columns in a fixed
    order, with no BLAS product over the draws, so no sum over them is
    split by thread.
    """
    d, nu = N.shape[1], float(_LIMIT_DF)

    def value(z):
        y = N @ z
        with np.errstate(over="ignore"):
            return float(a @ y - np.exp(y).sum()), y

    z = N.T @ np.log(a)
    for _ in range(_LIMIT_NEWTON):
        h, y = value(z)
        e = np.exp(y)
        g = N.T @ (a - e)
        step = np.linalg.solve((N.T * e) @ N, g)
        if g @ step < 1e-12:
            break
        t = 1.0
        while t > 1e-12 and not value(z + t * step)[0] >= h:
            t *= 0.5
        z = z + t * step
    h0, y0 = value(z)
    L = np.linalg.cholesky((N.T * np.exp(y0)) @ N)
    B = np.linalg.solve(L, N.T).T                # N L^-T: z - mode = L^-T t
    # ln q(z) = q_const - (nu + d)/2 ln(1 + |u|^2 / w) for t = u sqrt(nu / w)
    q_const = (math.lgamma((nu + d) / 2) - math.lgamma(nu / 2) - d / 2 * math.log(nu * math.pi)
               + float(np.log(np.diag(L)).sum()))
    logws = []
    for i in range(0, n, _CHUNK):
        m = min(_CHUNK, n - i)
        u = rng.standard_normal((d, m))
        w = 2.0 * rng.standard_gamma(nu / 2, size=m)
        scale = np.sqrt(nu / w)
        y = np.repeat(y0[:, None], m, axis=1)
        for j in range(d):
            y += B[:, j, None] * (u[j] * scale)
        with np.errstate(over="ignore"):
            e = np.exp(y)
        y *= a[:, None]
        y -= e
        lw = y.sum(axis=0)
        lw -= h0
        lw += (nu + d) / 2 * np.log1p(np.square(u).sum(axis=0) / w)
        logws.append(lw)
        del y, e, u             # not held while the next chunk is drawn
    ln_mean, ess = _log_mean_and_ess(np.concatenate(logws), n)
    ln_f0 = h0 - q_const + ln_mean - sum(math.lgamma(x) for x in a)
    return ln_f0, ess


class _Limit:
    """One side of a Bayes factor over one _units unit on the limit route:
    ln f(0) of _limit_run, on the stream (side, "limit", *unit), with no
    pilot. Its one level reads that value at every tolerance scale, with
    the run's ESS and its draw count; ln_se is the delta-method SE of
    ln f(0), sqrt(1/ESS - 1/n)."""

    route = "limit"
    diag = split = None
    draw_key = 0

    def __init__(self, side, N, target_alpha, settings, seed, path):
        self.side = side
        self.n = settings.n_draws
        self.ln_f0, self.ess = _limit_run(N, target_alpha.ravel(), self.n,
                                          substream(seed, side, "limit", *path))
        self.ln_se = math.sqrt(max(1.0 / self.ess - 1.0 / self.n, 0.0))

    def level(self, scale):
        return self.ln_f0, self.ess, self.n

    def ensure(self, scale):
        return False


# ---------------------------------------------------------------------------
# Bayes factors: one route for every model
# ---------------------------------------------------------------------------

class _Part:
    """One side of a Bayes factor over one _units unit: a sample that one
    level after another reweights, or a split run.

    The pilot routes it (_pilot_routes_direct): when the pilot accepts at
    least _DIRECT_THRESHOLD of its draws, the sample comes from the side's
    target. Otherwise, when the model has no equality rows and its rows
    are +-1 combinations of log G (_linear_rows), the part splits
    (_split_run): it fails fast when the region has no interior, keeps no
    draws, and its one level reads the run's ln P with its final survivors
    as ESS and accepted count. Otherwise the sample comes from a density
    tuned on the region. The pilot and a direct sample read only which
    draws the constraint checks accept, so they ask _dirichlet_chunk for
    unnormalised draws, scaled per stratum; a tuned sample reads log pi
    for its weights and draws normalised.
    Only the draws that the level-1 model accepts are kept, each with its
    equality statistic relative to the level-1 tolerances and, if tuned,
    its log-weight. A level at tolerance scale c <= 1 accepts the kept
    draws with statistic <= c. A model without equality rows has no
    statistic (stat is None): it has one level, which accepts every kept
    draw.
    """

    def __init__(self, side, ev, target_alpha, table, settings, seed, path):
        self.side = side
        self.ev = ev                        # constraints at level-1 epsilon
        self.target_alpha = target_alpha
        self.table = table
        self.settings = settings
        self.seed = seed
        self.path = path
        self.draw_key = 0
        self.diag = None                    # the last tuning's diagnostics
        self.split = None                   # a split run's diagnostics
        if ev.cs.is_empty():                # no constraint: every draw is accepted
            self.kept, self.stat, self.logw = settings.n_draws, None, None
            return
        direct = _pilot_routes_direct(ev, target_alpha, settings.pilot_n, _DIRECT_THRESHOLD,
                                      substream(seed, side, "pilot", *path))
        rows = None if direct else _linear_rows(ev)
        if rows is None:
            self._draw(1.0, direct=direct)
            return
        if not _has_interior(side, ev.model, 0.0):
            raise UnboundedEstimateError(
                side, f"the {side}-side constraint region has no interior; "
                "the Bayes factor is unbounded")
        self.ln_p, self.kept, levels = _split_run(
            rows, target_alpha.ravel(), substream(seed, side, "split", *path), side)
        self.stat, self.logw = None, None
        self.split = {"unit": list(path), "levels": levels, "particles": _SPLIT_PARTICLES,
                      "sweeps": _SPLIT_SWEEPS, "survivor_share": self.kept / _SPLIT_PARTICLES}

    @property
    def route(self) -> str:
        if self.split is not None:
            return "split"
        return "direct" if self.logw is None else "importance"

    def _draw(self, scale, direct=False):
        """Draw a fresh sample: from the target when direct, else from a
        density tuned on the region at the current tolerance scale."""
        if direct:
            alpha, weight = self.target_alpha, None
            rng = substream(self.seed, self.side, "main", *self.path)
        else:
            ev_now = self.ev
            if self.ev.cs.n_eq and scale != 1.0:
                now = replace(self.ev.model, constraints=self.ev.cs.scaled_epsilon(scale))
                ev_now = ModelEval(now, self.table.dims, self.table.s)
            grid = None
            if self.diag is not None:
                grid = [self.diag["chosen"] * f for f in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
            alpha, self.diag = _tuned_density(
                self.side, ev_now, self.target_alpha, self.table, self.settings,
                self.seed, (self.side, "tune", *self.path, self.draw_key), grid=grid)
            weight = _log_weight(self.target_alpha, alpha)
            rng = substream(self.seed, self.side, "main", *self.path, self.draw_key)
        tube = self.ev.cs.n_eq > 0
        stats, logws, self.kept = [], [], 0
        for _, P in _chunks(rng, alpha, self.settings.n_draws, _CHUNK, normalise=not direct):
            if tube:
                stat, ok = self.ev.eq_stat_and_ineq(P)
                keep = ok & (stat <= 1.0)
                stats.append(stat[keep])
            else:
                keep = self.ev.delta(P)
            self.kept += int(keep.sum())
            if weight is not None:
                logws.append(weight(P)[keep])
            del P               # not held while the next chunk is drawn
        self.stat = np.concatenate(stats) if tube else None
        self.logw = None if weight is None else np.concatenate(logws)

    def level(self, scale):
        """(ln proportion, ess, accepted draws) at a tolerance scale. A
        direct sample's ESS is its accepted count, a split run's its final
        survivors."""
        if self.split is not None:
            return self.ln_p, float(self.kept), self.kept
        n = self.settings.n_draws
        d = slice(None) if self.stat is None else self.stat <= scale
        acc = self.kept if self.stat is None else int(d.sum())
        if self.logw is None:
            return _direct_result(acc, n).log_value, float(acc), acc
        return (*_log_mean_and_ess(self.logw[d], n), acc)

    def ensure(self, scale):
        """Retune and redraw at the current tolerance when the level has
        too few accepted draws or too little weighted ESS; returns True if
        a redraw happened. Stage factors difference the common weight noise
        away on shared draws, so the accepted count is the binding
        requirement."""
        _, ess, acc = self.level(scale)
        healthy = (acc >= max(200, int(0.02 * self.settings.n_draws))
                   and ess >= _ESS_FLOOR)
        if healthy or self.draw_key >= _MAX_RETUNES:
            return False
        self.draw_key += 1
        self._draw(scale)
        return True


def _level_one(model: ModelSpec, schedule: EpsilonSchedule | None):
    """(model at the level-1 tolerances, schedule walked, those tolerances)
    of bayes_factor: one level at scale 1 for an inequality-only model."""
    cs = model.constraints
    if not cs.n_eq:
        return model, EpsilonSchedule(max_stages=1), np.zeros(0)
    schedule = schedule or EpsilonSchedule()
    eps1 = np.full(cs.n_eq, schedule.epsilon_start)
    return replace(model, constraints=cs.with_epsilon(eps1)), schedule, eps1


def _part_makers(model: ModelSpec, table: StratifiedTable, prior: PriorSpec,
                 settings: RunSettings, seed: int) -> list:
    """The constructors of a Bayes factor's parts, for the level-1 model:
    both sides times each _units unit, prior side first. When every unit
    with constraint rows reads a null basis (_null_basis), the model takes
    the limit route and those units are _Limit parts, both sides of a unit
    on the same basis; every other unit is a _Part."""
    targets = {"prior": prior.concentration, "posterior": prior.posterior(table)}
    units = _units(ModelEval(model, table.dims, table.s), table)
    bases = [_null_basis(ev) for ev, *_ in units]
    if not all(N is not None or ev.cs.is_empty() for N, (ev, *_) in zip(bases, units)):
        bases = [None] * len(units)
    return [partial(_Part, side, ev, targets[side][sl], t, settings, seed, path) if N is None
            else partial(_Limit, side, N, targets[side][sl], settings, seed, path)
            for side in ("prior", "posterior") for (ev, sl, t, path), N in zip(units, bases)]


def bayes_factor(model: ModelSpec, table: StratifiedTable, prior: PriorSpec,
                 settings: RunSettings, seed: int,
                 schedule: EpsilonSchedule | None = None, *, parts=None) -> BFEstimate:
    """log Bayes factor of a constrained model against the encompassing
    model: the ratio of its posterior to its prior constraint-satisfaction
    proportion, the one route for every model.

    Each side is one _Part per _units unit (per stratum when the model
    factorises), all built concurrently from _part_makers, unless `parts`
    holds them built in that order (replicate_bf's one map; an exception in a
    part's place is raised). A model with about-equality rows walks the
    schedule's tolerance levels eps_1 * b^(n-1) (default EpsilonSchedule()):
    every level reweights the same kept draws, and the reported value is the
    exact sum of the stage logs. Before each level a part with too few
    accepted draws or too little ESS is retuned at the current tolerance and
    redrawn; once a level cannot be held the chain stops early and flags
    truncation. An inequality-only model is the chain's first level, at
    tolerance scale 1 and without a retune; its schedule, if given, is not
    used.

    A model on the limit route (_part_makers) reports the epsilon -> 0
    limit as that one level, at final tolerances 0, without a retune; its
    tolerances and schedule are not used. Its stage adds each side's SE of
    ln ("prior_ln_se", "posterior_ln_se", over its units), and its
    components the SE of the log10 value ("log10_se").

    Raises UnboundedEstimateError when a side accepts no draw at level 1.
    """
    model, schedule, eps1 = _level_one(model, schedule)
    if parts is None:
        parts = _ordered_map(lambda make: make(),
                             _part_makers(model, table, prior, settings, seed))
    for p in parts:
        if isinstance(p, Exception):
            raise p
    limit = [p for p in parts if p.route == "limit"]
    if limit:
        schedule, eps1 = EpsilonSchedule(max_stages=1), np.zeros(eps1.size)
    retune = bool(eps1.size) and not limit
    sides = {side: [p for p in parts if p.side == side] for side in ("prior", "posterior")}

    def side_level(side, scale):
        lns, esss, accs = zip(*(p.level(scale) for p in sides[side]))
        return float(sum(lns)), float(min(esss)), min(accs)

    # retunes aim for healthy levels; a level stays usable down to a small
    # accepted-draw count because the stage factors difference the common
    # weight noise away on shared draws
    count_floor = 50
    stage_info, warnings, prev, truncated = [], [], {}, False
    for level in range(1, schedule.max_stages + 1):
        scale = schedule.b ** (level - 1)
        redrawn = retune and any(_ordered_map(lambda p: p.ensure(scale), parts))
        cur = {side: side_level(side, scale) for side in sides}
        if redrawn and level > 1:
            # same-sample differencing: refresh the previous level too
            prev = {s: side_level(s, schedule.b ** (level - 2)) for s in sides}
        bad = [s for s in cur if not np.isfinite(cur[s][0]) or cur[s][2] < count_floor]
        if level == 1:
            for side in bad:
                if not np.isfinite(cur[side][0]):
                    raise UnboundedEstimateError(side)
        elif bad:
            truncated = True
            break
        weak = [s for s in cur if cur[s][1] < _ESS_FLOOR]
        if weak:
            warnings.append(f"level {level}: ESS under {_ESS_FLOOR:g} on {'/'.join(weak)} side")
        if level == 1:
            ln_stage = cur["posterior"][0] - cur["prior"][0]
        else:
            ln_stage = (cur["posterior"][0] - prev["posterior"][0]) \
                - (cur["prior"][0] - prev["prior"][0])
        stage_info.append({
            "level": level, "epsilon_scale": scale, "log10_stage": ln_stage / LN10,
            "prior_ln": cur["prior"][0], "prior_ess": cur["prior"][1],
            "posterior_ln": cur["posterior"][0], "posterior_ess": cur["posterior"][1]})
        prev = dict(cur)
        if level == 1 and bad:
            truncated = True
            break
        if level > 1 and abs(ln_stage / LN10) < schedule.stop_tol:
            break
    warnings += [f"{p.side} side: tuner fell back to {p.diag['fallback']}"
                 for p in parts if p.diag and p.diag["fallback"]]

    stage_log10 = [st["log10_stage"] for st in stage_info]
    log10 = float(sum(stage_log10))
    final_scale = stage_info[-1]["epsilon_scale"] if stage_info else 1.0
    comp = {
        "model": model.name, "stages": stage_info,
        "stage_log10s": [float(v) for v in stage_log10],
        "final_epsilon": [float(e) for e in eps1 * final_scale],
        "truncated": truncated, "warnings": warnings,
        "retunes": {side: [p.draw_key for p in sides[side]] for side in sides},
        "split": {side: [p.split for p in sides[side] if p.split] for side in sides},
    }
    if limit:
        se = {side: math.sqrt(sum(p.ln_se ** 2 for p in limit if p.side == side))
              for side in sides}
        stage_info[0].update(prior_ln_se=se["prior"], posterior_ln_se=se["posterior"])
        comp["log10_se"] = math.hypot(se["prior"], se["posterior"]) / LN10
    return BFEstimate(
        log10_bf=log10, ln_bf=log10 * LN10, replicates=[log10], mean=log10, sd=0.0,
        route="/".join("+".join(sorted({p.route for p in sides[s]})) for s in sides),
        components=comp,
        settings={"seed": int(seed), **({"schedule": asdict(schedule)} if retune else {}),
                  **settings.to_dict()},
    )


def replicate_bf(model: ModelSpec, table: StratifiedTable, prior: PriorSpec,
                 settings: RunSettings, B: int, seed: int,
                 schedule: EpsilonSchedule | None = None) -> BFEstimate:
    """B independently seeded runs; the reported point estimate is the
    replicate mean of the log Bayes factors. One map builds the parts
    (_part_makers) of every replicate, with one centring memo, so no core
    idles while parts are left; a map over the replicates then walks each
    one's levels in a bayes_factor call, looked up at call time, then drops
    its parts. The lowest failing replicate's error is raised, as a loop
    would raise it. Each replicate's entry keeps its estimate, route, seed,
    final tolerances, truncation flag, level count and warnings, and on the
    limit route the SE of its log10 value; the route joins each side's
    routes over the replicates with "+", as bayes_factor joins strata, and
    the schedule is the one they walked (none for an inequality-only model
    or on the limit route)."""
    if B < 1:
        raise EngineError("need B >= 1 replicates")
    seeds = [int(np.random.SeedSequence(int(seed), spawn_key=(_PURPOSE["replicate"], i))
                 .generate_state(1)[0]) for i in range(B)]
    first = _level_one(model, schedule)[0]
    makers = [make for s in seeds for make in _part_makers(first, table, prior, settings, s)]
    width, built = len(makers) // B, [None] * len(makers)

    def build(k):
        built[k] = makers[k]()

    def run(i):
        parts, built[i * width:(i + 1) * width] = built[i * width:(i + 1) * width], [None] * width
        return bayes_factor(model, table, prior, settings, seeds[i], schedule, parts=parts)

    centres = _CENTRES.set(_CentreMemo())
    try:
        runs = B
        try:
            _ordered_map(build, range(len(makers)))
        except Exception as err:
            # every part before the lowest failing one was built: its
            # replicate's bayes_factor raises err, unless one before fails
            k = built.index(None)
            built[k], runs = err, k // width + 1
        ests = _ordered_map(run, range(runs))
    finally:
        _CENTRES.reset(centres)
    infos = [{"log10_bf": est.log10_bf, "route": est.route, "seed": est.settings["seed"],
              "final_epsilon": est.components["final_epsilon"],
              "truncated": est.components["truncated"], "n_stages": len(est.components["stages"]),
              "warnings": est.components["warnings"],
              **({"log10_se": est.components["log10_se"]} if "log10_se" in est.components
                 else {})} for est in ests]
    walked = ests[0].settings.get("schedule")
    reps = [info["log10_bf"] for info in infos]
    side_routes = zip(*(info["route"].split("/") for info in infos))
    route = "/".join("+".join(sorted({r for rs in side for r in rs.split("+")}))
                     for side in side_routes)
    mean = float(np.mean(reps))
    sd = float(np.std(reps, ddof=1)) if B > 1 else 0.0
    return BFEstimate(
        log10_bf=mean, ln_bf=mean * LN10, replicates=[float(v) for v in reps],
        mean=mean, sd=sd, route=route,
        components={"model": model.name, "replicates": infos, "B": B},
        settings={"seed": int(seed), "B": B,
                  **({"schedule": walked} if walked else {}),
                  **settings.to_dict()},
    )


def compare_models(bf_k: BFEstimate, bf_l: BFEstimate) -> float:
    """log10 B_kl from the two encompassing-referenced estimates."""
    return float(bf_k.log10_bf - bf_l.log10_bf)


def jeffreys_label(log_bf: float) -> str:
    """Evidence label at Jeffreys' thresholds 0.5 / 1 / 2 on |log10 BF|,
    whatever base the BF is printed in; the direction (for or against) is
    reported separately by callers."""
    a = abs(log_bf)
    if a < 0.5:
        return "poor"
    if a < 1.0:
        return "substantial"
    if a < 2.0:
        return "strong"
    return "decisive"


# ---------------------------------------------------------------------------
# Posterior draws under an accepted model
# ---------------------------------------------------------------------------

# columns per block of the posterior quantiles: a block's private transposed
# copy is small, so a stratum's eta is never held twice
_SUMMARY_COLS = 8


def _quantiles(X: np.ndarray, q) -> np.ndarray:
    """np.quantile(X, q, axis=0) for X (draws, columns), as (len(q),
    columns), _SUMMARY_COLS columns at a time.

    Each block is a private (columns, draws) copy, sorted along its rows
    and then taken in place: np.quantile reads only order statistics,
    which a sorted row already holds at their indices, so the bits are
    those of np.quantile over the whole array, and the one sort costs less
    than np.partition's multi-kth select.
    """
    out = np.empty((len(q), X.shape[1]))
    for c in range(0, X.shape[1], _SUMMARY_COLS):
        block = np.ascontiguousarray(X[:, c:c + _SUMMARY_COLS].T)
        block.sort(axis=1)
        out[:, c:c + _SUMMARY_COLS] = np.quantile(block, q, axis=1, overwrite_input=True)
    return out


@dataclass
class PosteriorSummary:
    """Summaries of accepted posterior draws. Each stratum's means and
    quantiles rest on the accepted draws of its own _units unit.

    n_drawn      draws made per unit
    n_accepted   the smallest unit's accepted count (all of them are
                 counted, not only the kept ones)
    acceptance   the product of the units' acceptance fractions: the
                 estimated posterior probability of the whole model
    """

    n_drawn: int
    n_accepted: int
    acceptance: float
    pi_mean: np.ndarray            # (s, r)
    pi_lo: np.ndarray
    pi_hi: np.ndarray
    eta_mean: np.ndarray           # (s*t,)
    eta_lo: np.ndarray
    eta_hi: np.ndarray
    mean_satisfies: bool
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = asdict(self)
        for k in ("pi_mean", "pi_lo", "pi_hi", "eta_mean", "eta_lo", "eta_hi"):
            d[k] = getattr(self, k).tolist()
        return d


def posterior_draws_under_model(model: ModelSpec, table: StratifiedTable,
                                prior: PriorSpec, n: int, seed: int) -> PosteriorSummary:
    """Accepted encompassing-posterior draws and their summaries.

    One unit of _ordered_map per _units unit (per stratum when the model
    factorises over strata, else the whole model): the unit draws n times
    from substream(seed, "prior", "summary", *unit), with unit (b,) for
    stratum b and () for a one-unit model, checks its own constraints,
    and keeps its first min(accepted, _KEEP_CAP) accepted draws, in draw
    order, for its strata's means and quantiles. The acceptance is the
    product of the units' fractions; a rare-event warning is attached
    when the smallest of them is tiny, and UnboundedEstimateError is
    raised, the lowest such unit's, when a unit accepts nothing.

    Each stratum's summaries are one item of a map inside its unit: the
    quantiles of its pi columns, then its eta rows (one eta_batch call),
    their mean and their quantiles (_quantiles). That map fans out only
    when the model is one unit, as the units' own map is then a plain loop.
    """
    if n < 1:
        raise EngineError(f"need n >= 1 posterior draws, got {n}")
    ev = ModelEval(model, table.dims, table.s)
    alpha = prior.posterior(table)
    q = [(1 - 0.95) / 2, 1 - (1 - 0.95) / 2]     # the central 95% interval

    def summarise(P, b):
        pi_q = _quantiles(P[:, b, :], q)
        eta = eta_batch(P[:, b, :], ev.link)
        return pi_q, eta.mean(axis=0), _quantiles(eta, q)

    def run(unit):
        ev_u, sl, t_u, path = unit
        P = np.empty((min(n, _KEEP_CAP), t_u.s, t_u.r))
        acc = kept = 0
        for _, D in _chunks(substream(seed, "prior", "summary", *path), alpha[sl], n, _CHUNK):
            if not ev_u.cs.is_empty():
                D = D[ev_u.delta(D)]
            acc += D.shape[0]
            m = min(D.shape[0], P.shape[0] - kept)
            P[kept:kept + m] = D[:m]
            kept += m
            del D               # not held while the next chunk is drawn
        if acc == 0:
            raise UnboundedEstimateError(
                "posterior", "no posterior draw satisfied the model constraints; "
                "an about-equality schedule is the usual remedy for equality-type models")
        P = P[:kept]
        return acc, P.mean(axis=0), _ordered_map(partial(summarise, P), range(t_u.s))

    accs, pi_means, strata = zip(*_ordered_map(run, _units(ev, table)))
    pi_q, eta_mean, eta_q = zip(*(st for unit in strata for st in unit))
    pi_q = np.stack(pi_q, axis=1)                # (2, s, r)
    eta_q = np.concatenate(eta_q, axis=1)        # (2, s*t)
    mean_pi = np.concatenate(pi_means, axis=0)
    frac = min(accs) / n
    warnings = []
    if frac < 1e-3:
        warnings.append(
            f"acceptance {frac:.2e} is tiny; summaries rest on few draws and an "
            "about-equality route is likely more appropriate")
    mean_sat = bool(ev.delta(mean_pi[None, :, :])[0]) if not ev.cs.is_empty() else True
    return PosteriorSummary(
        n_drawn=n, n_accepted=min(accs), acceptance=math.prod(a / n for a in accs),
        pi_mean=mean_pi, pi_lo=pi_q[0], pi_hi=pi_q[1],
        eta_mean=np.concatenate(eta_mean), eta_lo=eta_q[0], eta_hi=eta_q[1],
        mean_satisfies=mean_sat, warnings=warnings,
    )
