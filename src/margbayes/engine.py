"""Encompassing-prior Monte Carlo engine.

Estimates constraint-satisfaction proportions under the encompassing
Dirichlet prior and posterior (directly, or by importance sampling with a
tuned Dirichlet centred at a constrained fit), assembles Bayes factors as
posterior-over-prior proportion ratios, and runs the geometric
epsilon-shrinking chain for about-equality models.

All weight arithmetic is in log space; draws are generated per stratum
from log-gamma variates (small shapes boosted) so tiny cell probabilities
never underflow into NaNs. Streams are derived from a master seed via
SeedSequence spawn keys, so every estimate is reproducible bit for bit.

Every sampling loop takes its draws from _chunks, the one chunked draw
loop. A model that factorises over strata is estimated per stratum, as
_units splits it.

Independent units of work run concurrently through _ordered_map, under one
process-wide budget of _THREADS threads: the replicates of replicate_bf,
the strata of _side_estimate, the chain parts of about_equality_bf (built,
then re-checked at each level), the grid probes of tune_alpha and the
strata of posterior_draws_under_model's summaries. Each
unit draws from its own substream and results are combined in input
order, so every estimate is the same bits whatever the thread count. The
two sides of estimate_bf run one after the other (see there). Once a unit
fails, the units after it stop at their next cancel.check().
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import Future
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np
from scipy.special import gammaln

from . import cancel
from . import fit as fitmod
from .hypotheses import ConstraintSet, ModelSpec
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

DEFAULT_ALPHA_GRID = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0)


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
class ImportanceDensity:
    """Dirichlet proposal D(alpha * pi_hat) per stratum.

    `multiplier` scales each stratum's target concentration; `alpha` is the
    realised per-stratum total concentration actually used.
    """

    params: np.ndarray           # (s, r)
    alpha: np.ndarray            # (s,) realised concentrations
    multiplier: float
    center: np.ndarray           # (s, r)
    center_kind: str             # "prior_center" | "constrained_mle" | "custom"

    def __post_init__(self):
        if np.any(self.params <= 0):
            raise EngineError("importance density parameters must be strictly positive")


@dataclass
class ProportionEstimate:
    value: float
    n_draws: int
    ess: float
    se: float
    route: str                   # "direct" | "importance"
    log_value: float = -np.inf   # natural log, survives underflow
    rel_se: float = np.inf
    accepted: int = 0
    multiplier: float | None = None
    alpha: list | None = None
    max_abs_log_weight: float = 0.0
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["alpha"] = list(self.alpha) if self.alpha is not None else None
        return d


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
        if self.epsilon_start <= 0:
            raise EngineError("epsilon_start must be positive")
        if self.max_stages < 1:
            raise EngineError("need at least one stage")


@dataclass
class RunSettings:
    n_draws: int = 1_000_000
    pilot_n: int = 100_000
    direct_threshold: float = 0.05
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    tune_accept_min: float = 0.01
    tune_extend_factor: float = 4.0
    tune_extend_max_multiplier: float = 1e7
    chunk: int = 32768
    ess_floor: float = 50.0
    max_retunes: int = 8
    prior_margin: float = 1.0
    margin_ladder: tuple = (0.25, 1.0, 2.0)
    smoothing: float = 0.5
    log_base: str = "10"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["alpha_grid"] = list(self.alpha_grid)
        d["margin_ladder"] = list(self.margin_ladder)
        return d


@dataclass
class BFEstimate:
    log10_bf: float
    ln_bf: float
    replicates: list                 # per-replicate log10 values
    mean: float                      # mean of replicates (log10)
    sd: float
    route: str                       # "direct+importance mix" | "about_equality"
    components: dict
    settings: dict

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Seeding and sampling
# ---------------------------------------------------------------------------

_SIDES = {"prior": 0, "posterior": 1}
_PURPOSE = {"pilot": 0, "main": 1, "tune": 2, "replicate": 3}


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator for a (seed, path) pair; path entries are
    small ints or the registered side/purpose names."""
    key = tuple(_SIDES.get(p, _PURPOSE.get(p, p)) if isinstance(p, str) else int(p)
                for p in path)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


# Threads started by _ordered_map calls that are still taking items.
_started = 0
_started_lock = threading.Lock()


class _Fan:
    """One running _ordered_map call, as cancel.check() sees it."""

    __slots__ = ("failed_at",)

    def __init__(self, n: int):
        self.failed_at = n               # lowest failing index so far


def _ordered_map(fn, items) -> list:
    """[fn(x) for x in items], run on up to _THREADS threads.

    The thread budget is process-wide: the thread that made the outermost
    call plus the threads that all running maps, nested ones included,
    have started never number more than _THREADS (read at call time). A
    map starts at most one thread per item beyond the first, and only as
    many as the budget has left; with none left it runs every item on the
    calling thread. It never waits for a thread to free up, so maps nested
    to any depth cannot deadlock. The calling thread works rather than
    waits: each extra thread costs a malloc arena that keeps about one
    item's working set.

    Each thread takes the next unstarted index from a shared counter and
    hands its place in the budget back once none is left. Started threads
    run in a copy of the caller's context, so they see its ContextVar
    values (the centring memo among them). Results land in input order
    whatever the thread count. After a failure no further item starts,
    and once every thread has joined the exception of the lowest failing
    index is re-raised: the one a plain loop would raise. Once item i has
    failed, the running items after it, whose results would be dropped,
    stop at their next cancel.check() (each chunk of draws, each outer
    iteration of a fit), nested maps included; the items before it run on,
    since one of them may still fail first.
    """
    global _started
    items = list(items)
    out = [None] * len(items)
    errors = []                          # (index, exception)
    lock = threading.Lock()
    fan = _Fan(len(items))
    enclosing = cancel.SCOPE.get()
    next_i = 0

    def work():
        nonlocal next_i
        while True:
            with lock:
                i = next_i
                if errors or i >= len(items):
                    return
                next_i += 1
            scope = cancel.SCOPE.set(enclosing + ((fan, i),))
            try:
                cancel.check()           # an enclosing item may have been given up
                out[i] = fn(items[i])
            except BaseException as err:
                with lock:
                    errors.append((i, err))
                    fan.failed_at = min(fan.failed_at, i)
                return
            finally:
                cancel.SCOPE.reset(scope)

    def worker(ctx):
        global _started
        try:
            ctx.run(work)
        finally:
            with _started_lock:
                _started -= 1

    with _started_lock:
        n_new = max(0, min(_THREADS - 1 - _started, len(items) - 1))
        _started += n_new
    threads = []
    try:
        for k in range(n_new):
            t = threading.Thread(target=worker, args=(copy_context(),),
                                 name=f"margbayes-worker-{k}")
            t.start()
            threads.append(t)
        work()
    finally:
        with _started_lock:
            _started -= n_new - len(threads)     # places of threads never started
        for t in threads:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return out


def _dirichlet_chunk(rng: np.random.Generator, alpha: np.ndarray, n: int) -> np.ndarray:
    """(n, s, r) Dirichlet draws, sampled via log-gammas.

    Shapes below 1 use the boost G_a = G_{a+1} U^{1/a} evaluated in log
    space, then cells are floored at exp(LOG_FLOOR); the floor only touches
    draws whose importance weight is already negligible.

    Per stratum, the gammas are drawn _BLOCK rows at a time and all before
    any uniform, as one (n, r) draw would take them from the stream; their
    logs go straight into `out`, where the boost and the normalisation then
    work _BLOCK rows at a time.
    """
    s, r = alpha.shape
    out = np.empty((n, s, r))
    for b in range(s):
        a = alpha[b]
        small = a < 1.0
        shape = np.where(small, a + 1.0, a)
        logg = out[:, b, :]
        for i in range(0, n, _BLOCK):
            g = rng.standard_gamma(shape, size=(min(_BLOCK, n - i), r))
            np.log(np.maximum(g, 1e-300, out=g), out=logg[i:i + _BLOCK])
        for i in range(0, n, _BLOCK):
            blk = logg[i:i + _BLOCK]
            if np.any(small):
                u = rng.random((blk.shape[0], r))
                blk[:, small] += np.log(u[:, small]) / a[small]
            blk -= logsumexp(blk, axis=1, keepdims=True)
            np.exp(np.maximum(blk, LOG_FLOOR, out=blk), out=blk)
    return out


def _chunks(rng: np.random.Generator, alpha: np.ndarray, n: int, chunk: int):
    """Yield (offset, draws) over n Dirichlet draws, at most `chunk` at a time.

    The one place that counts draws and checks for cancellation. The
    generator does not keep a chunk it has yielded, so a consumer that
    deletes each chunk before asking for the next never holds two.
    """
    if chunk < 1:
        raise EngineError(f"chunk must be at least 1, got {chunk}")
    done = 0
    while done < n:
        cancel.check()
        b = min(chunk, n - done)
        yield done, _dirichlet_chunk(rng, alpha, b)
        done += b


def sample_prior(prior: PriorSpec, n: int, seed: int) -> np.ndarray:
    """(n, s, r) i.i.d. draws from the per-stratum encompassing prior."""
    if n < 1:
        raise EngineError("need n >= 1 draws")
    return _dirichlet_chunk(substream(seed, 0), prior.concentration, n)


def sample_posterior(prior: PriorSpec, table: StratifiedTable, n: int, seed: int) -> np.ndarray:
    """(n, s, r) draws from D(concentration + y) per stratum."""
    return sample_prior(PriorSpec(prior.posterior(table)), n, seed)


def _logpdf_terms(alpha: np.ndarray):
    """Per-stratum (coef, const) with logpdf(P) = sum_b coef_b . log P_b + const_b."""
    coefs = alpha - 1.0
    consts = np.array([gammaln(a.sum()) - gammaln(a).sum() for a in alpha])
    return coefs, float(consts.sum())


def _log_weight(target_alpha: np.ndarray, params: np.ndarray):
    """log p/g as a function of draws (n, s, r), for the Dirichlet target p
    and proposal g with concentrations target_alpha and params."""
    coef_t, const_t = _logpdf_terms(target_alpha)
    coef_g, const_g = _logpdf_terms(params)
    dcoef, dconst = coef_t - coef_g, const_t - const_g
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
        cols = np.concatenate([self.local_rows + b * t for b in range(s)]) \
            if self.local_rows.size else np.zeros(0, dtype=int)
        self.E = cs.E[:, cols]
        self.U = cs.U[:, cols]
        self.epsilon = cs.epsilon
        self.cs = cs

    def stratum_split(self):
        """Per-stratum sub-evaluators when every constraint row touches one
        stratum only; None when rows couple strata (or s == 1).

        With independent per-stratum Dirichlet draws the satisfaction
        proportion then factorises exactly over strata.
        """
        if self.s == 1 or self.cs.is_empty():
            return None
        t = self.link.t
        cs = self.cs

        def stratum_of(row):
            ss = {int(c) // t for c in np.nonzero(row)[0]}
            return ss.pop() if len(ss) == 1 else None

        eb = [stratum_of(cs.E[j]) for j in range(cs.n_eq)]
        ub = [stratum_of(cs.U[j]) for j in range(cs.n_ineq)]
        if any(b is None for b in eb + ub):
            return None
        subs = []
        for b in range(self.s):
            e_rows = [j for j, x in enumerate(eb) if x == b]
            u_rows = [j for j, x in enumerate(ub) if x == b]
            csb = ConstraintSet(
                cs.E[e_rows][:, b * t:(b + 1) * t] if e_rows else np.zeros((0, t)),
                cs.U[u_rows][:, b * t:(b + 1) * t] if u_rows else np.zeros((0, t)),
                cs.epsilon[e_rows],
                t,
            )
            mb = ModelSpec(f"{self.model.name}@s{b}", self.model.logit_types, csb,
                           self.model.notes)
            subs.append(ModelEval(mb, self.dims, 1))
        return subs

    def eta_reduced(self, P: np.ndarray) -> np.ndarray:
        if self.local_rows.size == 0:
            return np.zeros((P.shape[0], 0))
        parts = [eta_batch(P[:, b, :], self.link, rows=self.local_rows)
                 for b in range(self.s)]
        return np.concatenate(parts, axis=1)

    def delta(self, P: np.ndarray) -> np.ndarray:
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
        ok = np.ones(P.shape[0], dtype=bool)
        if self.U.shape[0]:
            ok = np.all(eta @ self.U.T >= 0, axis=1)
        return stat, ok


# ---------------------------------------------------------------------------
# Proportion estimators
# ---------------------------------------------------------------------------

def _direct_result(acc: int, n: int) -> ProportionEstimate:
    """The direct estimate from acc accepted draws out of n."""
    p = acc / n
    se = float(np.sqrt(p * (1 - p) / n))
    return ProportionEstimate(
        value=p, n_draws=n, ess=float(acc), se=se, route="direct",
        log_value=float(np.log(p)) if p > 0 else -np.inf,
        rel_se=float(se / p) if p > 0 else np.inf, accepted=acc,
        warnings=[] if acc else ["rare event: no draws satisfied the constraints"],
    )


def estimate_proportion_direct(draws: np.ndarray, ev: ModelEval) -> ProportionEstimate:
    """Acceptance fraction of delta over explicit draws (n, s, r)."""
    if draws.ndim != 3 or draws.shape[0] < 1:
        raise EngineError("draws must be a non-empty (n, s, r) array")
    return _direct_result(int(ev.delta(draws).sum()), draws.shape[0])


def _direct_stream(ev: ModelEval, alpha: np.ndarray, n: int, rng, chunk: int) -> ProportionEstimate:
    acc = 0
    for _, P in _chunks(rng, alpha, n, chunk):
        acc += int(ev.delta(P).sum())
        del P                   # not held while the next chunk is drawn
    return _direct_result(acc, n)


def _importance_stream(ev: ModelEval, target_alpha: np.ndarray, g: ImportanceDensity,
                       n: int, rng, chunk: int) -> ProportionEstimate:
    """mean of delta * p/g over n draws from g, all in log space."""
    weight = _log_weight(target_alpha, g.params)
    ls1, ls2 = [], []
    acc = 0
    max_lw = -np.inf
    for _, P in _chunks(rng, g.params, n, chunk):
        d = ev.delta(P)
        if np.any(d):
            logw = weight(P[d])
            ls1.append(logsumexp(logw))
            ls2.append(logsumexp(2.0 * logw))
            acc += int(d.sum())
            max_lw = max(max_lw, float(np.max(np.abs(logw))))
        del P                   # not held while the next chunk is drawn
    if acc == 0:
        return ProportionEstimate(
            value=0.0, n_draws=n, ess=0.0, se=0.0, route="importance",
            log_value=-np.inf, rel_se=np.inf, accepted=0,
            multiplier=g.multiplier, alpha=[float(a) for a in g.alpha],
            warnings=["rare event: no draws satisfied the constraints under g"],
        )
    l1 = logsumexp(np.array(ls1))
    l2 = logsumexp(np.array(ls2))
    log_value = l1 - np.log(n)
    ess = float(np.exp(2.0 * l1 - l2))
    rel_var = max(0.0, np.exp(l2 - 2.0 * l1 + np.log(n)) - 1.0) / n
    rel_se = float(np.sqrt(rel_var))
    value = float(np.exp(log_value))
    return ProportionEstimate(
        value=value, n_draws=n, ess=ess, se=value * rel_se, route="importance",
        log_value=float(log_value), rel_se=rel_se, accepted=acc,
        multiplier=g.multiplier, alpha=[float(a) for a in g.alpha],
        max_abs_log_weight=max_lw,
    )


# ---------------------------------------------------------------------------
# Importance density tuning
# ---------------------------------------------------------------------------

def make_density(center: np.ndarray, target_alpha: np.ndarray, multiplier: float,
                 center_kind: str = "custom") -> ImportanceDensity:
    conc = target_alpha.sum(axis=1)              # per-stratum target concentration
    params = multiplier * conc[:, None] * center
    return ImportanceDensity(params=params, alpha=multiplier * conc,
                             multiplier=float(multiplier), center=center,
                             center_kind=center_kind)


def tune_alpha(ev: ModelEval, target_alpha: np.ndarray, center: np.ndarray,
               settings: RunSettings, seed: int, center_kind: str = "custom",
               grid=None):
    """Pick the concentration multiplier with the best pilot ESS subject to
    an acceptance floor; extend the grid geometrically above its top when
    nothing on it reaches the floor.

    Returns (ImportanceDensity, diagnostics). Raises TuningError when no
    concentration, extended included, yields a single accepted draw, and
    EngineError before any probe when tune_extend_factor is not above 1.

    The grid probes are one of the engine's fan-out points (see
    _ordered_map): they run on whatever is left of the process-wide thread
    budget, which inside concurrent replicates, strata or chain parts is
    often nothing, and then they run on the calling thread. Each draws
    from its own stream substream(seed, "tune", idx). The probes
    share `ev`, `target_alpha` and `center`, and only read them.
    Results are recorded in grid order, so the density and
    diagnostics are the same whatever the thread count. The geometric
    extension runs one probe at a time, since each step depends on the one
    before.
    """
    grid = list(grid if grid is not None else settings.alpha_grid)
    if not grid or any(a <= 0 for a in grid):
        raise EngineError("alpha grid must be non-empty and positive")
    if not settings.tune_extend_factor > 1:      # the extension would never grow
        raise EngineError(
            f"tune_extend_factor must be > 1, got {settings.tune_extend_factor!r}")
    results = []

    probe_n = max(4000, settings.pilot_n // 4)

    def draw(idx, mult):
        g = make_density(center, target_alpha, mult, center_kind)
        return _importance_stream(ev, target_alpha, g, probe_n,
                                  substream(seed, "tune", idx), settings.chunk)

    def record(mult, est):
        results.append({"multiplier": float(mult),
                        "acceptance": est.accepted / probe_n,
                        "ess": est.ess, "log_value": est.log_value})
        return est

    ests = _ordered_map(lambda im: draw(*im), enumerate(grid))
    for m, e in zip(grid, ests):
        record(m, e)
    qualifying = [(e.ess, m, e) for m, e in zip(grid, ests)
                  if e.accepted / probe_n >= settings.tune_accept_min]
    idx = len(grid)
    if not qualifying:
        mult = max(grid)
        extra_hits = 0
        while mult < settings.tune_extend_max_multiplier:
            mult *= settings.tune_extend_factor
            e = record(mult, draw(idx, mult))
            idx += 1
            if e.accepted / probe_n >= settings.tune_accept_min:
                qualifying.append((e.ess, mult, e))
                extra_hits += 1
                if extra_hits >= 3:
                    break
            elif extra_hits:
                break
    if not qualifying:
        # fall back to the best raw acceptance if anything accepted at all
        best = max(results, key=lambda r: (r["acceptance"], r["ess"]))
        if best["acceptance"] > 0:
            g = make_density(center, target_alpha, best["multiplier"], center_kind)
            return g, {"grid": results, "chosen": best["multiplier"],
                       "fallback": "max-acceptance", "ess": best["ess"]}
        raise TuningError(
            "no pilot draw satisfied the constraints at any tuned concentration; "
            "increase pilot_n or improve the centring point"
        )
    ess_best = max(q[0] for q in qualifying)
    if ess_best >= 10.0 * settings.ess_floor:
        ess_pick, mult_best, _ = max(qualifying, key=lambda q: q[0])
    else:
        # degenerate regime: pilot ESS is too noisy to rank concentrations,
        # and wider proposals cover the unconstrained directions better, so
        # take the smallest concentration within a factor 3 of the best
        near_best = [q for q in qualifying if q[0] >= ess_best / 3.0]
        ess_pick, mult_best, _ = min(near_best, key=lambda q: q[1])
    g = make_density(center, target_alpha, mult_best, center_kind)
    return g, {"grid": results, "chosen": float(mult_best), "fallback": None,
               "ess": float(ess_pick)}


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
    if model.constraints.n_eq == 0:
        return model
    frac = 0.01 if side == "prior" else 0.7
    return ModelSpec(model.name, model.logit_types,
                     model.constraints.scaled_epsilon(frac), model.notes)


class _CentreMemo:
    """Centring fits solved in one replicate_bf call, by _centre_key.

    Each key is fitted once even when concurrent replicates, chain parts or
    strata miss it together: the first caller stores an unfinished Future
    under the key and fits, and later callers wait on that Future. A
    failed fit hands its exception to every waiter and leaves the key
    empty, so a caller that comes after the failure fits again. A fit
    given up with its caller (cancel.Cancelled) is not a failure of the
    problem: its waiters take the key over, unless they were given up too.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._fits = {}

    def get(self, key, fit):
        while True:
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
            try:
                return fut.result()
            except cancel.Cancelled:
                if owner:
                    raise
                cancel.check()


# The memo of the running replicate_bf call; None outside such a call, so
# no fit outlives it.
_CENTRES: ContextVar[_CentreMemo | None] = ContextVar("margbayes_centres", default=None)


def _centre_key(side: str, fit_model: ModelSpec, table: StratifiedTable,
                settings: RunSettings, margin: float) -> tuple:
    """Everything the centring fit reads. The interior margin enters the
    fit only through the inequality rows."""
    cs = fit_model.constraints
    key = [side, tuple(fit_model.logit_types), tuple(table.dims), table.s,
           settings.smoothing]
    arrays = [cs.E, cs.U, cs.epsilon]
    if side == "posterior":
        arrays.append(table.counts_matrix())
    for arr in arrays:
        key += [arr.shape, arr.tobytes()]
    if cs.n_ineq:
        key.append(margin)
    return tuple(key)


def _centre(side: str, model: ModelSpec, table: StratifiedTable,
            settings: RunSettings, margin: float):
    """Importance-density centre per the side: the flat-likelihood interior
    point for the prior, the constrained MLE for the posterior. Inside a
    replicate_bf call a problem already solved there is not fitted again."""
    fit_model = _centring_model(model, side)

    def fit():
        if side == "prior":
            res = fitmod.prior_center(fit_model, table.dims, table.s,
                                      fitmod.FitOptions(smoothing=settings.smoothing),
                                      interior_margin=margin)
            kind = "prior_center"
        else:
            opts = fitmod.FitOptions(smoothing=settings.smoothing, interior_margin=margin)
            res = fitmod.constrained_mle(table, fit_model, opts)
            kind = "constrained_mle"
        res.pi_hat.flags.writeable = False      # may be handed out again from the memo
        return res.pi_hat, kind

    memo = _CENTRES.get()
    if memo is None:
        return fit()
    return memo.get(_centre_key(side, fit_model, table, settings, margin), fit)


def _tuned_density(side: str, ev: ModelEval, target_alpha, model, table,
                   settings: RunSettings, seed: int, grid=None):
    """Centre + tune, walking the interior-margin ladder until the pilot
    ESS looks healthy (or nothing works at any margin). The ladder is the
    side's default margin (prior_margin for the prior, 0 for the
    posterior), then margin_ladder.

    The ladder walks distinct centring problems: a rung whose margin is
    that of an earlier rung, or any rung after the first when the model
    has no inequality rows (the margin then never reaches the fit), is
    skipped. Rung j tunes with seed + j whether or not rungs before it
    were skipped."""
    default = settings.prior_margin if side == "prior" else 0.0
    walked = set()
    last_err = None
    best = None
    for j, margin in enumerate([default, *settings.margin_ladder]):
        problem = margin if model.constraints.n_ineq else None
        if problem in walked:
            continue
        walked.add(problem)
        try:
            center, kind = _centre(side, model, table, settings, margin)
            g, diag = tune_alpha(ev, target_alpha, center, settings,
                                 seed + j, center_kind=kind, grid=grid)
            diag["margin"] = margin
        except (TuningError, fitmod.FitError) as err:
            last_err = err
            continue
        if best is None or diag.get("ess", 0.0) > best[1].get("ess", 0.0):
            best = (g, diag)
        if diag.get("ess", 0.0) >= 2.0 * settings.ess_floor:
            return g, diag
    if best is not None:
        return best
    raise last_err


def _tune_seed(seed: int, side: str, path: tuple, draw_key: int = 0) -> int:
    """Seed of the tuning for one side, unit (path) and chain redraw; the
    low bit keeps the two sides' tuning streams apart."""
    return ((int(seed) << 1) + _SIDES[side] + 131 * (path[0] + 1 if path else 0)
            + 977 * draw_key)


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
# Side estimates (proportion under prior or posterior)
# ---------------------------------------------------------------------------

def _combine_product(parts, n_draws: int) -> ProportionEstimate:
    """Product of independent per-stratum proportion estimates."""
    log_value = float(sum(p.log_value for p in parts))
    finite = np.isfinite(log_value)
    rel_se = float(np.sqrt(sum(min(p.rel_se, 1e6) ** 2 for p in parts))) if finite else np.inf
    value = float(np.exp(log_value)) if finite else 0.0
    routes = sorted({p.route for p in parts})
    warnings = [w for p in parts for w in p.warnings]
    mults = [p.multiplier for p in parts]
    return ProportionEstimate(
        value=value, n_draws=n_draws,
        ess=float(min(p.ess for p in parts)),
        se=value * rel_se if finite else 0.0,
        route="+".join(routes),
        log_value=log_value, rel_se=rel_se,
        accepted=int(min(p.accepted for p in parts)),
        multiplier=None if all(m is None for m in mults) else
        float(max(m for m in mults if m is not None)),
        alpha=[float(a) for p in parts if p.alpha for a in p.alpha] or None,
        max_abs_log_weight=float(max(p.max_abs_log_weight for p in parts)),
        warnings=warnings,
    )


def _side_estimate_one(side, ev, target_alpha, table, settings, seed, path):
    """Pilot-routed estimate over one (possibly joint) evaluation unit."""
    if ev.cs.is_empty():                 # no constraint: every draw is accepted
        return _direct_result(settings.n_draws, settings.n_draws)
    pilot = _direct_stream(ev, target_alpha, settings.pilot_n,
                           substream(seed, side, "pilot", *path), settings.chunk)
    if pilot.value >= settings.direct_threshold:
        return _direct_stream(ev, target_alpha, settings.n_draws,
                              substream(seed, side, "main", *path), settings.chunk)
    g, diag = _tuned_density(side, ev, target_alpha, ev.model, table, settings,
                             _tune_seed(seed, side, path))
    est = _importance_stream(ev, target_alpha, g, settings.n_draws,
                             substream(seed, side, "main", *path), settings.chunk)
    if diag.get("fallback"):
        est.warnings.append(f"tuner fell back to {diag['fallback']}")
    return est


def _side_estimate(side: str, ev: ModelEval, target_alpha, table,
                   settings: RunSettings, seed: int) -> ProportionEstimate:
    """Route selection per the pilot acceptance; stratum-separable models
    factorise into independent per-stratum estimates."""
    def one(unit):
        e, sl, t, path = unit
        return _side_estimate_one(side, e, target_alpha[sl], t, settings, seed, path)

    parts = _ordered_map(one, _units(ev, table))
    # a split has one unit per stratum and at least two strata
    return parts[0] if len(parts) == 1 else _combine_product(parts, settings.n_draws)


# ---------------------------------------------------------------------------
# Bayes factors: plain proportion ratio (inequality-only models)
# ---------------------------------------------------------------------------

def estimate_bf(model: ModelSpec, table: StratifiedTable, prior: PriorSpec,
                settings: RunSettings, seed: int) -> BFEstimate:
    """log Bayes factor of an inequality-constrained model versus the
    encompassing model: posterior over prior satisfaction proportions."""
    if model.constraints.n_eq:
        raise EngineError(
            f"model {model.name!r} has about-equality rows; use about_equality_bf"
        )
    ev = ModelEval(model, table.dims, table.s)
    post_alpha = prior.posterior(table)
    # One side after the other, not through _ordered_map: a model that
    # cannot be tuned fails on its prior side, and its centring fits and
    # probes are mostly Python, so a posterior side run beside them holds
    # the GIL and makes that failure several times slower to come.
    c_side = _side_estimate("prior", ev, prior.concentration, table, settings, seed)
    d_side = _side_estimate("posterior", ev, post_alpha, table, settings, seed)
    for side, est in (("prior", c_side), ("posterior", d_side)):
        if est.value == 0.0 and est.ess == 0.0:
            raise UnboundedEstimateError(side)
    ln_bf = d_side.log_value - c_side.log_value
    log10 = ln_bf / LN10
    return BFEstimate(
        log10_bf=float(log10), ln_bf=float(ln_bf),
        replicates=[float(log10)], mean=float(log10), sd=0.0,
        route=f"{c_side.route}/{d_side.route}",
        components={"prior": c_side.to_dict(), "posterior": d_side.to_dict(),
                    "model": model.name},
        settings={"seed": int(seed), **settings.to_dict()},
    )


# ---------------------------------------------------------------------------
# Shrinking chain (about-equality models)
# ---------------------------------------------------------------------------

class _ChainPart:
    """One reweightable importance sample for the chain: per-draw
    log-weights plus the equality statistics and inequality flags of the
    model, all relative to the stage-1 tolerances so one sample serves
    every level."""

    def __init__(self, side, model, target_alpha, table, settings, seed, path):
        self.side = side
        self.settings = settings
        self.seed = seed
        self.path = path
        self.table = table
        self.target_alpha = target_alpha
        self.model = model                  # constraints at stage-1 epsilon
        self.ev = ModelEval(model, table.dims, table.s)
        self.draw_key = 0
        self.g = None
        self._draw(scale=1.0)

    def _draw(self, scale):
        """Tune on the region at the current tolerance scale and draw a
        fresh sample; stats stay normalised to stage-1 epsilon."""
        now, ev_now = self.model, self.ev
        cs = now.constraints
        if cs.n_eq and scale != 1.0:
            now = ModelSpec(now.name, now.logit_types,
                            cs.with_epsilon(cs.epsilon * scale), now.notes)
            ev_now = ModelEval(now, self.table.dims, self.table.s)
        grid = None
        if self.g is not None:
            m = self.g.multiplier
            grid = [m * f for f in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        g, diag = _tuned_density(self.side, ev_now, self.target_alpha, now,
                                 self.table, self.settings,
                                 _tune_seed(self.seed, self.side, self.path, self.draw_key),
                                 grid=grid)
        weight = _log_weight(self.target_alpha, g.params)
        rng = substream(self.seed, self.side, "main", *self.path, self.draw_key)
        n = self.settings.n_draws
        logw = np.empty(n)
        stat = np.empty(n)
        ineq = np.empty(n, dtype=bool)
        for i, P in _chunks(rng, g.params, n, self.settings.chunk):
            j = i + P.shape[0]
            logw[i:j] = weight(P)
            stat[i:j], ineq[i:j] = self.ev.eq_stat_and_ineq(P)
            del P               # not held while the next chunk is drawn
        self.logw, self.stat, self.ineq = logw, stat, ineq
        self.g = g
        self.diag = diag
        self.max_abs_logw = float(np.max(np.abs(logw)))

    def level(self, scale):
        """(ln proportion, ess) at a tolerance scale."""
        d = (self.stat <= scale) & self.ineq
        if not np.any(d):
            return -np.inf, 0.0
        lw = self.logw[d]
        l1 = logsumexp(lw)
        l2 = logsumexp(2.0 * lw)
        return float(l1 - np.log(self.settings.n_draws)), float(np.exp(2.0 * l1 - l2))

    def level_count(self, scale):
        """Accepted draws at the tolerance scale."""
        return int(((self.stat <= scale) & self.ineq).sum())

    def ensure(self, scale):
        """Retune and redraw at the current tolerance when the level has
        too few accepted draws or too little weighted ESS; returns True if
        a redraw happened. Stage factors difference the common weight noise
        away on shared draws, so the accepted count is the binding
        requirement."""
        _, ess = self.level(scale)
        healthy = (self.level_count(scale) >= max(200, int(0.02 * self.settings.n_draws))
                   and ess >= self.settings.ess_floor)
        if healthy or self.draw_key >= self.settings.max_retunes:
            return False
        self.draw_key += 1
        self._draw(scale)
        return True


def about_equality_bf(model: ModelSpec, table: StratifiedTable, prior: PriorSpec,
                      schedule: EpsilonSchedule, settings: RunSettings,
                      seed: int) -> BFEstimate:
    """Shrinking-tolerance Bayes factor for a model with about-equality
    rows: one tuned importance sample per side (per stratum when the model
    factorises), reweighted across the geometric epsilon levels; the
    reported value is the exact sum of the stored stage logs.

    A side whose level ESS decays under the floor is re-tuned at the
    current tolerance and redrawn; if the floor still cannot be held the
    chain stops early and flags truncation.
    """
    cs = model.constraints
    if cs.n_eq == 0:
        raise EngineError(f"model {model.name!r} has no equality rows; use estimate_bf")
    eps1 = np.full(cs.n_eq, schedule.epsilon_start)
    model = ModelSpec(model.name, model.logit_types, cs.with_epsilon(eps1), model.notes)
    targets = {"prior": prior.concentration, "posterior": prior.posterior(table)}
    units = _units(ModelEval(model, table.dims, table.s), table)
    parts = _ordered_map(
        lambda make: make(),
        [partial(_ChainPart, side, ev.model, targets[side][sl], t, settings, seed, path)
         for side in ("prior", "posterior") for ev, sl, t, path in units])
    sides = {side: [p for p in parts if p.side == side] for side in ("prior", "posterior")}

    def side_level(side, scale):
        lns, esss = zip(*(p.level(scale) for p in sides[side]))
        return float(sum(lns)), float(min(esss))

    # retunes aim for healthy levels; a level stays usable down to a small
    # accepted-draw count because the stage factors difference the common
    # weight noise away on shared draws
    count_floor = 50
    stage_log10 = []
    stage_info = []
    truncated = False
    warnings = []
    prev = {}
    for level in range(1, schedule.max_stages + 1):
        scale = schedule.b ** (level - 1)
        redrawn = any(_ordered_map(lambda p: p.ensure(scale), parts))
        cur = {side: side_level(side, scale) for side in sides}
        if redrawn and level > 1:
            # same-sample differencing: refresh the previous level too
            prev = {s: side_level(s, schedule.b ** (level - 2)) for s in sides}
        counts = {s: min(p.level_count(scale) for p in sides[s]) for s in sides}
        bad = [s for s in cur if not np.isfinite(cur[s][0]) or counts[s] < count_floor]
        if bad:
            if level == 1:
                side_bad = bad[0]
                if not np.isfinite(cur[side_bad][0]):
                    raise UnboundedEstimateError(side_bad)
            else:
                truncated = True
                break
        weak = [s for s in cur if cur[s][1] < settings.ess_floor]
        if weak:
            warnings.append(
                f"level {level}: ESS under {settings.ess_floor:g} on "
                + "/".join(weak) + " side")
        if level == 1:
            ln_stage = cur["posterior"][0] - cur["prior"][0]
        else:
            ln_stage = (cur["posterior"][0] - prev["posterior"][0]) \
                - (cur["prior"][0] - prev["prior"][0])
        stage_log10.append(ln_stage / LN10)
        stage_info.append({
            "level": level,
            "epsilon_scale": scale,
            "log10_stage": ln_stage / LN10,
            "prior_ln": cur["prior"][0], "prior_ess": cur["prior"][1],
            "posterior_ln": cur["posterior"][0], "posterior_ess": cur["posterior"][1],
        })
        prev = dict(cur)
        if level == 1 and bad:
            truncated = True
            break
        if level > 1 and abs(ln_stage / LN10) < schedule.stop_tol:
            break

    log10 = float(sum(stage_log10))
    final_scale = stage_info[-1]["epsilon_scale"] if stage_info else 1.0
    comp = {
        "model": model.name,
        "stages": stage_info,
        "stage_log10s": [float(v) for v in stage_log10],
        "final_epsilon": [float(e) for e in eps1 * final_scale],
        "truncated": truncated,
        "warnings": warnings,
        "tuning": {side: [p.diag for p in sides[side]] for side in sides},
        "retunes": {side: [p.draw_key for p in sides[side]] for side in sides},
        "max_abs_log_weight": {side: max(p.max_abs_logw for p in sides[side])
                               for side in sides},
    }
    return BFEstimate(
        log10_bf=log10, ln_bf=log10 * LN10,
        replicates=[log10], mean=log10, sd=0.0,
        route="about_equality",
        components=comp,
        settings={"seed": int(seed), "schedule": asdict(schedule), **settings.to_dict()},
    )


def bayes_factor(model: ModelSpec, table: StratifiedTable, prior: PriorSpec,
                 settings: RunSettings, seed: int,
                 schedule: EpsilonSchedule | None = None) -> BFEstimate:
    """Dispatch on constraint content: the shrinking chain when equality
    rows are present, the plain proportion ratio otherwise."""
    if model.constraints.n_eq:
        return about_equality_bf(model, table, prior, schedule or EpsilonSchedule(),
                                 settings, seed)
    return estimate_bf(model, table, prior, settings, seed)


def replicate_bf(model: ModelSpec, table: StratifiedTable, prior: PriorSpec,
                 settings: RunSettings, B: int, seed: int,
                 schedule: EpsilonSchedule | None = None) -> BFEstimate:
    """B independently seeded runs; the reported point estimate is the
    replicate mean of the log Bayes factors. The runs go concurrently (see
    _ordered_map) and share one centring memo."""
    if B < 1:
        raise EngineError("need B >= 1 replicates")

    def run(i):
        rep_seed = int(np.random.SeedSequence(int(seed), spawn_key=(3, i)).generate_state(1)[0])
        est = bayes_factor(model, table, prior, settings, rep_seed, schedule)
        info = {"log10_bf": est.log10_bf, "route": est.route, "seed": rep_seed}
        if est.route == "about_equality":
            info["final_epsilon"] = est.components["final_epsilon"]
            info["truncated"] = est.components["truncated"]
            info["n_stages"] = len(est.components["stages"])
        return info

    centres = _CENTRES.set(_CentreMemo())
    try:
        infos = _ordered_map(run, range(B))
    finally:
        _CENTRES.reset(centres)
    reps = [info["log10_bf"] for info in infos]
    mean = float(np.mean(reps))
    sd = float(np.std(reps, ddof=1)) if B > 1 else 0.0
    return BFEstimate(
        log10_bf=mean, ln_bf=mean * LN10, replicates=[float(v) for v in reps],
        mean=mean, sd=sd, route=infos[0]["route"],
        components={"model": model.name, "replicates": infos, "B": B},
        settings={"seed": int(seed), "B": B,
                  **({"schedule": asdict(schedule)} if schedule else {}),
                  **settings.to_dict()},
    )


def compare_models(bf_k: BFEstimate, bf_l: BFEstimate) -> float:
    """log10 B_kl from the two encompassing-referenced estimates."""
    return float(bf_k.log10_bf - bf_l.log10_bf)


def jeffreys_label(log_bf: float) -> str:
    """Evidence label at thresholds 0.5 / 1 / 2 on |log BF|; the direction
    (for or against) is reported separately by callers."""
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


@dataclass
class PosteriorSummary:
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
                                prior: PriorSpec, n: int, seed: int,
                                chunk: int = 32768, keep_cap: int = 200_000,
                                level: float = 0.95) -> PosteriorSummary:
    """Accepted encompassing-posterior draws and their summaries.

    Of the n draws, the first min(accepted, keep_cap) accepted ones, in
    draw order, are kept for the means and quantiles; the acceptance rate
    counts them all. A rare-event warning is attached when almost nothing
    is accepted.

    Each stratum's summaries are one unit of _ordered_map: the quantiles
    of its pi columns, then its eta rows (one eta_batch call), their mean
    and their quantiles. Both quantile levels are taken in one partition
    of a small private transposed copy of a few columns; a column's
    partition does not depend on the other columns, so the bits are those
    of two separate np.quantile calls over the whole array.
    """
    if n < 1:
        raise EngineError(f"need n >= 1 posterior draws, got {n}")
    ev = ModelEval(model, table.dims, table.s)
    alpha = prior.posterior(table)
    P = np.empty((min(n, keep_cap), table.s, table.r))
    acc = kept = 0
    for _, D in _chunks(substream(seed, 0), alpha, n, chunk):
        if not ev.cs.is_empty():
            D = D[ev.delta(D)]
        acc += D.shape[0]
        m = min(D.shape[0], P.shape[0] - kept)
        P[kept:kept + m] = D[:m]
        kept += m
        del D                   # not held while the next chunk is drawn
    warnings = []
    if acc == 0:
        raise UnboundedEstimateError(
            "posterior", "no posterior draw satisfied the model constraints; "
            "an about-equality schedule is the usual remedy for equality-type models")
    frac = acc / n
    if frac < 1e-3:
        warnings.append(
            f"acceptance {frac:.2e} is tiny; summaries rest on few draws and an "
            "about-equality route is likely more appropriate")
    P = P[:kept]
    q = [(1 - level) / 2, 1 - (1 - level) / 2]

    def quantiles(X):
        # (2, columns) of X (draws, columns), _SUMMARY_COLS columns at a time,
        # each block from a private (columns, draws) copy partitioned in place
        out = np.empty((2, X.shape[1]))
        for c in range(0, X.shape[1], _SUMMARY_COLS):
            block = np.ascontiguousarray(X[:, c:c + _SUMMARY_COLS].T)
            out[:, c:c + _SUMMARY_COLS] = np.quantile(block, q, axis=1, overwrite_input=True)
        return out

    def summarise(b):
        pi_q = quantiles(P[:, b, :])
        eta = eta_batch(P[:, b, :], ev.link)
        return pi_q, eta.mean(axis=0), quantiles(eta)

    pi_q, eta_mean, eta_q = zip(*_ordered_map(summarise, range(table.s)))
    pi_q = np.stack(pi_q, axis=1)                # (2, s, r)
    eta_q = np.concatenate(eta_q, axis=1)        # (2, s*t)
    mean_pi = P.mean(axis=0)
    mean_sat = bool(ev.delta(mean_pi[None, :, :])[0]) if not ev.cs.is_empty() else True
    return PosteriorSummary(
        n_drawn=n, n_accepted=acc, acceptance=frac,
        pi_mean=mean_pi, pi_lo=pi_q[0], pi_hi=pi_q[1],
        eta_mean=np.concatenate(eta_mean), eta_lo=eta_q[0], eta_hi=eta_q[1],
        mean_satisfies=mean_sat, warnings=warnings,
    )
