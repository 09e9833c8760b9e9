"""Constraint sets over the marginal parameter vector.

Hypotheses are linear systems |E eta| <= eps (about equality) and
U eta >= 0 on the stacked per-stratum eta. Builders cover the standard
bivariate hypotheses (positive association, independence, uniform
association, marginal homogeneity, stochastic order), higher-way
interaction zeroing, and the Kronecker stratified forms; a string
registry maps model-spec JSON entries onto builders.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .link import LinkMatrices, link_for


class ConstraintError(ValueError):
    """Malformed or dimensionally inconsistent constraints."""


@dataclass(frozen=True)
class ConstraintSet:
    """Equality matrix E with tolerances eps, inequality matrix U.

    Columns run over the stacked eta of all strata (length s*t).
    """

    E: np.ndarray
    U: np.ndarray
    epsilon: np.ndarray
    ncols: int

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.E, dtype=float))
        U = np.atleast_2d(np.asarray(self.U, dtype=float))
        if E.size == 0:
            E = np.zeros((0, self.ncols))
        if U.size == 0:
            U = np.zeros((0, self.ncols))
        eps = np.asarray(self.epsilon, dtype=float).reshape(-1)
        if eps.size == 1 and E.shape[0] != 1:
            eps = np.full(E.shape[0], float(eps[0]))
        if E.shape[1] != self.ncols or U.shape[1] != self.ncols:
            raise ConstraintError(
                f"constraint columns {E.shape[1]}/{U.shape[1]} != stacked eta length {self.ncols}"
            )
        if eps.shape[0] != E.shape[0]:
            raise ConstraintError(f"{E.shape[0]} equality rows but {eps.shape[0]} tolerances")
        if E.shape[0] > 0 and not np.all(np.isfinite(eps) & (eps > 0)):
            raise ConstraintError("about-equality tolerances must be finite and strictly positive")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "epsilon", eps)

    @property
    def n_eq(self) -> int:
        return self.E.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.U.shape[0]

    def is_empty(self) -> bool:
        return self.n_eq == 0 and self.n_ineq == 0

    def with_epsilon(self, epsilon) -> "ConstraintSet":
        return ConstraintSet(self.E, self.U, epsilon, self.ncols)

    def scaled_epsilon(self, factor: float) -> "ConstraintSet":
        return ConstraintSet(self.E, self.U, self.epsilon * factor, self.ncols)

    def active_eta_rows(self) -> np.ndarray:
        """Stacked-eta columns any constraint row touches."""
        touch = np.zeros(self.ncols, dtype=bool)
        if self.n_eq:
            touch |= np.any(self.E != 0, axis=0)
        if self.n_ineq:
            touch |= np.any(self.U != 0, axis=0)
        return np.nonzero(touch)[0]


def empty_constraints(ncols: int) -> ConstraintSet:
    return ConstraintSet(np.zeros((0, ncols)), np.zeros((0, ncols)), np.zeros(0), ncols)


def satisfies(eta, constraints: ConstraintSet):
    """delta_k: |E eta| <= eps and U eta >= 0, elementwise and weak.

    Accepts a single eta vector or an (N, ncols) batch.
    """
    eta = np.asarray(eta, dtype=float)
    single = eta.ndim == 1
    if single:
        eta = eta[None, :]
    if eta.shape[1] != constraints.ncols:
        raise ConstraintError(f"eta length {eta.shape[1]} != {constraints.ncols}")
    ok = np.ones(eta.shape[0], dtype=bool)
    if constraints.n_eq:
        ok &= np.all(np.abs(eta @ constraints.E.T) <= constraints.epsilon, axis=1)
    if constraints.n_ineq:
        ok &= np.all(eta @ constraints.U.T >= 0, axis=1)
    return bool(ok[0]) if single else ok


def compose(*sets: ConstraintSet) -> ConstraintSet:
    """Conjunction of constraint sets: stacked rows."""
    sets = [s for s in sets if s is not None]
    if not sets:
        raise ConstraintError("nothing to compose")
    ncols = sets[0].ncols
    if any(s.ncols != ncols for s in sets):
        raise ConstraintError("cannot compose constraints over different eta lengths")
    return ConstraintSet(
        np.vstack([s.E for s in sets]),
        np.vstack([s.U for s in sets]),
        np.concatenate([s.epsilon for s in sets]),
        ncols,
    )


# ---------------------------------------------------------------------------
# Elementary matrices
# ---------------------------------------------------------------------------

def first_differences(h: int) -> np.ndarray:
    """D_h of shape (h-1, h) with D_h x = (x2-x1, ..., x_h-x_{h-1})."""
    if h < 2:
        raise ConstraintError(f"first differences need h >= 2, got {h}")
    return np.eye(h)[1:] - np.eye(h)[:-1]


def _selector(link: LinkMatrices, rows) -> np.ndarray:
    sel = np.zeros((len(rows), link.t))
    sel[np.arange(len(rows)), rows] = 1.0
    return sel


def _bivariate(link: LinkMatrices):
    if link.q != 2:
        raise ConstraintError(f"bivariate hypothesis on a {link.q}-way link")
    m1, m2 = link.dims
    c = m1 + m2 - 2
    d = (m1 - 1) * (m2 - 1)
    return m1, m2, c, d


def stratify(base: np.ndarray, s: int, mode: str) -> np.ndarray:
    """Kronecker expansion over stacked per-stratum eta.

    within:  I_s (x) base   -- impose base in every stratum
    between: D_s (x) base   -- first differences of base across strata
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    if mode == "within":
        return np.kron(np.eye(s), base)
    if mode == "between":
        if s < 2:
            raise ConstraintError("between-stratum constraints need s >= 2")
        return np.kron(first_differences(s), base)
    raise ConstraintError(f"unknown stratify mode {mode!r}")


# ---------------------------------------------------------------------------
# Named hypothesis builders. Each returns a ConstraintSet over s*t columns.
# ---------------------------------------------------------------------------

def positive_association(link: LinkMatrices, s: int = 1) -> ConstraintSet:
    """All log-odds ratios non-negative in every stratum: U = (O_{d,c} I_d).

    With local logits this is TP2, with global logits PQD.
    """
    _, _, c, d = _bivariate(link)
    sel = _selector(link, link.rows_of((1, 1)))
    return ConstraintSet(np.zeros((0, s * link.t)), stratify(sel, s, "within"),
                         np.zeros(0), s * link.t)


def independence(link: LinkMatrices, s: int = 1, epsilon: float = 0.1) -> ConstraintSet:
    """|log-odds ratios| <= eps in every stratum (conditional independence
    when s > 1)."""
    _, _, c, d = _bivariate(link)
    sel = _selector(link, link.rows_of((1, 1)))
    E = stratify(sel, s, "within")
    return ConstraintSet(E, np.zeros((0, s * link.t)), epsilon, s * link.t)


def uniform_association(link: LinkMatrices, s: int = 1, epsilon: float = 0.1,
                        across_strata: bool = False) -> ConstraintSet:
    """All log-odds ratios equal: E = (O_{d-1,c} D_{d-1}) per stratum, or
    first differences of the pooled stacked values when across_strata.

    On links with q > 2 the pool covers every two-way interaction block.
    """
    rows = [i for b in link.blocks if b.order == 2 for i in range(b.lo, b.hi)]
    d = len(rows)
    sel = _selector(link, rows)
    if across_strata and s > 1:
        pooled = np.kron(np.eye(s), sel)          # (s*d, s*t)
        E = first_differences(s * d) @ pooled
    elif d < 2:
        E = np.zeros((0, s * link.t))
    else:
        E = stratify(first_differences(d) @ sel, s, "within")
    return ConstraintSet(E, np.zeros((0, s * link.t)), epsilon, s * link.t)


def marginal_homogeneity(link: LinkMatrices, s: int = 1, epsilon: float = 0.1) -> ConstraintSet:
    """Equal univariate margins of a square table: E = (-I I O)."""
    m1, m2, c, d = _bivariate(link)
    if m1 != m2:
        raise ConstraintError("marginal homogeneity needs a square table")
    base = _selector(link, link.rows_of((0, 1))) - _selector(link, link.rows_of((1, 0)))
    return ConstraintSet(stratify(base, s, "within"), np.zeros((0, s * link.t)),
                         epsilon, s * link.t)


def stochastic_order(link: LinkMatrices, s: int = 1, direction: str = "ge") -> ConstraintSet:
    """Second variable's logits >= first's ((-I I O) rows); 'le' flips it."""
    m1, m2, c, d = _bivariate(link)
    if m1 != m2:
        raise ConstraintError("stochastic order needs a square table")
    base = _selector(link, link.rows_of((0, 1))) - _selector(link, link.rows_of((1, 0)))
    if direction == "le":
        base = -base
    elif direction != "ge":
        raise ConstraintError(f"direction must be 'ge' or 'le', got {direction!r}")
    return ConstraintSet(np.zeros((0, s * link.t)), stratify(base, s, "within"),
                         np.zeros(0), s * link.t)


def zero_higher_interactions(link: LinkMatrices, s: int = 1, order: int = 2,
                             epsilon: float = 0.1) -> ConstraintSet:
    """|eta| <= eps on every block whose margin involves more than `order`
    variables, in every stratum."""
    rows = [i for b in link.blocks if b.order > order for i in range(b.lo, b.hi)]
    if not rows:
        return empty_constraints(s * link.t)
    E = stratify(_selector(link, rows), s, "within")
    return ConstraintSet(E, np.zeros((0, s * link.t)), epsilon, s * link.t)


def equal_association(link: LinkMatrices, s: int, epsilon: float = 0.1) -> ConstraintSet:
    """Same log-odds ratios in every stratum: E = D_s (x) (O I_d)."""
    _, _, c, d = _bivariate(link)
    sel = _selector(link, link.rows_of((1, 1)))
    return ConstraintSet(stratify(sel, s, "between"), np.zeros((0, s * link.t)),
                         epsilon, s * link.t)


def association_trend(link: LinkMatrices, s: int, direction: str) -> ConstraintSet:
    """Log-odds ratios monotone across strata.

    'increasing': every log-odds ratio is >= its value in the previous
    stratum; 'decreasing' is the reverse (association stronger in earlier
    strata).
    """
    _, _, c, d = _bivariate(link)
    sel = _selector(link, link.rows_of((1, 1)))
    U = stratify(sel, s, "between")
    if direction == "decreasing":
        U = -U
    elif direction != "increasing":
        raise ConstraintError(f"direction must be increasing/decreasing, got {direction!r}")
    return ConstraintSet(np.zeros((0, s * link.t)), U, np.zeros(0), s * link.t)


# Direction a variable's logits move when its marginal distribution
# "increases" on the substantive scale that motivated the logit choice:
# reverse-continuation logits (used when categories are coded in reverse
# order) decrease, the other three families increase. Fixed convention
# table; trends can also be stated directly in logit space (logit_trend).
LOGIT_TREND_SIGN = {
    "local": +1.0,
    "global": +1.0,
    "continuation": +1.0,
    "reverse_continuation": -1.0,
}


def margins_equal_across_strata(link: LinkMatrices, s: int,
                                epsilon: float = 0.1, variables=None) -> ConstraintSet:
    """Univariate margins unaffected by the stratum: E = D_s (x) (I_c O)."""
    rows = _margin_rows(link, variables)
    E = stratify(_selector(link, rows), s, "between")
    return ConstraintSet(E, np.zeros((0, s * link.t)), epsilon, s * link.t)


def _margin_rows(link: LinkMatrices, variables=None):
    if variables is None:
        variables = range(link.q)
    rows = []
    for v in variables:
        z = tuple(1 if i == v else 0 for i in range(link.q))
        rows.extend(range(link.block_for(z).lo, link.block_for(z).hi))
    return rows


def marginal_trend(link: LinkMatrices, s: int, direction: str = "increasing",
                   variables=None) -> ConstraintSet:
    """Univariate marginal distributions stochastically monotone in the
    stratum index, with the logit-type sign map applied per variable."""
    if direction not in ("increasing", "decreasing"):
        raise ConstraintError(f"direction must be increasing/decreasing, got {direction!r}")
    flip = -1.0 if direction == "decreasing" else 1.0
    if variables is None:
        variables = range(link.q)
    parts = []
    for v in variables:
        sign = flip * LOGIT_TREND_SIGN[link.logit_types[v]]
        rows = _margin_rows(link, [v])
        parts.append(sign * stratify(_selector(link, rows), s, "between"))
    U = np.vstack(parts)
    return ConstraintSet(np.zeros((0, s * link.t)), U, np.zeros(0), s * link.t)


def logit_trend(link: LinkMatrices, s: int, direction: str,
                variables=None) -> ConstraintSet:
    """Marginal logits themselves monotone across strata (no sign map)."""
    if direction not in ("increasing", "decreasing"):
        raise ConstraintError(f"direction must be increasing/decreasing, got {direction!r}")
    rows = _margin_rows(link, variables)
    U = stratify(_selector(link, rows), s, "between")
    if direction == "decreasing":
        U = -U
    return ConstraintSet(np.zeros((0, s * link.t)), U, np.zeros(0), s * link.t)


def additive_margin_shifts(link: LinkMatrices, s: int, epsilon: float = 0.1) -> ConstraintSet:
    """Marginal logits additive in (cutpoint, variable, stratum): constant
    shifts between successive variables and between strata.

    Minimal row basis: per-stratum (variable x cutpoint) interactions, one
    (stratum x cutpoint) row, and (stratum x variable) rows.
    """
    if link.q < 2:
        raise ConstraintError("additive margin shifts need q >= 2")
    m = link.dims[0]
    if any(d != m for d in link.dims):
        raise ConstraintError("additive margin shifts need equal category counts")
    k = m - 1
    t = link.t
    sels = [_selector(link, _margin_rows(link, [v])) for v in range(link.q)]
    rows = []
    # within each stratum: shift between variable v and v+1 constant in a
    D_a = first_differences(k)
    for b in range(s):
        off = np.zeros((k, s * t))
        for v in range(link.q - 1):
            diff = sels[v + 1] - sels[v]
            block = np.zeros((k, s * t))
            block[:, b * t:(b + 1) * t] = diff
            rows.append(D_a @ block)
    if s > 1:
        # stratum shift constant in a (anchored on variable 1)...
        for b in range(s - 1):
            blk = np.zeros((k, s * t))
            blk[:, (b + 1) * t:(b + 2) * t] = sels[0]
            blk[:, b * t:(b + 1) * t] -= sels[0]
            rows.append(D_a @ blk)
            # ...and constant across variables (first cutpoint)
            for v in range(link.q - 1):
                row = np.zeros((1, s * t))
                dv = (sels[v + 1] - sels[v])[0:1, :]
                row[:, (b + 1) * t:(b + 2) * t] = dv
                row[:, b * t:(b + 1) * t] -= dv
                rows.append(row)
    E = np.vstack(rows)
    return ConstraintSet(E, np.zeros((0, s * link.t)), epsilon, s * link.t)


# ---------------------------------------------------------------------------
# Model specs and the registry
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """A named constrained model: logit types plus its constraint set."""

    name: str
    logit_types: tuple
    constraints: ConstraintSet
    notes: str = ""

    def link(self, dims) -> LinkMatrices:
        return link_for(dims, list(self.logit_types))


MODEL_SPEC_SCHEMA_VERSION = 1

_REGISTRY = {
    "positive_association": positive_association,
    "tp2": positive_association,
    "pqd": positive_association,
    "independence": independence,
    "uniform_association": uniform_association,
    "marginal_homogeneity": marginal_homogeneity,
    "stochastic_order": stochastic_order,
    "no_high_order": zero_higher_interactions,
    "equal_association": equal_association,
    "association_trend": association_trend,
    "margins_equal_across_strata": margins_equal_across_strata,
    "marginal_trend": marginal_trend,
    "logit_trend": logit_trend,
    "additive_margin_shifts": additive_margin_shifts,
}

_REQUIRED_LOGITS = {"tp2": "local", "pqd": "global"}


def registry_names():
    return sorted(_REGISTRY)


def build_constraint(kind: str, link: LinkMatrices, s: int, **params) -> ConstraintSet:
    if kind not in _REGISTRY:
        raise ConstraintError(f"unknown hypothesis {kind!r}; have {registry_names()}")
    want = _REQUIRED_LOGITS.get(kind)
    if want and any(lt != want for lt in link.logit_types):
        raise ConstraintError(f"{kind} requires {want} logits, link has {link.logit_types}")
    builder = _REGISTRY[kind]
    try:
        inspect.signature(builder).bind(link, s, **params)
    except TypeError as err:             # a missing or unknown parameter, named in err
        raise ConstraintError(f"constraint {kind!r}: {err}") from None
    return builder(link, s, **params)


def model_from_dict(obj: dict, dims, s: int) -> ModelSpec:
    """Build a ModelSpec from its JSON form against a dataset's shape.

    Schema: {"schema_version": 1, "name": str, "logits": type or [type, ...],
             "constraints": [{"kind": str, ...params}, ...], "notes": str}
    A spec that does not follow it raises ConstraintError naming the part.
    """
    if not isinstance(obj, dict):
        raise ConstraintError(f"a model spec must be an object, got {obj!r}")
    version = obj.get("schema_version", MODEL_SPEC_SCHEMA_VERSION)
    if version != MODEL_SPEC_SCHEMA_VERSION:
        raise ConstraintError(f"unsupported model-spec schema version {version}")
    name = obj.get("name", "model")
    if not isinstance(name, str):
        raise ConstraintError(f"a model spec's name must be a string, got {name!r}")
    logits = obj.get("logits", "local")
    if isinstance(logits, str):
        logits = [logits] * len(dims)
    if not isinstance(logits, (list, tuple)) or not all(isinstance(lt, str) for lt in logits):
        raise ConstraintError(f"model {name!r}: logits must be a string or a list of strings, "
                              f"got {logits!r}")
    if len(logits) != len(dims):
        raise ConstraintError(f"model {name!r}: {len(logits)} logit types for {len(dims)} variables")
    entries = obj.get("constraints", [])
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) and isinstance(e.get("kind"), str) for e in entries)):
        raise ConstraintError(f"model {name!r}: constraints must be a list of objects, each "
                              f"with a string 'kind', got {entries!r}")
    link = link_for(dims, logits)
    parts = []
    for entry in entries:
        params = {k: v for k, v in entry.items() if k != "kind"}
        parts.append(build_constraint(entry["kind"], link, s, **params))
    cs = compose(*parts) if parts else empty_constraints(s * link.t)
    return ModelSpec(name, tuple(logits), cs, obj.get("notes", ""))
