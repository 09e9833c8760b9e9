"""Constraint sets over the marginal parameter vector.

Hypotheses are linear systems |E eta| <= eps (about equality) and
U eta >= 0 on the stacked per-stratum eta. Builders cover the standard
bivariate hypotheses (positive association, independence, uniform
association, marginal homogeneity, stochastic order), higher-way
interaction zeroing, and the Kronecker stratified forms; a string
registry maps model-spec JSON entries onto builders.

Every builder has one shape: rows of one stratum's eta (log-odds ratios,
margin logits or their differences), expanded within each stratum
(I_s (x) rows) or differenced between strata (D_s (x) rows) by stratify,
and then given a tolerance (_equalities) or a sign (_inequalities, with
the one `direction` parser _sign). A set is formed and re-toleranced only
here: the engine re-forms a model through ConstraintSet.with_epsilon,
scaled_epsilon and per_stratum.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass

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

    def per_stratum(self, s: int):
        """One set per stratum over that stratum's columns, when every row
        touches one stratum only (a set with no rows included); None when a
        row couples strata."""
        t = self.ncols // s

        def stratum_of(rows):           # -1 for a row touching no stratum or several
            touch = (rows != 0).reshape(len(rows), s, t).any(axis=2)
            return np.where(touch.sum(axis=1) == 1, touch.argmax(axis=1), -1)

        eb, ub = stratum_of(self.E), stratum_of(self.U)
        if (eb < 0).any() or (ub < 0).any():
            return None
        return [ConstraintSet(self.E[eb == b, b * t:(b + 1) * t],
                              self.U[ub == b, b * t:(b + 1) * t], self.epsilon[eb == b], t)
                for b in range(s)]

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


def _equalities(E: np.ndarray, epsilon) -> ConstraintSet:
    """|E eta| <= epsilon, over E's columns."""
    return ConstraintSet(E, np.zeros((0, E.shape[1])), epsilon, E.shape[1])


def _inequalities(U: np.ndarray) -> ConstraintSet:
    """U eta >= 0, over U's columns."""
    return ConstraintSet(np.zeros((0, U.shape[1])), U, np.zeros(0), U.shape[1])


# the words a builder's `direction` takes, +1 then -1, and how an error names them
_ORDER = (("ge", "le"), "'ge' or 'le'")
_TREND = (("increasing", "decreasing"), "increasing/decreasing")


def _sign(direction, words=_TREND) -> float:
    (up, down), named = words
    if direction == up:
        return 1.0
    if direction == down:
        return -1.0
    raise ConstraintError(f"direction must be {named}, got {direction!r}")


def _bivariate(link: LinkMatrices) -> None:
    if link.q != 2:
        raise ConstraintError(f"bivariate hypothesis on a {link.q}-way link")


def _log_odds_ratios(link: LinkMatrices) -> np.ndarray:
    """Selector of a bivariate link's interaction block (O I_d)."""
    _bivariate(link)
    return _selector(link, link.rows_of((1, 1)))


def _margin_difference(link: LinkMatrices, what: str) -> np.ndarray:
    """Second variable's logits minus the first's, (-I I O), on a square
    bivariate link."""
    _bivariate(link)
    if link.dims[0] != link.dims[1]:
        raise ConstraintError(f"{what} needs a square table")
    return _selector(link, link.rows_of((0, 1))) - _selector(link, link.rows_of((1, 0)))


def _margin_rows(link: LinkMatrices, variables=None) -> list:
    """(v, rows of variable v's margin logits) for each entry v of
    `variables` in order, every variable by default; a ConstraintError
    naming the entry that is not a variable index 0..q-1."""
    if variables is None:
        variables = range(link.q)
    if not isinstance(variables, (list, tuple, range)):
        raise ConstraintError(f"variables must be a list of variable indices, got {variables!r}")
    out = []
    for v in variables:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < link.q:
            raise ConstraintError(f"variables entry {v!r} is not a variable index "
                                  f"0..{link.q - 1} (q = {link.q})")
        out.append((v, link.rows_of(tuple(int(i == v) for i in range(link.q)))))
    return out


def _margin_logits(link: LinkMatrices, variables=None) -> np.ndarray:
    """Selector of the margin logits of `variables` (_margin_rows), stacked."""
    return _selector(link, [i for _, rows in _margin_rows(link, variables) for i in rows])


# ---------------------------------------------------------------------------
# Named hypothesis builders. Each returns a ConstraintSet over s*t columns.
# ---------------------------------------------------------------------------

def positive_association(link: LinkMatrices, s: int = 1) -> ConstraintSet:
    """All log-odds ratios non-negative in every stratum: U = (O_{d,c} I_d).

    With local logits this is TP2, with global logits PQD.
    """
    return _inequalities(stratify(_log_odds_ratios(link), s, "within"))


def independence(link: LinkMatrices, s: int = 1, epsilon: float = 0.1) -> ConstraintSet:
    """|log-odds ratios| <= eps in every stratum (conditional independence
    when s > 1)."""
    return _equalities(stratify(_log_odds_ratios(link), s, "within"), epsilon)


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
        E = first_differences(s * d) @ stratify(sel, s, "within")
    elif d < 2:
        E = np.zeros((0, s * link.t))
    else:
        E = stratify(first_differences(d) @ sel, s, "within")
    return _equalities(E, epsilon)


def marginal_homogeneity(link: LinkMatrices, s: int = 1, epsilon: float = 0.1) -> ConstraintSet:
    """Equal univariate margins of a square table: E = (-I I O)."""
    base = _margin_difference(link, "marginal homogeneity")
    return _equalities(stratify(base, s, "within"), epsilon)


def stochastic_order(link: LinkMatrices, s: int = 1, direction: str = "ge") -> ConstraintSet:
    """Second variable's logits >= first's ((-I I O) rows); 'le' flips it."""
    base = _margin_difference(link, "stochastic order")
    return _inequalities(_sign(direction, _ORDER) * stratify(base, s, "within"))


def zero_higher_interactions(link: LinkMatrices, s: int = 1, order: int = 2,
                             epsilon: float = 0.1) -> ConstraintSet:
    """|eta| <= eps on every block whose margin involves more than `order`
    variables, in every stratum."""
    rows = [i for b in link.blocks if b.order > order for i in range(b.lo, b.hi)]
    if not rows:
        return empty_constraints(s * link.t)
    return _equalities(stratify(_selector(link, rows), s, "within"), epsilon)


def equal_association(link: LinkMatrices, s: int, epsilon: float = 0.1) -> ConstraintSet:
    """Same log-odds ratios in every stratum: E = D_s (x) (O I_d)."""
    return _equalities(stratify(_log_odds_ratios(link), s, "between"), epsilon)


def association_trend(link: LinkMatrices, s: int, direction: str) -> ConstraintSet:
    """Log-odds ratios monotone across strata.

    'increasing': every log-odds ratio is >= its value in the previous
    stratum; 'decreasing' is the reverse (association stronger in earlier
    strata).
    """
    U = stratify(_log_odds_ratios(link), s, "between")
    return _inequalities(_sign(direction) * U)


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
    return _equalities(stratify(_margin_logits(link, variables), s, "between"), epsilon)


def marginal_trend(link: LinkMatrices, s: int, direction: str = "increasing",
                   variables=None) -> ConstraintSet:
    """Univariate marginal distributions stochastically monotone in the
    stratum index, with the logit-type sign map applied per variable."""
    flip = _sign(direction)
    return _inequalities(np.vstack([
        flip * LOGIT_TREND_SIGN[link.logit_types[v]]
        * stratify(_selector(link, rows), s, "between")
        for v, rows in _margin_rows(link, variables)]))


def logit_trend(link: LinkMatrices, s: int, direction: str,
                variables=None) -> ConstraintSet:
    """Marginal logits themselves monotone across strata (no sign map)."""
    sign = _sign(direction)
    return _inequalities(sign * stratify(_margin_logits(link, variables), s, "between"))


def additive_margin_shifts(link: LinkMatrices, s: int, epsilon: float = 0.1) -> ConstraintSet:
    """Marginal logits additive in (cutpoint, variable, stratum): constant
    shifts between successive variables and between strata.

    Minimal row basis: per-stratum (variable x cutpoint) interactions, one
    (stratum x cutpoint) row, and (stratum x variable) rows. With one
    cutpoint (two categories) only the (stratum x variable) rows remain.
    """
    if link.q < 2:
        raise ConstraintError("additive margin shifts need q >= 2")
    m = link.dims[0]
    if any(d != m for d in link.dims):
        raise ConstraintError("additive margin shifts need equal category counts")
    sels = [_selector(link, rows) for _, rows in _margin_rows(link)]
    steps = [nxt - cur for cur, nxt in zip(sels, sels[1:])]  # variable v to v + 1
    # differences over the cutpoint; one cutpoint has none
    D_a = first_differences(m - 1) if m > 2 else np.zeros((0, 1))
    # within each stratum: shift between variable v and v+1 constant in a
    E = stratify(np.vstack([D_a @ step for step in steps]), s, "within")
    if s > 1:
        # stratum shift constant in a (anchored on variable 1) and constant
        # across variables (first cutpoint)
        between = np.vstack([D_a @ sels[0], *(step[:1] for step in steps)])
        E = np.vstack([E, stratify(between, s, "between")])
    return _equalities(E, epsilon)


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
