"""Bayesian selection of constrained marginal models for categorical data.

Constrained models are linear equality/inequality systems on generalised
logits and log-odds ratios; Bayes factors against the saturated model are
estimated as posterior-over-prior constraint-satisfaction proportions
under an encompassing Dirichlet prior: directly where the region is
common, by splitting in log-gamma coordinates where it is rare and its
rows are linear in the log-gammas, by tuned importance sampling for other
rare constraints, at the epsilon -> 0 limit (a Savage-Dickey density
ratio) for equality models whose rows are linear in the log-gammas, and
by a geometric epsilon-shrinking chain for other about-equality models. A run is set by its draw count, pilot size and
print base (RunSettings); how each side is routed and tuned is fixed in
margbayes.engine.

numpy is the only runtime dependency; the one special function the
importance weights need, the Dirichlet log normaliser, uses math.lgamma.
"""

from .tables import (
    ContingencyTable,
    StratifiedTable,
    TableError,
    dumps_csv,
    dumps_json,
    lex_index,
    list_fixtures,
    load_fixture,
    load_table,
    loads_csv,
    loads_json,
    unrank,
    validate,
)
from .link import (
    LinkError,
    LinkMatrices,
    build_logit_block,
    eta_from_pi,
    link_for,
    margin_sets,
)
from .hypotheses import (
    ConstraintError,
    ConstraintSet,
    ModelSpec,
    additive_margin_shifts,
    association_trend,
    build_constraint,
    compose,
    empty_constraints,
    equal_association,
    first_differences,
    independence,
    logit_trend,
    marginal_homogeneity,
    marginal_trend,
    margins_equal_across_strata,
    model_from_dict,
    positive_association,
    registry_names,
    satisfies,
    stochastic_order,
    stratify,
    uniform_association,
    zero_higher_interactions,
)
from .fit import FitError, FitResult, constrained_mle, prior_center
from .engine import (
    BFEstimate,
    EngineError,
    EpsilonSchedule,
    ModelEval,
    PriorSpec,
    RunSettings,
    TuningError,
    UnboundedEstimateError,
    bayes_factor,
    compare_models,
    estimate_proportion_direct,
    jeffreys_label,
    posterior_draws_under_model,
    replicate_bf,
    sample_posterior,
    sample_prior,
)

__version__ = "0.1.0"
