"""Bayesian selection of constrained marginal models for categorical data.

Constrained models are linear equality/inequality systems on generalised
logits and log-odds ratios; Bayes factors against the saturated model are
estimated as posterior-over-prior constraint-satisfaction proportions
under an encompassing Dirichlet prior, with tuned importance sampling for
rare constraints and a geometric epsilon-shrinking chain for
about-equality models.
"""

from .tables import (
    ContingencyTable,
    StratifiedTable,
    TableError,
    VariableSpec,
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
    build_link,
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
from .fit import FitError, FitOptions, FitResult, constrained_mle, prior_center
from .engine import (
    BFEstimate,
    EngineError,
    EpsilonSchedule,
    ImportanceDensity,
    ModelEval,
    PriorSpec,
    ProportionEstimate,
    RunSettings,
    TuningError,
    UnboundedEstimateError,
    bayes_factor,
    compare_models,
    estimate_proportion_direct,
    jeffreys_label,
    make_density,
    posterior_draws_under_model,
    replicate_bf,
    sample_posterior,
    sample_prior,
    tune_alpha,
)

__version__ = "0.1.0"
