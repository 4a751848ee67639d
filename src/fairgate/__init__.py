"""From a moral fairness assessment to optimal post-processed decision rules."""

from .assessment import (
    BenefitSource,
    JustifierKind,
    MoralAssessment,
    criterion_equation,
    map_assessment,
    prune_justifier_values,
    run_wizard,
)
from .frontier import FrontierPoint, emit_frontier, sweep
from .metrics import (
    FecTable,
    GroupRates,
    compute_rates,
    decision_maker_utility,
    disparity_ratio,
    fec_check,
)
from .model import (
    BenefitMatrix,
    CriterionKind,
    Dataset,
    DecisionRule,
    FairnessCriterion,
    GroupCut,
    GroupInterval,
    GroupThreshold,
    IntervalCut,
    Mixture,
    Record,
    SingleThreshold,
    StratifiedGroupThreshold,
    UtilityMatrix,
    decide,
    decision_probabilities,
    read_rule_file,
    write_rule_file,
)
from .optimizer import (
    InfeasibleConstraintError,
    OptimizationProblem,
    optimize,
    optimize_conditional_parity,
    optimize_independence,
    optimize_separation,
    optimize_sufficiency,
    optimize_unconstrained,
)
from .oracle import brute_force_oracle
from .scorer import FitConfig, LogisticModel, fit, score_dataset, split

__version__ = "0.1.0"
