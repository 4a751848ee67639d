"""From a moral fairness assessment to optimal post-processed decision rules.

The public names below are imported from their modules on first use (PEP
562), so a command loads only the modules it runs: ``optimize`` without
``--verify`` never imports the oracle or the frontier.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "assessment": (
        "BenefitSource",
        "JustifierKind",
        "MoralAssessment",
        "criterion_equation",
        "map_assessment",
        "prune_justifier_values",
        "run_wizard",
        "settle",
    ),
    "frontier": ("FrontierPoint", "emit_frontier", "sweep"),
    "metrics": (
        "FecTable",
        "GroupRates",
        "compute_rates",
        "decision_maker_utility",
        "disparity_ratio",
        "fec_check",
    ),
    "model": (
        "BenefitMatrix",
        "CriterionKind",
        "Dataset",
        "DecisionRule",
        "FairnessCriterion",
        "GroupCut",
        "GroupInterval",
        "GroupThreshold",
        "IntervalCut",
        "Mixture",
        "Record",
        "SingleThreshold",
        "StratifiedGroupThreshold",
        "UtilityMatrix",
        "decide",
        "decision_probabilities",
        "read_rule_file",
        "write_rule_file",
    ),
    "optimizer": (
        "InfeasibleConstraintError",
        "OptimizationProblem",
        "optimize",
        "optimize_conditional_parity",
        "optimize_independence",
        "optimize_separation",
        "optimize_sufficiency",
        "optimize_unconstrained",
        "solve_context",
    ),
    "oracle": ("brute_force_oracle",),
    "scorer": ("FitConfig", "LogisticModel", "fit", "score_dataset", "split"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
