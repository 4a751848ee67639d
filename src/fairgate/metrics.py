"""Empirical group rates, disparity ratios, utilities and equal-chances checks.

All quantities are computed from analytic decision probabilities rather than
sampled decisions, so parity can be verified exactly. Conditioning cells that
are empty are reported as undefined (``None``) instead of silently counting
as fair or unfair; ratio computations skip them and emit a warning.

Each function evaluates the rule once over the dataset's columns
(``decision_probabilities``) and sums per cell with ``np.bincount`` over
cell codes: group, (group, outcome), (stratum, group) or (justifier value,
group). ``np.bincount`` adds in record order, so every sum equals the
sequential per-record sum bit for bit. Results are Python numbers, ready
for ``json`` and ``repr``. ``rates_from_probabilities``,
``utility_from_probabilities`` and ``fec_from_probabilities`` start from
those probabilities, so a caller that needs several, as ``metric_report``
does, evaluates the rule once.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .assessment import JustifierKind, MoralAssessment
from .model import (
    CriterionKind,
    Dataset,
    DecisionRule,
    FairnessCriterion,
    UtilityMatrix,
    decision_probabilities,
)


class UndefinedMetricError(ValueError):
    """Every cell the criterion needs is undefined on this data."""


class UndefinedCellWarning(UserWarning):
    """An empty conditioning cell was skipped in a ratio computation."""


@dataclass(frozen=True)
class GroupRates:
    """Per-group empirical rates of a rule on a dataset.

    positive_rate  P(D=1 | G=g)
    tpr            P(D=1 | Y=1, G=g)
    fpr            P(D=1 | Y=0, G=g)
    ppv            P(Y=1 | D=1, G=g)
    for_rate       P(Y=1 | D=0, G=g)

    A rate is ``None`` when its conditioning cell is empty. ``expected_accepts``
    is the expected number of positive decisions (the PPV denominator) and
    ``label_count[(g, y)]`` the count behind the TPR/FPR denominators.
    ``stratum_positive_rate`` holds P(D=1 | L=l, G=g) keyed by (stratum, group),
    with the count and the expected accepts behind it in ``stratum_size`` and
    ``stratum_accepts``; a stratum is a value tuple of all of ``legit_names``.
    """

    groups: tuple[str, ...]
    size: Mapping[str, int]
    label_count: Mapping[tuple[str, int], int]
    expected_accepts: Mapping[str, float]
    positive_rate: Mapping[str, float | None]
    tpr: Mapping[str, float | None]
    fpr: Mapping[str, float | None]
    ppv: Mapping[str, float | None]
    for_rate: Mapping[str, float | None]
    legit_names: tuple[str, ...] = ()
    stratum_positive_rate: Mapping[tuple[tuple[str, ...], str], float | None] = None  # type: ignore[assignment]
    stratum_size: Mapping[tuple[tuple[str, ...], str], int] = None  # type: ignore[assignment]
    stratum_accepts: Mapping[tuple[tuple[str, ...], str], float] = None  # type: ignore[assignment]


def _sums(codes: np.ndarray, cells: int, weights: np.ndarray | None = None) -> list:
    """Per-cell count, or per-cell float sum of ``weights``, added in record order."""
    sums = np.bincount(codes, weights, minlength=cells)
    return sums.tolist() if weights is None else sums.astype(float).tolist()


def _rate(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def compute_rates(dataset: Dataset, rule: DecisionRule) -> GroupRates:
    """All conditional rates of the rule on the dataset, per group and stratum."""
    return rates_from_probabilities(dataset, decision_probabilities(rule, dataset))


def rates_from_probabilities(dataset: Dataset, dp: np.ndarray) -> GroupRates:
    """``compute_rates`` of a rule whose decision probabilities on the dataset are ``dp``."""
    if not len(dataset):
        raise ValueError("cannot compute rates on an empty dataset")
    groups, g, y = dataset.groups, dataset.columns.group_codes, dataset.columns.labels
    k = len(groups)
    size, accept, reject = _sums(g, k), _sums(g, k, dp), _sums(g, k, 1.0 - dp)
    # Cells 2 * group + outcome, in (group, outcome) order.
    counts, accepted, rejected = (_sums(2 * g + y, 2 * k, w) for w in (None, dp, 1.0 - dp))

    stratum_size: dict[tuple[tuple[str, ...], str], int] = {}
    stratum_accepts: dict[tuple[tuple[str, ...], str], float] = {}
    stratum_positive_rate: dict[tuple[tuple[str, ...], str], float | None] = {}
    if dataset.legit_names:
        codes, strata = dataset.strata(dataset.legit_names)
        cell = codes * k + g
        sizes, accepts = _sums(cell, len(strata) * k), _sums(cell, len(strata) * k, dp)
        present = (c for c, count in enumerate(sizes) if count)
        for key, c in sorted(((strata[c // k], groups[c % k]), c) for c in present):
            stratum_size[key], stratum_accepts[key] = sizes[c], accepts[c]
            stratum_positive_rate[key] = _rate(accepts[c], sizes[c])

    per_group = lambda values: dict(zip(groups, values))
    return GroupRates(
        groups=groups,
        size=per_group(size),
        label_count=dict(zip(itertools.product(groups, (0, 1)), counts)),
        expected_accepts=per_group(accept),
        positive_rate=per_group(map(_rate, accept, size)),
        tpr=per_group(map(_rate, accepted[1::2], counts[1::2])),
        fpr=per_group(map(_rate, accepted[0::2], counts[0::2])),
        ppv=per_group(map(_rate, accepted[1::2], accept)),
        for_rate=per_group(map(_rate, rejected[1::2], reject)),
        legit_names=dataset.legit_names,
        stratum_positive_rate=stratum_positive_rate,
        stratum_size=stratum_size,
        stratum_accepts=stratum_accepts,
    )


def _criterion_families(
    rates: GroupRates, criterion: FairnessCriterion
) -> list[tuple[str, Mapping[str, float | None]]]:
    """The criterion's rate families, each a value per group (None if undefined).

    Conditional statistical parity has one family per stratum of the
    criterion's own legitimate attributes; a cell's rate adds up the counts
    and expected accepts of the (stratum, group) cells of ``rates`` in it.
    """
    if criterion.kind is not CriterionKind.CONDITIONAL_STATISTICAL_PARITY:
        return [(family, getattr(rates, family)) for family in criterion.kind.families]
    missing = [name for name in criterion.legit_names if name not in rates.legit_names]
    if missing:
        raise ValueError(f"the data has no legitimate attribute(s) {missing} to condition on")
    which = [rates.legit_names.index(name) for name in criterion.legit_names]
    size: dict[tuple[tuple[str, ...], str], int] = {}
    accepts: dict[tuple[tuple[str, ...], str], float] = {}
    for (stratum, g), count in rates.stratum_size.items():
        cell = tuple(stratum[j] for j in which), g
        size[cell] = size.get(cell, 0) + count
        accepts[cell] = accepts.get(cell, 0.0) + rates.stratum_accepts[(stratum, g)]
    return [
        (
            f"positive_rate@{'/'.join(stratum)}",
            {g: _rate(accepts.get((stratum, g), 0.0), size.get((stratum, g), 0))
             for g in rates.groups},
        )
        for stratum in sorted({stratum for stratum, _g in size})
    ]


def _family_ratio(values: Iterable[float]) -> float:
    """Worst ordered-pair ratio of a rate family: min(values) / max(values).

    Both-zero pairs count as 1 (equal is fair) and one-sided zeros as 0
    (maximally unequal), the continuous limits of the ratio at zero.
    """
    values = list(values)
    lo, hi = min(values), max(values)
    if hi == 0.0:
        return 1.0
    if lo == 0.0:
        return 0.0
    return lo / hi


@dataclass(frozen=True)
class DisparityDetail:
    """Overall disparity ratio with the per-family breakdown and skipped cells."""

    ratio: float
    per_family: Mapping[str, float | None]
    skipped: tuple[str, ...]


def disparity_detail(rates: GroupRates, criterion: FairnessCriterion) -> DisparityDetail:
    """Per-family ratios and the minimum; conditional parity compares within its own strata.

    Each family with an undefined cell is named in an ``UndefinedCellWarning``.
    """
    for name, values in _criterion_families(rates, criterion):
        undefined_groups = [g for g, v in values.items() if v is None]
        if undefined_groups:
            warnings.warn(
                f"{name} undefined for group(s) {undefined_groups}; cells skipped",
                UndefinedCellWarning,
                stacklevel=3,
            )
    return _disparity_detail(rates, criterion)


def _disparity_detail(rates: GroupRates, criterion: FairnessCriterion) -> DisparityDetail:
    """``disparity_detail`` without its warnings: the metric report lists the
    skipped cells, and a frontier point records only the ratio.

    Its callers need no ``warnings.catch_warnings`` context to silence it.
    Leaving such a context resets the registry that shows each warning once,
    so a solver's warning would show again after every report.
    """
    per_family: dict[str, float | None] = {}
    skipped: list[str] = []
    for name, values in _criterion_families(rates, criterion):
        defined = [v for v in values.values() if v is not None]
        skipped.extend(f"{name}:{g}" for g, v in values.items() if v is None)
        if len(defined) < 2:
            per_family[name] = None
            continue
        per_family[name] = _family_ratio(defined)
    ratios = [r for r in per_family.values() if r is not None]
    if not ratios:
        raise UndefinedMetricError(
            f"every {criterion.kind.value} cell is undefined on this data"
        )
    return DisparityDetail(ratio=min(ratios), per_family=per_family, skipped=tuple(skipped))


def disparity_ratio(rates: GroupRates, criterion: FairnessCriterion) -> float:
    """Worst cross-group rate ratio for the criterion's families, in [0, 1].

    Separation and sufficiency take the minimum over both of their rate
    families; conditional statistical parity takes the minimum across the
    strata of its criterion's legitimate attributes. A value of 1 means
    exact parity on every applicable family.
    """
    return disparity_detail(rates, criterion).ratio


def decision_maker_utility(
    dataset: Dataset, rule: DecisionRule, utility: UtilityMatrix
) -> float:
    """Mean expected payoff of the rule: with the accuracy matrix, the accuracy."""
    return utility_from_probabilities(dataset, decision_probabilities(rule, dataset), utility)


def utility_from_probabilities(
    dataset: Dataset, dp: np.ndarray, utility: UtilityMatrix
) -> float:
    """``decision_maker_utility`` of a rule whose decision probabilities are ``dp``."""
    if not len(dataset):
        raise ValueError("cannot compute utility on an empty dataset")
    y = dataset.columns.labels
    payoff = dp * _by_outcome(y, utility.u, 1) + (1.0 - dp) * _by_outcome(y, utility.u, 0)
    (total,) = _sums(np.zeros(len(y), dtype=np.intp), 1, payoff)
    return total / len(y)


def _by_outcome(labels: np.ndarray, payoff, d: int) -> np.ndarray:
    """``payoff(d, y)`` for every record's outcome y."""
    return np.array([payoff(d, 0), payoff(d, 1)])[labels]


# ---------------------------------------------------------------------------
# Equal-chances expectation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FecEntry:
    """Expected benefit of one (group, justifier value) cell with its support."""

    group: str
    justifier_value: object
    expected_benefit: float | None
    support: float


@dataclass(frozen=True)
class FecTable:
    """Expected benefits per group and justifier value, with the worst gap.

    ``max_disparity`` is the largest cross-group absolute difference of the
    expected benefit among the relevant justifier values, ``None`` when no
    value has at least two supported groups. Zero-support cells stay listed
    but never enter the disparity.
    """

    entries: tuple[FecEntry, ...]
    max_disparity: float | None


def fec_check(dataset: Dataset, rule: DecisionRule, assessment: MoralAssessment) -> FecTable:
    """Check equality of the assessment's expected benefits across groups, per justifier value.

    The benefit is the one the assessment carries (``MoralAssessment.benefit``).
    Outcome justifiers condition on the observed label; decision justifiers
    weight each record by its analytic probability of receiving the
    conditioning decision; legitimate justifiers condition on the stratum;
    no justifier compares unconditional expectations.
    """
    return fec_from_probabilities(dataset, decision_probabilities(rule, dataset), assessment)


def fec_from_probabilities(
    dataset: Dataset, dp: np.ndarray, assessment: MoralAssessment
) -> FecTable:
    """``fec_check`` of a rule whose decision probabilities on the dataset are ``dp``."""
    if not len(dataset):
        raise ValueError("cannot compute expected benefits on an empty dataset")
    groups, g, y = dataset.groups, dataset.columns.group_codes, dataset.columns.labels
    everyone, ones = np.ones(len(y), dtype=bool), np.ones(len(y))
    benefit = assessment.benefit
    # Realized benefit of each record: its decision is random, its outcome known.
    realized = dp * _by_outcome(y, benefit.b, 1) + (1.0 - dp) * _by_outcome(y, benefit.b, 0)

    # (justifier value, records in its cells, weight, weighted benefit) per value.
    kind = assessment.justifier
    if kind is JustifierKind.OUTCOME:
        parts = [(j, y == j, ones, realized) for j in sorted(assessment.relevant_values)]
    elif kind is JustifierKind.DECISION:
        parts = []
        for j in sorted(assessment.relevant_values):
            weight = dp if j == 1 else 1.0 - dp
            parts.append((j, everyone, weight, weight * _by_outcome(y, benefit.b, j)))
    elif kind is JustifierKind.LEGITIMATE:
        codes, strata = dataset.strata(assessment.justifier_names)
        parts = [("/".join(s), codes == i, ones, realized) for i, s in enumerate(strata)]
    else:
        parts = [(None, everyone, ones, realized)]

    entries: list[FecEntry] = []
    for j, rows, weight, weighted in parts:
        support = _sums(g[rows], len(groups), weight[rows])
        total = _sums(g[rows], len(groups), weighted[rows])
        for i, group in enumerate(groups):
            value = total[i] / support[i] if support[i] != 0.0 else None
            entries.append(FecEntry(group, j, value, support[i]))

    max_disparity: float | None = None
    values_by_j: dict[object, list[float]] = {}
    for entry in entries:
        if entry.support > 0.0 and entry.expected_benefit is not None:
            values_by_j.setdefault(entry.justifier_value, []).append(entry.expected_benefit)
    for values in values_by_j.values():
        if len(values) >= 2:
            gap = max(values) - min(values)
            if max_disparity is None or gap > max_disparity:
                max_disparity = gap
    return FecTable(entries=tuple(entries), max_disparity=max_disparity)


# ---------------------------------------------------------------------------
# Structured report
# ---------------------------------------------------------------------------


def metric_report(
    dataset: Dataset,
    rule: DecisionRule,
    criterion: FairnessCriterion,
    utility: UtilityMatrix,
    assessment: MoralAssessment | None = None,
) -> dict:
    """JSON-serializable report: every rate cell with counts, ratio, utility, FEC.

    The equal-chances table (``fec``) is there when an assessment is given.
    The rule is evaluated once, and every part starts from that evaluation.
    """
    dp = decision_probabilities(rule, dataset)
    rates = rates_from_probabilities(dataset, dp)
    detail = _disparity_detail(rates, criterion)
    report = {
        "groups": {
            g: {
                "size": rates.size[g],
                "outcome_counts": {
                    "0": rates.label_count[(g, 0)],
                    "1": rates.label_count[(g, 1)],
                },
                "expected_accepts": rates.expected_accepts[g],
                "positive_rate": rates.positive_rate[g],
                "tpr": rates.tpr[g],
                "fpr": rates.fpr[g],
                "ppv": rates.ppv[g],
                "for_rate": rates.for_rate[g],
            }
            for g in rates.groups
        },
        "strata": [
            {
                "stratum": "/".join(stratum),
                "group": g,
                "size": rates.stratum_size[(stratum, g)],
                "positive_rate": rates.stratum_positive_rate[(stratum, g)],
            }
            for (stratum, g) in rates.stratum_positive_rate
        ],
        "criterion": criterion.to_dict(),
        "disparity_ratio": detail.ratio,
        "disparity_per_family": dict(detail.per_family),
        "skipped_cells": list(detail.skipped),
        "utility": utility_from_probabilities(dataset, dp, utility),
        "utility_matrix": list(utility.cells()),
    }
    if assessment is not None:
        table = fec_from_probabilities(dataset, dp, assessment)
        report["fec"] = {
            "entries": [
                {
                    "group": e.group,
                    "justifier_value": e.justifier_value,
                    "expected_benefit": e.expected_benefit,
                    "support": e.support,
                }
                for e in table.entries
            ],
            "max_disparity": table.max_disparity,
        }
    return report
