"""Core domain types: records, datasets, utilities, criteria and decision rules.

All types are immutable after construction and every operation here is a pure
function, so everything in this module is safe to share across threads.

Records are the stored and ingest form of a dataset. ``Dataset.columns`` is
a view of them as arrays in record order, built once on first use: float
scores, labels and group codes that index ``Dataset.groups``.
``Dataset.strata`` adds stratum codes for any tuple of legitimate attribute
names. Computations over a whole dataset read these columns. The views are
derived from the immutable records, so two threads that build one at the
same time build equal arrays.

Decision rules map a risk score (an estimate of the probability that the
outcome is 1) to a decision probability. Deterministic rules yield 0 or 1
everywhere except at threshold boundaries, where an explicit randomization
probability splits the score atom. Scores are compared with exact equality:
inputs are decimal text, so two records either share an atom or they do not.

One kernel, ``(score > tau) + (score == tau) * boundary``, compares scores
with cuts, on a float or elementwise on arrays; an upper-bound interval is
the same kernel on -score and -high. A rule only picks the cut of each cell
(its group, or its group and stratum). ``decision_probability`` evaluates a
rule for one record, ``decision_probabilities`` for every record of a
dataset, and the two agree exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np


class CoverageError(KeyError):
    """A rule was asked to decide for a group or stratum it does not cover."""


# ---------------------------------------------------------------------------
# Individuals and datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Record:
    """One individual: risk score, binary outcome, group and optional extras."""

    id: str
    label: int
    group: str
    score: float | None = None
    legit: Mapping[str, str] = field(default_factory=dict)
    features: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r} (record {self.id})")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score!r} (record {self.id})")


@dataclass(frozen=True)
class Columns:
    """Record fields as arrays in record order; ``group_codes`` index the groups.

    A record without a score has a NaN score.
    """

    scores: np.ndarray
    labels: np.ndarray
    group_codes: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of records with declared groups and attributes."""

    records: tuple[Record, ...]
    groups: tuple[str, ...]
    legit_names: tuple[str, ...] = ()
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        declared = set(self.groups)
        seen: set[str] = set()
        for rec in self.records:
            if rec.group not in declared:
                raise ValueError(f"record {rec.id} references undeclared group {rec.group!r}")
            seen.add(rec.group)
            for name in rec.legit:
                if name not in self.legit_names:
                    raise ValueError(
                        f"record {rec.id} carries undeclared legitimate attribute {name!r}"
                    )
            if len(rec.legit) != len(self.legit_names):
                absent = [name for name in self.legit_names if name not in rec.legit]
                raise ValueError(f"record {rec.id} misses legitimate attribute(s) {absent}")
        missing = declared - seen
        if missing:
            raise ValueError(f"declared groups without records: {sorted(missing)}")

    @classmethod
    def from_records(
        cls,
        records: Sequence[Record],
        legit_names: Sequence[str] = (),
        feature_names: Sequence[str] = (),
    ) -> "Dataset":
        groups = tuple(sorted({r.group for r in records}))
        return cls(tuple(records), groups, tuple(legit_names), tuple(feature_names))

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def columns(self) -> Columns:
        code = {g: i for i, g in enumerate(self.groups)}
        return Columns(
            scores=np.array(
                [np.nan if r.score is None else r.score for r in self.records], dtype=float
            ),
            labels=np.array([r.label for r in self.records], dtype=np.int64),
            group_codes=np.array([code[r.group] for r in self.records], dtype=np.intp),
        )

    @cached_property
    def _strata(self) -> dict:
        return {}

    def strata(self, names: Sequence[str]) -> tuple[np.ndarray, tuple[tuple[str, ...], ...]]:
        """Stratum code of every record for the named attributes, and the strata.

        The strata are the distinct value tuples, sorted, in ``names`` order;
        each code indexes them.
        """
        names = tuple(names)
        if names not in self._strata:
            keys = [tuple(r.legit[name] for name in names) for r in self.records]
            strata = tuple(sorted(set(keys)))
            code = {s: i for i, s in enumerate(strata)}
            self._strata[names] = (np.array([code[k] for k in keys], dtype=np.intp), strata)
        return self._strata[names]

    def require_scores(self) -> None:
        missing = np.flatnonzero(np.isnan(self.columns.scores))
        if len(missing):
            raise ValueError(f"record {self.records[missing[0]].id} has no score")


# ---------------------------------------------------------------------------
# Payoff matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UtilityMatrix:
    """Decision-maker payoff u(d, y) for each of the four (decision, outcome) cells."""

    u00: float
    u01: float
    u10: float
    u11: float

    def __post_init__(self) -> None:
        if not (self.u11 > self.u01 or self.u00 > self.u10):
            raise ValueError(
                "degenerate utility: deciding 1 must help when the outcome is 1, "
                "or deciding 0 must help when the outcome is 0"
            )

    def u(self, d: int, y: int) -> float:
        return (self.u00, self.u01, self.u10, self.u11)[2 * d + y]

    @classmethod
    def accuracy(cls) -> "UtilityMatrix":
        """Payoff 1 when the decision matches the outcome, 0 otherwise."""
        return cls(1.0, 0.0, 0.0, 1.0)

    def cells(self) -> tuple[float, float, float, float]:
        return (self.u00, self.u01, self.u10, self.u11)


@dataclass(frozen=True)
class BenefitMatrix:
    """Decision-subject benefit b(d, y) for each (decision, outcome) cell."""

    b00: float
    b01: float
    b10: float
    b11: float

    def __post_init__(self) -> None:
        cells = {self.b00, self.b01, self.b10, self.b11}
        if len(cells) == 1:
            raise ValueError("benefit matrix is constant: nothing is distributed")

    def b(self, d: int, y: int) -> float:
        return (self.b00, self.b01, self.b10, self.b11)[2 * d + y]

    def cells(self) -> tuple[float, float, float, float]:
        return (self.b00, self.b01, self.b10, self.b11)


# ---------------------------------------------------------------------------
# Fairness criteria
# ---------------------------------------------------------------------------


class CriterionKind(str, Enum):
    INDEPENDENCE = "independence"
    CONDITIONAL_STATISTICAL_PARITY = "conditional_statistical_parity"
    SEPARATION = "separation"
    TPR_PARITY = "tpr_parity"
    FPR_PARITY = "fpr_parity"
    SUFFICIENCY = "sufficiency"
    PPV_PARITY = "ppv_parity"
    FOR_PARITY = "for_parity"


@dataclass(frozen=True)
class FairnessCriterion:
    """A statistical group fairness criterion with its relaxation level gamma.

    gamma = 1 demands exact parity of the criterion's rate family across
    groups; gamma = 0 removes the constraint; 0.8 is the four-fifths rule.
    """

    kind: CriterionKind
    gamma: float = 1.0
    legit_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY and not self.legit_names:
            raise ValueError("conditional statistical parity needs at least one legitimate attribute")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "gamma": self.gamma,
            "legit_names": list(self.legit_names),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FairnessCriterion":
        return cls(
            kind=CriterionKind(data["kind"]),
            gamma=float(data.get("gamma", 1.0)),
            legit_names=tuple(data.get("legit_names", ())),
        )


# ---------------------------------------------------------------------------
# Decision rules
# ---------------------------------------------------------------------------


def _check_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")


def _accept(score, tau, boundary):
    """Acceptance probability of a cut: 1 above tau, ``boundary`` at it, else 0.

    The one comparison of scores with cuts, on floats or elementwise on arrays.
    """
    return (score > tau) + (score == tau) * boundary


def _cell_columns(codes: np.ndarray, cells: Sequence, pick: Callable) -> np.ndarray:
    """Per-row values of ``pick(cell)``, called once for each cell code in ``codes``.

    ``pick`` returns a tuple of floats; the result has one row per tuple entry.
    """
    present, inverse = np.unique(codes, return_inverse=True)
    table = np.array([pick(cells[c]) for c in present], dtype=float)
    return table[inverse].T


class _CutRule:
    """A rule that applies one cut per cell: a group, or a group and stratum.

    ``_cell_cut`` picks a cell's cut as (sign, tau, boundary), a threshold
    on sign * score; by default it is the group's entry of ``cuts``.
    """

    def _stratum_names(self) -> tuple[str, ...]:
        return ()

    def _cell_cut(self, group: str, stratum: tuple[str, ...]) -> tuple[float, float, float]:
        try:
            cut = self.cuts[group]
        except KeyError:
            raise CoverageError(f"rule does not cover group {group!r}") from None
        return cut.signed_cut()

    def probability(self, score: float, group: str, legit: Mapping[str, str]) -> float:
        """Probability of deciding 1 for one record."""
        try:
            stratum = tuple(legit[name] for name in self._stratum_names())
        except KeyError as exc:
            raise CoverageError(
                f"group {group!r}: record misses legitimate attribute {exc}"
            ) from None
        sign, tau, boundary = self._cell_cut(group, stratum)
        return float(_accept(sign * score, tau, boundary))

    def probabilities(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        """Probability of deciding 1 for each record of ``dataset`` at ``rows``."""
        try:
            stratum_codes, strata = dataset.strata(self._stratum_names())
        except KeyError as exc:
            raise CoverageError(f"records miss legitimate attribute {exc}") from None
        cols = dataset.columns
        sign, tau, boundary = _cell_columns(
            cols.group_codes[rows] * len(strata) + stratum_codes[rows],
            [(g, s) for g in dataset.groups for s in strata],
            lambda cell: self._cell_cut(*cell),
        )
        return _accept(sign * cols.scores[rows], tau, boundary)


@dataclass(frozen=True)
class SingleThreshold(_CutRule):
    """Accept scores above tau; at tau accept with probability ``boundary``.

    The default boundary of 1 gives closed acceptance (score >= tau).
    """

    tau: float
    boundary: float = 1.0

    def __post_init__(self) -> None:
        _check_unit(self.tau, "threshold")
        _check_unit(self.boundary, "boundary probability")

    def _cell_cut(self, group: str, stratum: tuple[str, ...]) -> tuple[float, float, float]:
        return 1.0, self.tau, self.boundary


@dataclass(frozen=True)
class GroupCut:
    """Per-group threshold with the probability of accepting exactly at it."""

    tau: float
    boundary: float = 1.0

    def __post_init__(self) -> None:
        _check_unit(self.tau, "threshold")
        _check_unit(self.boundary, "boundary probability")

    def signed_cut(self) -> tuple[float, float, float]:
        return 1.0, self.tau, self.boundary


@dataclass(frozen=True)
class GroupThreshold(_CutRule):
    """Group-specific thresholds: accept score > tau_g, split the atom at tau_g."""

    cuts: Mapping[str, GroupCut]


@dataclass(frozen=True)
class IntervalCut:
    """Per-group accept interval [low, high] with boundary randomization.

    Exactly one endpoint is active: either 0 < low < high = 1 (lower-bound
    form, randomized at low) or 0 = low < high < 1 (upper-bound form,
    randomized at high).
    """

    low: float
    high: float
    boundary: float = 1.0

    def __post_init__(self) -> None:
        _check_unit(self.low, "interval low endpoint")
        _check_unit(self.high, "interval high endpoint")
        _check_unit(self.boundary, "boundary probability")
        lower_form = 0.0 < self.low < self.high == 1.0
        upper_form = 0.0 == self.low < self.high < 1.0
        if not (lower_form or upper_form):
            raise ValueError(
                f"interval [{self.low}, {self.high}] is neither a lower-bound "
                "(0 < low < high = 1) nor an upper-bound (0 = low < high < 1) form"
            )

    @property
    def is_lower_form(self) -> bool:
        return self.high == 1.0

    def signed_cut(self) -> tuple[float, float, float]:
        """(sign, tau, boundary) of the same cut on sign * score: -1 for upper bounds."""
        if self.is_lower_form:
            return 1.0, self.low, self.boundary
        return -1.0, -self.high, self.boundary

    def probability(self, score: float) -> float:
        sign, tau, boundary = self.signed_cut()
        return float(_accept(sign * score, tau, boundary))


@dataclass(frozen=True)
class GroupInterval(_CutRule):
    """Group-specific lower- or upper-bound interval rules."""

    cuts: Mapping[str, IntervalCut]


@dataclass(frozen=True)
class StratifiedGroupThreshold(_CutRule):
    """Thresholds per (group, legitimate-attribute stratum)."""

    legit_names: tuple[str, ...]
    cuts: Mapping[tuple[str, tuple[str, ...]], GroupCut]

    def _stratum_names(self) -> tuple[str, ...]:
        return self.legit_names

    def _cell_cut(self, group: str, stratum: tuple[str, ...]) -> tuple[float, float, float]:
        try:
            cut = self.cuts[(group, stratum)]
        except KeyError:
            raise CoverageError(
                f"rule does not cover group {group!r} in stratum {stratum!r}"
            ) from None
        return cut.signed_cut()


@dataclass(frozen=True)
class Mixture:
    """Per-group mixture of two rules: apply ``first`` with probability w_g."""

    weights: Mapping[str, float]
    first: "DecisionRule"
    second: "DecisionRule"

    def __post_init__(self) -> None:
        for group, w in self.weights.items():
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"mixture weight for group {group!r} must be in [0, 1], got {w}")

    def _weight(self, group: str) -> float:
        try:
            return self.weights[group]
        except KeyError:
            raise CoverageError(f"mixture does not cover group {group!r}") from None

    def probability(self, score: float, group: str, legit: Mapping[str, str]) -> float:
        w = self._weight(group)
        p1 = self.first.probability(score, group, legit) if w > 0.0 else 0.0
        p2 = self.second.probability(score, group, legit) if w < 1.0 else 0.0
        return w * p1 + (1.0 - w) * p2

    def probabilities(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        (w,) = _cell_columns(
            dataset.columns.group_codes[rows], dataset.groups, lambda g: (self._weight(g),)
        )
        p1, p2 = np.zeros(len(rows)), np.zeros(len(rows))
        # A sub-rule only sees the rows it can decide, as in ``probability``.
        for p, rule, used in ((p1, self.first, w > 0.0), (p2, self.second, w < 1.0)):
            if used.any():
                p[used] = rule.probabilities(dataset, rows[used])
        return w * p1 + (1.0 - w) * p2


DecisionRule = (
    SingleThreshold | GroupThreshold | GroupInterval | StratifiedGroupThreshold | Mixture
)

_EMPTY: Mapping[str, str] = {}


def decision_probability(
    rule: DecisionRule, score: float, group: str, legit: Mapping[str, str] = _EMPTY
) -> float:
    """Probability that the rule decides 1, taken over its randomization."""
    return rule.probability(score, group, legit)


def decision_probabilities(rule: DecisionRule, dataset: Dataset) -> np.ndarray:
    """``decision_probability`` of every record of the dataset, in record order."""
    return rule.probabilities(dataset, np.arange(len(dataset)))


def decide(
    rule: DecisionRule,
    score: float,
    group: str,
    legit: Mapping[str, str] = _EMPTY,
    random_draw: float = 0.0,
) -> int:
    """Sample a binary decision using one uniform [0, 1) draw.

    The draw selects the branch of a mixture and is rescaled before being
    passed on, so the sub-rule still sees a uniform draw; for threshold and
    interval rules it resolves the boundary randomization. With a fixed draw,
    raising the score never flips a threshold decision from 1 to 0.
    """
    if not 0.0 <= random_draw < 1.0:
        raise ValueError(f"random draw must be in [0, 1), got {random_draw}")
    if isinstance(rule, Mixture):
        w = rule._weight(group)
        if random_draw < w:
            return decide(rule.first, score, group, legit, random_draw / w)
        return decide(rule.second, score, group, legit, (random_draw - w) / (1.0 - w))
    p = rule.probability(score, group, legit)
    if p == 1.0:
        return 1
    if p == 0.0:
        return 0
    return 1 if random_draw < p else 0


# ---------------------------------------------------------------------------
# Rule serialization
# ---------------------------------------------------------------------------


def rule_to_dict(rule: DecisionRule) -> dict:
    if isinstance(rule, SingleThreshold):
        return {"kind": "single_threshold", "tau": rule.tau, "boundary": rule.boundary}
    if isinstance(rule, GroupThreshold):
        return {
            "kind": "group_threshold",
            "groups": {
                g: {"tau": c.tau, "boundary": c.boundary} for g, c in sorted(rule.cuts.items())
            },
        }
    if isinstance(rule, GroupInterval):
        return {
            "kind": "group_interval",
            "groups": {
                g: {"low": c.low, "high": c.high, "boundary": c.boundary}
                for g, c in sorted(rule.cuts.items())
            },
        }
    if isinstance(rule, StratifiedGroupThreshold):
        return {
            "kind": "stratified_group_threshold",
            "legit_names": list(rule.legit_names),
            "cuts": [
                {"group": g, "stratum": list(s), "tau": c.tau, "boundary": c.boundary}
                for (g, s), c in sorted(rule.cuts.items())
            ],
        }
    if isinstance(rule, Mixture):
        return {
            "kind": "mixture",
            "weights": dict(sorted(rule.weights.items())),
            "first": rule_to_dict(rule.first),
            "second": rule_to_dict(rule.second),
        }
    raise TypeError(f"unknown rule type {type(rule).__name__}")


def rule_from_dict(data: Mapping) -> DecisionRule:
    kind = data["kind"]
    if kind == "single_threshold":
        return SingleThreshold(float(data["tau"]), float(data.get("boundary", 1.0)))
    if kind == "group_threshold":
        return GroupThreshold(
            {
                g: GroupCut(float(c["tau"]), float(c.get("boundary", 1.0)))
                for g, c in data["groups"].items()
            }
        )
    if kind == "group_interval":
        return GroupInterval(
            {
                g: IntervalCut(float(c["low"]), float(c["high"]), float(c.get("boundary", 1.0)))
                for g, c in data["groups"].items()
            }
        )
    if kind == "stratified_group_threshold":
        return StratifiedGroupThreshold(
            legit_names=tuple(data["legit_names"]),
            cuts={
                (c["group"], tuple(c["stratum"])): GroupCut(
                    float(c["tau"]), float(c.get("boundary", 1.0))
                )
                for c in data["cuts"]
            },
        )
    if kind == "mixture":
        return Mixture(
            weights={g: float(w) for g, w in data["weights"].items()},
            first=rule_from_dict(data["first"]),
            second=rule_from_dict(data["second"]),
        )
    raise ValueError(f"unknown rule kind {kind!r}")


def write_rule_file(
    path: str | Path, rule: DecisionRule, criterion: FairnessCriterion | None = None
) -> None:
    """Persist a rule (and the criterion it was optimized for) as readable JSON.

    Floats are written at full round-trip precision, so re-parsing reproduces
    identical decision probabilities.
    """
    doc = {
        "rule": rule_to_dict(rule),
        "criterion": criterion.to_dict() if criterion is not None else None,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_rule_file(path: str | Path) -> tuple[DecisionRule, FairnessCriterion | None]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    rule = rule_from_dict(doc["rule"])
    criterion = None
    if doc.get("criterion") is not None:
        criterion = FairnessCriterion.from_dict(doc["criterion"])
    return rule, criterion
