"""Core domain types: records, datasets, utilities, criteria and decision rules.

All types are immutable after construction and every operation here is a pure
function, so everything in this module is safe to share across threads.

Columns are the stored form of a dataset: ``Dataset.columns`` holds one array
per record field in record order. CSV ingest builds them a chunk of rows at a
time and joins the chunks once, so it never holds a whole file as Python rows.
``Dataset.strata`` derives stratum codes for a tuple of legitimate attribute
names once per tuple; two threads that build one at the same time build equal
arrays. ``Record`` is one individual of a hand-built dataset:
``Dataset.from_records`` turns records into columns and ``Dataset.records``
turns columns back into records. No rule is evaluated on a ``Record``.

``CriterionKind.families`` is the one mapping from a fairness criterion to
the group rates it equalizes across groups (``GroupRates`` field names:
``positive_rate``, ``tpr``, ``fpr``, ``ppv``, ``for_rate``); conditional
statistical parity equalizes them within strata. The metrics, the frontier
columns, the optimizer and the oracle all read it.

Decision rules map a risk score (an estimate of the probability that the
outcome is 1) to a decision probability. Deterministic rules yield 0 or 1
everywhere except at threshold boundaries, where an explicit randomization
probability splits the score atom. Scores are compared with exact equality:
inputs are decimal text, so two records either share an atom or they do not.

One kernel, ``(score > tau) + (score == tau) * boundary``, compares a whole
dataset's scores with their cuts; an upper-bound interval is the same kernel
on -score and -high. A rule only picks the cut of each cell (its group, or
its group and stratum). ``decision_probabilities`` evaluates a rule on every
record at once and ``decide`` samples every record's decision from one
uniform draw per record; neither evaluates one record at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np


class CoverageError(KeyError):
    """A rule was asked to decide for a group or stratum it does not cover."""

    # The message as written: ``KeyError`` would print it in quotes.
    __str__ = Exception.__str__


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
        if self.features is not None and not all(map(math.isfinite, self.features)):
            raise ValueError(f"features must be finite, got {self.features!r} (record {self.id})")


def encode(columns: Sequence[Sequence[str]]) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Each column's sorted distinct values, and the rank of every value among them.

    Row i, column j of the ranks is the rank of the i-th value of column j.
    """
    vocabularies, codes = [], []
    for values in columns:
        vocabulary = tuple(sorted(set(values)))
        index = {v: i for i, v in enumerate(vocabulary)}
        vocabularies.append(vocabulary)
        codes.append(np.fromiter(map(index.__getitem__, values), np.intp, len(values)))
    return vocabularies, np.array(codes, dtype=np.intp).T


@dataclass(frozen=True, eq=False)
class Columns:
    """The records of a dataset as arrays in record order: its stored form.

    ``ids`` holds strings. A record without a score has a NaN score.
    ``group_codes`` index ``Dataset.groups``. ``legit_codes`` has a column
    per name of ``Dataset.legit_names`` whose codes index that attribute's
    sorted ``legit_values``. ``features`` has a column per name of
    ``Dataset.feature_names``, or is None.
    """

    ids: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    group_codes: np.ndarray
    legit_codes: np.ndarray
    legit_values: tuple[tuple[str, ...], ...]
    features: np.ndarray | None

    def take(self, rows: np.ndarray) -> "Columns":
        """The records at ``rows``, in that order."""
        arrays = {k: v[rows] for k, v in vars(self).items() if isinstance(v, np.ndarray)}
        return replace(self, **arrays)


@dataclass(frozen=True)
class Dataset:
    """Columns of records with their declared groups and attribute names.

    Construction checks the columns as arrays: labels in {0, 1}, scores in
    [0, 1] or absent, finite features and every declared group present. The
    first record that fails is named in the error.
    """

    columns: Columns
    groups: tuple[str, ...]
    legit_names: tuple[str, ...] = ()
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        cols = self.columns
        # A NaN score (no score) compares False.
        bad = (cols.labels != 0) & (cols.labels != 1) | (cols.scores < 0.0) | (cols.scores > 1.0)
        if cols.features is not None:
            bad |= ~np.isfinite(cols.features).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            score = cols.scores[row].item()
            features = None if cols.features is None else tuple(cols.features[row].tolist())
            # The record of that row rejects its label, score or features in its own words.
            Record(
                cols.ids[row], cols.labels[row].item(), "",
                None if np.isnan(score) else score, features=features,
            )
        counts = np.bincount(cols.group_codes, minlength=len(self.groups))
        missing = sorted(g for g, n in zip(self.groups, counts) if n == 0)
        if missing:
            raise ValueError(f"declared groups without records: {missing}")

    @classmethod
    def from_records(
        cls,
        records: Sequence[Record],
        legit_names: Sequence[str] = (),
        feature_names: Sequence[str] = (),
    ) -> "Dataset":
        """The dataset of these records, with their groups in sorted order."""
        legit_names = tuple(legit_names)
        for rec in records:
            for name in rec.legit:
                if name not in legit_names:
                    raise ValueError(
                        f"record {rec.id} carries undeclared legitimate attribute {name!r}"
                    )
            if len(rec.legit) != len(legit_names):
                absent = [name for name in legit_names if name not in rec.legit]
                raise ValueError(f"record {rec.id} misses legitimate attribute(s) {absent}")
        (groups, *legit_values), codes = encode(
            [[r.group for r in records], *([r.legit[n] for r in records] for n in legit_names)]
        )
        with_features = any(r.features is not None for r in records)
        columns = Columns(
            ids=np.array([r.id for r in records], dtype=object),
            labels=np.array([r.label for r in records], dtype=np.int64),
            scores=np.array([np.nan if r.score is None else r.score for r in records], float),
            group_codes=codes[:, 0],
            legit_codes=codes[:, 1:],
            legit_values=tuple(legit_values),
            features=np.array([r.features for r in records], float) if with_features else None,
        )
        return cls(columns, groups, legit_names, tuple(feature_names))

    def __len__(self) -> int:
        return len(self.columns.labels)

    @property
    def records(self) -> tuple[Record, ...]:
        """The records, built from the columns at each access."""
        cols, names, values = self.columns, self.legit_names, self.columns.legit_values
        features = [None] * len(self) if cols.features is None else cols.features.tolist()
        return tuple(
            Record(i, y, self.groups[g], None if s != s else s,  # NaN: no score
                   {n: v[c] for n, v, c in zip(names, values, codes)},
                   None if f is None else tuple(f))
            for i, y, g, s, codes, f in zip(
                cols.ids.tolist(), cols.labels.tolist(), cols.group_codes.tolist(),
                cols.scores.tolist(), cols.legit_codes.tolist(), features,
            )
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
            missing = [name for name in names if name not in self.legit_names]
            if missing:
                raise ValueError(
                    f"the data has no legitimate attribute(s) {missing} to condition on"
                )
            which = [self.legit_names.index(name) for name in names]
            cols = self.columns
            keys, codes = np.unique(cols.legit_codes[:, which], axis=0, return_inverse=True)
            values = [cols.legit_values[j] for j in which]
            strata = tuple(tuple(v[c] for v, c in zip(values, key)) for key in keys.tolist())
            self._strata[names] = (codes.reshape(-1).astype(np.intp), strata)
        return self._strata[names]

    def require_scores(self) -> None:
        missing = np.flatnonzero(np.isnan(self.columns.scores))
        if len(missing):
            raise ValueError(f"record {self.columns.ids[missing[0]]} has no score")


# ---------------------------------------------------------------------------
# Payoff matrices
# ---------------------------------------------------------------------------


def _require_finite(name: str, cells: tuple[float, float, float, float]) -> None:
    if not np.isfinite(cells).all():
        raise ValueError(f"{name} matrix cells must be finite numbers, got {list(cells)}")


@dataclass(frozen=True)
class UtilityMatrix:
    """Decision-maker payoff u(d, y) for each of the four (decision, outcome) cells."""

    u00: float
    u01: float
    u10: float
    u11: float

    def __post_init__(self) -> None:
        _require_finite("utility", self.cells())
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
        _require_finite("benefit", self.cells())
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
    """A fairness criterion with ``families``, the ``GroupRates`` fields it equalizes."""

    families: tuple[str, ...]

    INDEPENDENCE = "independence", ("positive_rate",)
    CONDITIONAL_STATISTICAL_PARITY = "conditional_statistical_parity", ("positive_rate",)
    SEPARATION = "separation", ("tpr", "fpr")
    TPR_PARITY = "tpr_parity", ("tpr",)
    FPR_PARITY = "fpr_parity", ("fpr",)
    SUFFICIENCY = "sufficiency", ("ppv", "for_rate")
    PPV_PARITY = "ppv_parity", ("ppv",)
    FOR_PARITY = "for_parity", ("for_rate",)

    def __new__(cls, value: str, families: tuple[str, ...]) -> "CriterionKind":
        kind = str.__new__(cls, value)
        kind._value_, kind.families = value, families
        return kind


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
        _json_keys(data, "kind", "gamma", "legit_names")
        return cls(
            kind=_json_choice(data, "kind", CriterionKind),
            gamma=float(_json_entry(data, "gamma", "a number", 1.0)),
            legit_names=tuple(_json_entry(data, "legit_names", "a list of strings", ())),
        )


# ---------------------------------------------------------------------------
# Decision rules
# ---------------------------------------------------------------------------


def _check_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")


def _cell_columns(codes: np.ndarray, cells: Sequence, pick: Callable) -> list[np.ndarray]:
    """Per-row values of ``pick(cell)``, called once for each cell code in ``codes``.

    ``pick`` returns a tuple of floats; the result has one contiguous array
    per tuple entry.
    """
    present = np.flatnonzero(np.bincount(codes, minlength=len(cells)))
    slot = np.zeros(len(cells), dtype=np.intp)
    slot[present] = np.arange(len(present))
    table = np.array([pick(cells[c]) for c in present], dtype=float)
    rows = slot[codes]
    return [column[rows] for column in table.T]


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

    def probabilities(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        """Probability of deciding 1 for each record of ``dataset`` at ``rows``."""
        names = self._stratum_names()
        missing = [name for name in names if name not in dataset.legit_names]
        if missing:
            raise CoverageError(f"records miss legitimate attribute {missing[0]!r}")
        stratum_codes, strata = dataset.strata(names)
        cols = dataset.columns
        sign, tau, boundary = _cell_columns(
            cols.group_codes[rows] * len(strata) + stratum_codes[rows],
            [(g, s) for g in dataset.groups for s in strata],
            lambda cell: self._cell_cut(*cell),
        )
        signed = sign * cols.scores[rows]
        return (signed > tau) + (signed == tau) * boundary  # 1 above tau, ``boundary`` at it


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

    Exactly one endpoint is active, and ``form`` names it. A lower-bound cut
    (high = 1) accepts scores above ``low`` and those at it with probability
    ``boundary``; an upper-bound cut (low = 0) accepts scores below ``high``
    and those at it likewise. Left out, the form is read from the endpoints:
    0 < low <= high = 1 is lower, 0 = low <= high < 1 is upper. [0, 1] names
    no endpoint, so without a form it is allowed only with boundary 1. There
    both forms accept every score, and the form is always lower.
    """

    low: float
    high: float
    boundary: float = 1.0
    form: str | None = None  # "lower" or "upper"

    def __post_init__(self) -> None:
        _check_unit(self.low, "interval low endpoint")
        _check_unit(self.high, "interval high endpoint")
        _check_unit(self.boundary, "boundary probability")
        lower, upper = self.high == 1.0, self.low == 0.0
        form = self.form
        if lower and upper and self.boundary == 1.0:
            form = "lower"  # either form accepts every score
        elif form is None and lower != upper:
            form = "lower" if lower else "upper"
        if not (form == "lower" and lower or form == "upper" and upper):
            raise ValueError(
                f"interval [{self.low}, {self.high}] with boundary {self.boundary} is not "
                f"{self.form or 'lower- or upper'}-bound: a lower bound has high = 1, "
                "an upper bound low = 0, and [0, 1] below boundary 1 needs form "
                "'lower' or 'upper'"
            )
        object.__setattr__(self, "form", form)

    @property
    def form_is_open(self) -> bool:
        """Whether the endpoints leave the form open: [0, 1] below boundary 1."""
        return (self.low, self.high) == (0.0, 1.0) and self.boundary < 1.0

    def signed_cut(self) -> tuple[float, float, float]:
        """(sign, tau, boundary) of the same cut on sign * score: -1 for upper bounds."""
        if self.form == "lower":
            return 1.0, self.low, self.boundary
        return -1.0, -self.high, self.boundary


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

    def _row_weights(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        """The weight w_g of each record of ``dataset`` at ``rows``."""
        (w,) = _cell_columns(
            dataset.columns.group_codes[rows], dataset.groups, lambda g: (self._weight(g),)
        )
        return w

    def probabilities(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        w = self._row_weights(dataset, rows)
        p1, p2 = np.zeros(len(rows)), np.zeros(len(rows))
        # A sub-rule only sees the rows whose weight gives it a share.
        for p, rule, used in ((p1, self.first, w > 0.0), (p2, self.second, w < 1.0)):
            if used.any():
                p[used] = rule.probabilities(dataset, rows[used])
        return w * p1 + (1.0 - w) * p2


DecisionRule = (
    SingleThreshold | GroupThreshold | GroupInterval | StratifiedGroupThreshold | Mixture
)


def decision_probabilities(rule: DecisionRule, dataset: Dataset) -> np.ndarray:
    """Probability that the rule decides 1 for each record, taken over its randomization."""
    dataset.require_scores()
    if not len(dataset):
        return np.zeros(0)
    return rule.probabilities(dataset, np.arange(len(dataset)))


def decide(rule: DecisionRule, dataset: Dataset, draws: np.ndarray) -> np.ndarray:
    """Each record's sampled decision (True decides 1), from one uniform draw per record.

    Every record must have a score, and ``draws`` must hold one draw in
    [0, 1) per record. A mixture routes a record to ``first`` when its draw
    is below the weight, then rescales the draw onto [0, 1] for the sub-rule
    that sees the record. A record decides 1 when its draw is below its
    decision probability; weight 1 always picks ``first`` and probability 1
    always decides 1, even for a rescaled draw that rounded up to 1. With
    fixed draws, a higher score never flips a threshold decision from 1 to 0.
    """
    dataset.require_scores()
    draws = np.asarray(draws, dtype=float)
    if draws.shape != (len(dataset),):
        raise ValueError(f"need one random draw per record, got shape {draws.shape}")
    bad = ~((draws >= 0.0) & (draws < 1.0))  # NaN is bad too
    if bad.any():
        raise ValueError(f"random draws must be in [0, 1), got {draws[bad][0]}")
    return _sample(rule, dataset, np.arange(len(dataset)), draws)


def _sample(
    rule: DecisionRule, dataset: Dataset, rows: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """``decide`` for the records at ``rows``, whose draws are ``draws``."""
    if not len(rows):
        return np.zeros(0, dtype=bool)
    if not isinstance(rule, Mixture):
        p = rule.probabilities(dataset, rows)
        return (p == 1.0) | (draws < p)
    w = rule._row_weights(dataset, rows)
    first = (draws < w) | (w == 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch not taken may divide by 0
        rescaled = np.where(first, draws / w, (draws - w) / (1.0 - w))
    decisions = np.zeros(len(rows), dtype=bool)
    for sub_rule, routed in ((rule.first, first), (rule.second, ~first)):
        decisions[routed] = _sample(sub_rule, dataset, rows[routed], rescaled[routed])
    return decisions


# ---------------------------------------------------------------------------
# Rule serialization
# ---------------------------------------------------------------------------


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_integer(value) or isinstance(value, float)


def _is_object(value) -> bool:
    return isinstance(value, Mapping)


def _is_string(value) -> bool:
    return isinstance(value, str)


def _list_of(test: Callable, length: int | None = None) -> Callable:
    """A test of a list whose entries all pass ``test``, of ``length`` entries if given."""
    return lambda v: (
        isinstance(v, list) and (length is None or len(v) == length) and all(map(test, v))
    )


# The JSON forms a file entry can be required to take, by the phrase that names them.
_JSON_FORMS = {
    "an object": _is_object,
    "a string": _is_string,
    "a number": _is_number,
    "an integer": _is_integer,
    "a list of objects": _list_of(_is_object),
    "a list of strings": _list_of(_is_string),
    "a list of integers": _list_of(_is_integer),
    "a list of four numbers": _list_of(_is_number, 4),
}
_REQUIRED = object()


def _json_kind(value) -> str:
    """How a JSON value reads in an error message."""
    if isinstance(value, list):
        return f"a list of {len(value)} entries"
    for phrase in ("an object", "a string", "a number"):
        if _JSON_FORMS[phrase](value):
            return phrase
    return "null" if value is None else "a boolean"


def _json_entry(data, key: str, form: str, default=_REQUIRED):
    """``data[key]``, which must take ``form`` (a ``_JSON_FORMS`` phrase); ``default`` if absent.

    A key whose default is None may also hold null. A ``data`` that is not
    a JSON object, a missing required key and a value of another form are
    each a ValueError that names the key.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a JSON object, got {_json_kind(data)}")
    value = data.get(key)
    if key not in data or (value is None and default is None):
        if default is _REQUIRED:
            raise ValueError(f"missing key {key!r}")
        return default
    if not _JSON_FORMS[form](value):
        raise ValueError(f"{key!r} must be {form}, got {_json_kind(value)}")
    return value


def _json_keys(data, *known: str) -> None:
    """A ValueError that names the first key of the JSON object ``data`` not in ``known``.

    A misspelt key would otherwise take its default in silence. A ``data``
    that is not an object is left to ``_json_entry``.
    """
    if not isinstance(data, Mapping):
        return
    for key in data:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")


def _json_choice(data, key: str, enum: type[Enum]) -> Enum:
    """The member of ``enum`` whose value ``data[key]`` names; any other value names the choices."""
    value = _json_entry(data, key, "a string")
    names = [member.value for member in enum]
    if value not in names:
        raise ValueError(f"{key!r} must be one of {', '.join(names)}, got {value!r}")
    return enum(value)


def _interval_to_dict(cut: IntervalCut) -> dict:
    """The cut's fields; the form only where the endpoints do not name it."""
    out = {"low": cut.low, "high": cut.high, "boundary": cut.boundary}
    if cut.form_is_open:
        out["form"] = cut.form
    return out


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
                g: _interval_to_dict(c) for g, c in sorted(rule.cuts.items())
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
    """The rule ``rule_to_dict`` wrote; an entry of the wrong shape is a ValueError naming it."""
    kind = _json_entry(data, "kind", "a string")

    def cut(c: Mapping, *others: str) -> tuple[float, float]:
        """The (tau, boundary) of a threshold cut object, which may also hold ``others``."""
        _json_keys(c, "tau", "boundary", *others)
        tau = float(_json_entry(c, "tau", "a number"))
        return tau, float(_json_entry(c, "boundary", "a number", 1.0))

    def interval(c: Mapping) -> IntervalCut:
        """An interval cut, whose object holds no key but its four fields."""
        _json_keys(c, "low", "high", "boundary", "form")
        return IntervalCut(
            float(_json_entry(c, "low", "a number")),
            float(_json_entry(c, "high", "a number")),
            float(_json_entry(c, "boundary", "a number", 1.0)),
            _json_entry(c, "form", "a string", None),
        )

    def per_group() -> dict:
        """Each group's cut object."""
        _json_keys(data, "kind", "groups")
        groups = _json_entry(data, "groups", "an object")
        return {g: _json_entry(groups, g, "an object") for g in groups}

    if kind == "single_threshold":
        return SingleThreshold(*cut(data, "kind"))
    if kind == "group_threshold":
        return GroupThreshold({g: GroupCut(*cut(c)) for g, c in per_group().items()})
    if kind == "group_interval":
        return GroupInterval({g: interval(c) for g, c in per_group().items()})
    if kind == "stratified_group_threshold":
        _json_keys(data, "kind", "legit_names", "cuts")
        return StratifiedGroupThreshold(
            legit_names=tuple(_json_entry(data, "legit_names", "a list of strings")),
            cuts={
                (
                    _json_entry(c, "group", "a string"),
                    tuple(_json_entry(c, "stratum", "a list of strings")),
                ): GroupCut(*cut(c, "group", "stratum"))
                for c in _json_entry(data, "cuts", "a list of objects")
            },
        )
    if kind == "mixture":
        _json_keys(data, "kind", "weights", "first", "second")
        weights = _json_entry(data, "weights", "an object")
        return Mixture(
            weights={g: float(_json_entry(weights, g, "a number")) for g in weights},
            first=rule_from_dict(_json_entry(data, "first", "an object")),
            second=rule_from_dict(_json_entry(data, "second", "an object")),
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
    """The rule and criterion ``write_rule_file`` wrote; a ValueError names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
        _json_keys(doc, "rule", "criterion")
        rule = rule_from_dict(_json_entry(doc, "rule", "an object"))
        stored = _json_entry(doc, "criterion", "an object", None)
        criterion = None if stored is None else FairnessCriterion.from_dict(stored)
    except ValueError as exc:
        raise ValueError(f"rule file {path}: {exc}") from exc
    return rule, criterion
