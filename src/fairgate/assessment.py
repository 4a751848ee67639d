"""Moral assessment of a decision context and its mapping to a criterion.

The assessment answers three questions: what benefit does the system
distribute (a function of the decision or of the outcome), which attribute
if any justifies unequal benefits (the justifier), and which justifier
values actually carry moral weight. Each answer combination corresponds to
exactly one statistical group fairness criterion; combinations outside the
table are rejected.

This module owns the assessment policy. Wizard answers and assessment files
take one path to their criterion: ``settle`` prunes the justifier values a
benefit matrix does not tell apart and checks that the matrix supports the
stated benefit source, then ``map_assessment`` names the criterion. An
assessment carries its own benefit b(d, y) for the equal-chances check
(``MoralAssessment.benefit``).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Mapping

from .model import (
    BenefitMatrix,
    CriterionKind,
    FairnessCriterion,
    _json_choice,
    _json_entry,
    _json_keys,
    _require_finite,
)


class InvalidAssessmentError(ValueError):
    """The assessment's categories do not form a coherent fairness question."""


class NoAppropriateCriterionError(ValueError):
    """The benefit relates to neither the decision nor the outcome."""


class VacuousFairnessError(ValueError):
    """Every justifier value was pruned: equal chances hold trivially."""


class WizardAborted(RuntimeError):
    """The interactive questionnaire was ended before completion."""


class BenefitSource(str, Enum):
    DECISION = "decision"
    OUTCOME = "outcome"


class JustifierKind(str, Enum):
    NONE = "none"
    OUTCOME = "outcome"
    DECISION = "decision"
    LEGITIMATE = "legitimate"


@dataclass(frozen=True)
class MoralAssessment:
    """Outcome of the moral analysis: benefit, justifier and relevant values.

    ``benefit_value`` records which value of the source counts as the
    advantage (e.g. benefit = not being detained means decision value 0).
    The parity requirements are symmetric under relabeling, so it changes no
    criterion; without a ``benefit_matrix`` it sets the implied 0/1 benefit.
    """

    benefit_source: BenefitSource
    benefit_value: int = 1
    benefit_matrix: BenefitMatrix | None = None
    justifier: JustifierKind = JustifierKind.NONE
    justifier_names: tuple[str, ...] = ()
    relevant_values: frozenset[int] = frozenset({0, 1})
    group_attribute: str = "group"

    def __post_init__(self) -> None:
        if self.benefit_value not in (0, 1):
            raise InvalidAssessmentError("benefit value must be 0 or 1")
        if _same_sided(self.benefit_source, self.justifier):
            raise InvalidAssessmentError(
                "the justifier must differ from the benefit source: comparing "
                "individuals equal in the very thing that is distributed is empty"
            )
        if self.justifier in (JustifierKind.OUTCOME, JustifierKind.DECISION):
            if not self.relevant_values or not self.relevant_values <= {0, 1}:
                raise InvalidAssessmentError(
                    "relevant justifier values must be a nonempty subset of {0, 1}"
                )
        if self.justifier is JustifierKind.LEGITIMATE and not self.justifier_names:
            raise InvalidAssessmentError("a legitimate-attribute justifier needs attribute names")

    @property
    def benefit(self) -> BenefitMatrix:
        """The benefit b(d, y) of the equal-chances check.

        It is the given matrix, or else 1 in each cell where the source, d or
        y, has the benefit value and 0 in the others.
        """
        if self.benefit_matrix is not None:
            return self.benefit_matrix
        by_decision = self.benefit_source is BenefitSource.DECISION
        cells = ((d if by_decision else y) == self.benefit_value for d in (0, 1) for y in (0, 1))
        return BenefitMatrix(*map(float, cells))


def _same_sided(source: BenefitSource | None, justifier: JustifierKind) -> bool:
    """Whether the justifier is the benefit source itself, which leaves nothing to compare."""
    return source is not None and justifier.value == source.value


def map_assessment(assessment: MoralAssessment) -> FairnessCriterion:
    """Map an assessment to the unique group fairness criterion it implies.

    Decision-sourced benefits lead to the independence family (no justifier:
    independence; legitimate attributes: conditional statistical parity;
    outcome justifier: separation or its one-sided relaxations). Outcome-
    sourced benefits with a decision justifier lead to sufficiency or its
    relaxations. Everything else errors.
    """
    src, just, rv = assessment.benefit_source, assessment.justifier, assessment.relevant_values
    if src is BenefitSource.DECISION:
        if just is JustifierKind.NONE:
            return FairnessCriterion(CriterionKind.INDEPENDENCE)
        if just is JustifierKind.LEGITIMATE:
            return FairnessCriterion(
                CriterionKind.CONDITIONAL_STATISTICAL_PARITY,
                legit_names=assessment.justifier_names,
            )
        if just is JustifierKind.OUTCOME:
            if rv == {0, 1}:
                return FairnessCriterion(CriterionKind.SEPARATION)
            if rv == {1}:
                return FairnessCriterion(CriterionKind.TPR_PARITY)
            return FairnessCriterion(CriterionKind.FPR_PARITY)
    else:
        if just is JustifierKind.DECISION:
            if rv == {0, 1}:
                return FairnessCriterion(CriterionKind.SUFFICIENCY)
            if rv == {1}:
                return FairnessCriterion(CriterionKind.PPV_PARITY)
            return FairnessCriterion(CriterionKind.FOR_PARITY)
        raise InvalidAssessmentError(
            "an outcome-sourced benefit can only be conditioned on the decision; "
            f"justifier {just.value!r} has no matching criterion"
        )
    raise InvalidAssessmentError(f"no criterion for benefit {src.value!r} with justifier {just.value!r}")


def benefit_source_candidates(cells: tuple[float, float, float, float]) -> set[BenefitSource]:
    """Which benefit sources a 2x2 matrix b(0,0), b(0,1), b(1,0), b(1,1) supports.

    The matrix supports a decision-sourced reading if the benefit varies with
    the decision for some outcome, and an outcome-sourced reading if it varies
    with the outcome for some decision. A constant matrix supports neither.
    """
    b00, b01, b10, b11 = cells
    candidates: set[BenefitSource] = set()
    if b00 != b10 or b01 != b11:
        candidates.add(BenefitSource.DECISION)
    if b00 != b01 or b10 != b11:
        candidates.add(BenefitSource.OUTCOME)
    if not candidates:
        raise NoAppropriateCriterionError(
            "the benefit is unrelated to both the decision and the outcome; "
            "no group criterion is morally appropriate"
        )
    return candidates


def prune_justifier_values(
    assessment: MoralAssessment, benefit: BenefitMatrix
) -> MoralAssessment:
    """Drop justifier values whose subgroup cannot be advantaged either way.

    For an outcome justifier, individuals of type y are indifferent when
    b(0, y) = b(1, y); equality of their expected benefit holds for every
    rule, so requiring it adds nothing. The analogous check for a decision
    justifier is b(d, 0) = b(d, 1). If only one value survives, the mapped
    criterion becomes the corresponding one-sided relaxation.
    """
    if assessment.justifier not in (JustifierKind.OUTCOME, JustifierKind.DECISION):
        raise InvalidAssessmentError("pruning applies to outcome or decision justifiers only")
    kept: set[int] = set()
    for j in sorted(assessment.relevant_values):
        if assessment.justifier is JustifierKind.OUTCOME:
            varies = benefit.b(0, j) != benefit.b(1, j)
        else:
            varies = benefit.b(j, 0) != benefit.b(j, 1)
        if varies:
            kept.add(j)
    if not kept:
        raise VacuousFairnessError(
            "every justifier value was pruned: equal expected benefits hold for "
            "any rule, so no fairness constraint is needed"
        )
    return dataclasses.replace(
        assessment, relevant_values=frozenset(kept), benefit_matrix=benefit
    )


def settle(assessment: MoralAssessment) -> MoralAssessment:
    """The assessment that gets mapped, from wizard answers or a file alike.

    With a benefit matrix, an outcome or decision justifier drops the values
    its matrix does not tell apart (``prune_justifier_values``), and then
    the matrix must vary with the stated benefit source.
    """
    matrix = assessment.benefit_matrix
    if matrix is None:
        return assessment
    if assessment.justifier in (JustifierKind.OUTCOME, JustifierKind.DECISION):
        assessment = prune_justifier_values(assessment, matrix)
    source = assessment.benefit_source
    if source not in benefit_source_candidates(matrix.cells()):
        raise InvalidAssessmentError(
            f"benefit matrix {list(matrix.cells())} does not vary with the {source.value}, "
            f"so the {source.value} cannot be its benefit source"
        )
    return assessment


# ---------------------------------------------------------------------------
# Human-readable criterion equations
# ---------------------------------------------------------------------------

_EQUATIONS = {
    CriterionKind.INDEPENDENCE: "P(D=1 | G=g) equal across groups g",
    CriterionKind.CONDITIONAL_STATISTICAL_PARITY: (
        "P(D=1 | L=l, G=g) equal across groups g, within every stratum l"
    ),
    CriterionKind.SEPARATION: "P(D=1 | Y=y, G=g) equal across groups g, for y in {0, 1}",
    CriterionKind.TPR_PARITY: "P(D=1 | Y=1, G=g) equal across groups g",
    CriterionKind.FPR_PARITY: "P(D=1 | Y=0, G=g) equal across groups g",
    CriterionKind.SUFFICIENCY: "P(Y=1 | D=d, G=g) equal across groups g, for d in {0, 1}",
    CriterionKind.PPV_PARITY: "P(Y=1 | D=1, G=g) equal across groups g",
    CriterionKind.FOR_PARITY: "P(Y=1 | D=0, G=g) equal across groups g",
}


def criterion_equation(criterion: FairnessCriterion) -> str:
    """The parity requirement of a criterion, written out as probabilities."""
    eq = _EQUATIONS[criterion.kind]
    if criterion.gamma < 1.0:
        return f"{eq} (worst cross-group ratio at least {criterion.gamma:g})"
    return eq


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def assessment_to_dict(assessment: MoralAssessment) -> dict:
    return {
        "benefit_source": assessment.benefit_source.value,
        "benefit_value": assessment.benefit_value,
        "benefit_matrix": list(assessment.benefit_matrix.cells())
        if assessment.benefit_matrix is not None
        else None,
        "justifier": assessment.justifier.value,
        "justifier_names": list(assessment.justifier_names),
        "relevant_values": sorted(assessment.relevant_values),
        "group_attribute": assessment.group_attribute,
        "criterion": map_assessment(assessment).to_dict(),
    }


def assessment_from_dict(data: Mapping) -> MoralAssessment:
    """The assessment ``assessment_to_dict`` wrote.

    An entry of the wrong shape, or a key it did not write, is a
    ValueError that names the key. The stored ``criterion`` is not part of
    the assessment: ``load_assessment`` reads it beside the assessment.
    """
    _json_keys(
        data, "benefit_source", "benefit_value", "benefit_matrix", "justifier",
        "justifier_names", "relevant_values", "group_attribute", "criterion",
    )
    matrix = _json_entry(data, "benefit_matrix", "a list of four numbers", None)
    return MoralAssessment(
        benefit_source=_json_choice(data, "benefit_source", BenefitSource),
        benefit_value=_json_entry(data, "benefit_value", "an integer", 1),
        benefit_matrix=None if matrix is None else BenefitMatrix(*map(float, matrix)),
        justifier=_json_choice(data, "justifier", JustifierKind),
        justifier_names=tuple(_json_entry(data, "justifier_names", "a list of strings", ())),
        relevant_values=frozenset(
            _json_entry(data, "relevant_values", "a list of integers", (0, 1))
        ),
        group_attribute=_json_entry(data, "group_attribute", "a string", "group"),
    )


def save_assessment(path: str | Path, assessment: MoralAssessment) -> None:
    Path(path).write_text(
        json.dumps(assessment_to_dict(assessment), indent=2) + "\n", encoding="utf-8"
    )


def load_assessment(path: str | Path) -> tuple[MoralAssessment, FairnessCriterion | None]:
    """The assessment and criterion ``save_assessment`` wrote; a ValueError names the file.

    The criterion is None when the file has no ``criterion`` entry.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
        assessment = assessment_from_dict(doc)
        stored = _json_entry(doc, "criterion", "an object", None)
        criterion = None if stored is None else FairnessCriterion.from_dict(stored)
    except ValueError as exc:
        raise ValueError(f"assessment file {path}: {exc}") from exc
    return assessment, criterion


# ---------------------------------------------------------------------------
# Interactive questionnaire
# ---------------------------------------------------------------------------


@dataclass
class _Prompter:
    istream: IO[str]
    ostream: IO[str]

    def ask(self, question: str) -> str:
        self.ostream.write(question + "\n> ")
        self.ostream.flush()
        line = self.istream.readline()
        if line == "":
            raise WizardAborted("questionnaire aborted (end of input)")
        return line.strip()

    def say(self, text: str) -> None:
        self.ostream.write(text + "\n")
        self.ostream.flush()

    def choose(self, question: str, options: dict[str, str]) -> str:
        """Ask until the answer matches an option key; explain on mismatch."""
        while True:
            answer = self.ask(question).lower()
            if answer in options:
                return answer
            self.say(f"Please answer one of: {', '.join(options)}.")
            for key, why in options.items():
                self.say(f"  {key}: {why}")


def _ask_benefit(p: _Prompter) -> tuple[BenefitSource | None, int, BenefitMatrix | None]:
    choice = p.choose(
        "What produces the benefit for the decision subjects? "
        "[decision/outcome/matrix]",
        {
            "decision": "being assigned decision 1 or 0 is itself the (dis)advantage",
            "outcome": "the outcome value is what matters to the subjects",
            "matrix": "give an explicit 2x2 benefit for each (decision, outcome) cell",
        },
    )
    if choice == "matrix":
        while True:
            raw = p.ask(
                "Enter the four benefit cells b(d=0,y=0), b(d=0,y=1), b(d=1,y=0), "
                "b(d=1,y=1), comma-separated"
            )
            try:
                cells = tuple(float(part) for part in raw.split(","))
                if len(cells) != 4:
                    raise ValueError("need exactly four numbers")
                _require_finite("benefit", cells)
            except ValueError as exc:
                p.say(f"Could not parse the matrix: {exc}. Try again.")
                continue
            candidates = benefit_source_candidates(cells)  # may raise NoAppropriateCriterion
            return (
                candidates.pop() if len(candidates) == 1 else None,
                1,
                BenefitMatrix(*cells),
            )
    source = BenefitSource(choice)
    value = p.choose(
        f"Which {choice} value is the advantage? [0/1]",
        {"0": f"{choice} 0 benefits the subject", "1": f"{choice} 1 benefits the subject"},
    )
    return source, int(value), None


def _ask_justifier(
    p: _Prompter, source: BenefitSource | None
) -> tuple[JustifierKind, tuple[str, ...]]:
    while True:
        choice = p.choose(
            "Does any attribute morally justify unequal expected benefits? "
            "[none/outcome/decision/legitimate]",
            {
                "none": "everyone equally deserves the benefit",
                "outcome": "subjects equal in the true outcome deserve equal chances",
                "decision": "subjects given the same decision deserve equal chances",
                "legitimate": "named observable attributes legitimize differences",
            },
        )
        kind = JustifierKind(choice)
        if _same_sided(source, kind):
            p.say(
                f"The benefit already is the {choice}; a justifier must be a "
                "different attribute. Choose again."
            )
            continue
        if kind is JustifierKind.LEGITIMATE:
            names = p.ask("Name the legitimate attribute column(s), comma-separated")
            parsed = tuple(n.strip() for n in names.split(",") if n.strip())
            if not parsed:
                p.say("At least one attribute name is needed.")
                continue
            return kind, parsed
        return kind, ()


def run_wizard(
    istream: IO[str] | None = None, ostream: IO[str] | None = None
) -> MoralAssessment:
    """Run the step-by-step questionnaire and return the completed assessment.

    Answers can be scripted by passing any readable text stream; contradictory
    answers re-prompt with an explanation and end of input aborts cleanly.
    The mapped criterion and its parity equation are echoed at the end.
    """
    p = _Prompter(istream or sys.stdin, ostream or sys.stdout)
    source, benefit_value, matrix = _ask_benefit(p)
    group_attribute = p.ask("Which column holds the protected group?") or "group"
    justifier, justifier_names = _ask_justifier(p, source)

    if source is None:
        # Matrix varies with both decision and outcome; the justifier settles
        # which reading is coherent (it must differ from the benefit source).
        if justifier is JustifierKind.DECISION:
            source = BenefitSource.OUTCOME
        else:
            source = BenefitSource.DECISION

    relevant: frozenset[int] = frozenset({0, 1})
    if justifier in (JustifierKind.OUTCOME, JustifierKind.DECISION):
        label = "outcome" if justifier is JustifierKind.OUTCOME else "decision"
        answer = p.choose(
            f"Which {label} values are morally relevant? [0/1/both]",
            {
                "0": f"only subjects with {label} 0 raise a fairness claim",
                "1": f"only subjects with {label} 1 raise a fairness claim",
                "both": "all subjects raise a fairness claim",
            },
        )
        relevant = frozenset({0, 1}) if answer == "both" else frozenset({int(answer)})

    assessment = settle(
        MoralAssessment(
            benefit_source=source,
            benefit_value=benefit_value,
            benefit_matrix=matrix,
            justifier=justifier,
            justifier_names=justifier_names,
            relevant_values=relevant,
            group_attribute=group_attribute,
        )
    )
    dropped = sorted(relevant - assessment.relevant_values)
    if dropped:
        p.say(
            f"Justifier value(s) {dropped} carry no benefit difference and were "
            "pruned; the criterion relaxes accordingly."
        )

    criterion = map_assessment(assessment)
    p.say(f"Chosen criterion: {criterion.kind.value}")
    p.say(f"Requirement: {criterion_equation(criterion)}")
    return assessment
