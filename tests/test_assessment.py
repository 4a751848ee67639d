import dataclasses
import io
import itertools

import pytest

from fairgate.assessment import (
    BenefitSource,
    InvalidAssessmentError,
    JustifierKind,
    MoralAssessment,
    NoAppropriateCriterionError,
    VacuousFairnessError,
    WizardAborted,
    assessment_from_dict,
    assessment_to_dict,
    benefit_source_candidates,
    criterion_equation,
    load_assessment,
    map_assessment,
    prune_justifier_values,
    run_wizard,
    save_assessment,
)
from fairgate.model import BenefitMatrix, CriterionKind


def assessment(source, justifier, values=frozenset({0, 1}), names=()):
    return MoralAssessment(
        benefit_source=source,
        justifier=justifier,
        justifier_names=names,
        relevant_values=frozenset(values),
    )


VALID_CASES = [
    (BenefitSource.DECISION, JustifierKind.NONE, {0, 1}, CriterionKind.INDEPENDENCE),
    (
        BenefitSource.DECISION,
        JustifierKind.LEGITIMATE,
        {0, 1},
        CriterionKind.CONDITIONAL_STATISTICAL_PARITY,
    ),
    (BenefitSource.DECISION, JustifierKind.OUTCOME, {0, 1}, CriterionKind.SEPARATION),
    (BenefitSource.DECISION, JustifierKind.OUTCOME, {1}, CriterionKind.TPR_PARITY),
    (BenefitSource.DECISION, JustifierKind.OUTCOME, {0}, CriterionKind.FPR_PARITY),
    (BenefitSource.OUTCOME, JustifierKind.DECISION, {0, 1}, CriterionKind.SUFFICIENCY),
    (BenefitSource.OUTCOME, JustifierKind.DECISION, {1}, CriterionKind.PPV_PARITY),
    (BenefitSource.OUTCOME, JustifierKind.DECISION, {0}, CriterionKind.FOR_PARITY),
]


class TestMapping:
    @pytest.mark.parametrize("source,justifier,values,expected", VALID_CASES)
    def test_valid_rows(self, source, justifier, values, expected):
        names = ("job",) if justifier is JustifierKind.LEGITIMATE else ()
        criterion = map_assessment(assessment(source, justifier, values, names))
        assert criterion.kind is expected
        assert criterion.gamma == 1.0

    def test_exhaustive_over_all_combinations(self):
        """Exactly the eight table rows map; every other combination errors."""
        value_sets = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        seen_valid = set()
        for source, justifier in itertools.product(BenefitSource, JustifierKind):
            relevant = (
                value_sets
                if justifier in (JustifierKind.OUTCOME, JustifierKind.DECISION)
                else [frozenset({0, 1})]
            )
            for values in relevant:
                names = ("job",) if justifier is JustifierKind.LEGITIMATE else ()
                try:
                    criterion = map_assessment(assessment(source, justifier, values, names))
                except InvalidAssessmentError:
                    continue
                seen_valid.add((source, justifier, values if len(values) < 2 else frozenset({0, 1})))
                expected = {
                    (s, j, frozenset(v)): kind for s, j, v, kind in VALID_CASES
                }[(source, justifier, frozenset(values))]
                assert criterion.kind is expected
        assert len(seen_valid) == 8

    def test_same_sided_justifier_rejected(self):
        with pytest.raises(InvalidAssessmentError):
            assessment(BenefitSource.OUTCOME, JustifierKind.OUTCOME)
        with pytest.raises(InvalidAssessmentError):
            assessment(BenefitSource.DECISION, JustifierKind.DECISION)

    def test_outcome_benefit_without_decision_justifier_rejected(self):
        with pytest.raises(InvalidAssessmentError):
            map_assessment(assessment(BenefitSource.OUTCOME, JustifierKind.NONE))
        with pytest.raises(InvalidAssessmentError):
            map_assessment(
                assessment(BenefitSource.OUTCOME, JustifierKind.LEGITIMATE, names=("job",))
            )

    def test_csp_carries_names(self):
        criterion = map_assessment(
            assessment(BenefitSource.DECISION, JustifierKind.LEGITIMATE, names=("job", "age"))
        )
        assert criterion.legit_names == ("job", "age")

    def test_constant_matrix_has_no_criterion(self):
        with pytest.raises(NoAppropriateCriterionError):
            benefit_source_candidates((2.0, 2.0, 2.0, 2.0))

    def test_matrix_source_detection(self):
        assert benefit_source_candidates((0.0, 0.0, 1.0, 1.0)) == {BenefitSource.DECISION}
        assert benefit_source_candidates((0.0, 1.0, 0.0, 1.0)) == {BenefitSource.OUTCOME}
        assert benefit_source_candidates((0.0, 1.0, 1.0, 1.0)) == {
            BenefitSource.DECISION,
            BenefitSource.OUTCOME,
        }


@pytest.mark.parametrize(
    "source, value, cells",
    [
        (BenefitSource.DECISION, 1, (0.0, 0.0, 1.0, 1.0)),  # b(d, y) = d
        (BenefitSource.DECISION, 0, (1.0, 1.0, 0.0, 0.0)),  # b(d, y) = 1 - d
        (BenefitSource.OUTCOME, 1, (0.0, 1.0, 0.0, 1.0)),  # b(d, y) = y
        (BenefitSource.OUTCOME, 0, (1.0, 0.0, 1.0, 0.0)),  # b(d, y) = 1 - y
    ],
)
def test_an_assessment_carries_its_benefit(source, value, cells):
    implied = MoralAssessment(benefit_source=source, benefit_value=value)
    assert implied.benefit == BenefitMatrix(*cells)
    given = dataclasses.replace(implied, benefit_matrix=BenefitMatrix(1.0, 2.0, 3.0, 4.0))
    assert given.benefit == BenefitMatrix(1.0, 2.0, 3.0, 4.0)


class TestPruning:
    def test_indifferent_outcome_value_dropped(self):
        # Individuals with outcome 0 get the same benefit either way, so
        # separation relaxes to TPR parity.
        base = assessment(BenefitSource.DECISION, JustifierKind.OUTCOME)
        benefit = BenefitMatrix(b00=0.5, b01=0.0, b10=0.5, b11=1.0)
        pruned = prune_justifier_values(base, benefit)
        assert pruned.relevant_values == {1}
        assert map_assessment(pruned).kind is CriterionKind.TPR_PARITY

    def test_all_cells_distinct_keeps_everything(self):
        base = assessment(BenefitSource.DECISION, JustifierKind.OUTCOME)
        benefit = BenefitMatrix(1.0, 2.0, 3.0, 4.0)
        assert prune_justifier_values(base, benefit).relevant_values == {0, 1}

    def test_vacuous_when_all_values_pruned(self):
        base = assessment(BenefitSource.DECISION, JustifierKind.OUTCOME)
        benefit = BenefitMatrix(b00=1.0, b01=2.0, b10=1.0, b11=2.0)  # varies with y only
        with pytest.raises(VacuousFairnessError):
            prune_justifier_values(base, benefit)

    def test_decision_justifier_prunes_on_outcome_rows(self):
        base = assessment(BenefitSource.OUTCOME, JustifierKind.DECISION)
        # Benefit constant in outcome among the rejected: FOR side is moot.
        benefit = BenefitMatrix(b00=1.0, b01=1.0, b10=0.0, b11=2.0)
        pruned = prune_justifier_values(base, benefit)
        assert pruned.relevant_values == {1}
        assert map_assessment(pruned).kind is CriterionKind.PPV_PARITY

    def test_idempotent(self):
        base = assessment(BenefitSource.DECISION, JustifierKind.OUTCOME)
        benefit = BenefitMatrix(b00=0.5, b01=0.0, b10=0.5, b11=1.0)
        once = prune_justifier_values(base, benefit)
        twice = prune_justifier_values(once, benefit)
        assert once == twice

    def test_requires_binary_justifier(self):
        base = assessment(BenefitSource.DECISION, JustifierKind.NONE)
        with pytest.raises(InvalidAssessmentError):
            prune_justifier_values(base, BenefitMatrix(1.0, 2.0, 3.0, 4.0))


def wizard(answers):
    out = io.StringIO()
    result = run_wizard(istream=io.StringIO("\n".join(answers) + "\n"), ostream=out)
    return result, out.getvalue()


class TestWizard:
    def test_release_decision_fpr_parity(self):
        # Benefit is the (release) decision, justifier the outcome, only
        # non-reoffenders raise a claim.
        result, echoed = wizard(["decision", "0", "race", "outcome", "0"])
        assert result.benefit_source is BenefitSource.DECISION
        assert result.benefit_value == 0
        assert result.group_attribute == "race"
        assert map_assessment(result).kind is CriterionKind.FPR_PARITY
        assert "fpr_parity" in echoed
        assert "P(D=1 | Y=0, G=g)" in echoed

    def test_independence(self):
        result, _ = wizard(["decision", "1", "group", "none"])
        assert map_assessment(result).kind is CriterionKind.INDEPENDENCE

    def test_legitimate_attribute(self):
        result, _ = wizard(["decision", "1", "group", "legitimate", "job_type"])
        criterion = map_assessment(result)
        assert criterion.kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY
        assert criterion.legit_names == ("job_type",)

    def test_matrix_with_pruning(self):
        result, echoed = wizard(["matrix", "0.5, 0, 0.5, 1", "race", "outcome", "both"])
        assert result.relevant_values == {1}
        assert "pruned" in echoed
        assert map_assessment(result).kind is CriterionKind.TPR_PARITY

    @pytest.mark.parametrize("cells", ["nan, 0, 1, 0", "0, inf, 1, 0"])
    def test_non_finite_matrix_cell_reprompts(self, cells):
        result, echoed = wizard(["matrix", cells, "0.5, 0, 0.5, 1", "race", "outcome", "both"])
        assert "Could not parse the matrix: benefit matrix cells must be finite" in echoed
        assert result.benefit_matrix == BenefitMatrix(0.5, 0.0, 0.5, 1.0)
        assert map_assessment(result).kind is CriterionKind.TPR_PARITY

    def test_contradictory_answer_reprompts(self):
        result, echoed = wizard(["decision", "1", "group", "decision", "outcome", "both"])
        assert "must be a" in echoed or "Choose again" in echoed
        assert map_assessment(result).kind is CriterionKind.SEPARATION

    def test_unknown_option_reprompts(self):
        result, _ = wizard(["banana", "decision", "1", "group", "none"])
        assert map_assessment(result).kind is CriterionKind.INDEPENDENCE

    def test_eof_aborts(self):
        with pytest.raises(WizardAborted):
            run_wizard(istream=io.StringIO(""), ostream=io.StringIO())

    def test_constant_matrix_aborts_with_no_criterion(self):
        with pytest.raises(NoAppropriateCriterionError):
            wizard(["matrix", "1, 1, 1, 1", "race", "none"])

    def test_output_always_satisfies_invariants(self):
        scripts = [
            ["decision", "1", "g", "none"],
            ["decision", "0", "g", "outcome", "1"],
            ["outcome", "1", "g", "decision", "both"],
            ["matrix", "0, 0, 1, 2", "g", "outcome", "both"],
            ["matrix", "0, 1, 1, 2", "g", "decision", "1"],
        ]
        for script in scripts:
            result, _ = wizard(script)
            map_assessment(result)  # raises if the assessment is incoherent


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        original = MoralAssessment(
            benefit_source=BenefitSource.DECISION,
            benefit_value=0,
            benefit_matrix=BenefitMatrix(0.5, 0.0, 0.5, 1.0),
            justifier=JustifierKind.OUTCOME,
            relevant_values=frozenset({0}),
            group_attribute="race",
        )
        path = tmp_path / "assessment.json"
        save_assessment(path, original)
        assert load_assessment(path) == original

    def test_dict_contains_mapped_criterion(self):
        doc = assessment_to_dict(assessment(BenefitSource.DECISION, JustifierKind.OUTCOME, {0}))
        assert doc["criterion"]["kind"] == "fpr_parity"
        assert assessment_from_dict(doc).relevant_values == {0}


def test_criterion_equations_cover_all_kinds():
    for source, justifier, values, kind in VALID_CASES:
        names = ("job",) if justifier is JustifierKind.LEGITIMATE else ()
        criterion = map_assessment(assessment(source, justifier, values, names))
        assert "P(" in criterion_equation(criterion)
