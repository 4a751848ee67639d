import random

import pytest

from conftest import make_dataset
from fairgate.assessment import BenefitSource, JustifierKind, MoralAssessment
from fairgate.frontier import headline_rate_names
from fairgate.metrics import (
    UndefinedCellWarning,
    UndefinedMetricError,
    compute_rates,
    decision_maker_utility,
    disparity_detail,
    disparity_ratio,
    fec_check,
    metric_report,
)
from fairgate.model import (
    CriterionKind,
    Dataset,
    FairnessCriterion,
    GroupCut,
    GroupThreshold,
    SingleThreshold,
    UtilityMatrix,
)
from fairgate.optimizer import OptimizationProblem, optimize

FOUR_RECORDS = [
    (0.9, 1, "a"),
    (0.2, 0, "a"),
    (0.8, 0, "b"),
    (0.4, 1, "b"),
]


class TestComputeRates:
    def test_four_record_hand_counts(self):
        # Threshold 0.5 accepts 0.9 (a, y=1) and 0.8 (b, y=0); hand-counted cells.
        rates = compute_rates(make_dataset(FOUR_RECORDS), SingleThreshold(0.5))
        assert rates.positive_rate == {"a": 0.5, "b": 0.5}
        assert rates.tpr == {"a": 1.0, "b": 0.0}
        assert rates.fpr == {"a": 0.0, "b": 1.0}
        assert rates.ppv == {"a": 1.0, "b": 0.0}
        assert rates.for_rate == {"a": 0.0, "b": 1.0}
        assert rates.size == {"a": 2, "b": 2}
        assert rates.label_count[("a", 1)] == 1

    def test_always_reject(self):
        rates = compute_rates(
            make_dataset(FOUR_RECORDS), SingleThreshold(1.0, boundary=0.0)
        )
        assert rates.positive_rate == {"a": 0.0, "b": 0.0}
        assert rates.ppv == {"a": None, "b": None}
        # With nobody accepted, FOR equals the group base rate.
        assert rates.for_rate == {"a": 0.5, "b": 0.5}

    def test_for_with_almost_no_rejects_keeps_its_digits(self):
        # Each group rejects 1e-12 of its lowest record, a positive, so FOR is
        # exactly 1; n - sum(accepts) would cancel to a few digits.
        rows = [(0.9, 0, "a"), (0.7, 1, "a"), (0.3, 1, "a"), (0.8, 0, "b"), (0.6, 1, "b")]
        rule = GroupThreshold({"a": GroupCut(0.3, 1.0 - 1e-12), "b": GroupCut(0.6, 1.0 - 1e-12)})
        rates = compute_rates(make_dataset(rows), rule)
        assert rates.for_rate == {"a": 1.0, "b": 1.0}

    def test_randomized_rule_uses_analytic_probabilities(self):
        rule = GroupThreshold({"a": GroupCut(0.2, boundary=0.5), "b": GroupCut(0.4, 0.5)})
        rates = compute_rates(make_dataset(FOUR_RECORDS), rule)
        # a: 0.9 accepted, 0.2 at boundary with 0.5 -> expected 1.5 accepts.
        assert rates.positive_rate["a"] == pytest.approx(0.75)
        assert rates.expected_accepts["a"] == pytest.approx(1.5)

    def test_stratum_rates(self):
        rows = [
            (0.9, 1, "a", {"job": "x"}),
            (0.1, 0, "a", {"job": "y"}),
            (0.8, 1, "b", {"job": "x"}),
            (0.2, 0, "b", {"job": "y"}),
        ]
        rates = compute_rates(make_dataset(rows, legit_names=("job",)), SingleThreshold(0.5))
        assert rates.stratum_positive_rate[(("x",), "a")] == 1.0
        assert rates.stratum_positive_rate[(("y",), "b")] == 0.0

    def test_empty_stratum_cell_is_left_out(self):
        rows = [
            (0.9, 1, "a", {"job": "x"}),
            (0.1, 0, "a", {"job": "y"}),
            (0.8, 1, "b", {"job": "x"}),
        ]
        rates = compute_rates(make_dataset(rows, legit_names=("job",)), SingleThreshold(0.5))
        cells = [(("x",), "a"), (("x",), "b"), (("y",), "a")]
        assert list(rates.stratum_size) == list(rates.stratum_positive_rate) == cells
        assert list(rates.stratum_size.values()) == [1, 1, 1]

    def test_permutation_and_duplication_invariance(self):
        rng = random.Random(7)
        rows = [(round(rng.random(), 2), rng.randint(0, 1), rng.choice("ab")) for _ in range(30)]
        rows += [(0.5, 0, "a"), (0.5, 1, "b")]
        rule = SingleThreshold(0.42)
        base = compute_rates(make_dataset(rows), rule)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        doubled = rows + rows
        for variant in (shuffled, doubled):
            rates = compute_rates(make_dataset(variant), rule)
            for family in ("positive_rate", "tpr", "fpr", "ppv", "for_rate"):
                got = getattr(rates, family)
                want = getattr(base, family)
                for g in ("a", "b"):
                    assert got[g] == pytest.approx(want[g], abs=1e-12)


class TestDisparityRatio:
    def crit(self, kind, **kw):
        return FairnessCriterion(kind, **kw)

    def rates_with(self, fpr_a, fpr_b):
        rows = []
        # fpr = P(accept | y=0); build groups of 100 negatives with the right share.
        for g, fpr in (("a", fpr_a), ("b", fpr_b)):
            k = int(round(fpr * 100))
            rows += [(0.9, 0, g)] * k + [(0.1, 0, g)] * (100 - k)
            rows += [(0.9, 1, g)]  # keep tpr defined
        return compute_rates(make_dataset(rows), SingleThreshold(0.5))

    def test_equal_rates_give_one(self):
        rates = self.rates_with(0.30, 0.30)
        assert disparity_ratio(rates, self.crit(CriterionKind.FPR_PARITY)) == 1.0

    def test_paper_style_ratio(self):
        rates = self.rates_with(0.35, 0.21)
        ratio = disparity_ratio(rates, self.crit(CriterionKind.FPR_PARITY))
        assert ratio == pytest.approx(0.21 / 0.35)
        assert ratio == pytest.approx(0.6)

    def test_both_zero_is_fair(self):
        rates = compute_rates(
            make_dataset(FOUR_RECORDS), SingleThreshold(1.0, boundary=0.0)
        )
        assert disparity_ratio(rates, self.crit(CriterionKind.INDEPENDENCE)) == 1.0

    def test_one_sided_zero_is_maximally_unfair(self):
        rows = [(0.9, 1, "a"), (0.9, 0, "a"), (0.1, 1, "b"), (0.1, 0, "b")]
        rates = compute_rates(make_dataset(rows), SingleThreshold(0.5))
        assert disparity_ratio(rates, self.crit(CriterionKind.INDEPENDENCE)) == 0.0

    def test_separation_takes_worst_family(self):
        rows = [
            (0.9, 1, "a"), (0.9, 0, "a"), (0.1, 1, "a"), (0.1, 0, "a"),
            (0.9, 1, "b"), (0.9, 1, "b"), (0.9, 0, "b"), (0.1, 0, "b"),
        ]
        rates = compute_rates(make_dataset(rows), SingleThreshold(0.5))
        sep = disparity_ratio(rates, self.crit(CriterionKind.SEPARATION))
        tpr = disparity_ratio(rates, self.crit(CriterionKind.TPR_PARITY))
        fpr = disparity_ratio(rates, self.crit(CriterionKind.FPR_PARITY))
        assert sep == min(tpr, fpr)

    def test_undefined_cells_warn_and_are_skipped(self):
        # Group a has no negatives: the FPR family drops out of separation
        # with a warning; the TPR family still yields the ratio.
        rows = [(0.9, 1, "a"), (0.8, 1, "a"), (0.9, 1, "b"), (0.2, 0, "b")]
        rates = compute_rates(make_dataset(rows), SingleThreshold(0.5))
        with pytest.warns(UndefinedCellWarning):
            detail = disparity_detail(rates, self.crit(CriterionKind.SEPARATION))
        assert detail.per_family["fpr"] is None
        assert detail.per_family["tpr"] == 1.0
        assert detail.ratio == 1.0
        assert detail.skipped == ("fpr:a",)

    def test_no_comparable_family_errors(self):
        rows = [(0.9, 1, "a"), (0.8, 1, "a"), (0.9, 1, "b"), (0.2, 1, "b")]
        rates = compute_rates(make_dataset(rows), SingleThreshold(0.5))
        with pytest.warns(UndefinedCellWarning):
            with pytest.raises(UndefinedMetricError):
                disparity_ratio(rates, self.crit(CriterionKind.FPR_PARITY))

    def test_conditional_parity_minimum_across_strata(self):
        rows = [
            (0.9, 1, "a", {"j": "x"}), (0.1, 0, "a", {"j": "x"}),
            (0.9, 1, "b", {"j": "x"}), (0.1, 0, "b", {"j": "x"}),
            (0.9, 1, "a", {"j": "y"}), (0.9, 0, "a", {"j": "y"}),
            (0.1, 1, "b", {"j": "y"}), (0.1, 0, "b", {"j": "y"}),
        ]
        rates = compute_rates(make_dataset(rows, legit_names=("j",)), SingleThreshold(0.5))
        crit = self.crit(CriterionKind.CONDITIONAL_STATISTICAL_PARITY, legit_names=("j",))
        # Stratum x is balanced (ratio 1); stratum y is one-sided (ratio 0).
        assert disparity_ratio(rates, crit) == 0.0


class TestUtility:
    def test_three_record_hand_sum(self):
        rows = [(0.9, 1, "a"), (0.3, 0, "a"), (0.6, 1, "b")]
        u = UtilityMatrix(u00=2.0, u01=-1.0, u10=0.0, u11=3.0)
        # decisions: 1, 0, 1 -> payoffs 3 + 2 + 3 = 8.
        got = decision_maker_utility(make_dataset(rows), SingleThreshold(0.5), u)
        assert got == pytest.approx(8.0 / 3.0)

    def test_accuracy_matrix_is_accuracy(self):
        rows = [(0.9, 1, "a"), (0.2, 0, "a"), (0.8, 0, "b"), (0.4, 1, "b")]
        got = decision_maker_utility(
            make_dataset(rows), SingleThreshold(0.5), UtilityMatrix.accuracy()
        )
        assert got == pytest.approx(0.5)  # two of four correct

    def test_perfect_scores_give_one(self):
        rows = [(0.99, 1, "a"), (0.01, 0, "a"), (0.98, 1, "b"), (0.02, 0, "b")]
        got = decision_maker_utility(
            make_dataset(rows), SingleThreshold(0.5), UtilityMatrix.accuracy()
        )
        assert got == 1.0

    def test_constant_shift(self):
        rows = [(0.9, 1, "a"), (0.2, 0, "a"), (0.8, 0, "b"), (0.4, 1, "b")]
        dataset = make_dataset(rows)
        rule = SingleThreshold(0.5)
        base = decision_maker_utility(dataset, rule, UtilityMatrix(1.0, 0.0, 0.0, 1.0))
        shifted = decision_maker_utility(dataset, rule, UtilityMatrix(3.0, 2.0, 2.0, 3.0))
        assert shifted == pytest.approx(base + 2.0)


def outcome_assessment(values={0, 1}):
    return MoralAssessment(
        benefit_source=BenefitSource.DECISION,
        justifier=JustifierKind.OUTCOME,
        relevant_values=frozenset(values),
    )


class TestFecCheck:
    def test_benefit_is_decision_matches_group_rates(self):
        rng = random.Random(3)
        rows = [(round(rng.random(), 2), rng.randint(0, 1), rng.choice("ab")) for _ in range(40)]
        rows += [(0.5, y, g) for y in (0, 1) for g in "ab"]
        dataset = make_dataset(rows)
        rule = GroupThreshold({"a": GroupCut(0.5, 0.3), "b": GroupCut(0.6, 0.8)})
        table = fec_check(dataset, rule, outcome_assessment())  # b(d, y) = d
        rates = compute_rates(dataset, rule)
        for entry in table.entries:
            expected = rates.tpr[entry.group] if entry.justifier_value == 1 else rates.fpr[entry.group]
            assert entry.expected_benefit == expected

    def test_extreme_rules_have_max_disparity_one(self):
        rows = [(0.9, 1, "a"), (0.9, 0, "a"), (0.1, 1, "b"), (0.1, 0, "b")]
        dataset = make_dataset(rows)
        table = fec_check(dataset, SingleThreshold(0.5), outcome_assessment())
        assert table.max_disparity == 1.0

    def test_separation_satisfying_rule_has_zero_disparity(self):
        rows = [
            (0.9, 1, "a"), (0.9, 0, "a"), (0.1, 1, "a"), (0.1, 0, "a"),
            (0.9, 1, "b"), (0.9, 0, "b"), (0.1, 1, "b"), (0.1, 0, "b"),
        ]
        dataset = make_dataset(rows)
        table = fec_check(dataset, SingleThreshold(0.5), outcome_assessment())
        assert table.max_disparity == pytest.approx(0.0, abs=1e-12)

    def test_decision_justifier_weights_by_probability(self):
        rows = [(0.9, 1, "a"), (0.2, 0, "a"), (0.9, 0, "b"), (0.2, 1, "b")]
        dataset = make_dataset(rows)
        a = MoralAssessment(
            benefit_source=BenefitSource.OUTCOME,
            justifier=JustifierKind.DECISION,
            relevant_values=frozenset({1}),
        )
        table = fec_check(dataset, SingleThreshold(0.5), a)  # b(d, y) = y
        by_group = {e.group: e for e in table.entries}
        assert by_group["a"].expected_benefit == 1.0  # accepted subset of a: the y=1 record
        assert by_group["b"].expected_benefit == 0.0
        assert table.max_disparity == 1.0

    def test_empty_cell_flagged_with_zero_support(self):
        rows = [(0.9, 1, "a"), (0.2, 0, "a"), (0.8, 1, "b"), (0.3, 1, "b")]
        dataset = make_dataset(rows)
        table = fec_check(dataset, SingleThreshold(0.5), outcome_assessment({0}))
        entry_b = [e for e in table.entries if e.group == "b"][0]
        assert entry_b.support == 0.0
        assert entry_b.expected_benefit is None
        assert table.max_disparity is None  # only one supported group remains

    def test_no_justifier_compares_unconditional_benefit(self):
        rows = [(0.9, 1, "a"), (0.2, 0, "a"), (0.9, 0, "b"), (0.2, 1, "b")]
        a = MoralAssessment(benefit_source=BenefitSource.DECISION, justifier=JustifierKind.NONE)
        table = fec_check(make_dataset(rows), SingleThreshold(0.5), a)
        assert table.max_disparity == pytest.approx(0.0)  # both groups accept one of two

    def test_empty_dataset_is_rejected(self):
        empty = Dataset.from_records([])
        with pytest.raises(ValueError, match="cannot compute expected benefits on an empty"):
            fec_check(empty, SingleThreshold(0.5), outcome_assessment())


@pytest.mark.parametrize(
    "metric",
    [
        compute_rates,
        lambda dataset, rule: decision_maker_utility(dataset, rule, UtilityMatrix.accuracy()),
        lambda dataset, rule: fec_check(dataset, rule, outcome_assessment()),
    ],
    ids=["compute_rates", "decision_maker_utility", "fec_check"],
)
def test_an_unscored_record_is_named(metric):
    dataset = make_dataset([(None, 1, "a"), (0.3, 0, "a"), (0.6, 1, "b")])
    with pytest.raises(ValueError, match="^record 0 has no score$"):
        metric(dataset, SingleThreshold(0.5))


def test_metric_report_is_json_ready(accuracy):
    import json

    dataset = make_dataset(FOUR_RECORDS)
    report = metric_report(
        dataset,
        SingleThreshold(0.5),
        FairnessCriterion(CriterionKind.INDEPENDENCE),
        accuracy,
        outcome_assessment(),
    )
    text = json.dumps(report)
    assert "disparity_ratio" in text
    assert report["disparity_ratio"] == 1.0
    assert report["fec"]["max_disparity"] is not None


# Each group has both outcomes accepted and rejected in both tiers, so every
# rate of every cell is defined under a threshold at 0.5.
TIERED = [
    (score, label, group, {"tier": tier})
    for group in ("a", "b")
    for tier in ("hi", "lo")
    for score, label in ((0.9, 1), (0.8, 0), (0.3, 1), (0.2, 0))
]


@pytest.mark.parametrize(
    "kind, per_family, headline",
    [
        (CriterionKind.INDEPENDENCE, ["positive_rate"], ["positive_rate"]),
        (
            CriterionKind.CONDITIONAL_STATISTICAL_PARITY,
            ["positive_rate@hi", "positive_rate@lo"],
            ["positive_rate"],
        ),
        (CriterionKind.SEPARATION, ["tpr", "fpr"], ["tpr", "fpr"]),
        (CriterionKind.TPR_PARITY, ["tpr"], ["tpr"]),
        (CriterionKind.FPR_PARITY, ["fpr"], ["fpr"]),
        (CriterionKind.SUFFICIENCY, ["ppv", "for_rate"], ["ppv", "for_rate"]),
        (CriterionKind.PPV_PARITY, ["ppv"], ["ppv"]),
        (CriterionKind.FOR_PARITY, ["for_rate"], ["for_rate"]),
    ],
)
def test_family_names_of_every_criterion(kind, per_family, headline):
    legit = ("tier",) if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY else ()
    criterion = FairnessCriterion(kind, legit_names=legit)
    rates = compute_rates(make_dataset(TIERED, legit_names=("tier",)), SingleThreshold(0.5))
    assert list(disparity_detail(rates, criterion).per_family) == per_family
    assert headline_rate_names(criterion, ("a", "b")) == [
        f"{family}_{g}" for family in headline for g in ("a", "b")
    ]


def _two_attribute_dataset():
    """2,000 records with a tier and a region; acceptance odds differ by both."""
    rng = random.Random(11)
    rows = []
    for _ in range(2000):
        group, tier, region = rng.choice("ab"), rng.choice(("high", "low")), rng.choice("ns")
        base = 0.25 + 0.3 * (tier == "high") + 0.15 * (region == "n") * (group == "a")
        score = round(min(max(rng.gauss(base, 0.2), 0.0), 1.0), 2)
        rows.append((score, int(rng.random() < score), group, {"tier": tier, "region": region}))
    return make_dataset(rows, legit_names=("tier", "region"))


def test_conditional_parity_is_measured_within_its_own_strata(accuracy):
    dataset = _two_attribute_dataset()
    criterion = FairnessCriterion(
        CriterionKind.CONDITIONAL_STATISTICAL_PARITY, gamma=0.9, legit_names=("tier",)
    )
    rule = optimize(OptimizationProblem(dataset, accuracy, criterion))
    report = metric_report(dataset, rule, criterion, accuracy)
    assert list(report["disparity_per_family"]) == ["positive_rate@high", "positive_rate@low"]
    assert report["disparity_ratio"] >= 0.9 - 1e-12
    # The per-cell rows still list every (tier, region) stratum of the dataset.
    assert {row["stratum"] for row in report["strata"]} == {"high/n", "high/s", "low/n", "low/s"}


def test_conditional_parity_on_an_attribute_the_data_lacks(accuracy):
    rates = compute_rates(_two_attribute_dataset(), SingleThreshold(0.5))
    criterion = FairnessCriterion(
        CriterionKind.CONDITIONAL_STATISTICAL_PARITY, legit_names=("age",)
    )
    with pytest.raises(ValueError, match="age"):
        disparity_detail(rates, criterion)
