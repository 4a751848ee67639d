import dataclasses
import random
import warnings
import zlib

import pytest

from conftest import make_dataset, random_instance
from fairgate.metrics import (
    UndefinedMetricError,
    compute_rates,
    decision_maker_utility,
    disparity_detail,
    disparity_ratio,
)
from fairgate.model import (
    CriterionKind,
    FairnessCriterion,
    GroupInterval,
    GroupThreshold,
    Mixture,
    SingleThreshold,
    UtilityMatrix,
    decision_probability,
)
from fairgate.optimizer import (
    DegenerateStratificationError,
    InfeasibleConstraintError,
    MissingClassWarning,
    OptimizationProblem,
    SmallStratumWarning,
    optimize,
    optimize_conditional_parity,
    optimize_independence,
    optimize_separation,
    optimize_sufficiency,
    optimize_unconstrained,
)

ACC = UtilityMatrix.accuracy()


def problem(rows_or_ds, kind, gamma, legit_names=(), min_count=30, step=0.01, utility=ACC):
    dataset = rows_or_ds if hasattr(rows_or_ds, "records") else make_dataset(rows_or_ds)
    criterion = FairnessCriterion(kind, gamma=gamma, legit_names=tuple(legit_names))
    return OptimizationProblem(
        dataset, utility, criterion, min_count=min_count, grid_step=step
    )


def utility_of(prob, rule):
    return decision_maker_utility(prob.dataset, rule, prob.utility)


def ratio_of(prob, rule):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return disparity_detail(compute_rates(prob.dataset, rule), prob.criterion).ratio


class TestUnconstrained:
    def test_accuracy_matrix_gives_half(self):
        rule = optimize_unconstrained(None, ACC)
        assert rule == SingleThreshold(0.5, boundary=1.0)

    def test_accepting_never_helps(self):
        # u(1,1) == u(0,1) and u(0,0) > u(1,0): rejecting dominates.
        rule = optimize_unconstrained(None, UtilityMatrix(2.0, 1.0, 0.0, 1.0))
        assert rule.tau == 1.0 and rule.boundary == 0.0

    def test_rejecting_never_helps(self):
        rule = optimize_unconstrained(None, UtilityMatrix(1.0, 0.0, 1.0, 5.0))
        assert rule.tau == 0.0 and rule.boundary == 1.0

    def test_two_thirds_threshold_beats_every_other_cut(self):
        u = UtilityMatrix(3.0, 0.0, 1.0, 1.0)
        rule = optimize_unconstrained(None, u)
        assert rule.tau == pytest.approx(2.0 / 3.0)
        # Scores side correctly with the threshold, so no empirical cut wins.
        rows = [(0.9, 1, "a"), (0.8, 1, "a"), (0.7, 1, "b"), (0.5, 0, "a"),
                (0.4, 0, "b"), (0.1, 0, "b")]
        dataset = make_dataset(rows)
        best = utility_of_rule = decision_maker_utility(dataset, rule, u)
        scores = sorted({r.score for r in dataset.records})
        for tau in [0.0] + scores + [1.0]:
            for boundary in (0.0, 1.0):
                candidate = SingleThreshold(tau, boundary=boundary)
                assert decision_maker_utility(dataset, candidate, u) <= best + 1e-12


INDEP_ROWS = [(0.9, 1, "A"), (0.2, 0, "A"), (0.8, 1, "B"), (0.1, 0, "B")]


class TestIndependence:
    def test_exact_parity_on_tiny_instance(self):
        prob = problem(INDEP_ROWS, CriterionKind.INDEPENDENCE, 1.0)
        rule = optimize_independence(prob)
        rates = compute_rates(prob.dataset, rule)
        assert rates.positive_rate == {"A": 0.5, "B": 0.5}
        assert utility_of(prob, rule) == 1.0

    def test_gamma_zero_matches_unconstrained_on_calibrated_data(self):
        prob = problem(INDEP_ROWS, CriterionKind.INDEPENDENCE, 0.0)
        rule = optimize_independence(prob)
        unconstrained = optimize_unconstrained(prob.dataset, ACC)
        assert utility_of(prob, rule) == utility_of(prob, unconstrained)

    def test_identical_groups_keep_unconstrained_utility(self):
        rows = [(s, y, g) for g in ("A", "B")
                for s, y in [(0.9, 1), (0.7, 1), (0.4, 0), (0.2, 0), (0.6, 0)]]
        prob = problem(rows, CriterionKind.INDEPENDENCE, 1.0)
        rule = optimize_independence(prob)
        free = problem(rows, CriterionKind.INDEPENDENCE, 0.0)
        assert utility_of(prob, rule) == utility_of(free, optimize_independence(free))
        assert rule.cuts["A"] == rule.cuts["B"]

    def test_randomization_achieves_exact_parity(self):
        # Group sizes 3 and 2: most shared rates need an atom split.
        rows = [(0.9, 1, "A"), (0.6, 1, "A"), (0.2, 0, "A"), (0.8, 1, "B"), (0.3, 0, "B")]
        prob = problem(rows, CriterionKind.INDEPENDENCE, 1.0)
        rule = optimize_independence(prob)
        rates = compute_rates(prob.dataset, rule)
        assert rates.positive_rate["A"] == pytest.approx(rates.positive_rate["B"], abs=1e-9)


class TestSeparation:
    def test_fpr_parity_equalizes_fpr(self):
        rows = [(0.9, 1, "A"), (0.7, 0, "A"), (0.6, 1, "A"), (0.2, 0, "A"),
                (0.8, 1, "B"), (0.5, 0, "B"), (0.4, 1, "B"), (0.1, 0, "B")]
        prob = problem(rows, CriterionKind.FPR_PARITY, 1.0)
        rule = optimize_separation(prob)
        rates = compute_rates(prob.dataset, rule)
        assert rates.fpr["A"] == pytest.approx(rates.fpr["B"], abs=1e-9)

    def test_already_fair_groups_keep_unconstrained_utility(self):
        rows = [(s, y, g) for g in ("A", "B")
                for s, y in [(0.9, 1), (0.8, 1), (0.6, 0), (0.3, 0), (0.7, 1), (0.2, 0)]]
        prob = problem(rows, CriterionKind.SEPARATION, 1.0)
        rule = optimize_separation(prob)
        free = problem(rows, CriterionKind.SEPARATION, 0.0)
        assert utility_of(prob, rule) == pytest.approx(
            utility_of(free, optimize_separation(free)), abs=1e-9
        )

    def test_twelve_record_instance_hits_known_optimum(self):
        # Identical label sequences by score rank give identical staircases;
        # the shared vertex (fpr=0, tpr=2/3) is optimal: 10 of 12 correct.
        rows = [(0.9, 1, "A"), (0.8, 1, "A"), (0.6, 0, "A"), (0.4, 1, "A"),
                (0.3, 0, "A"), (0.1, 0, "A"),
                (0.85, 1, "B"), (0.75, 1, "B"), (0.55, 0, "B"), (0.45, 1, "B"),
                (0.35, 0, "B"), (0.15, 0, "B")]
        prob = problem(rows, CriterionKind.SEPARATION, 1.0)
        rule = optimize_separation(prob)
        assert utility_of(prob, rule) == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert ratio_of(prob, rule) >= 1.0 - 1e-9

    def test_both_beats_hand_constructed_feasible_rules(self):
        rows = [(0.9, 1, "A"), (0.7, 0, "A"), (0.5, 1, "A"), (0.2, 0, "A"),
                (0.8, 1, "B"), (0.6, 0, "B"), (0.4, 1, "B"), (0.1, 0, "B")]
        prob = problem(rows, CriterionKind.SEPARATION, 1.0)
        rule = optimize_separation(prob)
        best = utility_of(prob, rule)
        feasible_baselines = [
            SingleThreshold(0.0, boundary=1.0),  # accept all: tpr = fpr = 1
            SingleThreshold(1.0, boundary=0.0),  # reject all: tpr = fpr = 0
        ]
        for baseline in feasible_baselines:
            assert best >= utility_of(prob, baseline) - 1e-9

    def test_group_without_positives_is_skipped_with_warning(self):
        rows = [(0.9, 1, "A"), (0.6, 0, "A"), (0.3, 1, "A"), (0.2, 0, "A"),
                (0.8, 0, "B"), (0.4, 0, "B"), (0.1, 0, "B")]
        prob = problem(rows, CriterionKind.TPR_PARITY, 1.0)
        with pytest.warns(MissingClassWarning):
            rule = optimize_separation(prob)
        assert set(rule.cuts) == {"A", "B"}

    def test_mixture_when_parity_needs_randomization(self):
        rng = random.Random(12)
        for _ in range(20):
            ds = random_instance(rng, n_groups=2, max_records=14)
            prob = OptimizationProblem(
                ds, ACC, FairnessCriterion(CriterionKind.SEPARATION, gamma=1.0),
                grid_step=0.01,
            )
            rule = optimize_separation(prob)
            assert isinstance(rule, (GroupThreshold, Mixture))
            assert ratio_of(prob, rule) >= 1.0 - 1e-7
            if isinstance(rule, Mixture):
                assert isinstance(rule.first, GroupThreshold)
                assert isinstance(rule.second, GroupThreshold)
                return
        pytest.skip("no randomized instance found")  # pragma: no cover


PPV_ROWS = [(0.9, 1, "A"), (0.8, 1, "A"), (0.7, 0, "A"), (0.6, 0, "A"), (0.5, 1, "A"),
            (0.85, 1, "B"), (0.75, 0, "B"), (0.65, 1, "B"), (0.55, 0, "B"), (0.45, 0, "B")]


class TestSufficiency:
    def test_ten_record_ppv_parity_hits_known_optimum(self):
        # Accept A's top two and B's top one: all accepted are positive, so
        # both PPVs equal exactly 1; eight of ten decisions are correct.
        prob = problem(PPV_ROWS, CriterionKind.PPV_PARITY, 1.0)
        rule = optimize_sufficiency(prob)
        assert utility_of(prob, rule) == pytest.approx(0.8, abs=1e-9)
        rates = compute_rates(prob.dataset, rule)
        assert rates.ppv == {"A": 1.0, "B": 1.0}

    def test_gamma_zero_matches_unconstrained(self):
        prob = problem(PPV_ROWS, CriterionKind.PPV_PARITY, 0.0)
        rule = optimize_sufficiency(prob)
        free = optimize_unconstrained(prob.dataset, ACC)
        assert utility_of(prob, rule) >= utility_of(prob, free) - 1e-12

    def test_identical_groups_joint_parity_is_free(self):
        rows = [(s, y, g) for g in ("A", "B")
                for s, y in [(0.9, 1), (0.7, 1), (0.5, 0), (0.3, 0), (0.2, 0)]]
        prob = problem(rows, CriterionKind.SUFFICIENCY, 1.0, step=0.02)
        rule = optimize_sufficiency(prob)
        free = problem(rows, CriterionKind.SUFFICIENCY, 0.0, step=0.02)
        assert utility_of(prob, rule) == pytest.approx(
            utility_of(free, optimize_sufficiency(free)), abs=1e-9
        )

    def test_interval_shapes_respect_canonical_forms(self):
        prob = problem(PPV_ROWS, CriterionKind.PPV_PARITY, 0.7)
        rule = optimize_sufficiency(prob)
        assert isinstance(rule, GroupInterval)
        for cut in rule.cuts.values():
            lower_form = 0.0 < cut.low < cut.high == 1.0
            upper_form = 0.0 == cut.low < cut.high < 1.0
            assert lower_form or upper_form

    def test_incompatible_calibration_reports_max_gamma(self):
        rows = [(0.9, 1, "A"), (0.8, 1, "A"), (0.7, 1, "A"), (0.6, 1, "A"),
                (0.9, 1, "B"), (0.5, 0, "B"), (0.4, 0, "B"), (0.3, 0, "B")]
        prob = problem(rows, CriterionKind.SUFFICIENCY, 1.0, step=0.02)
        with pytest.raises(InfeasibleConstraintError) as info:
            optimize_sufficiency(prob)
        # Group B's PPV cannot exceed 1/4 while FORs stay tied at 1.
        assert info.value.max_achievable_gamma == pytest.approx(0.25, abs=1e-3)


class TestConditionalParity:
    def test_single_stratum_equals_independence(self):
        rows = [(s, y, g, {"j": "only"}) for s, y, g in INDEP_ROWS]
        ds = make_dataset(rows, legit_names=("j",))
        prob = problem(
            ds, CriterionKind.CONDITIONAL_STATISTICAL_PARITY, 1.0,
            legit_names=("j",), min_count=1,
        )
        rule = optimize_conditional_parity(prob)
        indep = problem(INDEP_ROWS, CriterionKind.INDEPENDENCE, 1.0)
        assert utility_of(prob, rule) == utility_of(indep, optimize_independence(indep))

    def test_twenty_record_two_strata_exact_parity(self):
        rng = random.Random(3)
        rows = []
        for stratum in ("x", "y"):
            for g in ("A", "B"):
                for _ in range(5):
                    rows.append(
                        (round(rng.uniform(0.05, 0.95), 2), rng.randint(0, 1), g,
                         {"j": stratum})
                    )
        ds = make_dataset(rows, legit_names=("j",))
        prob = problem(
            ds, CriterionKind.CONDITIONAL_STATISTICAL_PARITY, 1.0,
            legit_names=("j",), min_count=1,
        )
        rule = optimize_conditional_parity(prob)
        rates = compute_rates(ds, rule)
        for stratum in (("x",), ("y",)):
            a = rates.stratum_positive_rate[(stratum, "A")]
            b = rates.stratum_positive_rate[(stratum, "B")]
            assert a == pytest.approx(b, abs=1e-9)

    def test_small_strata_unconstrained_and_flagged(self):
        rows = [
            (0.9, 1, "A", {"j": "big"}), (0.2, 0, "A", {"j": "big"}),
            (0.8, 1, "B", {"j": "big"}), (0.1, 0, "B", {"j": "big"}),
            (0.7, 1, "A", {"j": "tiny"}),
        ]
        ds = make_dataset(rows, legit_names=("j",))
        prob = problem(
            ds, CriterionKind.CONDITIONAL_STATISTICAL_PARITY, 1.0,
            legit_names=("j",), min_count=2,
        )
        with pytest.warns(SmallStratumWarning):
            rule = optimize_conditional_parity(prob)
        assert ("A", ("tiny",)) in rule.cuts

    def test_all_strata_too_small_is_degenerate(self):
        rows = [
            (0.9, 1, "A", {"j": "x"}), (0.2, 0, "A", {"j": "y"}),
            (0.8, 1, "B", {"j": "x"}), (0.1, 0, "B", {"j": "y"}),
        ]
        ds = make_dataset(rows, legit_names=("j",))
        prob = problem(
            ds, CriterionKind.CONDITIONAL_STATISTICAL_PARITY, 1.0,
            legit_names=("j",), min_count=5,
        )
        with pytest.warns(SmallStratumWarning):
            with pytest.raises(DegenerateStratificationError):
                optimize_conditional_parity(prob)


class TestCrossCuttingProperties:
    @pytest.mark.parametrize(
        "kind",
        [CriterionKind.INDEPENDENCE, CriterionKind.FPR_PARITY, CriterionKind.PPV_PARITY],
    )
    def test_utility_monotone_in_gamma(self, kind):
        # crc32, not hash(): string hashes change with PYTHONHASHSEED.
        rng = random.Random(zlib.crc32(kind.value.encode()) % 10_000)
        gammas = (0.0, 0.25, 0.5, 0.75, 1.0)
        for _ in range(4):
            ds = random_instance(rng, n_groups=2, max_records=24)
            problems = [
                OptimizationProblem(ds, ACC, FairnessCriterion(kind, gamma=g), grid_step=0.01)
                for g in gammas
            ]
            utils = []
            for i, prob in enumerate(problems):
                try:
                    utils.append(utility_of(prob, optimize(prob)))
                except InfeasibleConstraintError:
                    # The feasible levels form a prefix: every higher one fails too.
                    for higher in problems[i + 1 :]:
                        with pytest.raises(InfeasibleConstraintError):
                            optimize(higher)
                    break
            for lower, higher in zip(utils, utils[1:]):
                assert higher <= lower + 1e-9

    @pytest.mark.parametrize(
        "kind",
        [
            CriterionKind.INDEPENDENCE,
            CriterionKind.TPR_PARITY,
            CriterionKind.FPR_PARITY,
            CriterionKind.SEPARATION,
            CriterionKind.PPV_PARITY,
        ],
    )
    def test_returned_rules_are_feasible(self, kind):
        rng = random.Random(len(kind.value))
        for _ in range(5):
            ds = random_instance(rng, n_groups=2, max_records=20)
            for gamma in (0.4, 0.8, 1.0):
                prob = OptimizationProblem(
                    ds, ACC, FairnessCriterion(kind, gamma=gamma), grid_step=0.01
                )
                try:
                    rule = optimize(prob)
                except InfeasibleConstraintError:
                    continue
                try:
                    assert ratio_of(prob, rule) >= gamma - 1e-7
                except UndefinedMetricError:
                    pass

    def test_affine_utility_invariance(self):
        # Exactly representable transform u -> 2u + 1 must not change any
        # decision probability of the returned rule.
        rng = random.Random(99)
        scaled = UtilityMatrix(3.0, 1.0, 1.0, 3.0)
        for kind in (CriterionKind.INDEPENDENCE, CriterionKind.FPR_PARITY,
                     CriterionKind.PPV_PARITY):
            ds = random_instance(rng, n_groups=2, max_records=24)
            crit = FairnessCriterion(kind, gamma=0.7)
            r1 = optimize(OptimizationProblem(ds, ACC, crit, grid_step=0.01))
            r2 = optimize(OptimizationProblem(ds, scaled, crit, grid_step=0.01))
            for rec in ds.records:
                assert decision_probability(
                    r1, rec.score, rec.group, rec.legit
                ) == pytest.approx(
                    decision_probability(r2, rec.score, rec.group, rec.legit), abs=1e-12
                )

    def test_shift_leaves_argmax_unchanged(self):
        shifted = UtilityMatrix(2.0, 1.0, 1.0, 2.0)  # accuracy + 1
        rng = random.Random(123)
        ds = random_instance(rng, n_groups=2, max_records=20)
        crit = FairnessCriterion(CriterionKind.INDEPENDENCE, gamma=0.6)
        r1 = optimize(OptimizationProblem(ds, ACC, crit, grid_step=0.01))
        r2 = optimize(OptimizationProblem(ds, shifted, crit, grid_step=0.01))
        assert r1 == r2

    def test_deterministic_under_record_permutation(self):
        rng = random.Random(31)
        ds = random_instance(rng, n_groups=2, max_records=20)
        records = list(ds.records)
        rng.shuffle(records)
        shuffled = dataclasses.replace(ds, records=tuple(records))
        for kind in (CriterionKind.INDEPENDENCE, CriterionKind.FPR_PARITY):
            crit = FairnessCriterion(kind, gamma=0.8)
            r1 = optimize(OptimizationProblem(ds, ACC, crit, grid_step=0.01))
            r2 = optimize(OptimizationProblem(shuffled, ACC, crit, grid_step=0.01))
            assert r1 == r2

    def test_needs_two_groups(self):
        rows = [(0.9, 1, "A"), (0.1, 0, "A")]
        with pytest.raises(ValueError):
            problem(rows, CriterionKind.INDEPENDENCE, 1.0)
