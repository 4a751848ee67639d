import bisect
import inspect
import random
import warnings
import zlib

import numpy as np
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
    Dataset,
    FairnessCriterion,
    GroupInterval,
    GroupThreshold,
    Mixture,
    SingleThreshold,
    UtilityMatrix,
    decision_probabilities,
)
from fairgate import optimizer as opt
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
from fairgate.oracle import brute_force_oracle

ACC = UtilityMatrix.accuracy()


def problem(rows_or_ds, kind, gamma, legit_names=(), min_count=30, utility=ACC):
    dataset = rows_or_ds if hasattr(rows_or_ds, "records") else make_dataset(rows_or_ds)
    criterion = FairnessCriterion(kind, gamma=gamma, legit_names=tuple(legit_names))
    return OptimizationProblem(dataset, utility, criterion, min_count=min_count)


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

    @pytest.mark.parametrize(
        "cells, expected",
        [
            ((0.0, 0.0, 2.0, 1.0), SingleThreshold(0.0, boundary=1.0)),
            ((1.0, 2.0, 0.0, 0.0), SingleThreshold(1.0, boundary=0.0)),
        ],
        ids=["accept_all", "reject_all"],
    )
    def test_one_decision_wins_at_every_score(self, cells, expected):
        # The two gains sum to at most 0, so no threshold separates them.
        u = UtilityMatrix(*cells)
        rule = optimize_unconstrained(None, u)
        assert rule == expected
        extremes = (SingleThreshold(0.0, boundary=1.0), SingleThreshold(1.0, boundary=0.0))
        rng = random.Random(8)
        for _ in range(5):
            dataset = random_instance(rng, max_records=30)
            best = max(decision_maker_utility(dataset, r, u) for r in extremes)
            assert decision_maker_utility(dataset, rule, u) == best

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
            criterion = FairnessCriterion(CriterionKind.SEPARATION, gamma=1.0)
            prob = OptimizationProblem(ds, ACC, criterion)
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
        prob = problem(rows, CriterionKind.SUFFICIENCY, 1.0)
        rule = optimize_sufficiency(prob)
        free = problem(rows, CriterionKind.SUFFICIENCY, 0.0)
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
        prob = problem(rows, CriterionKind.SUFFICIENCY, 1.0)
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

    def test_small_stratum_groups_keep_their_best_cut(self):
        # In "tiny" accuracy is best with A accepting all and B none, which
        # parity at gamma 1 would forbid.
        rows = [(s, y, g, {"j": "big"}) for s, y, g in INDEP_ROWS * 2]
        rows += [(0.9, 1, "A", {"j": "tiny"}), (0.8, 1, "A", {"j": "tiny"}),
                 (0.3, 0, "B", {"j": "tiny"}), (0.2, 0, "B", {"j": "tiny"})]
        ds = make_dataset(rows, legit_names=("j",))
        prob = problem(
            ds, CriterionKind.CONDITIONAL_STATISTICAL_PARITY, 1.0,
            legit_names=("j",), min_count=3,
        )
        with pytest.warns(SmallStratumWarning, match="'tiny'"):
            rule = optimize_conditional_parity(prob)
        rates = compute_rates(ds, rule).stratum_positive_rate
        assert rates[(("tiny",), "A")] == 1.0 and rates[(("tiny",), "B")] == 0.0
        assert rates[(("big",), "A")] == rates[(("big",), "B")]

    def test_many_small_strata_give_one_warning(self):
        # One big stratum, and 40 small ones that each hold both groups.
        rows = [(s, y, g, {"j": "big"}) for s, y, g in INDEP_ROWS * 2]
        rows += [
            (0.9 - 0.02 * i, i % 2, g, {"j": f"s{i:02d}"}) for i in range(40) for g in ("A", "B")
        ]
        ds = make_dataset(rows, legit_names=("j",))
        prob = problem(
            ds, CriterionKind.CONDITIONAL_STATISTICAL_PARITY, 0.9,
            legit_names=("j",), min_count=3,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            optimize_conditional_parity(prob)
        assert [w.category for w in caught] == [SmallStratumWarning]
        assert str(caught[0].message) == (
            "40 of 41 strata below min_count=3 for some group, left unconstrained: "
            "'s00', 's01', 's02', 's03', 's04' and 35 more"
        )

    def test_a_negative_min_count_is_rejected(self):
        with pytest.raises(ValueError, match=r"^min_count must be at least 0, got -5$"):
            problem(INDEP_ROWS, CriterionKind.INDEPENDENCE, 0.8, min_count=-5)

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
                OptimizationProblem(ds, ACC, FairnessCriterion(kind, gamma=g))
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
                prob = OptimizationProblem(ds, ACC, FairnessCriterion(kind, gamma=gamma))
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
            r1 = optimize(OptimizationProblem(ds, ACC, crit))
            r2 = optimize(OptimizationProblem(ds, scaled, crit))
            p1, p2 = decision_probabilities(r1, ds), decision_probabilities(r2, ds)
            assert p1.tolist() == pytest.approx(p2.tolist(), abs=1e-12)

    def test_shift_leaves_argmax_unchanged(self):
        shifted = UtilityMatrix(2.0, 1.0, 1.0, 2.0)  # accuracy + 1
        rng = random.Random(123)
        ds = random_instance(rng, n_groups=2, max_records=20)
        crit = FairnessCriterion(CriterionKind.INDEPENDENCE, gamma=0.6)
        r1 = optimize(OptimizationProblem(ds, ACC, crit))
        r2 = optimize(OptimizationProblem(ds, shifted, crit))
        assert r1 == r2

    def test_deterministic_under_record_permutation(self):
        rng = random.Random(31)
        ds = random_instance(rng, n_groups=2, max_records=20)
        records = list(ds.records)
        rng.shuffle(records)
        shuffled = Dataset.from_records(records)
        for kind in (CriterionKind.INDEPENDENCE, CriterionKind.FPR_PARITY):
            crit = FairnessCriterion(kind, gamma=0.8)
            r1 = optimize(OptimizationProblem(ds, ACC, crit))
            r2 = optimize(OptimizationProblem(shuffled, ACC, crit))
            assert r1 == r2

    def test_needs_two_groups(self):
        rows = [(0.9, 1, "A"), (0.1, 0, "A")]
        with pytest.raises(ValueError):
            problem(rows, CriterionKind.INDEPENDENCE, 1.0)


# The scalar window sweep the array kernel replaced, one window and one group
# at a time: the reference for exact equality.


def reference_best_in_window(rates, utils, lo, hi):
    """(j, q, rate, util) of the best path point with rate in [lo, hi], or None."""
    candidates = []
    left = bisect.bisect_left(rates, lo)
    right = bisect.bisect_right(rates, hi) - 1
    if left <= right:
        idx = max(range(left, right + 1), key=lambda i: utils[i])
        candidates.append((idx, 0.0, float(rates[idx]), float(utils[idx])))
    for edge in (lo, hi):
        pos = bisect.bisect_left(rates, edge)
        if pos < len(rates) and rates[pos] == edge:
            continue
        if 0 < pos < len(rates):
            span = rates[pos] - rates[pos - 1]
            if span > 0.0:
                q = (edge - rates[pos - 1]) / span
                util = utils[pos - 1] + q * (utils[pos] - utils[pos - 1])
                candidates.append((pos - 1, float(q), edge, float(util)))
    if not candidates:
        return None
    return max(candidates, key=lambda c: (c[3], c[1] in (0.0, 1.0), c[2]))


def reference_sweep(paths, free_utility, gamma):
    """(total, {group: (j, q)}) over windows [gamma * U, U]; paths maps group to (rates, utils)."""
    if gamma == 0.0:
        choices = {}
        for g, (rates, utils) in paths.items():
            idx = max(range(len(utils)), key=lambda i: utils[i])
            choices[g] = (idx, 0.0, float(rates[idx]), float(utils[idx]))
    else:
        candidates = {0.0, 1.0}
        for rates, _ in paths.values():
            for r in rates:
                candidates.add(float(r))
                if float(r) / gamma <= 1.0:
                    candidates.add(float(r) / gamma)
        best_key, choices = None, None
        for upper in sorted(candidates):
            found = {g: reference_best_in_window(*path, gamma * upper, upper)
                     for g, path in paths.items()}
            if any(c is None for c in found.values()):
                continue
            rates = [c[2] for c in found.values()]
            lo, hi = min(rates), max(rates)
            achieved = 1.0 if hi == 0.0 else 0.0 if lo == 0.0 else lo / hi
            n_random = sum(c[1] not in (0.0, 1.0) for c in found.values())
            total = free_utility + sum(c[3] for c in found.values())
            key = (total, achieved, -n_random, sum(rates))
            if best_key is None or key > best_key:
                best_key, choices = key, found
    total = free_utility + sum(c[3] for c in choices.values())
    return total, {g: (c[0], c[1]) for g, c in choices.items()}


def bits(result):
    total, choices = result
    return float(total).hex(), {g: (int(j), float(q).hex()) for g, (j, q) in choices.items()}


SWEEP_POOL = (0.1, 0.3, 0.5, 0.7, 0.9)


def sweep_instance(rng, n_groups, without_positives=(), without_negatives=()):
    """Few atoms, so big atoms and tied utilities; some groups repeat an
    earlier group's records, so rates are shared; single-class atoms give
    zero-span TPR and FPR segments."""
    rows, layouts = [], []
    for i in range(n_groups):
        if layouts and rng.random() < 0.3:
            layout = rng.choice(layouts)
        else:
            layout = [(rng.choice(SWEEP_POOL), rng.randint(0, 1)) for _ in range(rng.randint(1, 14))]
            layouts.append(layout)
        if i in without_positives:
            layout = [(s, 0) for s, _ in layout]
        if i in without_negatives:
            layout = [(s, 1) for s, _ in layout]
        rows += [(s, y, f"g{i}") for s, y in layout]
    if without_positives:
        rows.append((0.9, 1, "g0"))  # some group keeps a defined TPR
    if without_negatives:
        rows.append((0.1, 0, "g0"))  # and a defined FPR
    return make_dataset(rows)


def utility_ladder(utils):
    """A ladder holding ``utils`` as its prefix utilities; the window kernel
    takes the rates separately and reads no other prefix sum."""
    zeros = np.zeros(len(utils))
    return opt._Ladder(np.arange(len(utils) - 1.0), True, zeros, zeros, utils, 0, 0)


class TestWindowSweepKernel:
    """The array window sweep equals the scalar reference bit for bit."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.8, 1.0])
    @pytest.mark.parametrize("n_groups", [2, 3, 4, 5])
    def test_sweep_equals_scalar_reference(self, n_groups, gamma):
        rng = random.Random(100 * n_groups + int(10 * gamma))
        for _ in range(25):
            ladders = opt._ladders(sweep_instance(rng, n_groups), ACC)
            for family in ("positive_rate", "tpr", "fpr"):
                paths = {g: ladder.rates(family) for g, ladder in ladders.items()}
                free = 0.0
                for g in (g for g, path in paths.items() if path is None):
                    free += float(ladders[g].cum_du.max())
                constrained = {g: ladders[g] for g, path in paths.items() if path is not None}
                if not constrained:
                    continue
                got = opt._sweep_single_family(constrained, family, free, gamma)
                reference = {g: (paths[g], ladder.cum_du) for g, ladder in constrained.items()}
                assert bits(got) == bits(reference_sweep(reference, free, gamma))

    def test_windows_with_edges_an_ulp_from_a_vertex(self):
        rng = np.random.default_rng(11)
        rounded_to_one = 0
        # Zero counts give zero-span segments; sums such as 7 or 11 give rates
        # whose crossing one ulp below a vertex rounds to q = 1.0. The first
        # path ties that crossing (deterministic) with a vertex in utility.
        instances = [(np.array([1, 4, 2]), np.array([-0.5, 0.5, 0.5]))]
        for _ in range(80):
            counts = rng.integers(0, 5, size=int(rng.integers(1, 6)))
            counts[-1] += 1
            instances.append((counts, rng.integers(-2, 3, len(counts)) * 0.5))
        for counts, steps in instances:
            rates = np.concatenate([[0.0], np.cumsum(counts) / counts.sum()])
            utils = np.concatenate([[0.0], np.cumsum(steps)])
            ladder = utility_ladder(utils)
            near = [rates, np.nextafter(rates, 0.0), np.nextafter(rates, 1.0)]
            edges = np.unique(np.clip(np.concatenate(near), 0.0, 1.0))
            lo, hi = np.meshgrid(edges, edges)
            lowers, uppers = lo[lo <= hi], hi[lo <= hi]
            reachable, j, q, rate, util, _ = opt._best_in_windows(ladder, rates, lowers, uppers)
            for i in range(len(uppers)):
                want = reference_best_in_window(rates, utils, float(lowers[i]), float(uppers[i]))
                assert reachable[i] == (want is not None)
                if want is not None:
                    got = (int(j[i]), float(q[i]), float(rate[i]), float(util[i]))
                    assert [x.hex() if isinstance(x, float) else x for x in got] == [
                        x.hex() if isinstance(x, float) else x for x in want
                    ]
                    rounded_to_one += want[1] == 1.0 and rates[want[0]] != want[2]
        assert rounded_to_one > 0

    @pytest.mark.parametrize("gamma", [0.3, 0.8, 1.0])
    def test_tpr_parity_group_without_positives(self, gamma):
        rng = random.Random(int(10 * gamma))
        for n_groups in (2, 3, 4, 5):
            dataset = sweep_instance(rng, n_groups, without_positives=(n_groups - 1,))
            assert_missing_class_rule(dataset, CriterionKind.TPR_PARITY, "tpr", gamma)

    @pytest.mark.parametrize("gamma", [0.3, 0.8, 1.0])
    def test_fpr_parity_group_without_negatives(self, gamma):
        rng = random.Random(50 + int(10 * gamma))
        for n_groups in (2, 3, 4, 5):
            dataset = sweep_instance(rng, n_groups, without_negatives=(n_groups - 1,))
            assert_missing_class_rule(dataset, CriterionKind.FPR_PARITY, "fpr", gamma)

    @pytest.mark.parametrize(
        "kind, family, label",
        [(CriterionKind.TPR_PARITY, "tpr", 0), (CriterionKind.FPR_PARITY, "fpr", 1)],
    )
    def test_no_group_has_the_conditioning_class(self, kind, family, label):
        rows = [(s, label, g) for g in ("A", "B", "C") for s in (0.2, 0.5, 0.8)]
        with pytest.warns(MissingClassWarning) as caught:
            with pytest.raises(InfeasibleConstraintError, match=f"no group has a defined {family}"):
                optimize_separation(problem(rows, kind, 0.9))
        assert len(caught) == 3
        # At gamma 0 there is no constraint to meet: each group takes its best
        # cut, as the oracle does.
        free = problem(rows, kind, 0.0)
        with pytest.warns(MissingClassWarning):
            rule = optimize_separation(free)
        assert utility_of(free, rule) == utility_of(free, brute_force_oracle(free))


def assert_missing_class_rule(dataset, kind, family, gamma):
    """The rule leaves each group without the family's class at its best cut
    and equals the reference sweep over the other groups; the warning names
    the group and points at the caller of ``optimize_separation``."""
    with pytest.warns(MissingClassWarning) as caught:
        line = inspect.currentframe().f_lineno + 1
        rule = optimize_separation(problem(dataset, kind, gamma))
    ladders = opt._ladders(dataset, ACC)
    paths = {g: ladder.rates(family) for g, ladder in ladders.items()}
    free, free_choices = 0.0, {}
    for g in (g for g, path in paths.items() if path is None):
        utils = ladders[g].cum_du
        free_choices[g] = (max(range(len(utils)), key=lambda i: utils[i]), 0.0)
        free += float(utils[free_choices[g][0]])
    assert [str(w.message) for w in caught] == [
        f"group {g!r} has no records with the conditioning outcome; "
        f"{family} constraint skipped for it"
        for g in free_choices
    ]
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, line)}
    reference = {g: (p, ladders[g].cum_du) for g, p in paths.items() if p is not None}
    _, choices = reference_sweep(reference, free, gamma)
    choices.update(free_choices)
    cuts = {g: ladders[g].cut(*choices[g]) for g in sorted(choices)}
    assert rule == GroupThreshold(cuts)
