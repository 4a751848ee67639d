import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgate.model import (
    BenefitMatrix,
    CoverageError,
    CriterionKind,
    Dataset,
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
    decision_probability,
    read_rule_file,
    rule_from_dict,
    rule_to_dict,
    write_rule_file,
)


def always_accept():
    return SingleThreshold(0.0, boundary=1.0)


def always_reject():
    return SingleThreshold(1.0, boundary=0.0)


class TestDecide:
    def test_single_threshold_above(self):
        assert decide(SingleThreshold(0.5), 0.51, "a") == 1

    def test_single_threshold_below(self):
        assert decide(SingleThreshold(0.5), 0.49, "a") == 0

    def test_single_threshold_closed_at_boundary(self):
        assert decide(SingleThreshold(0.5), 0.5, "a", random_draw=0.999) == 1

    def test_interval_outside(self):
        rule = GroupInterval({"f": IntervalCut(low=0.0, high=0.3, boundary=1.0)})
        assert decide(rule, 0.4, "f") == 0

    def test_interval_inside(self):
        rule = GroupInterval({"f": IntervalCut(low=0.0, high=0.3, boundary=1.0)})
        assert decide(rule, 0.2, "f") == 1

    def test_group_thresholds_differ(self):
        rule = GroupThreshold({"a": GroupCut(0.51), "c": GroupCut(0.44)})
        assert decide(rule, 0.47, "c") == 1
        assert decide(rule, 0.47, "a") == 0

    def test_unknown_group(self):
        rule = GroupThreshold({"a": GroupCut(0.5)})
        with pytest.raises(CoverageError, match="b"):
            decide(rule, 0.7, "b")

    def test_missing_stratum(self):
        rule = StratifiedGroupThreshold(
            legit_names=("job",), cuts={("a", ("clerk",)): GroupCut(0.5)}
        )
        assert decide(rule, 0.9, "a", {"job": "clerk"}) == 1
        with pytest.raises(CoverageError, match="nurse"):
            decide(rule, 0.9, "a", {"job": "nurse"})

    def test_boundary_randomization_uses_draw(self):
        rule = GroupThreshold({"a": GroupCut(0.5, boundary=0.25)})
        assert decide(rule, 0.5, "a", random_draw=0.2) == 1
        assert decide(rule, 0.5, "a", random_draw=0.3) == 0

    def test_bad_draw_rejected(self):
        with pytest.raises(ValueError):
            decide(SingleThreshold(0.5), 0.7, "a", random_draw=1.0)


class TestDecisionProbability:
    def test_boundary(self):
        rule = GroupThreshold({"a": GroupCut(0.5, boundary=0.25)})
        assert decision_probability(rule, 0.5, "a") == 0.25

    def test_mixture_of_extremes(self):
        rule = Mixture(weights={"a": 0.5}, first=always_accept(), second=always_reject())
        for score in (0.0, 0.3, 0.99):
            assert decision_probability(rule, score, "a") == 0.5

    def test_deterministic_rule_matches_decide_for_every_draw(self):
        rule = GroupThreshold({"a": GroupCut(0.5, boundary=1.0)})
        for score in (0.2, 0.5, 0.8):
            p = decision_probability(rule, score, "a")
            assert p in (0.0, 1.0)
            for draw in (0.0, 0.31, 0.77, 0.999):
                assert decide(rule, score, "a", random_draw=draw) == p

    def test_interval_lower_form_boundary(self):
        cut = IntervalCut(low=0.4, high=1.0, boundary=0.7)
        assert cut.probability(0.4) == 0.7
        assert cut.probability(0.41) == 1.0
        assert cut.probability(0.39) == 0.0

    def test_interval_upper_form_boundary(self):
        cut = IntervalCut(low=0.0, high=0.6, boundary=0.2)
        assert cut.probability(0.6) == 0.2
        assert cut.probability(0.59) == 1.0
        assert cut.probability(0.61) == 0.0


MC_RULES = [
    GroupThreshold({"a": GroupCut(0.5, boundary=0.25)}),
    GroupThreshold({"a": GroupCut(0.3, boundary=0.9)}),
    Mixture(
        weights={"a": 0.4},
        first=GroupThreshold({"a": GroupCut(0.5, boundary=0.5)}),
        second=GroupThreshold({"a": GroupCut(0.2, boundary=0.1)}),
    ),
    Mixture(weights={"a": 0.5}, first=always_accept(), second=always_reject()),
]


@pytest.mark.parametrize("rule", MC_RULES, ids=["boundary", "boundary-hi", "mix", "mix-extreme"])
@pytest.mark.parametrize("score", [0.2, 0.3, 0.5])
def test_monte_carlo_matches_probability(rule, score):
    p = decision_probability(rule, score, "a")
    rng = random.Random(12345)
    n = 100_000
    hits = sum(decide(rule, score, "a", random_draw=rng.random()) for _ in range(n))
    freq = hits / n
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
    assert abs(freq - p) <= 3.0 * se + 1e-12


@settings(max_examples=200)
@given(
    tau=st.floats(0.0, 1.0),
    q=st.floats(0.0, 1.0),
    lo=st.floats(0.0, 1.0),
    hi=st.floats(0.0, 1.0),
    draw=st.floats(0.0, 0.999999),
)
def test_threshold_decide_monotone_in_score(tau, q, lo, hi, draw):
    rule = GroupThreshold({"a": GroupCut(tau, boundary=q)})
    s1, s2 = min(lo, hi), max(lo, hi)
    assert decide(rule, s1, "a", random_draw=draw) <= decide(rule, s2, "a", random_draw=draw)


RULES_FOR_ROUNDTRIP = st.one_of(
    st.builds(SingleThreshold, st.floats(0, 1), st.floats(0, 1)),
    st.builds(
        lambda t1, q1, t2, q2: GroupThreshold(
            {"a": GroupCut(t1, q1), "b": GroupCut(t2, q2)}
        ),
        st.floats(0, 1),
        st.floats(0, 1),
        st.floats(0, 1),
        st.floats(0, 1),
    ),
    st.builds(
        lambda low, q: GroupInterval(
            {"a": IntervalCut(low=min(max(low, 1e-6), 1 - 1e-6), high=1.0, boundary=q)}
        ),
        st.floats(0.001, 0.999),
        st.floats(0, 1),
    ),
    st.builds(
        lambda w, t1, t2: Mixture(
            weights={"a": w},
            first=SingleThreshold(t1),
            second=SingleThreshold(t2),
        ),
        st.floats(0, 1),
        st.floats(0, 1),
        st.floats(0, 1),
    ),
)


@settings(max_examples=150)
@given(rule=RULES_FOR_ROUNDTRIP, score=st.floats(0, 1))
def test_serialization_roundtrip_preserves_probabilities(rule, score):
    clone = rule_from_dict(rule_to_dict(rule))
    assert decision_probability(clone, score, "a") == decision_probability(rule, score, "a")


def test_rule_file_roundtrip(tmp_path):
    rule = GroupThreshold({"a": GroupCut(0.5123456789012345, 0.333), "c": GroupCut(0.44)})
    criterion = FairnessCriterion(CriterionKind.FPR_PARITY, gamma=0.8)
    path = tmp_path / "rule.json"
    write_rule_file(path, rule, criterion)
    loaded, crit = read_rule_file(path)
    assert crit == criterion
    grid = [i / 97 for i in range(98)] + [0.5123456789012345]
    for s in grid:
        for g in ("a", "c"):
            assert decision_probability(loaded, s, g) == decision_probability(rule, s, g)


def test_stratified_rule_file_roundtrip(tmp_path):
    rule = StratifiedGroupThreshold(
        legit_names=("job",),
        cuts={("a", ("x",)): GroupCut(0.4, 0.5), ("b", ("x",)): GroupCut(0.6)},
    )
    path = tmp_path / "rule.json"
    write_rule_file(path, rule)
    loaded, crit = read_rule_file(path)
    assert crit is None
    assert decision_probability(loaded, 0.4, "a", {"job": "x"}) == 0.5


class TestValidation:
    def test_record_score_range(self):
        with pytest.raises(ValueError):
            Record(id="r", label=1, group="a", score=1.5)

    def test_record_label(self):
        with pytest.raises(ValueError):
            Record(id="r", label=2, group="a")

    def test_interval_shape_constraint(self):
        with pytest.raises(ValueError):
            IntervalCut(low=0.2, high=0.8, boundary=1.0)  # neither canonical form
        with pytest.raises(ValueError):
            IntervalCut(low=0.0, high=1.0, boundary=1.0)

    def test_utility_matrix_must_reward_something(self):
        with pytest.raises(ValueError):
            UtilityMatrix(0.0, 1.0, 0.0, 1.0)  # decisions never matter

    def test_benefit_matrix_not_constant(self):
        with pytest.raises(ValueError):
            BenefitMatrix(1.0, 1.0, 1.0, 1.0)

    def test_criterion_gamma_range(self):
        with pytest.raises(ValueError):
            FairnessCriterion(CriterionKind.INDEPENDENCE, gamma=1.5)

    def test_csp_needs_legit_names(self):
        with pytest.raises(ValueError):
            FairnessCriterion(CriterionKind.CONDITIONAL_STATISTICAL_PARITY)

    def test_mixture_weight_range(self):
        with pytest.raises(ValueError):
            Mixture(weights={"a": 1.2}, first=always_accept(), second=always_reject())

    def test_dataset_checks_its_columns(self):
        base = Dataset.from_records([Record("r", 1, "a", 0.5), Record("s", 0, "b", 0.25)])
        bad_columns = {
            "label must be 0 or 1, got 2 (record s)": {"labels": np.array([1, 2])},
            "score must be in [0, 1], got 1.5 (record s)": {"scores": np.array([0.5, 1.5])},
        }
        for message, change in bad_columns.items():
            with pytest.raises(ValueError, match=re.escape(message)):
                Dataset(dataclasses.replace(base.columns, **change), base.groups)
        with pytest.raises(ValueError, match=re.escape("groups without records: ['c']")):
            Dataset(base.columns, ("a", "b", "c"))

    def test_record_must_carry_every_declared_attribute(self):
        records = [Record("r", 1, "a", 0.5, {"job": "x"}), Record("s", 0, "a", 0.5, {})]
        with pytest.raises(ValueError, match="record s misses"):
            Dataset.from_records(records, legit_names=("job",))


# ---------------------------------------------------------------------------
# Array evaluation against the per-record reference
# ---------------------------------------------------------------------------

GROUPS = ("a", "b", "c")
LEGIT = ("job", "site")
STRATA = list(itertools.product(("x", "y"), ("n", "s")))


def random_records(rng, atoms, n=120):
    """Records on the given score atoms, every group and stratum present."""
    cells = list(itertools.product(GROUPS, STRATA))
    records = []
    for i in range(n):
        group, stratum = cells[i] if i < len(cells) else rng.choice(cells)
        legit = dict(zip(LEGIT, stratum))
        records.append(Record(str(i), rng.randint(0, 1), group, rng.choice(atoms), legit))
    rng.shuffle(records)
    return records


def rules_of_every_kind(rng, atoms):
    """One rule of each kind whose cuts sit on score atoms, plus nested mixtures."""
    inner = [a for a in atoms if 0.0 < a < 1.0]
    boundary = lambda: rng.choice([0.0, 1.0, rng.random()])
    cut = lambda: GroupCut(rng.choice(atoms), boundary())
    single = SingleThreshold(rng.choice(atoms), boundary())
    group = GroupThreshold({g: cut() for g in GROUPS})
    lower = GroupInterval({g: IntervalCut(rng.choice(inner), 1.0, boundary()) for g in GROUPS})
    upper = GroupInterval({g: IntervalCut(0.0, rng.choice(inner), boundary()) for g in GROUPS})
    mixed_forms = GroupInterval({"a": lower.cuts["a"], "b": upper.cuts["b"], "c": lower.cuts["c"]})
    stratified = StratifiedGroupThreshold(LEGIT, {(g, s): cut() for g in GROUPS for s in STRATA})
    # Weight 0 never consults ``first`` for group a and weight 1 never consults
    # ``second`` for group b, so those sub-rules may leave the group uncovered.
    partial = GroupThreshold({"b": cut(), "c": cut()})
    edge_weights = Mixture({"a": 0.0, "b": 1.0, "c": rng.random()}, partial, group)
    nested = Mixture(
        {g: rng.choice([0.0, 1.0, rng.random()]) for g in GROUPS},
        Mixture({g: rng.random() for g in GROUPS}, stratified, mixed_forms),
        Mixture({"a": 1.0, "b": 0.0, "c": 0.5}, single, upper),
    )
    return [single, group, lower, upper, mixed_forms, stratified, edge_weights, nested]


@pytest.mark.parametrize("seed", range(25))
def test_array_evaluation_equals_per_record_probability(seed):
    rng = random.Random(seed)
    atoms = sorted({round(rng.random(), 2) for _ in range(6)} | {0.0, 1.0})
    # Group codes follow the declared group order, sorted or not.
    order = GROUPS if seed % 2 else GROUPS[::-1]
    by_name = Dataset.from_records(random_records(rng, atoms), LEGIT)
    recode = np.array([order.index(g) for g in by_name.groups])[by_name.columns.group_codes]
    columns = dataclasses.replace(by_name.columns, group_codes=recode)
    dataset = Dataset(columns, order, LEGIT)
    for rule in rules_of_every_kind(rng, atoms):
        expected = [
            decision_probability(rule, r.score, r.group, r.legit) for r in dataset.records
        ]
        assert decision_probabilities(rule, dataset).tolist() == expected, rule


def test_uncovered_cell_raises_on_both_paths():
    rng = random.Random(3)
    dataset = Dataset.from_records(random_records(rng, [0.2, 0.5, 0.8]), legit_names=LEGIT)
    two_groups = {"a": GroupCut(0.5), "b": GroupCut(0.5)}
    uncovered = [
        GroupThreshold(two_groups),
        GroupInterval({"a": IntervalCut(0.5, 1.0), "b": IntervalCut(0.0, 0.5)}),
        StratifiedGroupThreshold(
            LEGIT, {(g, s): GroupCut(0.5) for g in GROUPS for s in STRATA[1:]}
        ),
        StratifiedGroupThreshold(("job",), {(g, ("x",)): GroupCut(0.5) for g in GROUPS}),
        StratifiedGroupThreshold(("shift",), {}),
        Mixture({"a": 0.5, "b": 0.5}, SingleThreshold(0.5), SingleThreshold(0.2)),
        Mixture({g: 0.5 for g in GROUPS}, GroupThreshold(two_groups), SingleThreshold(0.2)),
    ]
    for rule in uncovered:
        with pytest.raises(CoverageError):
            decision_probabilities(rule, dataset)
        with pytest.raises(CoverageError):
            for r in dataset.records:
                decision_probability(rule, r.score, r.group, r.legit)
