import dataclasses
import importlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairgate
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
    read_rule_file,
    rule_from_dict,
    rule_to_dict,
    sorted_distinct,
    write_rule_file,
)


def always_accept():
    return SingleThreshold(0.0, boundary=1.0)


def always_reject():
    return SingleThreshold(1.0, boundary=0.0)


def dataset_of(scores, group="a", legit=None):
    """One record per score, each in ``group`` with the legitimate attributes ``legit``."""
    legit = legit or {}
    records = [Record(str(i), 0, group, score, legit) for i, score in enumerate(scores)]
    return Dataset.from_records(records, tuple(legit))


BELOW_ONE = math.nextafter(1.0, 0.0)  # 1 - 2**-53, the largest valid draw


class TestDecide:
    def test_single_threshold_above(self):
        assert decide(SingleThreshold(0.5), dataset_of([0.51]), [0.0]).tolist() == [True]

    def test_single_threshold_below(self):
        assert decide(SingleThreshold(0.5), dataset_of([0.49]), [0.0]).tolist() == [False]

    def test_single_threshold_closed_at_boundary(self):
        assert decide(SingleThreshold(0.5), dataset_of([0.5]), [0.999]).tolist() == [True]

    def test_interval_outside(self):
        rule = GroupInterval({"f": IntervalCut(low=0.0, high=0.3, boundary=1.0)})
        assert decide(rule, dataset_of([0.4], "f"), [0.0]).tolist() == [False]

    def test_interval_inside(self):
        rule = GroupInterval({"f": IntervalCut(low=0.0, high=0.3, boundary=1.0)})
        assert decide(rule, dataset_of([0.2], "f"), [0.0]).tolist() == [True]

    def test_group_thresholds_differ(self):
        rule = GroupThreshold({"a": GroupCut(0.51), "c": GroupCut(0.44)})
        dataset = Dataset.from_records([Record("r", 0, "c", 0.47), Record("s", 0, "a", 0.47)])
        assert decide(rule, dataset, [0.0, 0.0]).tolist() == [True, False]

    def test_unknown_group(self):
        rule = GroupThreshold({"a": GroupCut(0.5)})
        with pytest.raises(CoverageError, match="b"):
            decide(rule, dataset_of([0.7], "b"), [0.0])

    def test_missing_stratum(self):
        rule = StratifiedGroupThreshold(
            legit_names=("job",), cuts={("a", ("clerk",)): GroupCut(0.5)}
        )
        assert decide(rule, dataset_of([0.9], "a", {"job": "clerk"}), [0.0]).tolist() == [True]
        with pytest.raises(CoverageError, match="nurse"):
            decide(rule, dataset_of([0.9], "a", {"job": "nurse"}), [0.0])

    def test_boundary_randomization_uses_draw(self):
        rule = GroupThreshold({"a": GroupCut(0.5, boundary=0.25)})
        assert decide(rule, dataset_of([0.5, 0.5]), [0.2, 0.3]).tolist() == [True, False]

    def test_bad_draw_rejected(self):
        dataset = dataset_of([0.7, 0.2])
        for draws in ([0.5, 1.0], [-0.1, 0.5], [0.5, math.nan], [0.5], [0.5, 0.5, 0.5], 0.5):
            with pytest.raises(ValueError):
                decide(SingleThreshold(0.5), dataset, draws)


def test_a_rescaled_draw_that_rounds_up_to_one_is_valid():
    # (draw - w) / (1 - w) rounds up to 1.0 for this weight at the largest draw.
    rule = Mixture({"a": 0.3}, SingleThreshold(0.5), SingleThreshold(0.2))
    assert decide(rule, dataset_of([0.4]), [BELOW_ONE]).tolist() == [True]
    rounded = [w for w in (i / 1000 for i in range(1, 1000)) if (BELOW_ONE - w) / (1 - w) == 1]
    assert len(rounded) == 84
    # Past the rounding, weight 1 still picks ``first`` and probability 1 still decides 1.
    inner = Mixture({"a": 1.0}, SingleThreshold(0.2), SingleThreshold(0.9))
    for w in rounded:
        rule = Mixture({"a": w}, SingleThreshold(0.9), inner)
        assert decide(rule, dataset_of([0.4]), [BELOW_ONE]).tolist() == [True]


@pytest.mark.parametrize(
    "evaluate",
    [
        decision_probabilities,
        lambda rule, dataset: decide(rule, dataset, [0.5, 0.5]),
    ],
    ids=["decision_probabilities", "decide"],
)
def test_an_unscored_record_is_rejected(evaluate):
    # NaN compares false with every cut, so the record would read as a reject.
    dataset = Dataset.from_records([Record("r", 1, "a", None), Record("s", 0, "a", 0.3)])
    with pytest.raises(ValueError, match="^record r has no score$"):
        evaluate(SingleThreshold(0.0), dataset)


def test_an_empty_dataset_gives_empty_arrays():
    empty = Dataset.from_records([])
    for rule in (SingleThreshold(0.5), Mixture({}, always_accept(), always_reject())):
        assert decision_probabilities(rule, empty).shape == (0,)
        assert decide(rule, empty, []).shape == (0,)


def test_rules_have_one_evaluation_path():
    # Rules are evaluated only by the array kernel; no per-record evaluator
    # may come back beside it.
    package = Path(fairgate.__file__).parent
    found = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"def (probability|decision_probability)\b", line)
    ]
    assert found == []


# Every public name of the package, by the module that defines it.
PUBLIC_NAMES = {
    "assessment": (
        "BenefitSource JustifierKind MoralAssessment criterion_equation map_assessment "
        "prune_justifier_values run_wizard settle"
    ),
    "frontier": "FrontierPoint emit_frontier sweep",
    "metrics": (
        "FecTable GroupRates compute_rates decision_maker_utility disparity_ratio fec_check"
    ),
    "model": (
        "BenefitMatrix CriterionKind Dataset DecisionRule FairnessCriterion GroupCut "
        "GroupInterval GroupThreshold IntervalCut Mixture Record SingleThreshold "
        "StratifiedGroupThreshold UtilityMatrix decide decision_probabilities read_rule_file "
        "write_rule_file"
    ),
    "optimizer": (
        "InfeasibleConstraintError OptimizationProblem optimize optimize_conditional_parity "
        "optimize_independence optimize_separation optimize_sufficiency optimize_unconstrained "
        "solve_context"
    ),
    "oracle": "brute_force_oracle",
    "scorer": "FitConfig LogisticModel fit score_dataset split",
}


def test_importing_the_package_loads_no_module_of_it():
    # Its names are loaded on first use, so a command loads what it runs.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(fairgate.__file__).resolve().parents[1])
    code = "import json, sys, fairgate\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert [m for m in json.loads(done.stdout) if m.startswith("fairgate.")] == []


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_every_public_name_is_its_modules_object(module):
    defining = importlib.import_module(f"fairgate.{module}")
    assert getattr(fairgate, module) is defining
    for name in PUBLIC_NAMES[module].split():
        assert getattr(fairgate, name) is getattr(defining, name), name
        assert name in dir(fairgate) and name in fairgate.__all__
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        fairgate.nonexistent


FLOAT_VALUES = st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 0.5]))
INT_VALUES = st.lists(st.integers(-3, 3) | st.integers(-(2**62), 2**62))


@settings(max_examples=300)
@given(
    values=st.one_of(
        FLOAT_VALUES.map(lambda v: np.array(v, dtype=float)),
        INT_VALUES.map(lambda v: np.array(v, dtype=np.int64)),
    )
)
@example(values=np.array([]))
@example(values=np.array([0.25]))
@example(values=np.array([0.0, -0.0, 1.0, -0.0, 1.0]))
@example(values=np.array([3, 3, 3]))
def test_sorted_distinct_equals_np_unique(values):
    before = values.copy()
    found, expected = sorted_distinct(values), np.unique(values)
    assert found.dtype == expected.dtype
    assert found.tolist() == expected.tolist()
    assert values.tolist() == before.tolist()


class TestDecisionProbability:
    def test_boundary(self):
        rule = GroupThreshold({"a": GroupCut(0.5, boundary=0.25)})
        assert decision_probabilities(rule, dataset_of([0.5])).tolist() == [0.25]

    def test_mixture_of_extremes(self):
        rule = Mixture(weights={"a": 0.5}, first=always_accept(), second=always_reject())
        assert decision_probabilities(rule, dataset_of([0.0, 0.3, 0.99])).tolist() == [0.5] * 3

    def test_deterministic_rule_matches_decide_for_every_draw(self):
        rule = GroupThreshold({"a": GroupCut(0.5, boundary=1.0)})
        dataset = dataset_of([0.2, 0.5, 0.8])
        p = decision_probabilities(rule, dataset)
        assert set(p.tolist()) <= {0.0, 1.0}
        for draw in (0.0, 0.31, 0.77, 0.999):
            assert decide(rule, dataset, np.full(3, draw)).tolist() == (p == 1.0).tolist()

    def test_interval_lower_form_boundary(self):
        rule = GroupInterval({"a": IntervalCut(low=0.4, high=1.0, boundary=0.7)})
        assert decision_probabilities(rule, dataset_of([0.4, 0.41, 0.39])).tolist() == [
            0.7, 1.0, 0.0
        ]

    def test_interval_upper_form_boundary(self):
        rule = GroupInterval({"a": IntervalCut(low=0.0, high=0.6, boundary=0.2)})
        assert decision_probabilities(rule, dataset_of([0.6, 0.59, 0.61])).tolist() == [
            0.2, 1.0, 0.0
        ]

    @pytest.mark.parametrize(
        "cut, expected",
        [
            (IntervalCut(low=1.0, high=1.0, boundary=0.3), [0.0, 0.0, 0.3]),
            (IntervalCut(low=0.0, high=0.0, boundary=0.3), [0.3, 0.0, 0.0]),
            (IntervalCut(low=0.0, high=1.0, boundary=1.0), [1.0, 1.0, 1.0]),
        ],
    )
    def test_interval_at_the_unit_ends(self, cut, expected):
        # A score of exactly 0 or 1 is valid, and so are cuts at it.
        rule = GroupInterval({"a": cut})
        assert decision_probabilities(rule, dataset_of([0.0, 0.5, 1.0])).tolist() == expected


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
    one = dataset_of([score])
    (p,) = decision_probabilities(rule, one).tolist()
    n = 100_000
    copies = Dataset(one.columns.take(np.zeros(n, dtype=np.intp)), one.groups)
    draws = np.random.default_rng(12345).random(n)
    freq = decide(rule, copies, draws).mean()
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
    low, high = decide(rule, dataset_of([min(lo, hi), max(lo, hi)]), [draw, draw])
    assert low <= high


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
    one = dataset_of([score])
    assert decision_probabilities(clone, one).tolist() == decision_probabilities(rule, one).tolist()


def test_rule_file_roundtrip(tmp_path):
    rule = GroupThreshold({"a": GroupCut(0.5123456789012345, 0.333), "c": GroupCut(0.44)})
    criterion = FairnessCriterion(CriterionKind.FPR_PARITY, gamma=0.8)
    path = tmp_path / "rule.json"
    write_rule_file(path, rule, criterion)
    loaded, crit = read_rule_file(path)
    assert crit == criterion
    grid = [i / 97 for i in range(98)] + [0.5123456789012345]
    dataset = Dataset.from_records(
        [Record(f"{g}{i}", 0, g, s) for g in ("a", "c") for i, s in enumerate(grid)]
    )
    expected = decision_probabilities(rule, dataset).tolist()
    assert decision_probabilities(loaded, dataset).tolist() == expected


def test_stratified_rule_file_roundtrip(tmp_path):
    rule = StratifiedGroupThreshold(
        legit_names=("job",),
        cuts={("a", ("x",)): GroupCut(0.4, 0.5), ("b", ("x",)): GroupCut(0.6)},
    )
    path = tmp_path / "rule.json"
    write_rule_file(path, rule)
    loaded, crit = read_rule_file(path)
    assert crit is None
    assert decision_probabilities(loaded, dataset_of([0.4], "a", {"job": "x"})).tolist() == [0.5]


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
            IntervalCut(low=0.0, high=1.0, boundary=0.5)  # randomized at 0 or at 1?
        with pytest.raises(ValueError):
            IntervalCut(low=0.2, high=1.0, form="upper")  # an upper bound needs low = 0
        with pytest.raises(ValueError):
            IntervalCut(low=0.0, high=1.0, boundary=0.5, form="middle")

    def test_utility_matrix_must_reward_something(self):
        with pytest.raises(ValueError):
            UtilityMatrix(0.0, 1.0, 0.0, 1.0)  # decisions never matter

    def test_benefit_matrix_not_constant(self):
        with pytest.raises(ValueError):
            BenefitMatrix(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("matrix", [UtilityMatrix, BenefitMatrix])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_matrix_cells_must_be_finite(self, matrix, bad):
        with pytest.raises(ValueError, match="matrix cells must be finite numbers"):
            matrix(1.0, 0.0, 0.0, bad)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dataset_rejects_a_non_finite_feature(self, bad):
        # A record checks its own features, so Dataset.from_records never sees
        # one; columns built directly are checked by the Dataset.
        message = f"features must be finite, got ({bad!r},) (record s)"
        with pytest.raises(ValueError, match=re.escape(message)):
            Record("s", 0, "b", features=(bad,))
        records = [Record("r", 1, "a", features=(0.5,)), Record("s", 0, "b", features=(0.5,))]
        base = Dataset.from_records(records, feature_names=("x",))
        columns = dataclasses.replace(base.columns, features=np.array([[0.5], [bad]]))
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(columns, base.groups, feature_names=("x",))

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


def per_record(dataset):
    """(score, group, legitimate attributes) of each record, read from the columns."""
    cols = dataset.columns
    for i in range(len(dataset)):
        codes = cols.legit_codes[i].tolist()
        legit = {n: v[c] for n, v, c in zip(dataset.legit_names, cols.legit_values, codes)}
        yield cols.scores[i].item(), dataset.groups[cols.group_codes[i]], legit


def reference_weight(mixture, group):
    if group not in mixture.weights:
        raise CoverageError(f"mixture does not cover group {group!r}")
    return mixture.weights[group]


def reference_probability(rule, score, group, legit):
    """One record's probability of deciding 1, from the rule's fields alone.

    The per-record reference of the array kernel: it looks up the record's
    cut and compares one score with it.
    """
    if isinstance(rule, Mixture):
        w = reference_weight(rule, group)
        p1 = reference_probability(rule.first, score, group, legit) if w > 0.0 else 0.0
        p2 = reference_probability(rule.second, score, group, legit) if w < 1.0 else 0.0
        return w * p1 + (1.0 - w) * p2
    if isinstance(rule, SingleThreshold):
        cut = rule
    else:
        key = group
        if isinstance(rule, StratifiedGroupThreshold):
            if not set(rule.legit_names) <= set(legit):
                raise CoverageError(f"record misses one of {rule.legit_names}")
            key = (group, tuple(legit[name] for name in rule.legit_names))
        if key not in rule.cuts:
            raise CoverageError(f"rule does not cover {key!r}")
        cut = rule.cuts[key]
    if isinstance(cut, IntervalCut) and cut.form == "upper":
        # Accept below ``high``, randomize at it.
        return cut.boundary if score == cut.high else float(score < cut.high)
    tau = cut.low if isinstance(cut, IntervalCut) else cut.tau
    return cut.boundary if score == tau else float(score > tau)


def reference_decide(rule, score, group, legit, draw):
    """One record's decision from its draw, as the per-record ``decide`` took it.

    A mixture picks ``first`` below its weight and rescales the draw for the
    sub-rule. A rescaled draw is not checked again: when it rounds up to 1,
    weight 1 still picks ``first`` and probability 1 still decides 1.
    """
    if isinstance(rule, Mixture):
        w = reference_weight(rule, group)
        if draw < w or w == 1.0:
            return reference_decide(rule.first, score, group, legit, draw / w)
        return reference_decide(rule.second, score, group, legit, (draw - w) / (1.0 - w))
    p = reference_probability(rule, score, group, legit)
    if p == 1.0:
        return 1
    if p == 0.0:
        return 0
    return 1 if draw < p else 0


def seeded_case(seed):
    """A seed's dataset, its groups declared in sorted order or not, and its rules."""
    rng = random.Random(seed)
    atoms = sorted({round(rng.random(), 2) for _ in range(6)} | {0.0, 1.0})
    # Group codes follow the declared group order, sorted or not.
    order = GROUPS if seed % 2 else GROUPS[::-1]
    by_name = Dataset.from_records(random_records(rng, atoms), LEGIT)
    recode = np.array([order.index(g) for g in by_name.groups])[by_name.columns.group_codes]
    columns = dataclasses.replace(by_name.columns, group_codes=recode)
    return Dataset(columns, order, LEGIT), rules_of_every_kind(rng, atoms)


@pytest.mark.parametrize("seed", range(25))
def test_array_evaluation_equals_per_record_probability(seed):
    dataset, rules = seeded_case(seed)
    for rule in rules:
        expected = [reference_probability(rule, *record) for record in per_record(dataset)]
        assert decision_probabilities(rule, dataset).tolist() == expected, rule


# Weights w at which the largest draw's (draw - w) / (1 - w) rounds up to 1.
# Short decimals can; a weight of random bits, as in ``rules_of_every_kind``, never does.
ROUNDING_WEIGHTS = [
    w for w in (i / 100 for i in range(1, 100)) if (BELOW_ONE - w) / (1 - w) == 1
]


def with_rounding_weights(rule):
    """The rule with each mixture weight inside (0, 1) moved to one of ``ROUNDING_WEIGHTS``."""
    if not isinstance(rule, Mixture):
        return rule
    weights = {
        g: w if w in (0.0, 1.0) else ROUNDING_WEIGHTS[int(w * len(ROUNDING_WEIGHTS))]
        for g, w in rule.weights.items()
    }
    return Mixture(weights, with_rounding_weights(rule.first), with_rounding_weights(rule.second))


@pytest.mark.parametrize("seed", range(25))
def test_decide_equals_per_record_decide(seed):
    dataset, rules = seeded_case(seed)
    rng = np.random.default_rng(seed)
    n = len(dataset)
    for rule in rules + [with_rounding_weights(r) for r in rules if isinstance(r, Mixture)]:
        for draws in (np.zeros(n), np.full(n, BELOW_ONE), rng.random(n)):
            expected = [
                reference_decide(rule, *record, draw)
                for record, draw in zip(per_record(dataset), draws.tolist())
            ]
            assert decide(rule, dataset, draws).astype(int).tolist() == expected, rule


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
            decide(rule, dataset, np.zeros(len(dataset)))
        with pytest.raises(CoverageError):
            for record in per_record(dataset):
                reference_probability(rule, *record)
