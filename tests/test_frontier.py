import csv
import io
import random
import re
import xml.etree.ElementTree as ET

import pytest

from conftest import make_dataset, random_instance
from fairgate import frontier
from fairgate.frontier import (
    DEFAULT_GAMMA_GRID,
    FrontierPoint,
    emit_frontier,
    frontier_csv,
    sweep,
)
from fairgate.model import CriterionKind, FairnessCriterion, UtilityMatrix
from fairgate.optimizer import OptimizationProblem, optimize_unconstrained
from fairgate.metrics import compute_rates, decision_maker_utility, disparity_ratio

ACC = UtilityMatrix.accuracy()


def fpr_problem(ds, gamma=1.0):
    return OptimizationProblem(ds, ACC, FairnessCriterion(CriterionKind.FPR_PARITY, gamma=gamma))


@pytest.fixture(scope="module")
def swept():
    rng = random.Random(4)
    ds = random_instance(rng, n_groups=2, max_records=30)
    prob = fpr_problem(ds)
    return ds, prob, sweep(prob, (0.0, 0.25, 0.5, 0.75, 1.0))


def test_default_grid_contains_four_fifths_landmark():
    assert 0.8 in DEFAULT_GAMMA_GRID
    assert DEFAULT_GAMMA_GRID[0] == 0.0 and DEFAULT_GAMMA_GRID[-1] == 1.0


def test_endpoints_always_included():
    rng = random.Random(8)
    ds = random_instance(rng, n_groups=2, max_records=20)
    points = sweep(fpr_problem(ds), (0.3, 0.6))
    assert [p.gamma for p in points] == [0.0, 0.3, 0.6, 1.0]


@pytest.mark.parametrize("level", [1.5, -0.2, float("nan"), float("inf")])
def test_a_level_outside_zero_to_one_is_rejected_before_any_solve(level, monkeypatch):
    monkeypatch.setattr(frontier, "solve_context", lambda problem: pytest.fail("solved"))
    ds = random_instance(random.Random(8), n_groups=2, max_records=20)
    with pytest.raises(ValueError, match=re.escape(f"gamma must be in [0, 1], got {level}")):
        sweep(fpr_problem(ds), (0.5, level))


def test_training_utility_monotone_non_increasing(swept):
    _, _, points = swept
    feasible = [p for p in points if p.feasible]
    for earlier, later in zip(feasible, feasible[1:]):
        assert later.utility_train <= earlier.utility_train + 1e-9


def test_gamma_one_reaches_exact_parity_on_training(swept):
    ds, prob, points = swept
    last = points[-1]
    assert last.gamma == 1.0
    assert disparity_ratio(compute_rates(ds, last.rule), prob.criterion) >= 1.0 - 1e-9


def test_gamma_zero_matches_unconstrained_on_calibrated_data():
    # Scores separate labels at 0.5 exactly, so the formula threshold is the
    # empirical optimum and the frontier's free endpoint matches it exactly.
    rows = [(0.9, 1, "A"), (0.7, 1, "A"), (0.3, 0, "A"), (0.1, 0, "A"),
            (0.8, 1, "B"), (0.6, 1, "B"), (0.4, 0, "B"), (0.2, 0, "B")]
    ds = make_dataset(rows)
    prob = fpr_problem(ds)
    points = sweep(prob, (0.0, 1.0))
    free = optimize_unconstrained(ds, ACC)
    assert points[0].utility_train == decision_maker_utility(ds, free, ACC)


def test_flat_frontier_for_identical_groups():
    rows = [(s, y, g) for g in ("A", "B")
            for s, y in [(0.9, 1), (0.7, 1), (0.4, 0), (0.2, 0)]]
    ds = make_dataset(rows)
    points = sweep(fpr_problem(ds), (0.0, 0.5, 1.0))
    utils = {p.utility_train for p in points}
    assert len(utils) == 1


def test_test_split_metrics_use_second_dataset():
    rng = random.Random(15)
    train = random_instance(rng, n_groups=2, max_records=24)
    test = random_instance(rng, n_groups=2, max_records=24)
    points = sweep(fpr_problem(train), (1.0,), test_dataset=test)
    point = points[-1]
    assert point.utility_test == decision_maker_utility(test, point.rule, ACC)


@pytest.mark.parametrize("kind", [CriterionKind.INDEPENDENCE, CriterionKind.TPR_PARITY,
                                  CriterionKind.FPR_PARITY], ids=lambda k: k.value)
def test_a_sweep_evaluates_each_distinct_rule_once(kind, monkeypatch):
    # A level whose rule equals the last one evaluated reuses its rates and
    # utilities: one decision-probability vector per split and distinct rule.
    # The disparity does not depend on the level either: one per distinct rule.
    calls, disparities = [], []
    original, disparity = frontier.decision_probabilities, frontier._disparity_detail

    def counted(rule, dataset):
        calls.append(rule)
        return original(rule, dataset)

    def counted_disparity(rates, criterion):
        disparities.append(criterion)
        return disparity(rates, criterion)

    monkeypatch.setattr(frontier, "decision_probabilities", counted)
    monkeypatch.setattr(frontier, "_disparity_detail", counted_disparity)
    rng = random.Random(f"distinct-{kind.value}")
    train = random_instance(rng, n_groups=2, max_records=40, score_pool=(0.2, 0.4, 0.6, 0.8))
    test = random_instance(rng, n_groups=2, max_records=40)
    criterion = FairnessCriterion(kind)
    points = sweep(OptimizationProblem(train, ACC, criterion), DEFAULT_GAMMA_GRID, test)
    rules = [p.rule for p in points if p.feasible]
    distinct = 1 + sum(a != b for a, b in zip(rules, rules[1:]))
    assert len(points) == 21 and distinct < len(rules)
    assert len(calls) == 2 * distinct
    assert len(disparities) == distinct
    for p in points:
        if p.feasible:
            level = FairnessCriterion(kind, gamma=p.gamma)
            assert p.utility_train == decision_maker_utility(train, p.rule, ACC)
            assert p.utility_test == decision_maker_utility(test, p.rule, ACC)
            assert p.achieved_ratio == disparity_ratio(compute_rates(test, p.rule), level)


@pytest.fixture(scope="module")
def odd_names():
    """A sweep whose group names hold a comma, a quote, an ampersand, angle brackets and \\x0b."""
    rows = [(s, y, g) for g in ("a,b", 'q"r', "x&y", "<z>", "a\x0bb")
            for s, y in [(0.9, 1), (0.7, 1), (0.6, 0), (0.4, 1), (0.2, 0)]]
    return sweep(fpr_problem(make_dataset(rows)), (0.0, 0.5, 1.0))


class TestEmit:
    def test_csv_row_count(self, swept):
        _, _, points = swept
        text = frontier_csv(points[:3])
        assert len(text.strip().split("\n")) == 4  # header + 3 rows

    def test_csv_roundtrip_exact(self, swept, odd_names):
        for points in (swept[2], odd_names):
            header, *rows = csv.reader(io.StringIO(frontier_csv(points)))
            names = list(points[0].headline_rates)
            assert header == ["gamma", "achieved_ratio", "utility_train", "utility_test", *names]
            assert len(rows) == len(points)
            for cells, point in zip(rows, points):
                assert len(cells) == len(header)
                assert float(cells[0]) == point.gamma
                if point.feasible:
                    assert float(cells[1]) == point.achieved_ratio
                    assert float(cells[2]) == point.utility_train
                    assert float(cells[3]) == point.utility_test

    def test_csv_headline_rate_columns(self, swept):
        ds, _, points = swept
        header = frontier_csv(points).split("\n")[0].split(",")
        for g in ds.groups:
            assert f"fpr_{g}" in header

    def test_svg_is_wellformed_and_marks_endpoints(self, swept, odd_names):
        _, _, points = swept
        for points in (points, odd_names):
            svg = emit_frontier(points, "svg")
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")
            assert "unconstrained" in svg and "fair" in svg
            assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
            texts = {node.text for node in root.iter("{http://www.w3.org/2000/svg}text")}
            # XML 1.0 forbids \x0b: the chart shows it as a visible escape.
            names = {name.replace("\x0b", "\\x0b") for name in points[0].headline_rates}
            assert names <= texts

    def test_single_point_edge_case(self, swept):
        _, _, points = swept
        single = [points[0]]
        assert len(frontier_csv(single).strip().split("\n")) == 2
        ET.fromstring(emit_frontier(single, "svg"))

    def test_unknown_format_rejected(self, swept):
        _, _, points = swept
        with pytest.raises(ValueError, match="format"):
            emit_frontier(points, "pdf")

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            frontier_csv([])


def test_infeasible_levels_recorded_and_sweep_continues():
    # PPV ranges of the two groups cannot be matched at high gamma.
    rows = [(0.9, 1, "A"), (0.8, 1, "A"), (0.7, 1, "A"), (0.6, 1, "A"),
            (0.9, 1, "B"), (0.5, 0, "B"), (0.4, 0, "B"), (0.3, 0, "B")]
    ds = make_dataset(rows)
    prob = OptimizationProblem(ds, ACC, FairnessCriterion(CriterionKind.SUFFICIENCY, gamma=1.0))
    points = sweep(prob, (0.0, 1.0))
    assert points[0].feasible
    assert not points[-1].feasible
    assert "gamma" in points[-1].note
    text = frontier_csv(points)
    assert text.count("\n") == 3  # header + both rows, infeasible one with gaps
