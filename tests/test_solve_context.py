"""The solve context: its gamma-independent state is built once, and
``solve(gamma)`` gives exactly what a fresh ``optimize`` gives at that level."""

import random
import warnings

import pytest

from conftest import make_dataset
from fairgate import optimizer as opt
from fairgate.frontier import DEFAULT_GAMMA_GRID, sweep
from fairgate.model import CriterionKind, FairnessCriterion, UtilityMatrix
from fairgate.optimizer import OptimizationProblem, optimize, solve_context

GAMMAS = (0.0, 0.3, 0.8, 0.9, 1.0)
POOL = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
UTILITIES = (UtilityMatrix.accuracy(), UtilityMatrix(1.0, -0.5, 0.0, 0.4))


def instance(rng, without_positives):
    """Two or three groups over strata 'low' and 'high'; 'high' is rare, so some
    (stratum, group) cells fall below a small ``min_count`` or are empty."""
    rows = []
    for i in range(rng.randint(2, 3)):
        for _ in range(rng.randint(5, 24)):
            if rng.random() < 0.5:
                score = rng.choice(POOL)
            else:
                score = round(rng.uniform(0.02, 0.98), 3)
            label = 0 if without_positives and i == 1 else int(rng.random() < score)
            tier = "high" if rng.random() < 0.25 else "low"
            rows.append((score, label, f"g{i}", {"tier": tier}))
    rows.append((0.6, 1, "g0", {"tier": "low"}))
    rows.append((0.3, 0, "g0", {"tier": "low"}))
    return make_dataset(rows, legit_names=("tier",))


def make_problem(dataset, kind, gamma=1.0, utility=UTILITIES[0], min_count=3):
    legit = ("tier",) if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY else ()
    criterion = FairnessCriterion(kind, gamma=gamma, legit_names=legit)
    return OptimizationProblem(dataset, utility, criterion, min_count=min_count)


def outcome(solve):
    """The rule, or the error with its message and level, and every warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("rule", solve())
        except ValueError as exc:
            level = getattr(exc, "max_achievable_gamma", None)
            result = ("error", type(exc), str(exc), level)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("kind", list(CriterionKind), ids=lambda k: k.value)
def test_solve_equals_a_fresh_optimize(kind):
    rng = random.Random(f"context-{kind.value}")
    seen = {"error": 0, "missing_class": 0, "small_stratum": 0}
    for n in range(24):
        dataset = instance(rng, without_positives=n % 3 == 0)
        utility = rng.choice(UTILITIES)
        min_count = rng.choice([1, 3, 6])
        context = solve_context(make_problem(dataset, kind, 1.0, utility, min_count))
        # A fresh order of levels each time: no solve may depend on an earlier one.
        for gamma in rng.sample(GAMMAS, len(GAMMAS)):
            fresh = make_problem(dataset, kind, gamma, utility, min_count)
            expected, expected_warnings = outcome(lambda: optimize(fresh))
            got, got_warnings = outcome(lambda: context.solve(gamma))
            assert got == expected, (n, gamma)
            assert got_warnings == expected_warnings, (n, gamma)
            seen["error"] += expected[0] == "error"
            categories = {category for category, _ in expected_warnings}
            seen["missing_class"] += opt.MissingClassWarning in categories
            seen["small_stratum"] += opt.SmallStratumWarning in categories
    if kind in (CriterionKind.SEPARATION, CriterionKind.TPR_PARITY):
        assert seen["missing_class"] > 0
    if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY:
        assert seen["small_stratum"] > 0
    if kind is CriterionKind.SUFFICIENCY:
        assert seen["error"] > 0


def expected_ladders(dataset, kind):
    """Ladders a solve context needs: one per group, two per group for the
    interval families, one per group present in each stratum."""
    if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY:
        columns = dataset.columns
        return len(set(zip(columns.group_codes.tolist(), columns.legit_codes[:, 0].tolist())))
    if kind.families[0] in ("ppv", "for_rate"):
        return 2 * len(dataset.groups)
    return len(dataset.groups)


@pytest.mark.parametrize("kind", list(CriterionKind), ids=lambda k: k.value)
def test_a_sweep_builds_its_search_state_once(kind, monkeypatch):
    calls = {"_build_ladder": 0, "_IntervalFamily": 0, "_candidate_base": 0, "_hull_chains": 0}
    for name in calls:
        original = getattr(opt, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(opt, name, counted)
    dataset = instance(random.Random(7), without_positives=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        points = sweep(make_problem(dataset, kind), DEFAULT_GAMMA_GRID)
    assert len(points) == 21
    assert calls["_build_ladder"] == expected_ladders(dataset, kind)
    interval = kind.families[0] in ("ppv", "for_rate")
    # One interval family per group and constrained family, over both of its branches.
    families = len(dataset.groups) * len(kind.families)
    assert calls["_IntervalFamily"] == (families if interval else 0)
    assert calls["_candidate_base"] == (len(kind.families) if interval else 0)
    joint = kind is CriterionKind.SEPARATION
    assert calls["_hull_chains"] == (len(dataset.groups) if joint else 0)


@pytest.mark.parametrize("kind", list(CriterionKind), ids=lambda k: k.value)
def test_every_entry_point_solves_its_problem_criterion(kind):
    # ``optimize`` routes by criterion, but each entry point is one solve of
    # the problem's own context, whatever its name.
    rng = random.Random(f"entry-{kind.value}")
    entry_points = (
        opt.optimize_independence,
        opt.optimize_separation,
        opt.optimize_sufficiency,
        opt.optimize_conditional_parity,
    )
    for n in range(4):
        dataset = instance(rng, without_positives=n == 0)
        problem = make_problem(dataset, kind, rng.choice(GAMMAS))
        expected = outcome(lambda: optimize(problem))
        for entry_point in entry_points:
            assert outcome(lambda: entry_point(problem)) == expected, (n, entry_point.__name__)
