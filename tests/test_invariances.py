"""Relations every solve keeps at any size, checked where the oracle cannot reach.

Shuffling the records, or writing every record twice, leaves each group's
distinct scores and their shares of records, positives and utility as they
were. So every criterion's rule is the same (``==``) and so is its training
utility. The input has 600 records with six-decimal scores, so nearly every
score is its own atom, and the accuracy utility, whose prefix sums are
integers and so exact in any order.
"""

import random

import numpy as np
import pytest

from conftest import make_dataset
from fairgate.metrics import decision_maker_utility
from fairgate.model import CriterionKind, FairnessCriterion, UtilityMatrix
from fairgate.optimizer import InfeasibleConstraintError, OptimizationProblem, optimize

ACC = UtilityMatrix.accuracy()
LEVELS = (0.8, 0.95)


def continuous_rows(n=600, seed=7):
    """Three groups with shifted score distributions over two strata of ``tier``;
    labels drawn as Bernoulli(score), scores at six decimals."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, 3, n)
    score = np.clip(
        np.round(rng.beta(2.0, 2.0, n) * 0.9 + np.array([0.1, 0.0, -0.05])[group], 6), 0.001, 0.999
    )
    label = rng.random(n) < score
    tier = np.where(rng.random(n) < 0.4, "high", "low")
    return [
        (float(s), int(y), f"g{g}", {"tier": str(t)})
        for s, y, g, t in zip(score, label, group, tier)
    ]


def outcome(rows, kind, gamma):
    """The rule and its training utility, or the infeasibility message."""
    dataset = make_dataset(rows, legit_names=("tier",))
    legit = ("tier",) if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY else ()
    criterion = FairnessCriterion(kind, gamma=gamma, legit_names=legit)
    try:
        rule = optimize(OptimizationProblem(dataset, ACC, criterion))
    except InfeasibleConstraintError as exc:
        return "infeasible", str(exc), None
    return "rule", rule, decision_maker_utility(dataset, rule, ACC)


@pytest.fixture(scope="module")
def rows():
    return continuous_rows()


def assert_same(got, want):
    assert got[:2] == want[:2]
    if want[2] is not None:
        # Equal rules: the utilities differ at most by the order of a sum.
        assert got[2] == pytest.approx(want[2], rel=1e-12)


@pytest.mark.parametrize("gamma", LEVELS)
@pytest.mark.parametrize("kind", list(CriterionKind), ids=lambda k: k.value)
def test_shuffled_records_give_the_same_rule(kind, gamma, rows):
    shuffled = list(rows)
    random.Random(f"shuffle-{kind.value}-{gamma}").shuffle(shuffled)
    assert_same(outcome(shuffled, kind, gamma), outcome(rows, kind, gamma))


@pytest.mark.parametrize("gamma", LEVELS)
@pytest.mark.parametrize("kind", list(CriterionKind), ids=lambda k: k.value)
def test_records_written_twice_give_the_same_rule(kind, gamma, rows):
    twice = [row for row in rows for _ in range(2)]
    assert_same(outcome(twice, kind, gamma), outcome(rows, kind, gamma))
