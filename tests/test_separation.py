"""Tests of the joint TPR+FPR (separation) program and its realization.

The in-process simplex over ROC hull vertices is compared with HiGHS
(``scipy.optimize.linprog``) over every staircase vertex, at 2-8 groups and
on degenerate programs of 16-32 groups that once made it cycle; the two-cut
realization is checked on random staircases with vertical and horizontal
runs; and a CLI separation solve must not import scipy.
"""

import importlib.util
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_dataset, random_instance
from fairgate import optimizer as opt
from fairgate.metrics import (
    _family_ratio,
    compute_rates,
    decision_maker_utility,
    disparity_detail,
)
from fairgate.model import (
    CriterionKind,
    Dataset,
    FairnessCriterion,
    GroupThreshold,
    Mixture,
    Record,
    UtilityMatrix,
)
from fairgate.oracle import brute_force_oracle

GAMMAS = (0.3, 0.5, 0.8, 0.9, 1.0)
FAMILIES = ((1, "n_pos"), (0, "n_neg"))  # (staircase column, class count)


def random_utility(rng):
    while True:
        try:
            return UtilityMatrix(*(round(rng.uniform(-1.0, 1.0), 3) for _ in range(4)))
        except ValueError:
            continue


def random_lp_instance(rng):
    """2-8 groups on shared scores with ties; some groups have a single class."""
    n_groups = rng.randint(2, 8)
    decimals = rng.choice((2, 3))
    pool = [round(rng.uniform(0.02, 0.98), decimals) for _ in range(rng.randint(3, 80))]
    one_class = rng.randrange(n_groups) if rng.random() < 0.3 else None
    rows = []
    for gi in range(n_groups):
        size = rng.randint(3, 120)
        if gi == one_class:
            labels = [rng.randint(0, 1)] * size
        else:
            labels = [0, 1] + [rng.randint(0, 1) for _ in range(size - 2)]
        rows += [(rng.choice(pool), y, f"g{gi}") for y in labels]
    return make_dataset(rows)


def highs_objective(ladders, groups, gamma):
    """Optimum of the separation program over every staircase vertex, by HiGHS.

    An independent statement of the program: one ratio row per ordered group
    pair and family, ``gamma * rate_h - rate_g <= 0``.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    paths = [opt._staircase(ladders[g]) for g in groups]
    offsets = np.cumsum([0] + [len(p) for p in paths])
    a_eq = np.zeros((len(groups), offsets[-1]))
    rows = []
    for gi in range(len(groups)):
        a_eq[gi, offsets[gi] : offsets[gi + 1]] = 1.0
    for axis, count in FAMILIES:
        members = [i for i, g in enumerate(groups) if getattr(ladders[g], count) > 0]
        for gi in members:
            for hi in members:
                if gi != hi:
                    row = np.zeros(offsets[-1])
                    row[offsets[gi] : offsets[gi + 1]] = -paths[gi][:, axis]
                    row[offsets[hi] : offsets[hi + 1]] = gamma * paths[hi][:, axis]
                    rows.append(row)
    result = linprog(
        -np.concatenate([ladders[g].cum_du for g in groups]),
        A_ub=np.array(rows) if rows else None,
        b_ub=np.zeros(len(rows)) if rows else None,
        A_eq=a_eq,
        b_eq=np.ones(len(groups)),
        bounds=(0.0, None),
        method="highs",
    )
    assert result.success, result.message
    return -result.fun


def test_separation_program_matches_highs(monkeypatch):
    residuals = []
    solve = opt._simplex_max

    def checked_solve(matrix, rhs, cost, basis):
        x = solve(matrix, rhs, cost, basis)
        residuals.append(float(np.abs(matrix @ x - rhs).max()))
        return x

    # The solution must satisfy the program's rows, not only the ratio check.
    monkeypatch.setattr(opt, "_simplex_max", checked_solve)
    rng = random.Random(2016)
    single_class_seen = 0
    for _ in range(250):
        dataset, utility = random_lp_instance(rng), random_utility(rng)
        gamma = rng.choice(GAMMAS)
        ladders = opt._ladders(dataset, utility)
        groups = sorted(ladders)
        single_class_seen += any(min(l.n_pos, l.n_neg) == 0 for l in ladders.values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", opt.MissingClassWarning)
            targets = opt._SeparationSearch(ladders).targets(gamma)
        # Utility is linear in (FPR, TPR): n_pos * tpr * gain_pos + n_neg * fpr * gain_neg.
        objective = sum(
            ladders[g].n_pos * (utility.u11 - utility.u01) * targets[g][1]
            + ladders[g].n_neg * (utility.u10 - utility.u00) * targets[g][0]
            for g in groups
        )
        expected = highs_objective(ladders, groups, gamma)
        assert objective == pytest.approx(expected, abs=1e-9 * (1.0 + abs(expected)))
        for axis, count in FAMILIES:
            members = [g for g in groups if getattr(ladders[g], count) > 0]
            if members:
                assert _family_ratio(targets[g][axis] for g in members) >= gamma - 1e-12
    assert single_class_seen >= 20
    assert max(residuals) <= 1e-12


def test_program_has_one_window_per_family(monkeypatch):
    """Sixteen groups: G convexity rows and at most four window rows per group."""
    shapes = []
    solve = opt._simplex_max

    def recorded_solve(matrix, rhs, cost, basis):
        shapes.append(matrix.shape)
        return solve(matrix, rhs, cost, basis)

    monkeypatch.setattr(opt, "_simplex_max", recorded_solve)
    rng = random.Random(16)
    rows = [
        (round(rng.uniform(0.02, 0.98), 2), rng.randint(0, 1), f"g{gi:02d}")
        for gi in range(16)
        for _ in range(40)
    ]
    dataset = make_dataset(rows)
    criterion = FairnessCriterion(CriterionKind.SEPARATION, gamma=0.9)
    rule = opt.optimize_separation(
        opt.OptimizationProblem(dataset, UtilityMatrix.accuracy(), criterion)
    )
    assert shapes and all(n_rows <= 5 * 16 for n_rows, _ in shapes)
    assert disparity_detail(compute_rates(dataset, rule), criterion).ratio >= 0.9 - 1e-12


def test_low_gamma_three_group_program_terminates():
    """1,500 three-decimal rows in three groups at gamma 0.05.

    With one ratio row per group pair and family, the simplex runs past its
    pivot limit on this instance.
    """
    rng = np.random.default_rng(26)
    codes = rng.integers(0, 3, 1500)
    latent = rng.beta(2.0, 2.0, 1500) * 0.9 + 0.05 + np.linspace(-0.1, 0.1, 3)[codes]
    score = np.clip(np.round(latent, 3), 0.001, 0.999)
    label = rng.random(1500) < score
    dataset = Dataset.from_records(
        [
            Record(id=str(i), label=int(label[i]), group="abc"[codes[i]], score=float(score[i]))
            for i in range(1500)
        ]
    )
    criterion = FairnessCriterion(CriterionKind.SEPARATION, gamma=0.05)
    rule = opt.optimize_separation(
        opt.OptimizationProblem(dataset, UtilityMatrix.accuracy(), criterion)
    )
    assert disparity_detail(compute_rates(dataset, rule), criterion).ratio >= 0.05 - 1e-12


def shifted_beta_groups(rng, n_groups, rows, decimals):
    """Groups g00, g01, ... of ``rows`` records each, drawn in order from ``rng``.

    A score is Beta(2, 2) * 0.9 plus one uniform shift per group, clipped to
    [0.001, 0.999] and rounded; its label is a Bernoulli draw of the score.
    """
    records = []
    for gi in range(n_groups):
        score = rng.beta(2, 2, rows) * 0.9 + rng.uniform(-0.05, 0.1)
        score = np.round(np.clip(score, 0.001, 0.999), decimals)
        label = rng.random(rows) < score
        records += [
            Record(id=str(len(records) + i), label=int(label[i]), group=f"g{gi:02d}",
                   score=float(score[i]))
            for i in range(rows)
        ]
    return Dataset.from_records(records)


# (seed, groups drawn first and discarded, groups, rows, decimals, gamma). The
# first three cycled while a column could enter on a reduced cost of rounding
# noise; the rest are further draws of 16-32 groups.
MANY_GROUPS = {
    "24x500_2dp_cycled": (2, 0, 24, 500, 2, 0.95),
    "24x500_6dp_cycled": (2, 0, 24, 500, 6, 0.95),
    "16x1000_6dp_cycled": (7, 10, 16, 1000, 6, 0.9),
    "24x500_2dp": (5, 0, 24, 500, 2, 0.9),
    "16x300_2dp": (11, 0, 16, 300, 2, 0.8),
    "20x300_6dp": (12, 0, 20, 300, 6, 1.0),
    "28x200_3dp": (13, 0, 28, 200, 3, 0.9),
    "32x200_2dp": (14, 0, 32, 200, 2, 0.95),
}


@pytest.mark.parametrize("case", MANY_GROUPS.values(), ids=MANY_GROUPS)
def test_many_group_programs_reach_the_highs_optimum(case):
    """Each solve terminates, reaches gamma and, where scipy is installed, equals HiGHS."""
    seed, discarded, n_groups, rows, decimals, gamma = case
    rng = np.random.default_rng(seed)
    if discarded:
        shifted_beta_groups(rng, discarded, rows, decimals)
    dataset = shifted_beta_groups(rng, n_groups, rows, decimals)
    accuracy = UtilityMatrix.accuracy()
    ladders = opt._ladders(dataset, accuracy)
    criterion = FairnessCriterion(CriterionKind.SEPARATION, gamma=gamma)
    rule = opt._SeparationSearch(ladders).solve(gamma)
    assert disparity_detail(compute_rates(dataset, rule), criterion).ratio >= gamma - 1e-12
    if importlib.util.find_spec("scipy") is not None:
        # With accuracy, rejecting everyone is right on every negative record.
        gain = decision_maker_utility(dataset, rule, accuracy) * len(dataset) - sum(
            ladder.n_neg for ladder in ladders.values()
        )
        expected = highs_objective(ladders, sorted(ladders), gamma)
        assert gain == pytest.approx(expected, abs=1e-9 * (1.0 + abs(expected)))


def test_separation_matches_the_oracle():
    """Feasible at gamma and never below the brute-force oracle's utility."""
    rng = random.Random(1610)
    accuracy = UtilityMatrix.accuracy()
    for _ in range(30):
        dataset = random_instance(rng, n_groups=2, max_records=16)
        criterion = FairnessCriterion(CriterionKind.SEPARATION, gamma=rng.choice(GAMMAS))
        problem = opt.OptimizationProblem(dataset, accuracy, criterion)
        rule = opt.optimize_separation(problem)
        reference = brute_force_oracle(problem)
        assert decision_maker_utility(dataset, rule, accuracy) >= (
            decision_maker_utility(dataset, reference, accuracy) - 1e-9
        )
        ratio = disparity_detail(compute_rates(dataset, rule), criterion).ratio
        assert ratio >= criterion.gamma - 1e-12


def random_staircase(rng):
    """Monotone ROC path from (0, 0) to (1, 1) with vertical and horizontal runs."""
    steps = []
    for _ in range(rng.randint(2, 12)):
        kind = rng.choice(("pos", "neg", "mixed"))
        for _ in range(rng.randint(1, 4)):
            pos = rng.randint(1, 3) if kind != "neg" else 0
            neg = rng.randint(1, 3) if kind != "pos" else 0
            steps.append((neg, pos))
    steps += [(1, 0), (0, 1)]
    rng.shuffle(steps)
    counts = np.array([(0, 0)] + steps, dtype=float).cumsum(axis=0)
    return counts / counts[-1]


def point_of(path, j, q):
    return path[j] if q == 0.0 else path[j] + q * (path[j + 1] - path[j])


def test_realization_mixes_at_most_two_points_inside_the_hull():
    rng = random.Random(7)
    mixed = 0
    for _ in range(400):
        path = random_staircase(rng)
        picks = rng.sample(range(len(path)), rng.randint(3, min(6, len(path))))
        weights = np.array([rng.uniform(0.05, 1.0) for _ in picks])
        target = (weights / weights.sum()) @ path[picks]
        parts = opt._realize_on_path(path, target)
        assert 1 <= len(parts) <= 2
        assert sum(w for _, _, w in parts) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= q <= 1.0 and 0.0 <= w <= 1.0 for _, q, w in parts)
        achieved = sum(w * point_of(path, j, q) for j, q, w in parts)
        np.testing.assert_allclose(achieved, target, rtol=0, atol=1e-9)
        mixed += len(parts) == 2
    assert mixed >= 300


def test_realization_is_one_cut_on_the_path():
    rng = random.Random(8)
    for _ in range(200):
        path = random_staircase(rng)
        i = rng.randrange(len(path) - 1)
        target = point_of(path, i, rng.choice((0.0, 1.0, rng.random())))
        parts = opt._realize_on_path(path, target)
        assert len(parts) == 1
        (j, q, w), = parts
        assert w == 1.0
        np.testing.assert_allclose(point_of(path, j, q), target, rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def continuous_20k():
    """20k rows, two groups, six-decimal scores: about one score atom per row."""
    rng = np.random.default_rng(5)
    n = 20_000
    in_a = rng.random(n) < 0.6
    latent = rng.beta(2.0, 2.0, n) * 0.9 + np.where(in_a, 0.10, -0.05)
    score = np.clip(np.round(latent, 6), 0.001, 0.999)
    label = rng.random(n) < score
    return Dataset.from_records(
        [
            Record(id=str(i), label=int(label[i]), group="a" if in_a[i] else "b",
                   score=float(score[i]))
            for i in range(n)
        ]
    )


@pytest.mark.parametrize("gamma", [0.9, 1.0])
def test_continuous_20k_separation_is_feasible(continuous_20k, gamma):
    criterion = FairnessCriterion(CriterionKind.SEPARATION, gamma=gamma)
    problem = opt.OptimizationProblem(continuous_20k, UtilityMatrix.accuracy(), criterion)
    rule = opt.optimize_separation(problem)
    assert isinstance(rule, (GroupThreshold, Mixture))
    ratio = disparity_detail(compute_rates(continuous_20k, rule), criterion).ratio
    assert ratio >= gamma - 1e-12


def test_cli_separation_does_not_import_scipy(tmp_path):
    root = Path(__file__).resolve().parents[1]
    argv = [
        "optimize", "--input", str(root / "tests" / "golden" / "cli" / "input.csv"),
        "--score-col", "p", "--criterion", "separation", "--gamma", "0.9",
        "--out", str(tmp_path / "out"),
    ]
    code = (
        "import sys\n"
        "from fairgate.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    # The child imports the package these tests import: the source tree, or
    # the installed copy when the suite runs on an install.
    package_root = Path(opt.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert done.stdout.strip().splitlines()[-1] == "[]"
