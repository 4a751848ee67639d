"""Differential and memory tests of the sufficiency window search.

The references here are plain loops: one over segments for the per-window
branch search, one over (PPV window, FOR window) pairs for the joint scan.
The optimizer's batched versions must agree with them exactly. A dense
q-grid checks the branch search on windows whose edges lie on vertices, and
the brute-force oracle checks whole solves: of the sufficiency family, and of
independence, TPR, FPR and conditional parity, which share the threshold
window sweep. The highest level an infeasible solve names must be one that a
solve reaches.
"""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from conftest import make_dataset, random_instance
from fairgate import optimizer as opt
from fairgate.metrics import compute_rates, decision_maker_utility, disparity_detail
from fairgate.model import (
    CriterionKind,
    Dataset,
    FairnessCriterion,
    GroupInterval,
    IntervalCut,
    Record,
    UtilityMatrix,
)
from fairgate.optimizer import InfeasibleConstraintError, OptimizationProblem
from fairgate.oracle import brute_force_oracle

ACC = UtilityMatrix.accuracy()
GAMMAS = (0.5, 0.8, 0.9, 1.0)
GRID_STEP = 0.01


def branches_of(dataset):
    ascending = opt._ladders(dataset, ACC, descending=False)
    return {g: [ladder, ascending[g]] for g, ladder in opt._ladders(dataset, ACC).items()}


def bases_of(branches):
    return {w: opt._candidate_base(branches, w, GRID_STEP) for w in ("ppv", "for_rate")}


def loop_branch_best(branch, ppv_window, for_window):
    """Per-segment loop over both ends of each feasible q-interval.

    A segment end whose family value lies within 1e-12 of a window stays;
    an end outside moves to the q where the value crosses the edge beyond it,
    widened by 1e-12.
    """
    ep, epy, util = branch.cum_count, branch.cum_pos, branch.cum_du
    n, npos = branch.n, branch.n_pos
    tol = 1e-12
    best = None
    for j in range(len(ep) - 1):
        qlo, qhi, live = 0.0, 1.0, True
        for which, window in (("ppv", ppv_window), ("for_rate", for_window)):
            if window is None:
                continue
            lo, hi = window
            if which == "ppv":
                a, b, c, d = epy[j], epy[j + 1] - epy[j], ep[j], ep[j + 1] - ep[j]
            else:
                a, b = npos - epy[j], -(epy[j + 1] - epy[j])
                c, d = n - ep[j], -(ep[j + 1] - ep[j])
            v0 = a / c if c > 0 else None
            v1 = (a + b) / (c + d) if c + d > 0 else None
            v0, v1 = (v1 if v0 is None else v0), (v0 if v1 is None else v1)
            if max(v0, v1) < lo - tol or min(v0, v1) > hi + tol:
                live = False
                continue

            def moved(v, q_end):
                if lo - tol <= v <= hi + tol:
                    return q_end
                edge = lo - tol if v < lo else hi + tol
                return min(max((edge * c - a) / (b - edge * d), 0.0), 1.0)

            qlo, qhi = max(qlo, moved(v0, 0.0)), min(qhi, moved(v1, 1.0))
            if which == "ppv" and c == 0.0:
                qlo = max(qlo, tol)
            if which == "for_rate" and c + d <= 0.0:
                qhi = min(qhi, 1.0 - tol)
        if not live or qlo > qhi:
            continue
        for q in (qlo, qhi):
            key = (float(util[j] + q * (util[j + 1] - util[j])), q in (0.0, 1.0))
            if best is None or key > best[0]:
                best = (key, j, q)
    return None if best is None else (best[1], best[2], best[0][0])


def loop_joint_windows(branches, bases, gamma, cap):
    """The joint scan as a loop over window pairs and one-window searches.

    Ties go to the last of equal totals.
    """
    best_total, best = None, None
    for p_up in opt._designations(bases["ppv"], gamma, cap):
        pw = (gamma * float(p_up), float(p_up))
        for f_up in opt._designations(bases["for_rate"], gamma, cap):
            fw = (gamma * float(f_up), float(f_up))
            total = 0.0
            for group in branches.values():
                cand = opt._group_best_in_windows(group, pw, fw)
                if cand is None:
                    break
                total += cand[0]
            else:
                if best_total is None or total >= best_total:
                    best_total, best = total, (pw, fw)
    return best


def loop_max_gamma(branches, bases, gamma, cap):
    """Bisection of [0, gamma) to 1e-6 with the pair loop at ``cap``."""
    lo, hi = 0.0, gamma
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2.0
        if loop_joint_windows(branches, bases, mid, cap) is not None:
            lo = mid
        else:
            hi = mid
    return lo


def instances(count, seed):
    rng = random.Random(seed)
    return [random_instance(rng, max_records=30) for _ in range(count)]


def test_branch_search_matches_segment_loop():
    rng = random.Random(11)
    checked = 0
    for dataset in instances(40, 3):
        for branches in branches_of(dataset).values():
            for branch in branches:
                for _ in range(6):
                    gamma = rng.choice(GAMMAS)
                    windows = [
                        None if rng.random() < 0.25 else (gamma * u, u)
                        for u in (rng.random(), rng.random())
                    ]
                    got = opt._branch_best_in_windows(branch, *windows)
                    want = loop_branch_best(branch, *windows)
                    if want is None:
                        assert got is None
                    else:
                        assert got == want
                        checked += 1
    assert checked > 200


def test_lower_bound_branch_wins_a_tie():
    # Accepting everyone is best, and both branches of each group reach it.
    dataset = make_dataset([(s, 1, g) for g in ("a", "b") for s in (0.2, 0.6)])
    criterion = FairnessCriterion(CriterionKind.PPV_PARITY, gamma=0.0)
    rule = opt.optimize(OptimizationProblem(dataset, ACC, criterion))
    assert rule == GroupInterval({g: IntervalCut(0.2, 1.0, boundary=1.0) for g in ("a", "b")})


def test_joint_scan_matches_pair_loop():
    # A small cap keeps the reference loop fast; the scan and the bisection
    # treat every cap alike.
    infeasible = 0
    for dataset in instances(50, 7):
        branches = branches_of(dataset)
        bases = bases_of(branches)
        for gamma in GAMMAS:
            got = opt._best_windows(branches, bases, gamma, 4)
            assert got == loop_joint_windows(branches, bases, gamma, 4)
        if got is None:
            infeasible += 1
            got_gamma = opt._max_achievable_sufficiency_gamma(branches, bases, 1.0, 3)
            assert got_gamma == loop_max_gamma(branches, bases, 1.0, 3)
    assert infeasible >= 5


def test_sweep_blocks_do_not_change_values(monkeypatch):
    for dataset in instances(8, 5):
        branches = branches_of(dataset)
        bases = bases_of(branches)
        for families in (("ppv",), ("for_rate",), ("ppv", "for_rate")):
            scanned = {which: bases[which] for which in families}
            cap = 100 if len(families) == 1 else 20
            for gamma in GAMMAS:
                whole = opt._best_windows(branches, scanned, gamma, cap)
                # Blocks of one or a few rows, the last one short.
                monkeypatch.setattr(opt, "_SWEEP_BLOCK_ELEMENTS", 40)
                rows = opt._best_windows(branches, scanned, gamma, cap)
                monkeypatch.undo()
                assert whole == rows


def continuous_dataset(n, seed):
    """Two groups, six-decimal scores, labels drawn as Bernoulli(score)."""
    rng = np.random.default_rng(seed)
    in_a = rng.random(n) < 0.6
    score = np.clip(
        np.round(rng.beta(2.0, 2.0, n) * 0.9 + np.where(in_a, 0.10, -0.05), 6), 0.001, 0.999
    )
    label = rng.random(n) < score
    return Dataset.from_records(
        [
            Record(id=str(i), label=int(label[i]), group="a" if in_a[i] else "b", score=float(s))
            for i, s in enumerate(score)
        ]
    )


@pytest.mark.parametrize("kind", [CriterionKind.PPV_PARITY, CriterionKind.FOR_PARITY])
def test_single_family_search_memory_is_bounded(kind):
    dataset = continuous_dataset(4000, 17)
    problem = OptimizationProblem(dataset, ACC, FairnessCriterion(kind, gamma=0.9), grid_step=1e-3)
    tracemalloc.start()
    try:
        opt.optimize_sufficiency(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def dense_best(branch, ppv_window, for_window, steps=2000, tol=1e-12):
    """Best utility over a dense q-grid of every segment whose family values
    lie within the windows, to ``tol``; None if no grid point does."""
    q = np.linspace(0.0, 1.0, steps + 1)
    ep = branch.cum_count[:-1, None] + np.diff(branch.cum_count)[:, None] * q
    epy = branch.cum_pos[:-1, None] + np.diff(branch.cum_pos)[:, None] * q
    util = branch.cum_du[:-1, None] + np.diff(branch.cum_du)[:, None] * q
    ok = np.ones(util.shape, dtype=bool)
    for num, den, window in (
        (epy, ep, ppv_window),
        (branch.n_pos - epy, branch.n - ep, for_window),
    ):
        if window is not None:
            with np.errstate(invalid="ignore", divide="ignore"):
                value = num / den
            ok &= (den > 0) & (value >= window[0] - tol) & (value <= window[1] + tol)
    return float(util[ok].max()) if ok.any() else None


def point_values(branch, j, q):
    ep = branch.cum_count[j] + q * (branch.cum_count[j + 1] - branch.cum_count[j])
    epy = branch.cum_pos[j] + q * (branch.cum_pos[j + 1] - branch.cum_pos[j])
    n, npos = branch.n, branch.n_pos
    return epy / ep if ep > 0 else None, (npos - epy) / (n - ep) if n - ep > 0 else None


def assert_matches_dense(branch, ppv_window, for_window):
    got = opt._branch_best_in_windows(branch, ppv_window, for_window)
    want = dense_best(branch, ppv_window, for_window)
    if want is None:
        return False
    assert got is not None
    j, q, util = got
    assert util >= want - 1e-9
    for value, window in zip(point_values(branch, j, q), (ppv_window, for_window)):
        if window is not None:
            assert window[0] - 1e-9 <= value <= window[1] + 1e-9
    return True


def single_group_branch(labels):
    """Descending branch of one group whose records, by falling score, carry ``labels``."""
    dataset = make_dataset([(0.99 - 0.01 * i, y, "a") for i, y in enumerate(labels)])
    return opt._ladders(dataset, ACC)["a"]


def test_vertex_on_window_edge_is_inside():
    # PPV 12/15 at the last vertex lies on the edge 0.8; in q-space the lower
    # edge needed q = 0.20000000000000107 / 0.19999999999999996 > 1 on the
    # only segment ending there, so the vertex was lost.
    branch = single_group_branch([1] * 11 + [0] * 3 + [1])
    got = opt._branch_best_in_windows(branch, (0.8, 0.8), None)
    assert got is not None and got[2] == branch.cum_du[15]
    assert_matches_dense(branch, (0.8, 0.8), None)
    # FOR 4/9 at vertex 2 is the path's minimum; a window one ulp below it,
    # the same value computed another way, must still contain it.
    branch = single_group_branch([1, 1, 0] + [0, 1] * 4)
    edge = float(np.nextafter(4 / 9, 0.0))
    assert edge == 0.44444444444444436
    got = opt._branch_best_in_windows(branch, None, (edge, edge))
    assert got is not None and got[2] == branch.cum_du[2]
    assert_matches_dense(branch, None, (edge, edge))


def test_a_point_inside_both_windows_is_kept():
    # The dense grid has points inside both windows on one segment; solved at
    # the exact edges, its PPV and FOR crossings land more than an ulp apart
    # in q and empty the segment's interval, so the search found nothing.
    branch = single_group_branch([0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1])
    windows = (0.32000000000000006, 0.4), (0.4, 0.5)
    assert opt._branch_best_in_windows(branch, *windows) is not None
    assert assert_matches_dense(branch, *windows)


def test_branch_best_matches_dense_grid_on_vertex_edges():
    # Window edges are vertex values of any branch of the instance, or their
    # quotients by gamma, as in the scan's candidates.
    rng = random.Random(23)
    checked = 0
    for dataset in instances(40, 29):
        branches = [b for group in branches_of(dataset).values() for b in group]
        for branch in branches:
            for which in ("ppv", "for_rate"):
                source = rng.choice(branches)
                vertex = source.values(which, source.cum_count, source.cum_pos)
                values = sorted(set(vertex[~np.isnan(vertex)]))
                for v in rng.sample(values, min(3, len(values))):
                    gamma = rng.choice(GAMMAS)
                    for window in ((gamma * v, v), (v, v / gamma)):
                        windows = (window, None) if which == "ppv" else (None, window)
                        checked += assert_matches_dense(branch, *windows)
    assert checked > 500


def solve_matches_oracle(dataset, criterion, min_count=30) -> bool:
    """Check one solve against the oracle; False when the oracle finds no rule."""
    problem = OptimizationProblem(dataset, ACC, criterion, min_count=min_count, grid_step=0.05)
    try:
        oracle = decision_maker_utility(dataset, brute_force_oracle(problem), ACC)
    except InfeasibleConstraintError:
        return False
    # An InfeasibleConstraintError here fails the test: the oracle has a rule.
    rule = opt.optimize(problem)
    assert decision_maker_utility(dataset, rule, ACC) >= oracle - 1e-9
    ratio = disparity_detail(compute_rates(dataset, rule), criterion).ratio
    assert ratio >= criterion.gamma - 1e-9
    return True


@pytest.mark.parametrize(
    "kind",
    [
        CriterionKind.INDEPENDENCE,
        CriterionKind.TPR_PARITY,
        CriterionKind.FPR_PARITY,
        CriterionKind.PPV_PARITY,
        CriterionKind.FOR_PARITY,
        pytest.param(
            CriterionKind.SUFFICIENCY,
            marks=pytest.mark.xfail(
                strict=True,
                reason="joint parity scans at most 56 x 56 window pairs: below the oracle "
                "on 137 of these 450 solves, 4 of them wrongly infeasible",
            ),
        ),
    ],
)
def test_never_below_the_oracle(kind):
    rng = random.Random(2024)
    solved = 0
    for _ in range(150):
        dataset = random_instance(rng, max_records=24)
        for gamma in (0.8, 0.9, 1.0):
            solved += solve_matches_oracle(dataset, FairnessCriterion(kind, gamma=gamma))
    assert solved > 300


def with_two_strata(dataset):
    """The dataset with an attribute ``s`` that puts every group into both strata."""
    position = {g: 0 for g in dataset.groups}
    records = []
    for rec in dataset.records:
        records.append(dataclasses.replace(rec, legit={"s": "s%d" % (position[rec.group] % 2)}))
        position[rec.group] += 1
    return Dataset.from_records(records, legit_names=("s",))


def test_conditional_parity_never_below_the_oracle():
    rng = random.Random(2024)
    solved = 0
    for _ in range(100):
        dataset = with_two_strata(random_instance(rng, max_records=24))
        for gamma in (0.8, 0.9, 1.0):
            criterion = FairnessCriterion(
                CriterionKind.CONDITIONAL_STATISTICAL_PARITY, gamma=gamma, legit_names=("s",)
            )
            solved += solve_matches_oracle(dataset, criterion, min_count=1)
    assert solved > 200


@pytest.mark.parametrize(
    "kind",
    [
        CriterionKind.INDEPENDENCE,
        CriterionKind.TPR_PARITY,
        CriterionKind.FPR_PARITY,
        CriterionKind.PPV_PARITY,
        CriterionKind.FOR_PARITY,
    ],
)
def test_never_below_the_oracle_with_three_to_five_groups(kind):
    # The 40th draw is a FOR parity case at gamma 1 whose groups each reject
    # only 1e-12 of one positive atom; its FOR rates must all read exactly 1.
    rng = random.Random(2025)
    solved = 0
    for _ in range(60):
        dataset = random_instance(rng, n_groups=rng.randint(3, 5), max_records=60)
        for gamma in (0.8, 0.9, 1.0):
            solved += solve_matches_oracle(dataset, FairnessCriterion(kind, gamma=gamma))
    assert solved > 160


def test_the_reported_level_is_reachable():
    # The level named when a solve is infeasible lies below the level asked
    # for, and a solve at it returns a rule that meets it. The first 40 draws
    # hold 20 joint solves that once named a level they could not reach; at
    # gamma 0.8 the 126th once named a level above the one asked for.
    rng = random.Random(2024)
    draws = [random_instance(rng, max_records=40) for _ in range(126)]
    infeasible = 0
    for dataset in draws[:40] + draws[125:]:
        for kind in (CriterionKind.PPV_PARITY, CriterionKind.FOR_PARITY, CriterionKind.SUFFICIENCY):
            for gamma in (0.8, 0.9, 1.0):
                criterion = FairnessCriterion(kind, gamma=gamma)
                try:
                    opt.optimize(OptimizationProblem(dataset, ACC, criterion))
                    continue
                except InfeasibleConstraintError as exc:
                    level = exc.max_achievable_gamma
                infeasible += 1
                assert level < gamma
                at_level = FairnessCriterion(kind, gamma=level)
                rule = opt.optimize(OptimizationProblem(dataset, ACC, at_level))
                ratio = disparity_detail(compute_rates(dataset, rule), at_level).ratio
                assert ratio >= level - 1e-9
    assert infeasible >= 30
