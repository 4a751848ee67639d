"""Differential and memory tests of the sufficiency window search.

The references here are plain loops: one over segments for the per-window
branch search, one over (PPV window, FOR window) pairs for the joint scan.
The one-family sweep is checked against a copy of the dense scan it
replaced, which values every (window, segment) pair. The optimizer's
batched versions must agree with them exactly. One family's windows are
every breakpoint, so it is exact at breakpoints: no upper edge of a dense
evenly spaced scan beats them. A dense q-grid checks the branch search on
windows whose edges lie on vertices, and the brute-force oracle checks whole
solves: of the sufficiency family, on small draws and on 400 records with
hundreds of distinct scores, and of independence, TPR, FPR and conditional
parity, which share the threshold window sweep. The highest level an
infeasible solve names must be one that a solve reaches.
"""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from conftest import make_dataset, random_instance
from fairgate import optimizer as opt
from fairgate.cli import describe_rule
from fairgate.metrics import compute_rates, decision_maker_utility, disparity_detail
from fairgate.model import (
    CriterionKind,
    Dataset,
    FairnessCriterion,
    GroupInterval,
    IntervalCut,
    Record,
    UtilityMatrix,
    decision_probabilities,
    rule_from_dict,
    rule_to_dict,
)
from fairgate.optimizer import InfeasibleConstraintError, OptimizationProblem
from fairgate.oracle import brute_force_oracle

ACC = UtilityMatrix.accuracy()
GAMMAS = (0.5, 0.8, 0.9, 1.0)
GRID_STEP = 0.01


def branches_of(dataset, utility=ACC):
    ascending = opt._ladders(dataset, utility, descending=False)
    return {g: [ladder, ascending[g]] for g, ladder in opt._ladders(dataset, utility).items()}


def bases_of(branches):
    qs = opt._joint_grid(branches, GRID_STEP)
    return {w: opt._candidate_base(branches, w, qs) for w in ("ppv", "for_rate")}


def capped_uppers(base, gamma, cap):
    """The joint scan's window upper edges: an evenly spaced subsample of at most ``cap``."""
    uppers = opt._designations(base, gamma)
    return uppers[np.unique(np.linspace(0, len(uppers) - 1, min(cap, len(uppers))).astype(int))]


def loop_branch_best(branch, ppv_window, for_window):
    """Per-segment loop over both ends of each feasible q-interval.

    A segment end whose family value lies within 1e-12 of a window stays;
    an end outside moves to the q where the value crosses the edge beyond it,
    widened by 1e-12 unless it is a zero upper edge.
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
                edge = lo - tol if v < lo else (hi + tol if hi > 0.0 else hi)
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
    for p_up in capped_uppers(bases["ppv"], gamma, cap):
        pw = (gamma * float(p_up), float(p_up))
        for f_up in capped_uppers(bases["for_rate"], gamma, cap):
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


def test_joint_scan_matches_pair_loop(monkeypatch):
    # A small cap keeps the reference loop fast; the scan and the bisection
    # treat every cap alike.
    monkeypatch.setattr(opt, "_JOINT_CAP", 3)
    infeasible = 0
    for dataset in instances(50, 7):
        branches = branches_of(dataset)
        bases = bases_of(branches)
        for gamma in GAMMAS:
            got = opt._best_windows(branches, bases, gamma, 4)
            assert got == loop_joint_windows(branches, bases, gamma, 4)
        if got is None:
            infeasible += 1
            got_gamma = opt._max_achievable_sufficiency_gamma(branches, bases, 1.0)
            assert got_gamma == loop_max_gamma(branches, bases, 1.0, 3)
    assert infeasible >= 5


def test_sweep_blocks_do_not_change_values(monkeypatch):
    for dataset in instances(8, 5):
        branches = branches_of(dataset)
        bases = bases_of(branches)
        for gamma in GAMMAS:
            whole = opt._best_windows(branches, bases, gamma, 20)
            # Blocks of one or a few rows, the last one short.
            monkeypatch.setattr(opt, "_SWEEP_BLOCK_ELEMENTS", 40)
            rows = opt._best_windows(branches, bases, gamma, 20)
            monkeypatch.undo()
            assert whole == rows


def dense_window_bounds(ladder, which, windows, tol=1e-12):
    """(qlo, qhi, dead) of every (window, segment) pair under the edge rule, valued densely."""
    ep0, dep = ladder.cum_count[:-1], np.diff(ladder.cum_count)
    epy0, depy = ladder.cum_pos[:-1], np.diff(ladder.cum_pos)
    if which == "ppv":
        num0, dnum, den0, dden = epy0, depy, ep0, dep
    else:
        num0, dnum, den0, dden = ladder.n_pos - epy0, -depy, ladder.n - ep0, -dep
    vertex = ladder.values(which, ladder.cum_count, ladder.cum_pos)
    v0, v1 = vertex[:-1], vertex[1:]
    v0, v1 = np.where(np.isnan(v0), v1, v0), np.where(np.isnan(v1), v0, v1)
    vmin, vmax = np.minimum(v0, v1), np.maximum(v0, v1)
    lo, hi = windows[:, :1], windows[:, 1:]
    dead = (vmax < lo - tol) | (vmin > hi + tol)
    qlo, qhi = np.zeros(dead.shape), np.ones(dead.shape)
    w, j = np.nonzero(~dead & ((vmin < lo - tol) | (vmax > hi + tol)))
    lo, hi = lo[w, 0], hi[w, 0]
    for q, v in ((qlo, v0[j]), (qhi, v1[j])):
        edge = np.clip(v, lo - tol, np.where(hi > 0.0, hi + tol, hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (edge * den0[j] - num0[j]) / (dnum[j] - edge * dden[j])
        out = (v < lo - tol) | (v > hi + tol)
        q[w[out], j[out]] = np.clip(cross[out], 0.0, 1.0)
    if which == "ppv":
        open_end = ladder.cum_count[:-1] == 0.0
        qlo[:, open_end] = np.maximum(qlo[:, open_end], tol)
    else:
        open_end = ladder.cum_count[1:] >= ladder.n
        qhi[:, open_end] = np.minimum(qhi[:, open_end], 1.0 - tol)
    return qlo, qhi, dead


def dense_branch_values(ladder, which, windows):
    """A branch's best utility in each window: every (window, segment) pair valued."""
    qlo, qhi, dead = dense_window_bounds(ladder, which, windows)
    du = np.diff(ladder.cum_du)
    q = np.where(du > 0.0, qhi, qlo)
    util = np.where(~dead & (qlo <= qhi), ladder.cum_du[:-1] + q * du, -np.inf)
    return util.max(axis=-1)


def dense_one_family(branches, which, base, gamma):
    """Per-window totals and the chosen window (the last of equal totals) of the dense scan."""
    uppers = opt._designations(base, gamma)
    windows = np.column_stack([gamma * uppers, uppers])
    totals = np.zeros(len(uppers))
    for pair in branches.values():
        group_best = np.full(len(uppers), -np.inf)
        for ladder in pair:
            np.maximum(group_best, dense_branch_values(ladder, which, windows), out=group_best)
        totals += group_best
    i = len(totals) - 1 - int(np.argmax(totals[::-1]))
    return totals, (None if totals[i] == -np.inf else tuple(map(float, windows[i])))


def dense_max_gamma(branches, which, base, gamma):
    """Bisection of [0, gamma) to 1e-6 with the dense one-family scan."""
    lo, hi = 0.0, gamma
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2.0
        if dense_one_family(branches, which, base, mid)[1] is None:
            hi = mid
        else:
            lo = mid
    return lo


def hexes(values):
    return [float(v).hex() for v in values]


def sweep_instance(rng):
    """2-5 groups of 1-12 records; some groups of one class; scores of exactly 0 and 1."""
    pool = [0.0, 1.0, 0.25, 0.5, 0.75] if rng.random() < 0.5 else None
    rows = []
    for g in range(rng.randint(2, 5)):
        one_class = rng.choice([None, None, 0, 1])
        for _ in range(rng.randint(1, 12)):
            label = rng.randint(0, 1) if one_class is None else one_class
            score = rng.choice(pool) if pool else rng.choice([0.0, 1.0, round(rng.random(), 2)])
            rows.append((score, label, "g%d" % g))
    return make_dataset(rows)


def test_one_family_sweep_matches_the_dense_scan(monkeypatch):
    # Window edges come from vertex values, from those one ulp or the edge
    # tolerance below and above, and from 0 (the window [0, 0]).
    rng = random.Random(41)
    utilities = (ACC, UtilityMatrix(0.3, 0.0, 0.0, 1.0))
    scans = infeasible = 0
    for _ in range(240):
        dataset = sweep_instance(rng)
        branches = branches_of(dataset, rng.choice(utilities))
        which = rng.choice(["ppv", "for_rate"])
        vertex = opt._candidate_base(branches, which, np.empty(0))
        base = rng.choice(
            [
                vertex,
                np.nextafter(vertex, 0.0),
                np.nextafter(vertex, 1.0),
                np.concatenate([vertex - 1e-12, vertex, vertex + 1e-12]),
                np.append(0.0, vertex),
            ]
        )
        base = np.unique(np.clip(base, 0.0, 1.0))
        # Stabbed pairs in blocks of a few, or all at once.
        monkeypatch.setattr(opt, "_SWEEP_BLOCK_ELEMENTS", rng.choice([5, 65_536]))
        for gamma in (rng.choice((1e-4, *GAMMAS)), 1.0):
            totals, window = dense_one_family(branches, which, base, gamma)
            uppers = opt._designations(base, gamma)
            lowers = gamma * uppers
            swept = np.zeros(len(uppers))
            for pair in branches.values():
                got = [opt._branch_window_values(b, which, lowers, uppers) for b in pair]
                windows = np.column_stack([lowers, uppers])
                for ladder, values in zip(pair, got):
                    assert hexes(values) == hexes(dense_branch_values(ladder, which, windows))
                    family = ladder.interval_families[which]
                    qlo, qhi, live = family.bounds(windows[:, :1], windows[:, 1:])
                    bounds = qlo, qhi, ~live
                    for a, b in zip(bounds, dense_window_bounds(ladder, which, windows)):
                        assert a.tobytes() == b.tobytes()
                swept += np.maximum.reduce(got)
            assert hexes(swept) == hexes(totals)
            scanned = opt._scan_windows(branches, {which: base}, gamma)
            if window is None:
                assert scanned is None
            else:
                got = scanned[0] if which == "ppv" else scanned[1]
                assert scanned[1 if which == "ppv" else 0] is None
                assert hexes(got) == hexes(window)
            scans += 1
        # The bisection at gamma 1 of the first 20 infeasible instances.
        if window is None and infeasible < 20:
            infeasible += 1
            got_gamma = opt._max_achievable_sufficiency_gamma(branches, {which: base}, 1.0)
            assert got_gamma.hex() == dense_max_gamma(branches, which, base, 1.0).hex()
    assert scans == 480 and infeasible == 20


def window_totals(branches, which, gamma, uppers):
    """Each window [gamma * u, u]'s total of every group's best branch, under the edge rule."""
    totals = np.zeros(len(uppers))
    for pair in branches.values():
        values = [opt._branch_window_values(b, which, gamma * uppers, uppers) for b in pair]
        totals += np.maximum.reduce(values)
    return totals


def test_breakpoints_are_no_worse_than_a_dense_upper_edge_scan():
    # One family is exact at breakpoints: the best of its windows (every
    # vertex value and every vertex value over gamma) is no lower than the
    # best of 10,001 evenly spaced upper edges.
    rng = random.Random(43)
    utilities = (ACC, UtilityMatrix(0.3, 0.0, 0.0, 1.0))
    dense = np.linspace(0.0, 1.0, 10_001)
    compared = 0
    for _ in range(150):
        branches = branches_of(sweep_instance(rng), rng.choice(utilities))
        gamma = rng.choice(GAMMAS)
        for which in ("ppv", "for_rate"):
            base = opt._candidate_base(branches, which, np.empty(0))
            best = window_totals(branches, which, gamma, opt._designations(base, gamma)).max()
            scanned = window_totals(branches, which, gamma, dense).max()
            assert best >= scanned
            compared += bool(scanned > -np.inf)
    assert compared > 60


def continuous_dataset(n, seed, decimals=6):
    """Two groups, scores rounded to ``decimals``, labels drawn as Bernoulli(score)."""
    rng = np.random.default_rng(seed)
    in_a = rng.random(n) < 0.6
    score = np.clip(
        np.round(rng.beta(2.0, 2.0, n) * 0.9 + np.where(in_a, 0.10, -0.05), decimals), 0.001, 0.999
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


@pytest.mark.parametrize("kind", [CriterionKind.PPV_PARITY, CriterionKind.FOR_PARITY])
def test_one_family_never_below_the_oracle_on_hundreds_of_atoms(kind):
    # 400 records at three decimals hold a few hundred distinct scores per
    # group. A scan of 4096 windows out of the vertex and q-grid values fell
    # below the oracle at seed 0 (PPV) and at seeds 1 and 3 (FOR).
    for seed in range(4):
        dataset = continuous_dataset(400, seed, decimals=3)
        criterion = FairnessCriterion(kind, gamma=0.9)
        problem = OptimizationProblem(dataset, ACC, criterion)
        oracle = decision_maker_utility(dataset, brute_force_oracle(problem), ACC)
        rule = opt.optimize(problem)
        assert decision_maker_utility(dataset, rule, ACC) >= oracle - 1e-9
        assert disparity_detail(compute_rates(dataset, rule), criterion).ratio >= 0.9 - 1e-9


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


@pytest.mark.parametrize("gamma", [0.8, 0.9, 1.0])
def test_a_zero_upper_edge_is_not_widened(gamma):
    # The best window is FOR [0, 0]. Crossing its upper edge widened to
    # 1e-12 left group a at FOR 1e-12 beside group b's exact 0: a ratio of 0.
    a = [(0.05, 0), (0.1, 1)] + [(0.2, 1)] * 2 + [(0.7, 0)] * 3 + [(0.7, 1)] * 2
    a += [(0.9, 0)] * 2 + [(0.95, 0)]
    b = [(0.1, 1), (0.2, 0)] + [(0.9, 0)] * 3 + [(0.95, 0)]
    dataset = make_dataset([(s, y, "a") for s, y in a] + [(s, y, "b") for s, y in b])
    criterion = FairnessCriterion(CriterionKind.FOR_PARITY, gamma=gamma)
    rule = opt.optimize(OptimizationProblem(dataset, ACC, criterion))
    assert disparity_detail(compute_rates(dataset, rule), criterion).ratio >= gamma - 1e-12


@pytest.mark.parametrize(
    "gamma, rows",
    [
        (0.0, [(0.3, 1, "a"), (1.0, 0, "a"), (1.0, 1, "b"), (0.3, 0, "b")]),
        (1.0, [(0.6, 1, "a"), (1.0, 0, "a"), (0.0, 1, "b"), (0.6, 1, "b")]),
        (0.0, [(0.3, 1, "a"), (0.3, 1, "a"), (0.3, 0, "b"), (0.0, 1, "b")]),
    ],
)
def test_scores_of_zero_and_one_solve(gamma, rows):
    # The ladders' cuts [1, 1], [0, 1] with boundary 1 and [0, 0] are rules.
    dataset = make_dataset(rows)
    criterion = FairnessCriterion(CriterionKind.PPV_PARITY, gamma=gamma)
    rule = opt.optimize(OptimizationProblem(dataset, ACC, criterion))
    assert disparity_detail(compute_rates(dataset, rule), criterion).ratio >= gamma - 1e-12


@pytest.mark.parametrize("scores", [[0.0, 0.5], [0.5, 1.0]])
def test_an_interval_randomized_at_zero_or_one_is_named(scores):
    # [0, 1] below boundary 1 could mean either end, so the ladder's cut
    # names its form, and the rule file keeps it.
    dataset = make_dataset([(s, 1, "g7") for s in scores])
    descending = scores[0] == 0.0
    ladder = opt._ladders(dataset, ACC, descending=descending)["g7"]
    cut = ladder.interval_cut(1, 0.5)
    assert cut == IntervalCut(0.0, 1.0, 0.5, form="lower" if descending else "upper")
    rule = GroupInterval({"g7": cut})
    expected = [0.5, 1.0] if descending else [1.0, 0.5]
    assert decision_probabilities(rule, dataset).tolist() == expected
    assert rule_to_dict(rule)["groups"]["g7"]["form"] == cut.form
    assert f"[0, 1] {cut.form}-bound (q=0.5)" in describe_rule(rule)
    assert rule_from_dict(rule_to_dict(rule)) == rule
    with pytest.raises(ValueError, match=r"\[0\.0, 1\.0\] with boundary 0\.5 .* needs form"):
        IntervalCut(0.0, 1.0, 0.5)


@pytest.mark.parametrize(
    "kind, gamma, rows",
    [
        (
            CriterionKind.FOR_PARITY,
            0.5,
            [(0.0, 1, "b"), (0.3, 0, "a"), (1.0, 0, "a"), (1.0, 1, "a")],
        ),
        (
            CriterionKind.PPV_PARITY,
            1.0,
            [(0.6, 1, "b"), (0.0, 0, "a"), (0.6, 1, "b")]
            + [(0.6, 0, "b"), (0.6, 1, "a"), (0.0, 0, "b")],
        ),
    ],
)
def test_a_rule_randomized_at_zero_solves(kind, gamma, rows):
    # The best rule randomizes a lower-bound cut at score 0: [0, 1] with a
    # boundary below 1, which once had no form to be written in.
    dataset = make_dataset(rows)
    criterion = FairnessCriterion(kind, gamma=gamma)
    rule = opt.optimize(OptimizationProblem(dataset, ACC, criterion))
    assert any(c.low == 0.0 and c.high == 1.0 and c.boundary < 1.0 for c in rule.cuts.values())
    assert disparity_detail(compute_rates(dataset, rule), criterion).ratio >= gamma - 1e-9


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
