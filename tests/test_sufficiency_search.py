"""Differential and memory tests of the sufficiency window search.

The references here are plain loops: one over segments for the per-window
branch search, one over (PPV window, FOR window) pairs for the joint scan.
The optimizer's batched versions must agree with them exactly.
"""

import random
import tracemalloc

import numpy as np
import pytest

from conftest import random_instance
from fairgate import optimizer as opt
from fairgate.model import (
    CriterionKind,
    Dataset,
    FairnessCriterion,
    Record,
    UtilityMatrix,
)
from fairgate.optimizer import OptimizationProblem

ACC = UtilityMatrix.accuracy()
GAMMAS = (0.5, 0.8, 0.9, 1.0)
GRID_STEP = 0.01


def branches_of(dataset):
    ascending = opt._ladders(dataset, ACC, descending=False)
    return {
        g: [opt._Branch.build(ladder), opt._Branch.build(ascending[g])]
        for g, ladder in opt._ladders(dataset, ACC).items()
    }


def bases_of(branches):
    return {w: opt._candidate_base(branches, w, GRID_STEP) for w in ("ppv", "for")}


def loop_branch_best(branch, ppv_window, for_window):
    """Per-segment loop over both ends of each feasible q-interval."""
    ep, epy, util = branch.ep, branch.epy, branch.util
    n, npos = branch.ladder.n, branch.ladder.n_pos
    k = len(ep) - 1
    ep0, dep = ep[:-1], np.diff(ep)
    epy0, depy = epy[:-1], np.diff(epy)
    u0, du = util[:-1], np.diff(util)
    qlo, qhi, dead = [0.0] * k, [1.0] * k, [False] * k

    def apply(coef, bound):
        for j in range(k):
            if coef[j] > 0:
                qlo[j] = max(qlo[j], bound[j] / coef[j])
            elif coef[j] < 0:
                qhi[j] = min(qhi[j], bound[j] / coef[j])
            elif bound[j] > 0.0:
                dead[j] = True

    if ppv_window is not None:
        lo, hi = ppv_window
        apply(depy - lo * dep, lo * ep0 - epy0)
        apply(hi * dep - depy, epy0 - hi * ep0)
        for j in range(k):
            if ep0[j] == 0.0:
                qlo[j] = max(qlo[j], 1e-12)
    if for_window is not None:
        lo, hi = for_window
        rej0, drej, ry0, dry = n - ep0, -dep, npos - epy0, -depy
        apply(dry - lo * drej, lo * rej0 - ry0)
        apply(hi * drej - dry, ry0 - hi * rej0)
        for j in range(k):
            if ep0[j] + dep[j] >= n:
                qhi[j] = min(qhi[j], 1.0 - 1e-12)
    best = None
    for j in range(k):
        if dead[j] or not qlo[j] <= qhi[j] + 1e-15:
            continue
        for q in (qlo[j], qhi[j]):
            q = min(max(q, 0.0), 1.0)
            e = ep0[j] + q * dep[j]
            if (e <= 0.0 and ppv_window is not None) or (n - e <= 0.0 and for_window is not None):
                continue
            key = (float(u0[j] + q * du[j]), q in (0.0, 1.0))
            if best is None or key > best[0]:
                best = (key, j, q)
    return None if best is None else (best[1], best[2], best[0][0])


def loop_joint_windows(branches, bases, gamma, cap):
    """The joint scan as a loop over window pairs and one-window searches."""
    best_total, best = None, None
    for p_up in opt._designations(bases["ppv"], gamma, cap):
        pw = (gamma * float(p_up), float(p_up))
        for f_up in opt._designations(bases["for"], gamma, cap):
            fw = (gamma * float(f_up), float(f_up))
            total = 0.0
            for group in branches.values():
                cand = opt._group_best_in_windows(group, pw, fw)
                if cand is None:
                    break
                total += cand.util
            else:
                if best_total is None or total > best_total:
                    best_total, best = total, (pw, fw)
    return best


def loop_max_gamma(branches, bases):
    lo, hi = 0.0, 1.0
    if loop_joint_windows(branches, bases, 1.0, opt._JOINT_GAMMA_CAP) is not None:
        return 1.0
    for _ in range(opt._GAMMA_BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        if loop_joint_windows(branches, bases, mid, opt._JOINT_GAMMA_CAP) is not None:
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
                        assert (got.j, got.q, got.util) == want
                        checked += 1
    assert checked > 200


def test_joint_scan_matches_pair_loop(monkeypatch):
    # Small caps and few bisection steps keep the reference loop fast; the
    # scan and the bisection treat every cap and step count alike.
    monkeypatch.setattr(opt, "_JOINT_GAMMA_CAP", 3)
    monkeypatch.setattr(opt, "_GAMMA_BISECTION_STEPS", 4)
    infeasible = 0
    for dataset in instances(50, 7):
        branches = branches_of(dataset)
        bases = bases_of(branches)
        for gamma in GAMMAS:
            got = opt._best_joint_windows(branches, bases, gamma, 4)
            assert got == loop_joint_windows(branches, bases, gamma, 4)
        if got is None:
            infeasible += 1
            assert opt._max_achievable_sufficiency_gamma(branches, bases) == loop_max_gamma(
                branches, bases
            )
    assert infeasible >= 5


def test_sweep_blocks_do_not_change_values(monkeypatch):
    for dataset in instances(8, 5):
        branches = branches_of(dataset)
        for which, base in bases_of(branches).items():
            for gamma in GAMMAS:
                uppers = opt._designations(base, gamma, 100)
                whole = opt._family_sweep_values(branches, which, gamma, uppers)
                # Blocks of a few rows, the last one short.
                monkeypatch.setattr(opt, "_SWEEP_BLOCK_ELEMENTS", 40)
                rows = opt._family_sweep_values(branches, which, gamma, uppers)
                monkeypatch.undo()
                assert np.array_equal(whole, rows)


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
