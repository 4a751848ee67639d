"""Utility-maximal decision rules under a group fairness constraint.

The search spaces are the rule families that are optimal for each criterion:
group-specific thresholds with boundary randomization (independence,
separation and their relaxations, possibly mixed per group for joint
TPR/FPR constraints) and group-specific lower- or upper-bound intervals
(sufficiency and its relaxations).

The single-family optimizers are exact over the continuum of rules. They
rest on two observations. First, per group the achievable (rate, utility)
pairs form a piecewise-linear path whose vertices are the distinct score
atoms: boundary randomization interpolates linearly between consecutive
atom cuts. Second, the constraint "worst cross-group rate ratio >= gamma"
holds iff all group rates fit in a window [gamma * U, U] for some U, and as
U slides the best total utility is piecewise-linear convex between the
finitely many breakpoints where a window edge crosses a path vertex, so
scanning breakpoints is exact.

Joint TPR+FPR constraints are solved as a linear program over weights on
the per-group ROC staircase vertices; the achieved per-group target is then
realized as a mixture of at most two threshold rules (every point in the
convex hull of a connected curve is a combination of two curve points).
PPV and FOR are ratios of prefix quantities, so their parity windows become
linear inequalities in the boundary randomization and the per-window search
stays exact; window positions are scanned over all vertex and grid values.
"""

from __future__ import annotations

import bisect
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .metrics import _family_ratio
from .model import (
    CriterionKind,
    Dataset,
    DecisionRule,
    FairnessCriterion,
    GroupCut,
    GroupInterval,
    GroupThreshold,
    IntervalCut,
    Mixture,
    SingleThreshold,
    StratifiedGroupThreshold,
    UtilityMatrix,
)

GRID_STEP_ENV = "FAIRGATE_GRID_STEP"


class InfeasibleConstraintError(ValueError):
    """No rule in the family satisfies the constraint at the requested gamma."""

    def __init__(self, message: str, max_achievable_gamma: float | None = None):
        super().__init__(message)
        self.max_achievable_gamma = max_achievable_gamma


class DegenerateStratificationError(ValueError):
    """Every stratum is below the minimum size; nothing can be constrained."""


class MissingClassWarning(UserWarning):
    """A group lacks an outcome class; that family constraint is skipped for it."""


class SmallStratumWarning(UserWarning):
    """A stratum below the minimum per-group size is left unconstrained."""


def default_grid_step() -> float:
    """Grid resolution for oracle and mixture enumeration, env-overridable."""
    raw = os.environ.get(GRID_STEP_ENV)
    if raw is None:
        return 1e-3
    step = float(raw)
    if not 0.0 < step <= 0.5:
        raise ValueError(f"{GRID_STEP_ENV} must be in (0, 0.5], got {raw}")
    return step


@dataclass(frozen=True)
class OptimizationProblem:
    """A constrained utility-maximization instance on a training split."""

    dataset: Dataset
    utility: UtilityMatrix
    criterion: FairnessCriterion
    min_count: int = 30
    grid_step: float = field(default_factory=default_grid_step)

    def __post_init__(self) -> None:
        if len(self.dataset.groups) < 2:
            raise ValueError("fairness optimization needs at least two groups")
        self.dataset.require_scores()


def _stratum_group_rows(
    dataset: Dataset, names: Sequence[str]
) -> Iterator[tuple[tuple[str, ...], dict[str, np.ndarray]]]:
    """Each stratum, sorted, with the row indices of every group present in it.

    Groups come in order of their first record in the stratum.
    """
    stratum_codes, strata = dataset.strata(names)
    group_codes = dataset.columns.group_codes
    for i, stratum in enumerate(strata):
        rows = np.flatnonzero(stratum_codes == i)
        present, first = np.unique(group_codes[rows], return_index=True)
        yield stratum, {
            dataset.groups[c]: rows[group_codes[rows] == c] for c in present[np.argsort(first)]
        }


# ---------------------------------------------------------------------------
# Per-group ladders: prefix sums over score atoms in acceptance order
# ---------------------------------------------------------------------------


@dataclass
class _Ladder:
    """Cumulative counts and payoffs when accepting the first j score atoms."""

    group: str
    scores: np.ndarray  # distinct scores in acceptance order
    descending: bool
    cum_count: np.ndarray  # length k+1
    cum_pos: np.ndarray
    cum_du: np.ndarray  # cumulative sum of u(1,y) - u(0,y)
    n: int
    n_pos: int

    @property
    def n_neg(self) -> int:
        return self.n - self.n_pos

    def _edge(self, j: int, q: float) -> tuple[float, float]:
        """Cut score and boundary probability accepting j full atoms plus fraction q."""
        if q == 0.0:
            if j == 0:
                return float(self.scores[0]), 0.0
            return float(self.scores[j - 1]), 1.0
        if j >= len(self.scores):
            raise ValueError("fractional acceptance beyond the last atom")
        return float(self.scores[j]), float(q)

    def cut(self, j: int, q: float) -> GroupCut:
        """Threshold cut accepting j full atoms plus fraction q of the next."""
        if not self.descending:
            raise ValueError("threshold cuts only exist on descending ladders")
        return GroupCut(*self._edge(j, q))

    def interval_cut(self, j: int, q: float) -> IntervalCut:
        """Interval cut for this ladder's branch (lower form if descending)."""
        edge, boundary = self._edge(j, q)
        if self.descending:
            return IntervalCut(low=edge, high=1.0, boundary=boundary)
        return IntervalCut(low=0.0, high=edge, boundary=boundary)


def _build_ladder(
    group: str, dataset: Dataset, rows: np.ndarray, utility: UtilityMatrix, descending: bool = True
) -> _Ladder:
    scores = dataset.columns.scores[rows]
    labels = dataset.columns.labels[rows].astype(float)
    du = np.where(
        labels == 1.0, utility.u(1, 1) - utility.u(0, 1), utility.u(1, 0) - utility.u(0, 0)
    )
    uniq, inverse = np.unique(scores, return_inverse=True)
    k = len(uniq)
    atom_count = np.bincount(inverse, minlength=k).astype(float)
    atom_pos = np.bincount(inverse, weights=labels, minlength=k)
    atom_du = np.bincount(inverse, weights=du, minlength=k)
    if descending:
        atom_count, atom_pos, atom_du = atom_count[::-1], atom_pos[::-1], atom_du[::-1]
        uniq = uniq[::-1]
    zero = np.zeros(1)
    return _Ladder(
        group=group,
        scores=uniq,
        descending=descending,
        cum_count=np.concatenate([zero, np.cumsum(atom_count)]),
        cum_pos=np.concatenate([zero, np.cumsum(atom_pos)]),
        cum_du=np.concatenate([zero, np.cumsum(atom_du)]),
        n=len(rows),
        n_pos=int(round(float(labels.sum()))),
    )


def _ladders(
    dataset: Dataset, utility: UtilityMatrix, descending: bool = True
) -> dict[str, _Ladder]:
    """The ladder of every group, in the order of ``dataset.groups``."""
    codes = dataset.columns.group_codes
    return {
        g: _build_ladder(g, dataset, np.flatnonzero(codes == i), utility, descending)
        for i, g in enumerate(dataset.groups)
    }


def _family_rates(ladder: _Ladder, family: str) -> np.ndarray | None:
    """Vertex rates of one family along the ladder; None when undefined."""
    if family == "positive_rate":
        return ladder.cum_count / ladder.n
    if family == "tpr":
        if ladder.n_pos == 0:
            return None
        return ladder.cum_pos / ladder.n_pos
    if family == "fpr":
        if ladder.n_neg == 0:
            return None
        return (ladder.cum_count - ladder.cum_pos) / ladder.n_neg
    raise ValueError(f"unknown rate family {family!r}")


# ---------------------------------------------------------------------------
# Exact single-family window sweep
# ---------------------------------------------------------------------------


class _RangeArgmax:
    """Sparse table answering range-argmax queries in O(1), leftmost on ties."""

    def __init__(self, values: np.ndarray):
        self.values = values
        n = len(values)
        levels = [np.arange(n)]
        length = 1
        while 2 * length <= n:
            prev = levels[-1]
            left = prev[: n - 2 * length + 1]
            right = prev[length : n - length + 1]
            take_left = values[left] >= values[right]
            levels.append(np.where(take_left, left, right))
            length *= 2
        self.levels = levels

    def query(self, lo: int, hi: int) -> int:
        """Index of the maximum over the inclusive range [lo, hi]."""
        span = hi - lo + 1
        level = span.bit_length() - 1
        length = 1 << level
        a = int(self.levels[level][lo])
        b = int(self.levels[level][hi - length + 1])
        return a if self.values[a] >= self.values[b] else b


@dataclass
class _PathChoice:
    """One point on a group's path: j accepted atoms plus fraction q."""

    j: int
    q: float
    rate: float
    util: float

    @property
    def deterministic(self) -> bool:
        return self.q in (0.0, 1.0)


@dataclass
class _FamilyPath:
    """A group's vertex rates and utilities for one constrained family."""

    ladder: _Ladder
    rates: np.ndarray  # non-decreasing, rates[0] = 0, rates[-1] = 1
    utils: np.ndarray
    argmax: _RangeArgmax

    @classmethod
    def build(cls, ladder: _Ladder, family: str) -> "_FamilyPath | None":
        rates = _family_rates(ladder, family)
        if rates is None:
            return None
        return cls(ladder, rates, ladder.cum_du, _RangeArgmax(ladder.cum_du))

    def best_in_window(self, lo: float, hi: float) -> _PathChoice | None:
        """Max-utility path point with rate in [lo, hi]; None if unreachable.

        Utility is linear in the randomization fraction along each segment,
        so the maximum over the window is attained at a vertex inside it or
        where a segment crosses a window edge.
        """
        rates, utils = self.rates, self.utils
        candidates: list[_PathChoice] = []
        left = bisect.bisect_left(rates, lo)
        right = bisect.bisect_right(rates, hi) - 1
        if left <= right:
            idx = self.argmax.query(left, right)
            candidates.append(_PathChoice(idx, 0.0, float(rates[idx]), float(utils[idx])))
        for edge in (lo, hi):
            pos = bisect.bisect_left(rates, edge)
            if pos < len(rates) and rates[pos] == edge:
                continue  # a vertex sits exactly on the edge
            if 0 < pos < len(rates):
                span = rates[pos] - rates[pos - 1]
                if span > 0.0:
                    q = (edge - rates[pos - 1]) / span
                    util = utils[pos - 1] + q * (utils[pos] - utils[pos - 1])
                    candidates.append(_PathChoice(pos - 1, float(q), edge, float(util)))
        if not candidates:
            return None
        return max(candidates, key=lambda c: (c.util, c.deterministic, c.rate))

    def best_overall(self) -> _PathChoice:
        idx = self.argmax.query(0, len(self.rates) - 1)
        return _PathChoice(idx, 0.0, float(self.rates[idx]), float(self.utils[idx]))


def _sweep_single_family(
    constrained: Mapping[str, _FamilyPath],
    free_utility: float,
    gamma: float,
) -> tuple[float, dict[str, _PathChoice]]:
    """Exact max over window positions; returns raw utility and choices."""
    if gamma == 0.0:
        choices = {g: path.best_overall() for g, path in constrained.items()}
        total = free_utility + sum(c.util for c in choices.values())
        return total, choices

    candidates: set[float] = {0.0, 1.0}
    for path in constrained.values():
        for r in path.rates:
            r = float(r)
            candidates.add(r)
            scaled = r / gamma
            if scaled <= 1.0:
                candidates.add(scaled)

    best_key: tuple | None = None
    best: tuple[float, dict[str, _PathChoice]] | None = None
    for upper in sorted(candidates):
        lower = gamma * upper
        choices: dict[str, _PathChoice] = {}
        feasible = True
        for g, path in constrained.items():
            choice = path.best_in_window(lower, upper)
            if choice is None:
                feasible = False
                break
            choices[g] = choice
        if not feasible:
            continue
        total = free_utility + sum(c.util for c in choices.values())
        achieved = _family_ratio(c.rate for c in choices.values())
        n_random = sum(0 if c.deterministic else 1 for c in choices.values())
        rate_sum = sum(c.rate for c in choices.values())
        key = (total, achieved, -n_random, rate_sum)
        if best_key is None or key > best_key:
            best_key = key
            best = (total, choices)
    if best is None:
        raise InfeasibleConstraintError("no window satisfies the rate-ratio constraint")
    return best


# ---------------------------------------------------------------------------
# Unconstrained rule
# ---------------------------------------------------------------------------


def optimize_unconstrained(dataset: Dataset | None, utility: UtilityMatrix) -> DecisionRule:
    """Single threshold at the score where accepting and rejecting break even.

    Accepting beats rejecting iff p * (u(1,1)-u(0,1)) >= (1-p) * (u(0,0)-u(1,0)),
    so the optimal threshold is the crossing point of the two expected
    payoffs, clamped to [0, 1]; degenerate payoffs give accept- or reject-all.
    """
    gain_pos = utility.u(1, 1) - utility.u(0, 1)
    gain_neg = utility.u(0, 0) - utility.u(1, 0)
    denom = gain_pos + gain_neg
    if denom <= 0.0:
        # The matrix invariant leaves one profitable side; take it everywhere.
        if gain_pos > 0.0:
            return SingleThreshold(0.0, boundary=1.0)
        return SingleThreshold(1.0, boundary=0.0)
    tau = gain_neg / denom
    if tau <= 0.0:
        return SingleThreshold(0.0, boundary=1.0)
    if tau >= 1.0:
        return SingleThreshold(1.0, boundary=0.0)
    return SingleThreshold(float(tau), boundary=1.0)


# ---------------------------------------------------------------------------
# Independence and single-sided separation
# ---------------------------------------------------------------------------


def _threshold_rule_from_choices(
    ladders: Mapping[str, _Ladder], choices: Mapping[str, _PathChoice]
) -> GroupThreshold:
    return GroupThreshold(
        {g: ladders[g].cut(choices[g].j, choices[g].q) for g in sorted(choices)}
    )


def optimize_independence(problem: OptimizationProblem) -> DecisionRule:
    """Group thresholds maximizing utility with positive rates within gamma."""
    ladders = _ladders(problem.dataset, problem.utility)
    paths = {g: _FamilyPath.build(ladder, "positive_rate") for g, ladder in ladders.items()}
    _, choices = _sweep_single_family(paths, 0.0, problem.criterion.gamma)
    return _threshold_rule_from_choices(ladders, choices)


def _single_sided_separation(problem: OptimizationProblem, family: str) -> DecisionRule:
    ladders = _ladders(problem.dataset, problem.utility)
    constrained: dict[str, _FamilyPath] = {}
    free_utility = 0.0
    free_choices: dict[str, _PathChoice] = {}
    for g, ladder in ladders.items():
        path = _FamilyPath.build(ladder, family)
        if path is None:
            warnings.warn(
                f"group {g!r} has no records with the conditioning outcome; "
                f"{family} constraint skipped for it",
                MissingClassWarning,
                stacklevel=3,
            )
            fallback = _FamilyPath.build(ladder, "positive_rate")
            free_choices[g] = fallback.best_overall()
            free_utility += free_choices[g].util
            continue
        constrained[g] = path
    if not constrained:
        raise InfeasibleConstraintError(f"no group has a defined {family}")
    _, choices = _sweep_single_family(constrained, free_utility, problem.criterion.gamma)
    choices.update(free_choices)
    return _threshold_rule_from_choices(ladders, choices)


# ---------------------------------------------------------------------------
# Joint TPR+FPR constraints (separation): LP over staircase vertices
# ---------------------------------------------------------------------------


def _staircase(ladder: _Ladder) -> tuple[np.ndarray, np.ndarray]:
    """(fpr, tpr) of every prefix cut; degenerate classes map to zeros."""
    fpr = (
        (ladder.cum_count - ladder.cum_pos) / ladder.n_neg
        if ladder.n_neg > 0
        else np.zeros_like(ladder.cum_count)
    )
    tpr = ladder.cum_pos / ladder.n_pos if ladder.n_pos > 0 else np.zeros_like(ladder.cum_count)
    return fpr, tpr


def _hull_chains(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper convex hull chains of a 2-D point set, sorted by x.

    Vertical hull edges are collapsed so each chain holds one point per x:
    the minimum y on the lower chain, the maximum on the upper. The chains
    then define the y-range of the hull at any x in its span.
    """

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)

    def dedupe(chain: list[np.ndarray], keep_max: bool) -> np.ndarray:
        by_x: dict[float, float] = {}
        for p in chain:
            x, y = float(p[0]), float(p[1])
            if x not in by_x or (y > by_x[x]) == keep_max:
                by_x[x] = y
        return np.array(sorted(by_x.items()))

    return dedupe(lower, keep_max=False), dedupe(upper[::-1], keep_max=True)


def _chain_value(chain: np.ndarray, x: float) -> float:
    xs = chain[:, 0]
    pos = int(np.searchsorted(xs, x))
    if pos < len(xs) and xs[pos] == x:
        return float(chain[pos, 1])
    lo, hi = chain[pos - 1], chain[pos]
    t = (x - lo[0]) / (hi[0] - lo[0])
    return float(lo[1] + t * (hi[1] - lo[1]))


def _decompose_on_path(path: np.ndarray, target: np.ndarray) -> list[tuple[int, float, float]]:
    """Express a hull point as a convex mix of at most two path points.

    Returns [(segment index, fraction along segment, mixture weight), ...].
    The path is the monotone staircase; a point strictly inside its hull lies
    on a chord from one staircase vertex through the target to another path
    point, so anchoring one end at each vertex in turn always succeeds.
    """
    # On-path check first: a single (possibly randomized) cut suffices.
    for i in range(len(path) - 1):
        a, b = path[i], path[i + 1]
        seg = b - a
        if abs(seg[0]) >= abs(seg[1]):
            if seg[0] == 0.0:
                if np.allclose(a, target, atol=1e-12):
                    return [(i, 0.0, 1.0)]
                continue
            q = (target[0] - a[0]) / seg[0]
        else:
            q = (target[1] - a[1]) / seg[1]
        if -1e-12 <= q <= 1.0 + 1e-12:
            q = min(max(q, 0.0), 1.0)
            if np.allclose(a + q * seg, target, atol=1e-9):
                return [(i, float(q), 1.0)]
    # Chord search: anchor one end at a vertex, intersect the ray through the
    # target with the rest of the path.
    for anchor in range(len(path)):
        a = path[anchor]
        d = target - a
        if float(np.hypot(d[0], d[1])) < 1e-14:
            seg_idx = min(anchor, len(path) - 2)
            return [(seg_idx, 1.0 if seg_idx < anchor else 0.0, 1.0)]
        for i in range(len(path) - 1):
            p, e = path[i], path[i + 1] - path[i]
            denom = d[0] * e[1] - d[1] * e[0]
            if abs(denom) < 1e-15:
                continue
            rel = p - a
            t = (rel[0] * e[1] - rel[1] * e[0]) / denom
            u = (rel[0] * d[1] - rel[1] * d[0]) / denom
            if t < 1.0 - 1e-9 or not -1e-9 <= u <= 1.0 + 1e-9:
                continue
            u = min(max(u, 0.0), 1.0)
            other = p + u * e
            weight_other = 1.0 / t
            achieved = (1.0 - weight_other) * a + weight_other * other
            if np.allclose(achieved, target, atol=1e-9):
                anchor_seg = min(anchor, len(path) - 2)
                anchor_q = 0.0 if anchor < len(path) - 1 else 1.0
                return [
                    (anchor_seg, anchor_q, 1.0 - weight_other),
                    (i, float(u), weight_other),
                ]
    raise RuntimeError("could not realize the target point as two threshold rules")


def optimize_separation(
    problem: OptimizationProblem, relaxation: str | None = None
) -> DecisionRule:
    """Optimal rule with TPR and/or FPR parity at level gamma.

    ``tpr_only`` and ``fpr_only`` constrain a single family and reduce to the
    exact window sweep. ``both`` needs per-group randomization between two
    thresholds because TPR parity does not imply FPR parity; it is solved as
    an LP over the per-group ROC staircase vertices.
    """
    if relaxation is None:
        relaxation = {
            CriterionKind.SEPARATION: "both",
            CriterionKind.TPR_PARITY: "tpr_only",
            CriterionKind.FPR_PARITY: "fpr_only",
        }[problem.criterion.kind]
    if relaxation == "tpr_only":
        return _single_sided_separation(problem, "tpr")
    if relaxation == "fpr_only":
        return _single_sided_separation(problem, "fpr")
    if relaxation != "both":
        raise ValueError(f"unknown separation relaxation {relaxation!r}")

    gamma = problem.criterion.gamma
    ladders = _ladders(problem.dataset, problem.utility)
    groups = sorted(ladders)

    if gamma == 0.0:
        choices = {
            g: _FamilyPath.build(ladders[g], "positive_rate").best_overall() for g in groups
        }
        return _threshold_rule_from_choices(ladders, choices)

    targets = _separation_lp_targets(ladders, groups, gamma)

    cuts_first: dict[str, GroupCut] = {}
    cuts_second: dict[str, GroupCut] = {}
    mix_weights: dict[str, float] = {}
    randomized = False
    for g in groups:
        ladder = ladders[g]
        fpr, tpr = _staircase(ladder)
        path = np.column_stack([fpr, tpr])
        parts = _decompose_on_path(path, np.asarray(targets[g], dtype=float))
        if len(parts) == 1:
            seg, q, _ = parts[0]
            cut = ladder.cut(seg, q)
            cuts_first[g] = cut
            cuts_second[g] = cut
            mix_weights[g] = 1.0
        else:
            (seg_a, q_a, w_a), (seg_b, q_b, _) = parts
            cuts_first[g] = ladder.cut(seg_a, q_a)
            cuts_second[g] = ladder.cut(seg_b, q_b)
            mix_weights[g] = float(w_a)
            randomized = True
    if not randomized:
        return GroupThreshold(cuts_first)
    return Mixture(
        weights=mix_weights,
        first=GroupThreshold(cuts_first),
        second=GroupThreshold(cuts_second),
    )


def _separation_lp_targets(
    ladders: Mapping[str, _Ladder], groups: Sequence[str], gamma: float
) -> dict[str, tuple[float, float]]:
    """Per-group (FPR, TPR) targets solving the joint parity program."""
    from scipy.optimize import linprog

    staircases = {g: _staircase(ladders[g]) for g in groups}
    tpr_groups = [g for g in groups if ladders[g].n_pos > 0]
    fpr_groups = [g for g in groups if ladders[g].n_neg > 0]
    for g in groups:
        if g not in tpr_groups or g not in fpr_groups:
            missing = "positive" if g not in tpr_groups else "negative"
            warnings.warn(
                f"group {g!r} has no {missing} outcomes; that family constraint "
                "is skipped for it",
                MissingClassWarning,
                stacklevel=3,
            )

    sizes = [len(ladders[g].cum_du) for g in groups]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    total = int(offsets[-1])
    c = -np.concatenate([ladders[g].cum_du for g in groups])

    a_eq = np.zeros((len(groups), total))
    for gi in range(len(groups)):
        a_eq[gi, offsets[gi] : offsets[gi + 1]] = 1.0
    b_eq = np.ones(len(groups))

    exact = gamma >= 1.0 - 1e-9
    # A small margin keeps solver tolerance from leaking below gamma.
    gamma_lp = 1.0 if exact else min(gamma + 1e-6, 1.0)

    rows = []
    for family, members in (("tpr", tpr_groups), ("fpr", fpr_groups)):
        coef = {
            g: (staircases[g][1] if family == "tpr" else staircases[g][0]) for g in members
        }
        for g in members:
            for h in members:
                if g == h:
                    continue
                row = np.zeros(total)
                gi, hi = groups.index(g), groups.index(h)
                row[offsets[gi] : offsets[gi + 1]] = -coef[g]
                row[offsets[hi] : offsets[hi + 1]] = gamma_lp * coef[h]
                rows.append(row)
    a_ub = np.array(rows) if rows else None
    b_ub = np.zeros(len(rows)) if rows else None

    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not result.success:
        raise InfeasibleConstraintError(f"separation program failed: {result.message}")

    achieved: dict[str, tuple[float, float]] = {}
    for gi, g in enumerate(groups):
        w = result.x[offsets[gi] : offsets[gi + 1]]
        fpr, tpr = staircases[g]
        achieved[g] = (float(w @ fpr), float(w @ tpr))

    if not exact:
        return achieved

    # Snap to one shared target so parity is exact rather than within solver
    # tolerance. The diagonal point (f, f) lies in every hull (reject-all and
    # accept-all are common staircase vertices), so the window never empties.
    both = [g for g in groups if g in tpr_groups and g in fpr_groups]
    anchor = both if both else list(groups)
    f_star = min(max(float(np.mean([achieved[g][0] for g in anchor])), 0.0), 1.0)
    lo, hi = 0.0, 1.0
    for g in anchor:
        fpr, tpr = staircases[g]
        lower, upper = _hull_chains(np.column_stack([fpr, tpr]))
        lo = max(lo, _chain_value(lower, f_star))
        hi = min(hi, _chain_value(upper, f_star))
    lo, hi = min(lo, f_star), max(hi, f_star)
    t_star = min(max(float(np.mean([achieved[g][1] for g in anchor])), lo), hi)

    targets: dict[str, tuple[float, float]] = {}
    for g in groups:
        if g in both:
            targets[g] = (f_star, t_star)
        elif g in fpr_groups:
            targets[g] = _project_to_family(ladders[g], "fpr", f_star)
        else:
            targets[g] = _project_to_family(ladders[g], "tpr", t_star)
    return targets


def _project_to_family(ladder: _Ladder, family: str, value: float) -> tuple[float, float]:
    """Best path point whose constrained-family rate equals ``value`` exactly."""
    path = _FamilyPath.build(ladder, family)
    choice = path.best_in_window(value, value)
    if choice is None:
        raise InfeasibleConstraintError(
            f"group {ladder.group!r} cannot reach {family} = {value}"
        )
    fpr, tpr = _staircase(ladder)
    j, q = choice.j, choice.q
    if q == 0.0:
        return float(fpr[j]), float(tpr[j])
    return (
        float(fpr[j] + q * (fpr[j + 1] - fpr[j])),
        float(tpr[j] + q * (tpr[j + 1] - tpr[j])),
    )


# ---------------------------------------------------------------------------
# Sufficiency: interval rules searched over PPV / FOR windows
# ---------------------------------------------------------------------------


@dataclass
class _Branch:
    """One interval-rule branch of a group with its prefix quantities."""

    ladder: _Ladder
    ep: np.ndarray  # expected accepts at each vertex
    epy: np.ndarray  # expected accepted positives
    util: np.ndarray

    @classmethod
    def build(cls, ladder: _Ladder) -> "_Branch":
        return cls(ladder, ladder.cum_count, ladder.cum_pos, ladder.cum_du)

    def values(self, which: str, ep: np.ndarray, epy: np.ndarray) -> np.ndarray:
        """PPV or FOR for arbitrary (expected accepts, accepted positives)."""
        if which == "ppv":
            num, den = epy, ep
        else:
            num, den = self.ladder.n_pos - epy, self.ladder.n - ep
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)


@dataclass
class _IntervalChoice:
    branch: _Branch
    j: int
    q: float
    util: float
    ppv: float
    forr: float

    @property
    def deterministic(self) -> bool:
        return self.q in (0.0, 1.0)


def _branch_best_in_windows(
    branch: _Branch,
    ppv_window: tuple[float, float] | None,
    for_window: tuple[float, float] | None,
) -> _IntervalChoice | None:
    """Exact max-utility point of one branch within PPV and/or FOR windows.

    PPV and FOR are ratios of quantities linear in the per-segment fraction
    q, so each window bound is one linear inequality in q; utility is linear
    in q, so only the endpoints of the feasible q-interval matter.
    """
    ep, epy, util = branch.ep, branch.epy, branch.util
    n, npos = branch.ladder.n, branch.ladder.n_pos
    k = len(ep) - 1
    if k == 0:
        return None
    ep0, dep = ep[:-1], np.diff(ep)
    epy0, depy = epy[:-1], np.diff(epy)
    u0, du = util[:-1], np.diff(util)

    qlo = np.zeros(k)
    qhi = np.ones(k)
    dead = np.zeros(k, dtype=bool)

    def apply(coef: np.ndarray, bound: np.ndarray) -> None:
        # Intersect the q-set of coef * q >= bound into [qlo, qhi].
        nonlocal qlo, qhi, dead
        pos = coef > 0
        neg = coef < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(coef != 0.0, bound / np.where(coef != 0.0, coef, 1.0), 0.0)
        qlo = np.where(pos, np.maximum(qlo, ratio), qlo)
        qhi = np.where(neg, np.minimum(qhi, ratio), qhi)
        dead |= (~pos & ~neg) & (bound > 0.0)

    tiny = 1e-12
    if ppv_window is not None:
        p_lo, p_hi = ppv_window
        apply(depy - p_lo * dep, p_lo * ep0 - epy0)
        apply(p_hi * dep - depy, epy0 - p_hi * ep0)
        qlo = np.where(ep0 == 0.0, np.maximum(qlo, tiny), qlo)  # PPV needs mass
    if for_window is not None:
        f_lo, f_hi = for_window
        rej0, drej = n - ep0, -dep
        ry0, dry = npos - epy0, -depy
        apply(dry - f_lo * drej, f_lo * rej0 - ry0)
        apply(f_hi * drej - dry, ry0 - f_hi * rej0)
        full = ep0 + dep >= n
        qhi = np.where(full, np.minimum(qhi, 1.0 - tiny), qhi)  # FOR needs rejects

    feasible = ~dead & (qlo <= qhi + 1e-15)
    if not feasible.any():
        return None
    best: _IntervalChoice | None = None
    for j in np.nonzero(feasible)[0]:
        for q in (float(qlo[j]), float(qhi[j])):
            q = min(max(q, 0.0), 1.0)
            e = ep0[j] + q * dep[j]
            if e <= 0.0 and ppv_window is not None:
                continue
            if n - e <= 0.0 and for_window is not None:
                continue
            value = u0[j] + q * du[j]
            ey = epy0[j] + q * depy[j]
            p = ey / e if e > 0.0 else float("nan")
            f = (npos - ey) / (n - e) if n - e > 0.0 else float("nan")
            cand = _IntervalChoice(branch, int(j), q, float(value), float(p), float(f))
            if best is None or (cand.util, cand.deterministic) > (best.util, best.deterministic):
                best = cand
    return best


def _group_best_in_windows(
    branches: Sequence[_Branch],
    ppv_window: tuple[float, float] | None,
    for_window: tuple[float, float] | None,
) -> _IntervalChoice | None:
    best: _IntervalChoice | None = None
    for branch in branches:
        cand = _branch_best_in_windows(branch, ppv_window, for_window)
        if cand is not None and (best is None or cand.util > best.util):
            best = cand
    return best


def _branch_point_values(branch: _Branch, which: str, qs: np.ndarray) -> np.ndarray:
    """Family values at every vertex and every grid point of every segment."""
    vertex = branch.values(which, branch.ep, branch.epy)
    out = [vertex[~np.isnan(vertex)]]
    k = len(branch.ep) - 1
    if k > 0 and len(qs) > 0:
        ep = branch.ep[:-1, None] + np.diff(branch.ep)[:, None] * qs[None, :]
        epy = branch.epy[:-1, None] + np.diff(branch.epy)[:, None] * qs[None, :]
        grid = branch.values(which, ep, epy)
        out.append(grid[~np.isnan(grid)].ravel())
    return np.concatenate(out)


def _designations(
    branches_by_group: Mapping[str, Sequence[_Branch]],
    which: str,
    gamma: float,
    grid_step: float,
    cap: int,
) -> np.ndarray:
    """Candidate window upper bounds for one family across all groups."""
    qs = np.arange(grid_step, 1.0, grid_step)
    if len(qs) * max(len(b.ep) for bs in branches_by_group.values() for b in bs) > 500_000:
        qs = np.linspace(0.0, 1.0, 65)[1:-1]
    values = [
        _branch_point_values(branch, which, qs)
        for branches in branches_by_group.values()
        for branch in branches
    ]
    merged = np.unique(np.concatenate(values))
    if gamma > 0.0:
        scaled = merged / gamma
        merged = np.unique(np.concatenate([merged, scaled[scaled <= 1.0]]))
    merged = merged[(merged >= 0.0) & (merged <= 1.0)]
    if len(merged) > cap:
        take = np.unique(np.linspace(0, len(merged) - 1, cap).astype(int))
        merged = merged[take]
    return merged


def _family_sweep_values(
    branches_by_group: Mapping[str, Sequence[_Branch]],
    which: str,
    gamma: float,
    uppers: np.ndarray,
) -> np.ndarray:
    """Best total utility for each window [gamma*u, u]; -inf where infeasible.

    Vectorized: edge crossings are solved in one batch per group (the q at
    which the family value hits an edge is a linear solve), and vertex maxima
    use a monotone deque over the ascending windows.
    """
    d = len(uppers)
    totals = np.zeros(d)
    feasible = np.ones(d, dtype=bool)
    lowers = gamma * uppers
    for branches in branches_by_group.values():
        group_best = np.full(d, -np.inf)
        for branch in branches:
            ep, epy, util = branch.ep, branch.epy, branch.util
            n, npos = branch.ladder.n, branch.ladder.n_pos
            k = len(ep) - 1
            vertex_vals = branch.values(which, ep, epy)
            # Vertex maxima via a sliding monotone deque over ascending windows.
            order = np.argsort(vertex_vals, kind="stable")
            order = order[~np.isnan(vertex_vals[order])]
            sorted_vals = vertex_vals[order]
            sorted_utils = util[order]
            dq: deque[int] = deque()
            add = 0
            drop = 0
            dropped: set[int] = set()
            vertex_best = np.full(d, -np.inf)
            for di in range(d):
                hi, lo = uppers[di], lowers[di]
                while add < len(sorted_vals) and sorted_vals[add] <= hi:
                    while dq and sorted_utils[dq[-1]] <= sorted_utils[add]:
                        dq.pop()
                    dq.append(add)
                    add += 1
                while drop < len(sorted_vals) and sorted_vals[drop] < lo:
                    dropped.add(drop)
                    drop += 1
                while dq and dq[0] in dropped:
                    dq.popleft()
                if dq:
                    vertex_best[di] = sorted_utils[dq[0]]
            group_best = np.maximum(group_best, vertex_best)
            if k == 0:
                continue
            ep0, dep = ep[:-1], np.diff(ep)
            epy0, depy = epy[:-1], np.diff(epy)
            u0, du = util[:-1], np.diff(util)
            if which == "ppv":
                num0, dnum, den0, dden = epy0, depy, ep0, dep
            else:
                num0, dnum = npos - epy0, -depy
                den0, dden = n - ep0, -dep
            # Edge crossings: q solving value(q) = edge, batched over segments.
            for edges in (lowers, uppers):
                e_col = edges[:, None]
                denom = dnum[None, :] - e_col * dden[None, :]
                numer = e_col * den0[None, :] - num0[None, :]
                with np.errstate(divide="ignore", invalid="ignore"):
                    q = np.where(denom != 0.0, numer / np.where(denom != 0.0, denom, 1.0), np.nan)
                den_at_q = den0[None, :] + q * dden[None, :]
                valid = (q >= 0.0) & (q <= 1.0) & (den_at_q > 0.0)
                crossing_util = np.where(valid, u0[None, :] + q * du[None, :], -np.inf)
                group_best = np.maximum(group_best, crossing_util.max(axis=1))
            # Segments with a constant value have no crossing; they serve the
            # whole designation range [v, v/gamma] at their best endpoint
            # utility (open endpoints count: the value holds arbitrarily close).
            flat = dnum * den0 == num0 * dden
            den1 = den0 + dden
            end0_ok = (den0 > 0.0) | (dden > 0.0)
            end1_ok = (den1 > 0.0) | (dden < 0.0)
            for j in np.nonzero(flat)[0]:
                cands = []
                if end0_ok[j]:
                    cands.append(u0[j])
                if end1_ok[j]:
                    cands.append(u0[j] + du[j])
                if not cands:
                    continue
                probe_q = 0.5 if den0[j] + 0.5 * dden[j] > 0.0 else (0.0 if den0[j] > 0 else 1.0)
                den_probe = den0[j] + probe_q * dden[j]
                if den_probe <= 0.0:
                    continue
                v = (num0[j] + probe_q * dnum[j]) / den_probe
                lo_i = int(np.searchsorted(uppers, v, side="left"))
                hi_i = int(np.searchsorted(uppers, v / gamma, side="right"))
                if lo_i < hi_i:
                    seg_util = max(cands)
                    np.maximum(
                        group_best[lo_i:hi_i], seg_util, out=group_best[lo_i:hi_i]
                    )
        totals += np.where(np.isfinite(group_best), group_best, 0.0)
        feasible &= np.isfinite(group_best)
    return np.where(feasible, totals, -np.inf)


def _interval_rule(choices: Mapping[str, _IntervalChoice]) -> GroupInterval:
    return GroupInterval(
        {
            g: choices[g].branch.ladder.interval_cut(choices[g].j, choices[g].q)
            for g in sorted(choices)
        }
    )


def optimize_sufficiency(
    problem: OptimizationProblem, relaxation: str | None = None
) -> DecisionRule:
    """Optimal interval rules with PPV and/or FOR parity at level gamma.

    For each candidate window position the per-group search is exact (window
    edges become linear inequalities in the boundary randomization). Window
    positions are scanned over every vertex and grid rate value, so the
    result dominates a grid search at the configured resolution. Joint
    PPV+FOR parity can be genuinely infeasible; the error then reports the
    highest achievable gamma found.
    """
    if relaxation is None:
        relaxation = {
            CriterionKind.SUFFICIENCY: "both",
            CriterionKind.PPV_PARITY: "ppv_only",
            CriterionKind.FOR_PARITY: "for_only",
        }[problem.criterion.kind]
    if relaxation not in ("both", "ppv_only", "for_only"):
        raise ValueError(f"unknown sufficiency relaxation {relaxation!r}")
    gamma = problem.criterion.gamma

    ascending = _ladders(problem.dataset, problem.utility, descending=False)
    branches_by_group: dict[str, list[_Branch]] = {
        g: [_Branch.build(ladder), _Branch.build(ascending[g])]
        for g, ladder in _ladders(problem.dataset, problem.utility).items()
    }

    if gamma == 0.0:
        choices = {
            g: _group_best_in_windows(branches, None, None)
            for g, branches in branches_by_group.items()
        }
        return _interval_rule(choices)

    use_ppv = relaxation in ("both", "ppv_only")
    use_for = relaxation in ("both", "for_only")

    if use_ppv and use_for:
        windows = _best_joint_windows(branches_by_group, gamma, problem.grid_step)
    else:
        which = "ppv" if use_ppv else "for"
        uppers = _designations(branches_by_group, which, gamma, problem.grid_step, cap=4096)
        values = _family_sweep_values(branches_by_group, which, gamma, uppers)
        order = np.argsort(values, kind="stable")
        best_di = int(order[-1])
        if not np.isfinite(values[best_di]):
            windows = None
        else:
            up = float(uppers[best_di])
            windows = ((gamma * up, up) if use_ppv else None, (gamma * up, up) if use_for else None)

    if windows is None:
        max_gamma = _max_achievable_sufficiency_gamma(
            branches_by_group, use_ppv, use_for, problem.grid_step
        )
        raise InfeasibleConstraintError(
            f"no interval rule reaches gamma = {gamma:g}; "
            f"highest achievable level found: {max_gamma:.6f}",
            max_achievable_gamma=max_gamma,
        )
    ppv_window, for_window = windows
    choices = {
        g: _group_best_in_windows(branches, ppv_window, for_window)
        for g, branches in branches_by_group.items()
    }
    if any(c is None for c in choices.values()):
        raise InfeasibleConstraintError("window reconstruction failed")  # pragma: no cover
    return _interval_rule(choices)


def _best_joint_windows(
    branches_by_group: Mapping[str, Sequence[_Branch]],
    gamma: float,
    grid_step: float,
    cap: int = 56,
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Best (PPV window, FOR window) pair for joint parity; None if infeasible."""
    p_des = _designations(branches_by_group, "ppv", gamma, grid_step, cap=cap)
    f_des = _designations(branches_by_group, "for", gamma, grid_step, cap=cap)
    best_key: tuple | None = None
    best: tuple[tuple[float, float], tuple[float, float]] | None = None
    for p_up in p_des:
        pw = (gamma * float(p_up), float(p_up))
        for f_up in f_des:
            fw = (gamma * float(f_up), float(f_up))
            total = 0.0
            ok = True
            for branches in branches_by_group.values():
                cand = _group_best_in_windows(branches, pw, fw)
                if cand is None:
                    ok = False
                    break
                total += cand.util
            if ok and (best_key is None or total > best_key):
                best_key = total
                best = (pw, fw)
    return best


def _max_achievable_sufficiency_gamma(
    branches_by_group: Mapping[str, Sequence[_Branch]],
    use_ppv: bool,
    use_for: bool,
    grid_step: float,
) -> float:
    def feasible(g_val: float) -> bool:
        if g_val <= 0.0:
            return True
        if use_ppv and use_for:
            return _best_joint_windows(branches_by_group, g_val, grid_step, cap=40) is not None
        which = "ppv" if use_ppv else "for"
        uppers = _designations(branches_by_group, which, g_val, grid_step, cap=512)
        values = _family_sweep_values(branches_by_group, which, g_val, uppers)
        return bool(np.isfinite(values).any())

    lo, hi = 0.0, 1.0
    if feasible(1.0):
        return 1.0
    for _ in range(25):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Conditional statistical parity
# ---------------------------------------------------------------------------


def optimize_conditional_parity(
    problem: OptimizationProblem, legit_names: Sequence[str] | None = None
) -> DecisionRule:
    """Independence enforced independently within each legitimate stratum.

    Strata where any group falls below ``min_count`` records are left
    unconstrained (each group gets its unconstrained stratum threshold) and
    flagged with a warning.
    """
    names = tuple(legit_names) if legit_names is not None else problem.criterion.legit_names
    if not names:
        raise ValueError("conditional statistical parity needs legitimate attribute names")
    dataset, utility = problem.dataset, problem.utility
    gamma = problem.criterion.gamma

    cuts: dict[tuple[str, tuple[str, ...]], GroupCut] = {}
    any_constrained = False
    for stratum, groups_here in _stratum_group_rows(dataset, names):
        ladders = {g: _build_ladder(g, dataset, rows, utility) for g, rows in groups_here.items()}
        counts_ok = all(
            len(groups_here.get(g, ())) >= problem.min_count for g in dataset.groups
        )
        if counts_ok and len(ladders) >= 2:
            paths = {
                g: _FamilyPath.build(ladder, "positive_rate") for g, ladder in ladders.items()
            }
            _, choices = _sweep_single_family(paths, 0.0, gamma)
            any_constrained = True
        else:
            warnings.warn(
                f"stratum {'/'.join(stratum)!r} below min_count={problem.min_count} "
                "for some group; left unconstrained",
                SmallStratumWarning,
                stacklevel=2,
            )
            choices = {
                g: _FamilyPath.build(ladder, "positive_rate").best_overall()
                for g, ladder in ladders.items()
            }
        for g, choice in choices.items():
            cuts[(g, stratum)] = ladders[g].cut(choice.j, choice.q)
    if not any_constrained:
        raise DegenerateStratificationError(
            f"every stratum is below min_count={problem.min_count}; "
            "conditional parity cannot be enforced"
        )
    return StratifiedGroupThreshold(legit_names=names, cuts=cuts)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def optimize(problem: OptimizationProblem) -> DecisionRule:
    """Solve the problem with the optimizer matching its criterion kind."""
    kind = problem.criterion.kind
    if kind is CriterionKind.INDEPENDENCE:
        return optimize_independence(problem)
    if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY:
        return optimize_conditional_parity(problem)
    if kind in (CriterionKind.SEPARATION, CriterionKind.TPR_PARITY, CriterionKind.FPR_PARITY):
        return optimize_separation(problem)
    return optimize_sufficiency(problem)
