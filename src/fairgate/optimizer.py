"""Utility-maximal decision rules under a group fairness constraint.

The search spaces are the rule families that are optimal for each criterion:
group-specific thresholds with boundary randomization (independence,
separation and their relaxations, possibly mixed per group for joint
TPR/FPR constraints) and group-specific lower- or upper-bound intervals
(sufficiency and its relaxations).

Every search takes one per-group form, the ladder (``_Ladder``): prefix
sums of count, positives and utility gain over the group's distinct scores
in acceptance order. A descending ladder serves thresholds and lower-bound
intervals, an ascending one upper-bound intervals. Its ``rates`` are the
vertex rates of a threshold family and its PPV and FOR ``values`` those of
an interval family; the ROC staircase is its FPR and TPR rates.

The single-family optimizers are exact over the continuum of rules. They
rest on two observations. First, per group the achievable (rate, utility)
pairs form a piecewise-linear path whose vertices are the distinct score
atoms: boundary randomization interpolates linearly between consecutive
atom cuts. Second, the constraint "worst cross-group rate ratio >= gamma"
holds iff all group rates fit in a window [gamma * U, U] for some U, and as
U slides the best total utility is piecewise-linear convex between the
finitely many breakpoints where a window edge crosses a path vertex, so
scanning breakpoints is exact. The scan is one array pass: the candidate
uppers U (0, 1, every vertex rate and every rate over gamma up to 1) are
sorted once; per group, searchsorted places both edges of every window on
the path, a sparse table answers every window's range-argmax in one gather,
and the two edge crossings are computed as arrays. The winning window has
the largest (total utility, achieved ratio, -randomized groups, rate sum),
the smallest U among equal keys, with sums taken in group order, so the
rule does not depend on how the windows are batched.

Joint TPR+FPR constraints are solved as a linear program over weights on
the vertices of each group's ROC convex hull: per group, utility is linear
in (FPR, TPR), so no other staircase vertex can improve the optimum. A small
dense simplex (Bland's rule) solves it in-process, starting from every group
at reject-all, which is feasible at any gamma. Each group's optimal point is
then realized as one threshold cut, or as a mixture of two: every point in
the convex hull of a connected curve is a combination of two curve points,
and an O(k) angle sweep along the staircase finds them.
PPV and FOR are ratios of prefix quantities, monotone in the boundary
randomization along each segment of a group's path, so one edge rule gives
each segment's feasible interval in a window: an end whose value lies within
1e-12 of the window stays, an end outside moves to where the value crosses
the edge widened by 1e-12. One scan values every combination of candidate
windows, for one family or both, under that rule, and the winning rule is
rebuilt under it, so the search within a window is exact. The window
positions are not all scanned: the candidates are vertex and q-grid values,
subsampled to the caps named at the top of the sufficiency section, so a
sufficiency result is exact only below the caps. When the scan finds no
window, the highest level reported is found by bisection with the same scan
at the same cap, so a solve at that level returns a rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True)
class OptimizationProblem:
    """A constrained utility-maximization instance on a training split."""

    dataset: Dataset
    utility: UtilityMatrix
    criterion: FairnessCriterion
    min_count: int = 30
    grid_step: float = 1e-3

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


class _RangeArgmax:
    """Sparse table answering batches of range-argmax queries, leftmost on ties.

    Row L of ``table`` holds the leftmost argmax of each run of 2**L values
    (zero-padded past the last run). A range is covered by two such runs,
    one from each end, so a whole array of ranges is answered by one gather
    and one comparison.
    """

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
        self.table = np.zeros((len(levels), n), dtype=np.intp)
        for level, row in enumerate(levels):
            self.table[level, : len(row)] = row

    def query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Index of the maximum over each inclusive range [lo, hi], lo <= hi."""
        level = np.frexp(hi - lo + 1)[1] - 1
        a = self.table[level, lo]
        b = self.table[level, hi - (1 << level) + 1]
        return np.where(self.values[a] >= self.values[b], a, b)


@dataclass
class _Ladder:
    """Cumulative counts and payoffs when accepting the first j score atoms.

    The one per-group form every search receives. Vertex j accepts the
    first j atoms; segment j runs from vertex j to vertex j + 1, and
    accepting the fraction q of it adds q times the segment's step to each
    prefix quantity.
    """

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

    def rates(self, family: str) -> np.ndarray | None:
        """Vertex rates of one threshold family; None when the family is undefined."""
        if family == "positive_rate":
            return self.cum_count / self.n
        if family == "tpr":
            if self.n_pos == 0:
                return None
            return self.cum_pos / self.n_pos
        if family == "fpr":
            if self.n_neg == 0:
                return None
            return (self.cum_count - self.cum_pos) / self.n_neg
        raise ValueError(f"unknown rate family {family!r}")

    @cached_property
    def argmax(self) -> _RangeArgmax:
        """Range-argmax table over ``cum_du``, built when a threshold sweep first asks."""
        return _RangeArgmax(self.cum_du)

    def values(self, which: str, accepts: np.ndarray, positives: np.ndarray) -> np.ndarray:
        """PPV or FOR for arbitrary (expected accepts, accepted positives)."""
        if which == "ppv":
            num, den = positives, accepts
        else:
            num, den = self.n_pos - positives, self.n - accepts
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)

    def segments(self, which: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(num0, dnum, den0, dden): PPV or FOR is num / den, both linear in q."""
        ep0, dep = self.cum_count[:-1], np.diff(self.cum_count)
        epy0, depy = self.cum_pos[:-1], np.diff(self.cum_pos)
        if which == "ppv":
            return epy0, depy, ep0, dep
        return self.n_pos - epy0, -depy, self.n - ep0, -dep

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


# ---------------------------------------------------------------------------
# Exact single-family window sweep
# ---------------------------------------------------------------------------


def _best_in_windows(
    ladder: _Ladder, rates: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
) -> tuple:
    """Max-utility ladder point with family rate in each window [lowers[i], uppers[i]].

    Returns the arrays (reachable, j, q, rate, util, deterministic), one
    entry per window; the point accepts j full atoms plus fraction q of the
    next. Utility is linear in q along each segment, so the maximum over a
    window is at its best vertex or where a segment crosses one of its
    edges. Among (vertex, low crossing, high crossing) the largest (util,
    deterministic, rate) wins, the first of equal keys. ``rates`` are the
    ladder's vertex rates of the constrained family.
    """
    utils = ladder.cum_du
    n = len(rates)
    left = np.searchsorted(rates, lowers, "left")
    right = np.searchsorted(rates, uppers, "right") - 1
    reachable = left <= right
    j = ladder.argmax.query(np.where(reachable, left, 0), np.where(reachable, right, 0))
    q, rate, util = np.zeros(len(uppers)), rates[j], utils[j]
    deterministic = np.ones(len(uppers), dtype=bool)
    for edge, pos in ((lowers, left), (uppers, np.searchsorted(rates, uppers, "left"))):
        # A vertex exactly on the edge is already a vertex candidate; any
        # other edge inside the path falls strictly between two vertices, so
        # its segment has a positive span.
        on_vertex = (pos < n) & (rates[np.minimum(pos, n - 1)] == edge)
        crosses = ~on_vertex & (pos > 0) & (pos < n)
        hi = np.clip(pos, 1, n - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            q_e = (edge - rates[hi - 1]) / (rates[hi] - rates[hi - 1])
        util_e = utils[hi - 1] + q_e * (utils[hi] - utils[hi - 1])
        det_e = (q_e == 0.0) | (q_e == 1.0)
        ties = (det_e > deterministic) | ((det_e == deterministic) & (edge > rate))
        wins = crosses & (~reachable | (util_e > util) | ((util_e == util) & ties))
        j, q = np.where(wins, hi - 1, j), np.where(wins, q_e, q)
        rate, util = np.where(wins, edge, rate), np.where(wins, util_e, util)
        deterministic = np.where(wins, det_e, deterministic)
        reachable = reachable | crosses
    return reachable, j, q, rate, util, deterministic


def _best_cut(utils: np.ndarray) -> tuple[int, float]:
    """The unconstrained best prefix cut (j, q = 0), leftmost on ties."""
    return int(np.argmax(utils)), 0.0


def _sweep_single_family(
    ladders: Mapping[str, _Ladder],
    family: str,
    free_utility: float,
    gamma: float,
) -> tuple[float, dict[str, tuple[int, float]]]:
    """Exact max over windows [gamma * U, U], as the module docstring describes.

    Every ladder must have the family defined. Returns the raw utility,
    ``free_utility`` included, and each group's (j, q).
    """
    if gamma == 0.0:
        choices = {g: _best_cut(ladder.cum_du) for g, ladder in ladders.items()}
        total = free_utility + sum(float(ladders[g].cum_du[j]) for g, (j, _) in choices.items())
        return total, choices

    rates = {g: ladder.rates(family) for g, ladder in ladders.items()}
    vertices = np.concatenate(list(rates.values()))
    scaled = vertices / gamma
    uppers = np.unique(np.concatenate([[0.0, 1.0], vertices, scaled[scaled <= 1.0]]))
    lowers = gamma * uppers
    feasible = np.ones(len(uppers), dtype=bool)
    util_sum, rate_sum, n_random = np.zeros(len(uppers)), np.zeros(len(uppers)), 0
    low, high = np.full(len(uppers), np.inf), np.full(len(uppers), -np.inf)
    points = {}
    for g, ladder in ladders.items():
        reachable, j, q, rate, util, deterministic = _best_in_windows(
            ladder, rates[g], lowers, uppers
        )
        feasible &= reachable
        util_sum, rate_sum = util_sum + util, rate_sum + rate
        n_random = n_random + ~deterministic
        low, high = np.minimum(low, rate), np.maximum(high, rate)
        points[g] = j, q
    candidates = np.flatnonzero(feasible)
    if not len(candidates):
        raise InfeasibleConstraintError("no window satisfies the rate-ratio constraint")
    total = free_utility + util_sum
    with np.errstate(divide="ignore", invalid="ignore"):
        achieved = np.where(high == 0.0, 1.0, np.where(low == 0.0, 0.0, low / high))
    keys = (-rate_sum, n_random, -achieved, -total)  # lexsort: last key first
    best = candidates[np.lexsort([key[candidates] for key in keys])[0]]
    return float(total[best]), {g: (int(j[best]), float(q[best])) for g, (j, q) in points.items()}


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
# Threshold families: independence, TPR or FPR parity, conditional parity
# ---------------------------------------------------------------------------


def _threshold_cuts(
    ladders: Mapping[str, _Ladder], family: str, gamma: float
) -> dict[str, GroupCut]:
    """Each group's cut, utility-maximal with the family's rates within gamma.

    The one threshold-family solver: independence, TPR or FPR parity, and
    conditional parity within a stratum. A group without records of the
    family's conditioning outcome is warned about and left at its best cut;
    the others are swept. Cuts come in the order of ``ladders``.
    """
    free: dict[str, tuple[int, float]] = {}
    free_utility = 0.0
    for g, ladder in ladders.items():
        if ladder.rates(family) is None:
            warnings.warn(
                f"group {g!r} has no records with the conditioning outcome; "
                f"{family} constraint skipped for it",
                MissingClassWarning,
                stacklevel=3,
            )
            free[g] = _best_cut(ladder.cum_du)
            free_utility += float(ladder.cum_du[free[g][0]])
    constrained = {g: ladder for g, ladder in ladders.items() if g not in free}
    if not constrained:
        raise InfeasibleConstraintError(f"no group has a defined {family}")
    _, choices = _sweep_single_family(constrained, family, free_utility, gamma)
    choices.update(free)
    return {g: ladder.cut(*choices[g]) for g, ladder in ladders.items()}


def _group_threshold(cuts: Mapping[str, GroupCut]) -> GroupThreshold:
    return GroupThreshold({g: cuts[g] for g in sorted(cuts)})


def optimize_independence(problem: OptimizationProblem) -> DecisionRule:
    """Group thresholds maximizing utility with positive rates within gamma."""
    ladders = _ladders(problem.dataset, problem.utility)
    return _group_threshold(_threshold_cuts(ladders, "positive_rate", problem.criterion.gamma))


# ---------------------------------------------------------------------------
# Joint TPR+FPR constraints (separation): LP over ROC hull vertices
# ---------------------------------------------------------------------------


def _staircase(ladder: _Ladder) -> np.ndarray:
    """(fpr, tpr) of every prefix cut, one row each; an undefined family maps to zeros."""
    columns = (ladder.rates(family) for family in ("fpr", "tpr"))
    return np.column_stack([np.zeros_like(ladder.cum_count) if c is None else c for c in columns])


def _hull_chains(path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Path indices of the lower and upper convex hull chains of a staircase.

    A staircase is sorted by (fpr, tpr), so Andrew's monotone chain runs in
    path order. Both chains run from the first to the last index and drop
    collinear points; together they hold every vertex of the hull.
    """
    xs, ys = path[:, 0].tolist(), path[:, 1].tolist()

    def chain(order: range) -> list[int]:
        out: list[int] = []
        for i in order:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (xs[i] - xs[o]) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    last = len(xs) - 1
    return np.array(chain(range(last + 1))), np.array(chain(range(last, -1, -1))[::-1])


def _chain_value(path: np.ndarray, chain: np.ndarray, x: float, highest: bool) -> float:
    """y of a hull chain at x, taking the highest or lowest y on a vertical edge.

    Only the upper chain's first edge and the lower chain's last edge can be
    vertical, so keeping the last point per x (upper) or the first (lower)
    leaves the chain's extreme y there.
    """
    xs, ys = path[chain, 0], path[chain, 1]
    step = xs[1:] != xs[:-1]
    keep = np.r_[step, True] if highest else np.r_[True, step]
    return float(np.interp(x, xs[keep], ys[keep]))


def _simplex_max(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: list[int]
) -> np.ndarray:
    """Maximize ``cost @ x`` subject to ``matrix @ x = rhs`` and ``x >= 0``.

    A dense simplex with Bland's rule (lowest-index entering column,
    lowest-index basic variable among tied ratios), which cannot cycle on the
    heavily degenerate separation program. ``basis`` must be a feasible start
    and is updated in place. Each pivot rebuilds the tableau from the
    original rows through the current basis matrix, so rounding cannot
    accumulate over the many degenerate pivots into noise entries that pass
    as pivots.
    """
    scaled = cost / max(1.0, float(np.abs(cost).max()))
    for _ in range(50 * sum(matrix.shape)):
        basis_matrix = matrix[:, basis]
        tableau = np.linalg.solve(basis_matrix, matrix)
        values = np.maximum(np.linalg.solve(basis_matrix, rhs), 0.0)
        reduced = scaled - scaled[basis] @ tableau
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced > 1e-12)
        if not len(entering):
            x = np.zeros(matrix.shape[1])
            x[basis] = values
            return x
        column = tableau[:, entering[0]]
        candidates = np.flatnonzero(column > 1e-9)
        ratios = values[candidates] / column[candidates]
        tied = candidates[ratios <= ratios.min() + 1e-12]
        basis[min(tied, key=lambda i: basis[i])] = int(entering[0])
    raise RuntimeError("separation simplex did not terminate")


def _realize_on_path(path: np.ndarray, target: np.ndarray) -> list[tuple[int, float, float]]:
    """Express a hull point as a convex mix of at most two path points.

    Returns [(j, q, weight), ...], where a path point accepts j full atoms
    plus fraction q of the next. A target on the path is one (possibly
    randomized) cut. Otherwise, seen from the target, each segment subtends
    less than pi while the vertices span at least pi (the target lies in
    their hull). So along the path the unwrapped angle first moves pi away
    from its running minimum or maximum, at vertex m, on some segment; the
    point of that segment opposite m through the target completes the pair.
    """
    start, seg = path[:-1], np.diff(path, axis=0)
    q = np.clip(np.einsum("ij,ij->i", target - start, seg) / np.einsum("ij,ij->i", seg, seg), 0, 1)
    on_path = np.flatnonzero(np.abs(start + q[:, None] * seg - target).max(axis=1) <= 1e-9)
    if len(on_path):
        i = int(on_path[0])
        return [(i, float(q[i]), 1.0)]

    rel = path - target
    angle = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    low, high = np.minimum.accumulate(angle), np.maximum.accumulate(angle)
    rise, fall = angle[1:] - low[:-1], high[:-1] - angle[1:]
    hits = np.flatnonzero(np.maximum(rise, fall) >= np.pi - 1e-12)
    if len(hits):
        j = int(hits[0]) + 1
        extreme = low[j - 1] if rise[j - 1] >= fall[j - 1] else high[j - 1]
        m = int(np.flatnonzero(angle[:j] == extreme)[0])
        # path[m] + s * d = path[j - 1] + u * e, with s >= 1 beyond the target.
        d, e, r = target - path[m], seg[j - 1], path[j - 1] - path[m]
        denom = d[0] * e[1] - d[1] * e[0]
        s = (r[0] * e[1] - r[1] * e[0]) / denom
        u = min(max((r[0] * d[1] - r[1] * d[0]) / denom, 0.0), 1.0)
        w = 1.0 / s
        achieved = (1.0 - w) * path[m] + w * (path[j - 1] + u * e)
        if 0.0 < w <= 1.0 and np.abs(achieved - target).max() <= 1e-9:
            return [(m, 0.0, 1.0 - w), (j - 1, float(u), w)]
    raise RuntimeError("could not realize the target point as two threshold rules")


def optimize_separation(problem: OptimizationProblem) -> DecisionRule:
    """Optimal rule with TPR and/or FPR parity at level gamma.

    TPR parity and FPR parity constrain a single family and reduce to the
    exact window sweep. Separation needs per-group randomization between two
    thresholds because TPR parity does not imply FPR parity. Per group,
    utility is linear in (FPR, TPR) and the reachable points are the convex
    hull of the ROC staircase, so the program is a linear one over weights
    on each group's hull vertices, solved in-process by a dense simplex. At
    gamma = 1 the solution is snapped to one shared point, so parity is
    exact. Each group's point is then realized as one threshold cut, or as
    a mix of two, found in O(k) by an angle sweep along the staircase.
    """
    families = problem.criterion.kind.families
    gamma = problem.criterion.gamma
    ladders = _ladders(problem.dataset, problem.utility)
    if len(families) == 1:
        return _group_threshold(_threshold_cuts(ladders, families[0], gamma))
    groups = sorted(ladders)

    if gamma == 0.0:
        return _group_threshold({g: ladders[g].cut(*_best_cut(ladders[g].cum_du)) for g in groups})

    targets = _separation_lp_targets(ladders, groups, gamma)

    cuts_first: dict[str, GroupCut] = {}
    cuts_second: dict[str, GroupCut] = {}
    mix_weights: dict[str, float] = {}
    randomized = False
    for g in groups:
        ladder = ladders[g]
        parts = _realize_on_path(_staircase(ladder), np.asarray(targets[g], dtype=float))
        if len(parts) == 1:
            j, q, _ = parts[0]
            cut = ladder.cut(j, q)
            cuts_first[g] = cut
            cuts_second[g] = cut
            mix_weights[g] = 1.0
        else:
            (j_a, q_a, w_a), (j_b, q_b, _) = parts
            cuts_first[g] = ladder.cut(j_a, q_a)
            cuts_second[g] = ladder.cut(j_b, q_b)
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
    """Per-group (FPR, TPR) targets solving the joint parity program.

    Variables are each group's weights on its hull vertices (summing to 1)
    and one slack per ordered group pair and family, for the row
    ``gamma * rate_h - rate_g + slack = 0``. Every group at its reject-all
    vertex, with every slack basic, is a feasible start for any gamma: all
    rates are 0 there, so no phase 1 is needed.
    """
    paths = {g: _staircase(ladders[g]) for g in groups}
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

    hulls = {g: _hull_chains(paths[g]) for g in groups}
    indices = {g: np.union1d(*hulls[g]) for g in groups}  # starts at reject-all, (0, 0)
    vertices = {g: paths[g][indices[g]] for g in groups}
    offsets = np.cumsum([0] + [len(indices[g]) for g in groups])
    n_weights = int(offsets[-1])
    pairs = [
        (axis, gi, hi)
        for axis, members in ((1, tpr_groups), (0, fpr_groups))
        for gi in map(groups.index, members)
        for hi in map(groups.index, members)
        if gi != hi
    ]
    exact = gamma >= 1.0 - 1e-9
    gamma_lp = 1.0 if exact else gamma

    matrix = np.zeros((len(groups) + len(pairs), n_weights + len(pairs)))
    for gi, g in enumerate(groups):
        matrix[gi, offsets[gi] : offsets[gi + 1]] = 1.0
    for row, (axis, gi, hi) in enumerate(pairs, start=len(groups)):
        matrix[row, offsets[gi] : offsets[gi + 1]] = -vertices[groups[gi]][:, axis]
        matrix[row, offsets[hi] : offsets[hi + 1]] = gamma_lp * vertices[groups[hi]][:, axis]
        matrix[row, n_weights + row - len(groups)] = 1.0
    rhs = np.concatenate([np.ones(len(groups)), np.zeros(len(pairs))])
    cost = np.concatenate([*(ladders[g].cum_du[indices[g]] for g in groups), np.zeros(len(pairs))])
    basis = [int(o) for o in offsets[:-1]] + list(range(n_weights, n_weights + len(pairs)))
    x = _simplex_max(matrix, rhs, cost, basis)

    targets: dict[str, tuple[float, float]] = {}
    for gi, g in enumerate(groups):
        w = x[offsets[gi] : offsets[gi + 1]]
        w = np.where(w > 1e-12, w, 0.0)
        fpr, tpr = (w / w.sum()) @ vertices[g]
        targets[g] = (float(fpr), float(tpr))

    if exact:
        # Snap to one shared target so parity is exact rather than within
        # rounding. The diagonal point (f, f) lies in every hull (reject-all
        # and accept-all are common staircase vertices), so the window never
        # empties.
        both = [g for g in groups if g in tpr_groups and g in fpr_groups]
        f_star = min(max(float(np.mean([targets[g][0] for g in fpr_groups or groups])), 0.0), 1.0)
        lo, hi = 0.0, 1.0
        for g in both:
            lower, upper = hulls[g]
            lo = max(lo, _chain_value(paths[g], lower, f_star, highest=False))
            hi = min(hi, _chain_value(paths[g], upper, f_star, highest=True))
        lo, hi = min(lo, f_star), max(hi, f_star)
        t_star = min(max(float(np.mean([targets[g][1] for g in tpr_groups or groups])), lo), hi)
        for g in groups:
            if g in both:
                targets[g] = (f_star, t_star)
            elif g in fpr_groups:
                targets[g] = _project_to_family(ladders[g], "fpr", f_star)
            else:
                targets[g] = _project_to_family(ladders[g], "tpr", t_star)

    for axis, members, family in ((1, tpr_groups, "tpr"), (0, fpr_groups, "fpr")):
        if members and _family_ratio(targets[g][axis] for g in members) < gamma - 1e-12:
            raise RuntimeError(f"separation program returned a {family} ratio below {gamma}")
    return targets


def _project_to_family(ladder: _Ladder, family: str, value: float) -> tuple[float, float]:
    """Best path point whose constrained-family rate equals ``value`` exactly."""
    window = np.array([value])
    reachable, j, q, *_ = _best_in_windows(ladder, ladder.rates(family), window, window)
    if not reachable[0]:
        raise InfeasibleConstraintError(
            f"group {ladder.group!r} cannot reach {family} = {value}"
        )
    fpr, tpr = _staircase(ladder).T
    j, q = int(j[0]), float(q[0])
    if q == 0.0:
        return float(fpr[j]), float(tpr[j])
    return (
        float(fpr[j] + q * (fpr[j + 1] - fpr[j])),
        float(tpr[j] + q * (tpr[j + 1] - tpr[j])),
    )


# ---------------------------------------------------------------------------
# Sufficiency: interval rules searched over PPV / FOR windows
# ---------------------------------------------------------------------------

# Window positions are the upper edges u of windows [gamma * u, u]. The
# candidates are every vertex value and every q-grid value (steps of
# grid_step) of every branch, together with each of them divided by gamma;
# past a cap, an evenly spaced subsample of the sorted candidates is scanned.
# The solve and its highest-level bisection scan at the same cap.
_SINGLE_FAMILY_CAP = 4096  # PPV-only or FOR-only parity
_JOINT_CAP = 56  # joint parity, per family: 56 x 56 window pairs
# When grid points per segment times the largest branch's vertex count exceeds
# this, the q-grid falls back to the 63 interior points of a 65-point grid.
_GRID_POINT_LIMIT = 500_000
_COARSE_GRID_POINTS = 65
# Elements per block of the window scan (window combinations times segments),
# which bounds its memory independently of the number of windows.
_SWEEP_BLOCK_ELEMENTS = 65_536


_Bounds = tuple[np.ndarray, np.ndarray, np.ndarray]  # (qlo, qhi, dead) per segment


def _window_bounds(ladder: _Ladder, which: str, windows: np.ndarray) -> _Bounds:
    """Feasible q-interval of every segment within every window of one family.

    ``windows`` holds one (low, high) row per window; the result's arrays
    have shape (windows, segments). The family value is monotone in q along
    a segment, so the segment's ends decide. An end is inside a window when
    its value lies within 1e-12 of it: the candidate windows are built from
    vertex values, so a vertex on an edge is the normal case and must not
    depend on the last bit of a quotient. An end inside stays; an end
    outside moves to the q where the value crosses the edge it lies beyond,
    widened by the same 1e-12. So under joint parity a point inside both
    windows keeps a nonempty q-interval, though its PPV and FOR crossings
    may land an ulp apart. A segment whose values all lie beyond one edge is
    dead. An open end (PPV without accepts, FOR without rejects) has its
    segment's constant value and is nudged 1e-12 into the segment.
    """
    tol = 1e-12
    num0, dnum, den0, dden = ladder.segments(which)
    vertex = ladder.values(which, ladder.cum_count, ladder.cum_pos)
    v0, v1 = vertex[:-1], vertex[1:]
    v0, v1 = np.where(np.isnan(v0), v1, v0), np.where(np.isnan(v1), v0, v1)
    vmin, vmax = np.minimum(v0, v1), np.maximum(v0, v1)
    lo, hi = windows[:, :1], windows[:, 1:]
    dead = (vmax < lo - tol) | (vmin > hi + tol)
    qlo, qhi = np.zeros(dead.shape), np.ones(dead.shape)
    # Only a live segment that crosses an edge has an end outside.
    w, j = np.nonzero(~dead & ((vmin < lo - tol) | (vmax > hi + tol)))
    lo, hi = lo[w, 0], hi[w, 0]
    for q, v in ((qlo, v0[j]), (qhi, v1[j])):
        edge = np.clip(v, lo - tol, hi + tol)
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


def _intersect(a: _Bounds, b: _Bounds) -> _Bounds:
    """Bounds under both of two windows.

    Each window's feasible set on a segment is an interval in q, so the set
    under both is exactly the intersection of the two intervals.
    """
    return np.maximum(a[0], b[0]), np.minimum(a[1], b[1]), a[2] | b[2]


def _nonempty(bounds: _Bounds) -> np.ndarray:
    """Segments with a feasible point."""
    qlo, qhi, dead = bounds
    return ~dead & (qlo <= qhi)


def _branch_best_in_windows(
    ladder: _Ladder,
    ppv_window: tuple[float, float] | None,
    for_window: tuple[float, float] | None,
) -> tuple[int, float, float] | None:
    """Exact max-utility point (j, q, util) of one branch within PPV and/or FOR windows.

    The one-window case of ``_best_windows``, which also returns the point.
    Utility is linear in q, so only the ends of each segment's feasible
    q-interval matter. Among equal utilities a deterministic end (q = 0 or 1)
    wins, then the first in (segment, lower end, upper end) order.
    """
    k = len(ladder.scores)
    bounds = (np.zeros(k), np.ones(k), np.zeros(k, dtype=bool))
    for which, window in (("ppv", ppv_window), ("for_rate", for_window)):
        if window is not None:
            one = _window_bounds(ladder, which, np.array([window]))
            bounds = _intersect(bounds, tuple(b[0] for b in one))
    q = np.stack(bounds[:2], axis=-1)
    util = ladder.cum_du[:-1, None] + q * np.diff(ladder.cum_du)[:, None]
    util = np.where(_nonempty(bounds)[:, None], util, -np.inf).ravel()
    q = q.ravel()
    if not util.size or util.max() == -np.inf:
        return None
    top = util == util.max()
    deterministic = top & ((q == 0.0) | (q == 1.0))
    i = int(np.argmax(deterministic if deterministic.any() else top))
    return i // 2, float(q[i]), float(util[i])


def _group_best_in_windows(
    branches: Sequence[_Ladder],
    ppv_window: tuple[float, float] | None,
    for_window: tuple[float, float] | None,
) -> tuple[float, IntervalCut] | None:
    """(utility, cut) of a group's best point over its branches; the first wins ties."""
    best: tuple[float, IntervalCut] | None = None
    for ladder in branches:
        point = _branch_best_in_windows(ladder, ppv_window, for_window)
        if point is not None and (best is None or point[2] > best[0]):
            best = point[2], ladder.interval_cut(*point[:2])
    return best


def _branch_point_values(ladder: _Ladder, which: str, qs: np.ndarray) -> np.ndarray:
    """Family values at every vertex and every grid point of every segment."""
    vertex = ladder.values(which, ladder.cum_count, ladder.cum_pos)
    out = [vertex[~np.isnan(vertex)]]
    if len(ladder.scores) > 0 and len(qs) > 0:
        ep = ladder.cum_count[:-1, None] + np.diff(ladder.cum_count)[:, None] * qs[None, :]
        epy = ladder.cum_pos[:-1, None] + np.diff(ladder.cum_pos)[:, None] * qs[None, :]
        grid = ladder.values(which, ep, epy)
        out.append(grid[~np.isnan(grid)].ravel())
    return np.concatenate(out)


def _candidate_base(
    branches: Mapping[str, Sequence[_Ladder]], which: str, grid_step: float
) -> np.ndarray:
    """Sorted distinct vertex and q-grid values of one family over all branches.

    It does not depend on gamma, so a solve builds it once per family.
    """
    qs = np.arange(grid_step, 1.0, grid_step)
    vertices = max(len(ladder.cum_count) for pair in branches.values() for ladder in pair)
    if len(qs) * vertices > _GRID_POINT_LIMIT:
        qs = np.linspace(0.0, 1.0, _COARSE_GRID_POINTS)[1:-1]
    return np.unique(
        np.concatenate(
            [
                _branch_point_values(ladder, which, qs)
                for pair in branches.values()
                for ladder in pair
            ]
        )
    )


def _designations(base: np.ndarray, gamma: float, cap: int) -> np.ndarray:
    """Candidate window upper bounds at level gamma > 0, at most ``cap`` of them."""
    scaled = base / gamma  # sorted, as base is
    # Both runs are sorted, so the stable sort (timsort) merges them.
    merged = np.sort(
        np.concatenate([base, scaled[: np.searchsorted(scaled, 1.0, "right")]]), kind="stable"
    )
    distinct = np.ones(len(merged), dtype=bool)
    distinct[1:] = merged[1:] != merged[:-1]
    merged = merged[distinct]
    merged = merged[np.searchsorted(merged, 0.0) : np.searchsorted(merged, 1.0, "right")]
    if len(merged) > cap:
        take = np.unique(np.linspace(0, len(merged) - 1, cap).astype(int))
        merged = merged[take]
    return merged


def _best_windows(
    branches: Mapping[str, Sequence[_Ladder]],
    bases: Mapping[str, np.ndarray],
    gamma: float,
    cap: int,
) -> tuple[tuple[float, float] | None, tuple[float, float] | None] | None:
    """Best (PPV window, FOR window) at level gamma; None if none is feasible.

    ``bases`` holds the candidate base of each constrained family, one or
    both; the window of an unconstrained family is None. Every combination
    of one window per family is scanned: the first family's windows in
    blocks of rows, each row against every window of the second family or,
    with one family, against none. A group's value in a combination is its
    best segment, taken at the better end of its feasible q-interval:
    utility is linear in q, so the other end never wins. Ties go to the last
    of equal totals in (PPV, FOR) order.
    """
    windows = {}
    for which, base in bases.items():
        uppers = _designations(base, gamma, cap)
        windows[which] = np.column_stack([gamma * uppers, uppers])
    (first, outer), *second = windows.items()
    n_inner = len(second[0][1]) if second else 1

    def prepared(ladder: _Ladder) -> tuple[_Ladder, _Bounds, np.ndarray]:
        k = len(ladder.scores)
        inner = (np.zeros((1, k)), np.ones((1, k)), np.zeros((1, k), dtype=bool))
        for which, inner_windows in second:
            inner = _window_bounds(ladder, which, inner_windows)
        return ladder, inner, _nonempty(inner).any(axis=0)

    groups = [[prepared(ladder) for ladder in pair] for pair in branches.values()]
    k_max = max(len(ladder.scores) for pair in branches.values() for ladder in pair)
    rows = max(1, _SWEEP_BLOCK_ELEMENTS // (n_inner * k_max))
    best_total, best = -np.inf, None
    for start in range(0, len(outer), rows):
        block = outer[start : start + rows]
        totals = np.zeros((len(block), n_inner))
        for group in groups:
            group_best = np.full(totals.shape, -np.inf)
            for ladder, inner, inner_live in group:
                outer_bounds = _window_bounds(ladder, first, block)
                # Only segments live under some window of each family can
                # be live under a combination of them.
                cols = np.flatnonzero(_nonempty(outer_bounds).any(axis=0) & inner_live)
                if cols.size == 0:
                    continue
                bounds = _intersect(
                    tuple(b[:, None, cols] for b in outer_bounds),
                    tuple(b[None, :, cols] for b in inner),
                )
                du = np.diff(ladder.cum_du)[cols]
                q = np.where(du > 0.0, bounds[1], bounds[0])
                util = np.where(_nonempty(bounds), ladder.cum_du[cols] + q * du, -np.inf)
                np.maximum(group_best, util.max(axis=-1), out=group_best)
            totals += group_best
        flat = totals.ravel()
        i = flat.size - 1 - int(np.argmax(flat[::-1]))
        if flat[i] > -np.inf and flat[i] >= best_total:
            best_total = flat[i]
            r, c = divmod(i, n_inner)
            chosen = {first: block[r], **{which: w[c] for which, w in second}}
            best = tuple(
                tuple(map(float, chosen[w])) if w in chosen else None for w in ("ppv", "for_rate")
            )
    return best


def optimize_sufficiency(problem: OptimizationProblem) -> DecisionRule:
    """Optimal interval rules with PPV and/or FOR parity at level gamma.

    Sufficiency constrains both families, PPV parity and FOR parity one
    each. One scan (``_best_windows``) picks the window of every constrained
    family, and each group's best point in those windows is then rebuilt
    under the same edge rule (``_window_bounds``). Within a window the
    search is exact: along a segment each family value is monotone in the
    boundary randomization, so the feasible part is an interval between
    segment ends and edge crossings, and a vertex within 1e-12 of an edge
    counts as inside.

    The candidate window positions are every vertex and q-grid value (steps
    of ``grid_step``, or 63 points when that grid would exceed 500 000
    points per branch) and each divided by gamma; only an evenly spaced
    subsample of at most 4096 of them is scanned for one family, and of 56
    per family (56 x 56 pairs) for joint parity. So the result is exact only
    when no cap is reached. When the scan finds no window, the error reports
    the highest level below gamma, to 1e-6, at which the same scan at the
    same cap finds one; a solve at that level returns a rule.
    """
    families = problem.criterion.kind.families
    gamma = problem.criterion.gamma

    ascending = _ladders(problem.dataset, problem.utility, descending=False)
    branches = {
        g: (ladder, ascending[g])
        for g, ladder in _ladders(problem.dataset, problem.utility).items()
    }

    windows = None, None
    if gamma > 0.0:
        bases = {which: _candidate_base(branches, which, problem.grid_step) for which in families}
        cap = _SINGLE_FAMILY_CAP if len(bases) == 1 else _JOINT_CAP
        windows = _best_windows(branches, bases, gamma, cap)
        if windows is None:
            max_gamma = _max_achievable_sufficiency_gamma(branches, bases, gamma, cap)
            raise InfeasibleConstraintError(
                f"no interval rule reaches gamma = {gamma:g}; "
                f"highest achievable level found: {max_gamma!r}",
                max_achievable_gamma=max_gamma,
            )
    best = {g: _group_best_in_windows(pair, *windows) for g, pair in branches.items()}
    if any(b is None for b in best.values()):
        raise InfeasibleConstraintError("window reconstruction failed")  # pragma: no cover
    return GroupInterval({g: best[g][1] for g in sorted(best)})


def _max_achievable_sufficiency_gamma(
    branches: Mapping[str, Sequence[_Ladder]],
    bases: Mapping[str, np.ndarray],
    gamma: float,
    cap: int,
) -> float:
    """Highest level below an infeasible ``gamma`` at which the solve's scan finds a window.

    Bisects [0, gamma) with ``_best_windows`` at the solve's ``cap`` until the
    bracket is at most 1e-6 wide. The level returned was found feasible by
    that scan, or is 0, so a solve at it returns a rule.
    """
    lo, hi = 0.0, gamma
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2.0
        if _best_windows(branches, bases, mid, cap) is None:
            hi = mid
        else:
            lo = mid
    return lo


# ---------------------------------------------------------------------------
# Conditional statistical parity
# ---------------------------------------------------------------------------


def optimize_conditional_parity(problem: OptimizationProblem) -> DecisionRule:
    """Independence enforced independently within each legitimate stratum.

    Strata where any group falls below ``min_count`` records are left
    unconstrained (each group gets its unconstrained stratum threshold) and
    flagged with a warning.
    """
    names = problem.criterion.legit_names
    dataset, utility = problem.dataset, problem.utility
    gamma = problem.criterion.gamma

    cuts: dict[tuple[str, tuple[str, ...]], GroupCut] = {}
    any_constrained = False
    for stratum, groups_here in _stratum_group_rows(dataset, names):
        ladders = {g: _build_ladder(g, dataset, rows, utility) for g, rows in groups_here.items()}
        constrained = len(ladders) >= 2 and all(
            len(groups_here.get(g, ())) >= problem.min_count for g in dataset.groups
        )
        if not constrained:
            warnings.warn(
                f"stratum {'/'.join(stratum)!r} below min_count={problem.min_count} "
                "for some group; left unconstrained",
                SmallStratumWarning,
                stacklevel=2,
            )
        any_constrained |= constrained
        # Gamma 0 leaves every group of an unconstrained stratum at its best cut.
        level = gamma if constrained else 0.0
        for g, cut in _threshold_cuts(ladders, "positive_rate", level).items():
            cuts[(g, stratum)] = cut
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
    """Solve the problem with the optimizer for its criterion's rate families."""
    kind = problem.criterion.kind
    if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY:
        return optimize_conditional_parity(problem)
    if kind.families == ("positive_rate",):
        return optimize_independence(problem)
    if set(kind.families) <= {"tpr", "fpr"}:
        return optimize_separation(problem)
    return optimize_sufficiency(problem)
