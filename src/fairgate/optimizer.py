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
in (FPR, TPR), so no other staircase vertex can improve the optimum. The
ratio constraint takes the same window form, one window [gamma * U, U] per
family with U a variable of the program, so it has O(G) rows. A small dense
simplex (Bland's rule) solves it in-process, starting from every group at
reject-all with U = 0, which is feasible at any gamma. Each group's
optimal point is then realized as one threshold cut, or as a mixture of
two: every point in the convex hull of a connected curve is a combination
of two curve points, and an O(k) angle sweep along the staircase finds them.
PPV and FOR are ratios of prefix quantities, monotone in the boundary
randomization along each segment of a group's path, so one edge rule
(``_IntervalFamily.bounds``) gives each segment's feasible interval in a
window: an end whose value lies within 1e-12 of the window stays, an end
outside moves to where the value crosses the edge widened by 1e-12. A scan
values every candidate window under that rule, or every pair of windows
under joint parity, and the winning rule is rebuilt under it, so the search
within a window is exact. One family is a sweep: a segment whose better end
lies inside a window takes that end, a range-argmax over the ends sorted by
value answers every window, and only the pairs where a window edge stabs a
segment are valued as crossings. Its window positions are every breakpoint,
each vertex value of any branch and each of them divided by gamma, so PPV
and FOR parity are exact at breakpoints. Joint parity scans pairs of the
same windows, thinned to 56 per family. Each family's own breakpoints need
not hold a joint optimum, so a sufficiency result is a heuristic, even below
that cap. When the scan finds no window, the highest level reported is
found by bisection with the same scan, so a solve at that level returns a
rule.
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

    @cached_property
    def interval_families(self) -> dict[str, _IntervalFamily]:
        """PPV and FOR along the segments, built when an interval search first asks."""
        return {which: _IntervalFamily(self, which) for which in ("ppv", "for_rate")}

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
            return IntervalCut(low=edge, high=1.0, boundary=boundary, form="lower")
        return IntervalCut(low=0.0, high=edge, boundary=boundary, form="upper")


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
    uppers = _designations(np.concatenate(list(rates.values())), gamma)
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
    the others are swept. With no group to sweep, gamma 0 leaves every group
    at its best cut, and any higher level is infeasible. Cuts come in the
    order of ``ladders``.
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
    if not constrained and gamma > 0.0:
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
    on each group's hull vertices, solved in-process by a dense simplex. Each
    family's rates must share one window [gamma * U, U], with U solved for,
    and at gamma = 1 every group takes U itself, so parity is exact. Each
    group's point is then realized as one threshold cut, or as a mix of two,
    found in O(k) by an angle sweep along the staircase.
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
    # Each group's (j, q, weight) parts; a one-part group has weight 1.0.
    parts = {
        g: _realize_on_path(_staircase(ladders[g]), np.asarray(targets[g], dtype=float))
        for g in groups
    }
    first = GroupThreshold({g: ladders[g].cut(*p[0][:2]) for g, p in parts.items()})
    if all(len(p) == 1 for p in parts.values()):
        return first
    return Mixture(
        weights={g: float(p[0][2]) for g, p in parts.items()},
        first=first,
        second=GroupThreshold({g: ladders[g].cut(*p[-1][:2]) for g, p in parts.items()}),
    )


def _separation_lp_targets(
    ladders: Mapping[str, _Ladder], groups: Sequence[str], gamma: float
) -> dict[str, tuple[float, float]]:
    """Per-group (FPR, TPR) targets solving the joint parity program.

    Variables are each group's weights on its hull vertices (summing to 1),
    one window top U per family and one slack per window row. Each member
    group of a family has two rows, ``rate_g - U + slack = 0`` and
    ``gamma * U - rate_g + slack = 0``, so every member's rate lies in
    [gamma * U, U]: the family's worst ratio is at least gamma iff some U
    fits. That is G convexity rows and at most 4 * G window rows. Every
    group at its reject-all vertex with U = 0 and every slack basic is a
    feasible start for any gamma: all rates are 0 there, so no phase 1 is
    needed. At gamma = 1 every member takes its family's U as its
    coordinate, so parity is exact rather than within rounding.
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

    indices = {g: np.union1d(*_hull_chains(paths[g])) for g in groups}  # starts at reject-all
    vertices = {g: paths[g][indices[g]] for g in groups}
    offsets = np.cumsum([0] + [len(indices[g]) for g in groups])
    n_weights = int(offsets[-1])
    windows = [
        (axis, [groups.index(g) for g in members])
        for axis, members in ((1, tpr_groups), (0, fpr_groups))
        if members
    ]
    exact = gamma >= 1.0 - 1e-9
    gamma_lp = 1.0 if exact else gamma

    n_slacks = 2 * sum(len(members) for _, members in windows)
    first_slack = n_weights + len(windows)
    matrix = np.zeros((len(groups) + n_slacks, first_slack + n_slacks))
    for gi in range(len(groups)):
        matrix[gi, offsets[gi] : offsets[gi + 1]] = 1.0
    row = len(groups)
    for f, (axis, members) in enumerate(windows):
        for gi in members:
            rates = vertices[groups[gi]][:, axis]
            matrix[row, offsets[gi] : offsets[gi + 1]] = rates
            matrix[row, n_weights + f] = -1.0
            matrix[row + 1, offsets[gi] : offsets[gi + 1]] = -rates
            matrix[row + 1, n_weights + f] = gamma_lp
            row += 2
    matrix[len(groups) :, first_slack:] = np.eye(n_slacks)
    rhs = np.concatenate([np.ones(len(groups)), np.zeros(n_slacks)])
    cost = np.concatenate(
        [*(ladders[g].cum_du[indices[g]] for g in groups), np.zeros(len(windows) + n_slacks)]
    )
    basis = [int(o) for o in offsets[:-1]] + list(range(first_slack, first_slack + n_slacks))
    x = _simplex_max(matrix, rhs, cost, basis)

    targets: dict[str, tuple[float, float]] = {}
    for gi, g in enumerate(groups):
        w = x[offsets[gi] : offsets[gi + 1]]
        w = np.where(w > 1e-12, w, 0.0)
        point = (w / w.sum()) @ vertices[g]
        for f, (axis, members) in enumerate(windows):
            if exact and gi in members:
                point[axis] = x[n_weights + f]
        targets[g] = (float(point[0]), float(point[1]))

    for axis, members, family in ((1, tpr_groups, "tpr"), (0, fpr_groups, "fpr")):
        if members and _family_ratio(targets[g][axis] for g in members) < gamma - 1e-12:
            raise RuntimeError(f"separation program returned a {family} ratio below {gamma}")
    return targets


# ---------------------------------------------------------------------------
# Sufficiency: interval rules searched over PPV / FOR windows
# ---------------------------------------------------------------------------

# Window positions are the upper edges u of windows [gamma * u, u]. One
# family takes every breakpoint: each vertex value of any branch, and each
# of them divided by gamma, and sweeps them all in O((W + k) log k + stabbed
# pairs) per branch, for W windows and k segments. Joint parity takes the
# same positions for each family and values every window pair against every
# segment, in blocks; past a cap, an evenly spaced subsample of each
# family's sorted positions is scanned. The solve and its highest-level
# bisection scan alike.
_JOINT_CAP = 56  # joint parity, per family: 56 x 56 window pairs
# Elements per block of a scan (window pairs times segments in the joint scan,
# stabbed (window, segment) pairs in the one-family sweep), which bounds its
# memory independently of the number of windows.
_SWEEP_BLOCK_ELEMENTS = 65_536
# The edge rule's tolerance: a value this close to a window is inside it.
_EDGE_TOL = 1e-12


class _IntervalFamily:
    """PPV or FOR along the segments of one ladder, and the edge rule that reads them.

    On segment j the value at fraction q is (num0 + q * dnum) / (den0 + q *
    dden), monotone in q. ``vertex`` holds the values at the ladder's
    vertices, NaN at an open one (PPV without accepts, FOR without
    rejects); ``v0`` and ``v1`` are the values at each segment's ends. An
    open end has no value of its own: it takes the segment's constant
    value, and q stays in [qmin, qmax], ``_EDGE_TOL`` inside the segment.
    """

    def __init__(self, ladder: _Ladder, which: str):
        ep0, dep = ladder.cum_count[:-1], np.diff(ladder.cum_count)
        epy0, depy = ladder.cum_pos[:-1], np.diff(ladder.cum_pos)
        if which == "ppv":
            self.num0, self.dnum, self.den0, self.dden = epy0, depy, ep0, dep
        else:
            self.num0, self.dnum = ladder.n_pos - epy0, -depy
            self.den0, self.dden = ladder.n - ep0, -dep
        self.vertex = ladder.values(which, ladder.cum_count, ladder.cum_pos)
        v0, v1 = self.vertex[:-1], self.vertex[1:]
        self.v0, self.v1 = np.where(np.isnan(v0), v1, v0), np.where(np.isnan(v1), v0, v1)
        self.vmin, self.vmax = np.minimum(self.v0, self.v1), np.maximum(self.v0, self.v1)
        self.qmin, self.qmax = np.zeros(len(dep)), np.ones(len(dep))
        if which == "ppv":
            self.qmin[ep0 == 0.0] = _EDGE_TOL
        else:
            self.qmax[ladder.cum_count[1:] >= ladder.n] = 1.0 - _EDGE_TOL
        self.util0, self.du = ladder.cum_du[:-1], np.diff(ladder.cum_du)

    def bounds(self, lo, hi, j: np.ndarray | slice = slice(None)) -> tuple[np.ndarray, ...]:
        """Feasible q-interval (qlo, qhi) of segments j in windows [lo, hi], and which are live.

        The edge rule. ``lo`` and ``hi`` broadcast against the segments: one
        window against all of them, a column of windows against the row of
        segments, or one window per listed segment. The value is monotone in
        q, so a segment's ends decide. An end whose value lies within
        ``_EDGE_TOL`` of the window stays: the candidate windows are built
        from vertex values, so a vertex on an edge is the normal case and
        must not depend on the last bit of a quotient, and under joint
        parity a point inside both windows keeps a nonempty q-interval
        though its PPV and FOR crossings may land an ulp apart. An end
        outside moves to the q where the value crosses the edge it lies
        beyond, widened by ``_EDGE_TOL``. A zero upper edge is not widened
        for the crossing: a value of 1e-12 against another group's exact 0
        is a ratio of 0, not of 1. A segment whose values all lie beyond one
        edge is dead, not live, and keeps [qmin, qmax].
        """
        low, high = lo - _EDGE_TOL, hi + _EDGE_TOL
        top = np.where(hi > 0.0, high, hi)
        live = (self.vmax[j] >= low) & (self.vmin[j] <= high)
        ends = []
        for v, q_end in ((self.v0[j], 0.0), (self.v1[j], 1.0)):
            edge = np.clip(v, low, top)
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (edge * self.den0[j] - self.num0[j]) / (self.dnum[j] - edge * self.dden[j])
            out = live & ((v < low) | (v > high))
            ends.append(np.where(out, np.clip(cross, 0.0, 1.0), q_end))
        return np.maximum(ends[0], self.qmin[j]), np.minimum(ends[1], self.qmax[j]), live

    def value(self, qlo, qhi, live, j: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Utility of segments j at the better end of [qlo, qhi]; -inf where it is empty.

        Utility is linear in q, so the other end never wins.
        """
        du = self.du[j]
        q = np.where(du > 0.0, qhi, qlo)
        return np.where(live & (qlo <= qhi), self.util0[j] + q * du, -np.inf)

    @cached_property
    def preferred(self) -> tuple[np.ndarray, np.ndarray, _RangeArgmax]:
        """Each segment's preferred-end value; those values sorted; their utilities' table.

        A segment's preferred end is the better end of [qmin, qmax]: qmax
        when its utility step is positive, qmin otherwise. The range-argmax
        table holds the utilities at the preferred ends in the sorted order.
        """
        value = np.where(self.du > 0.0, self.v1, self.v0)
        order = np.argsort(value, kind="stable")
        return value, value[order], _RangeArgmax(self.value(self.qmin, self.qmax, True)[order])


def _branch_best_in_windows(
    ladder: _Ladder,
    ppv_window: tuple[float, float] | None,
    for_window: tuple[float, float] | None,
) -> tuple[int, float, float] | None:
    """Exact max-utility point (j, q, util) of one branch within PPV and/or FOR windows.

    The per-window search of the scans, which also returns the point. Each
    window's feasible set on a segment is an interval in q, so the set under
    both is their intersection. Utility is linear in q, so only the ends of
    that interval matter. Among equal utilities a deterministic end (q = 0
    or 1) wins, then the first in (segment, lower end, upper end) order.
    """
    k = len(ladder.scores)
    qlo, qhi, live = np.zeros(k), np.ones(k), np.ones(k, dtype=bool)
    for which, window in (("ppv", ppv_window), ("for_rate", for_window)):
        if window is not None:
            lo, hi, ok = ladder.interval_families[which].bounds(*window)
            qlo, qhi, live = np.maximum(qlo, lo), np.minimum(qhi, hi), live & ok
    q = np.stack([qlo, qhi], axis=-1)
    util = ladder.cum_du[:-1, None] + q * np.diff(ladder.cum_du)[:, None]
    util = np.where((live & (qlo <= qhi))[:, None], util, -np.inf).ravel()
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


def _candidate_base(branches: Mapping[str, Sequence[_Ladder]], which: str) -> np.ndarray:
    """Sorted distinct values of one family over all branches, at every vertex.

    The base does not depend on gamma, so a solve builds it once per family.
    """
    values = np.concatenate(
        [ladder.interval_families[which].vertex for pair in branches.values() for ladder in pair]
    )
    return np.unique(values[~np.isnan(values)])


def _designations(base: np.ndarray, gamma: float) -> np.ndarray:
    """Every candidate window upper edge in [0, 1] at level gamma > 0: base and base / gamma.

    The one rule for the tops of every window sweep: the threshold sweep
    passes its vertex rates, which hold 0 and 1, the interval scans their
    ``_candidate_base``.
    """
    scaled = base / gamma
    merged = np.unique(np.concatenate([base, scaled[scaled <= 1.0]]))
    return merged[np.searchsorted(merged, 0.0) : np.searchsorted(merged, 1.0, "right")]


def _branch_window_values(
    ladder: _Ladder, which: str, lowers: np.ndarray, uppers: np.ndarray
) -> np.ndarray:
    """One branch's best utility in every window [lowers[i], uppers[i]]; -inf where none.

    The windows must be sorted by their upper edge. The value is that of the
    branch's best segment under the edge rule (``_IntervalFamily.bounds``),
    taken at the better end of its feasible q-interval
    (``_IntervalFamily.value``), but not every (window, segment) pair is
    valued. A segment whose preferred end lies inside a window (within
    ``_EDGE_TOL``) is live there and takes that end. Sorted by that end's
    value, those segments form one index range per window, so a
    range-argmax over their utilities answers every window. Any other live
    pair is stabbed by an edge: the preferred end lies above the upper edge
    while the segment reaches it, or below the lower edge likewise. As the
    edges rise with the windows, each segment is stabbed by a contiguous run
    of upper edges and one of lower edges. Only those pairs are valued, in
    blocks of at most about ``_SWEEP_BLOCK_ELEMENTS``.
    """
    family = ladder.interval_families[which]
    value, ends, table = family.preferred
    lo, hi = lowers - _EDGE_TOL, uppers + _EDGE_TOL
    left = np.searchsorted(ends, lo, "left")
    right = np.searchsorted(ends, hi, "right") - 1
    hit = left <= right
    inside = table.query(np.where(hit, left, 0), np.where(hit, right, 0))
    best = np.where(hit, table.values[inside], -np.inf)

    starts = np.concatenate([np.searchsorted(hi, family.vmin), np.searchsorted(lo, value, "right")])
    stops = np.concatenate([np.searchsorted(hi, value), np.searchsorted(lo, family.vmax, "right")])
    counts = stops - starts
    segment = np.tile(np.arange(len(value)), 2)
    total = np.cumsum(counts)
    a = 0
    while a < len(counts):
        # Runs a..b-1 hold about _SWEEP_BLOCK_ELEMENTS pairs, or one run.
        done = total[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(total, done + _SWEEP_BLOCK_ELEMENTS, "right")))
        c = counts[a:b]
        runs = np.repeat(np.arange(a, b), c)
        w = starts[runs] + np.arange(total[b - 1] - done) - np.repeat(np.cumsum(c) - c, c)
        j = segment[runs]
        np.maximum.at(best, w, family.value(*family.bounds(lowers[w], uppers[w], j), j))
        a = b
    return best


def _best_window(
    branches: Mapping[str, Sequence[_Ladder]], which: str, base: np.ndarray, gamma: float
) -> tuple[tuple[float, float] | None, tuple[float, float] | None] | None:
    """Best (PPV window, FOR window) of one family at level gamma; None if none is feasible.

    Every window that ``_designations`` names is valued. The other family's
    window is None. Each group's value in a window is its best branch, by
    ``_branch_window_values``; totals are summed in group order, and ties go
    to the last of equal totals.
    """
    uppers = _designations(base, gamma)
    lowers = gamma * uppers
    totals = np.zeros(len(uppers))
    for pair in branches.values():
        group_best = np.full(len(uppers), -np.inf)
        for ladder in pair:
            np.maximum(
                group_best, _branch_window_values(ladder, which, lowers, uppers), out=group_best
            )
        totals += group_best
    i = len(totals) - 1 - int(np.argmax(totals[::-1]))
    if totals[i] == -np.inf:
        return None
    window = float(lowers[i]), float(uppers[i])
    return (window, None) if which == "ppv" else (None, window)


def _best_windows(
    branches: Mapping[str, Sequence[_Ladder]],
    bases: Mapping[str, np.ndarray],
    gamma: float,
) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Best (PPV window, FOR window) pair at level gamma; None if none is feasible.

    The joint scan: ``bases`` holds the candidate base of both families.
    Each family's window upper edges are thinned to an evenly spaced
    subsample of at most ``_JOINT_CAP``. Each segment's bounds in every
    window of each family are taken once; then every pair of windows is
    scanned, the PPV windows in blocks of rows, each row against every FOR
    window. A group's value in a pair is its best segment, taken at the
    better end of the intersection of its two feasible q-intervals. Ties go
    to the last of equal totals in (PPV, FOR) order.
    """
    windows = []
    for which in ("ppv", "for_rate"):
        uppers = _designations(bases[which], gamma)
        if len(uppers) > _JOINT_CAP:
            uppers = uppers[np.unique(np.linspace(0, len(uppers) - 1, _JOINT_CAP).astype(int))]
        windows.append(np.column_stack([gamma * uppers, uppers]))
    ppv_windows, for_windows = windows

    def prepared(ladder: _Ladder) -> tuple[_IntervalFamily, list, np.ndarray, np.ndarray]:
        """The PPV family, both families' bounds, and where they are nonempty."""
        families = [ladder.interval_families[which] for which in ("ppv", "for_rate")]
        bounds = [f.bounds(w[:, :1], w[:, 1:]) for f, w in zip(families, windows)]
        outer_ok, inner_ok = (f.value(*b) > -np.inf for f, b in zip(families, bounds))
        return families[0], bounds, outer_ok, inner_ok.any(axis=0)

    groups = [[prepared(ladder) for ladder in pair] for pair in branches.values()]
    k_max = max(len(ladder.scores) for pair in branches.values() for ladder in pair)
    rows = max(1, _SWEEP_BLOCK_ELEMENTS // (len(for_windows) * k_max))
    best_total, best = -np.inf, None
    for start in range(0, len(ppv_windows), rows):
        block = slice(start, start + rows)
        totals = np.zeros((len(ppv_windows[block]), len(for_windows)))
        for group in groups:
            group_best = np.full(totals.shape, -np.inf)
            for family, (outer, inner), outer_ok, inner_live in group:
                # Only segments live under some window of each family can
                # be live under a pair of them.
                cols = np.flatnonzero(outer_ok[block].any(axis=0) & inner_live)
                if cols.size == 0:
                    continue
                both = (
                    meet(a[block, None, cols], b[None, :, cols])
                    for meet, a, b in zip((np.maximum, np.minimum, np.logical_and), outer, inner)
                )
                util = family.value(*both, cols)
                np.maximum(group_best, util.max(axis=-1), out=group_best)
            totals += group_best
        flat = totals.ravel()
        i = flat.size - 1 - int(np.argmax(flat[::-1]))
        if flat[i] > -np.inf and flat[i] >= best_total:
            best_total = flat[i]
            r, c = divmod(i, len(for_windows))
            best = tuple(map(float, ppv_windows[start + r])), tuple(map(float, for_windows[c]))
    return best


def _scan_windows(
    branches: Mapping[str, Sequence[_Ladder]], bases: Mapping[str, np.ndarray], gamma: float
) -> tuple[tuple[float, float] | None, tuple[float, float] | None] | None:
    """Best (PPV window, FOR window) at level gamma; None if none is feasible.

    ``bases`` holds the candidate base of each constrained family: one goes
    to the one-family sweep (``_best_window``), both to the joint scan
    (``_best_windows``). The window of an unconstrained family is None.
    """
    if len(bases) == 2:
        return _best_windows(branches, bases, gamma)
    ((which, base),) = bases.items()
    return _best_window(branches, which, base, gamma)


def optimize_sufficiency(problem: OptimizationProblem) -> DecisionRule:
    """Optimal interval rules with PPV and/or FOR parity at level gamma.

    Sufficiency constrains both families, PPV parity and FOR parity one
    each. A scan picks the window of every constrained family, and each
    group's best point in those windows is then rebuilt under the same edge
    rule (``_IntervalFamily.bounds``). Within a window the search is exact:
    along a segment each family value is monotone in the boundary
    randomization, so the feasible part is an interval between segment ends
    and edge crossings, and a vertex within 1e-12 of an edge counts as
    inside.

    One family is swept (``_best_window``): per branch, a range-argmax over
    the segments' preferred ends, sorted once, answers every window, and
    only the (window, segment) pairs stabbed by a window edge have their
    crossings valued, which is O((W + k) log k + stabbed pairs) for W
    windows and k segments. Its windows are every breakpoint: each vertex
    value of any branch, and each of them divided by gamma, so one family
    is exact at breakpoints.

    Joint parity (``_best_windows``) values every pair of windows against
    every segment, in blocks. Each family's candidates are the same
    breakpoints of its own values, of which an evenly spaced subsample of
    at most 56 per family (56 x 56 pairs) is scanned. A joint optimum may
    need a window edge that is neither family's breakpoint, so the joint
    result is not exact, and past the cap it is thinned as well. When the
    scan finds no window, the error reports the highest level below gamma,
    to 1e-6, at which the same scan finds one; a solve at that level
    returns a rule.
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
        bases = {which: _candidate_base(branches, which) for which in families}
        windows = _scan_windows(branches, bases, gamma)
        if windows is None:
            max_gamma = _max_achievable_sufficiency_gamma(branches, bases, gamma)
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
    branches: Mapping[str, Sequence[_Ladder]], bases: Mapping[str, np.ndarray], gamma: float
) -> float:
    """Highest level below an infeasible ``gamma`` at which the solve's scan finds a window.

    Bisects [0, gamma) with ``_scan_windows`` until the bracket is at most
    1e-6 wide. The level returned was found feasible by that scan, or is 0,
    so a solve at it returns a rule.
    """
    lo, hi = 0.0, gamma
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2.0
        if _scan_windows(branches, bases, mid) is None:
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
