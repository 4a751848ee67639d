"""Exhaustive reference search used to verify the optimizers.

Candidate rules are enumerated over the distinct scores with bracketing
sentinels and a boundary-randomization grid q in [0, 1] whose spacing is
``brute_force_oracle``'s ``grid_step``; joint TPR+FPR (separation) takes
exact mixture weights on pairs of ROC vertices instead. Every candidate is
evaluated directly from record masks, independently of the optimizer's
prefix algebra. Intended for tests and --verify runs only; refuses datasets
over ``MAX_ORACLE_RECORDS`` records.

The single-family criteria (independence, TPR, FPR, PPV and FOR parity, and
each stratum of conditional parity) share one window search. It visits every
candidate value M as the top of the window [gamma * M, M] and sums each
group's best point inside it. Each group's points are held once, sorted by
value: the sorted values, their utilities and the permutation back to each
point's flat index, 20 bytes a point (8 + 8 + a 4-byte index). Every grid,
whether of rates, counts or utilities, is one ``a + q * b`` array built with
no T x Q temporary beside it; the values are sorted in place, and the
utilities are made only after the sort and read in sorted order. The values
M are read from those sorted values in array blocks of ``_SCAN_BLOCK``, and
window maxima come from a range-max table built one level at a time, so
besides the point sets memory holds O(block) and two table levels. The
search uses none of the optimizer's code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .model import (
    CriterionKind,
    Dataset,
    DecisionRule,
    GroupCut,
    GroupInterval,
    GroupThreshold,
    IntervalCut,
    Mixture,
    StratifiedGroupThreshold,
    UtilityMatrix,
    sorted_distinct,
)
from .optimizer import InfeasibleConstraintError, OptimizationProblem, _stratum_group_rows

MAX_ORACLE_RECORDS = 500
_SCAN_BLOCK = 1 << 14  # designations per block of the window search


class OracleSizeError(ValueError):
    """The instance exceeds what exhaustive enumeration can afford."""


@dataclass
class _GroupData:
    group: str
    scores: np.ndarray
    labels: np.ndarray
    du: np.ndarray  # u(1, y) - u(0, y) per record
    taus: np.ndarray  # candidate thresholds: distinct scores plus sentinels

    @classmethod
    def build(
        cls, group: str, dataset: Dataset, rows: np.ndarray, utility: UtilityMatrix
    ) -> "_GroupData":
        scores = dataset.columns.scores[rows]
        labels = dataset.columns.labels[rows]
        du = np.where(
            labels == 1, utility.u(1, 1) - utility.u(0, 1), utility.u(1, 0) - utility.u(0, 0)
        )
        uniq = sorted_distinct(scores)
        taus = list(uniq)
        if uniq[0] > 0.0:
            taus.insert(0, uniq[0] / 2.0)
        if uniq[-1] < 1.0:
            taus.append((uniq[-1] + 1.0) / 2.0)
        return cls(group, scores, labels, du, np.array(taus))

    @property
    def n(self) -> int:
        return len(self.scores)

    @property
    def n_pos(self) -> int:
        return int((self.labels == 1).sum())

    def threshold_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(above, at) boolean masks of every candidate threshold."""
        above = self.scores[None, :] > self.taus[:, None]
        at = self.scores[None, :] == self.taus[:, None]
        return above, at

    def family_weights(self, family: str) -> np.ndarray | None:
        if family == "positive_rate":
            return np.full(self.n, 1.0 / self.n)
        if family == "tpr":
            if self.n_pos == 0:
                return None
            return (self.labels == 1) / self.n_pos
        if family == "fpr":
            n_neg = self.n - self.n_pos
            if n_neg == 0:
                return None
            return (self.labels == 0) / n_neg
        raise ValueError(family)


def _q_grid(step: float) -> np.ndarray:
    count = int(round(1.0 / step))
    return np.linspace(0.0, 1.0, count + 1)


def _grid(offsets: np.ndarray, slopes: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``offsets[r] + qs[q] * slopes[r]`` at flat index ``r * len(qs) + q``.

    The grid is the one array allocated: no rows x q temporary is made. Each
    element takes the same product and sum as ``offsets + qs * slopes``
    broadcast, so it is equal bit for bit.
    """
    grid = np.multiply.outer(slopes, qs)
    grid += offsets[:, None]
    return grid.ravel()


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, written into ``num``, with NaN where ``den <= 0``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(num, den, out=num)
    num[den <= 0] = np.nan
    return num


@dataclass
class _PointSet:
    """One group's candidate points, sorted by value with a stable sort.

    ``order[i]`` is the flat index of the i-th point: ``tau_index * len(qs) +
    q_index`` for a threshold point, as ``_interval_points`` says for an
    interval one. Points whose value is NaN are left out.
    """

    values: np.ndarray
    utils: np.ndarray
    order: np.ndarray

    @classmethod
    def sort(cls, values: np.ndarray, make_utils: Callable[[], np.ndarray]) -> "_PointSet":
        """The points of flat ``values``, which are sorted in place; NaN goes last.

        ``make_utils()`` gives every point's utility by flat index. It is
        called after the sort, so the unsorted values, the unsorted utilities
        and the sorted ones are never held at once. ``order`` takes the
        smallest unsigned type that indexes every point.
        """
        order = np.argsort(values, kind="stable")[: len(values) - int(np.isnan(values).sum())]
        order = order.astype(np.min_scalar_type(len(values)))
        values.sort(kind="stable")
        return cls(values[: len(order)], make_utils()[order], order)

    def first_best(self) -> int:
        """The smallest flat index among the points of greatest utility."""
        return int(self.order[self.utils == self.utils.max()].min())


def _threshold_points(data: _GroupData, family: str, qs: np.ndarray) -> _PointSet | None:
    weights = data.family_weights(family)
    if weights is None:
        return None
    above, at = data.threshold_masks()
    values = _grid(above @ weights, at @ weights, qs)
    return _PointSet.sort(values, lambda: _grid(above @ data.du, at @ data.du, qs))


def _window_search(
    point_sets: Mapping[str, _PointSet], gamma: float
) -> tuple[float, dict[str, int]] | None:
    """Exhaustive max utility over grid tuples with rate ratios >= gamma.

    A tuple is feasible iff all chosen values fit in [gamma * M, M] for some
    M, so the search visits every candidate value M (a designation) and takes
    each group's best point in its window. The designations are each group's
    sorted values, walked in blocks of ``_SCAN_BLOCK`` with repeats removed;
    within a block, a group's windows are index ranges of its values and
    their maxima come from ``_window_maxima``. Groups add up in sorted order
    from 0.0; of the designations with the greatest total, the smallest wins.
    A group's pick is the last of the equal maxima in its window, named by
    its flat index; at gamma 0 it is the group's ``first_best``. Memory holds
    the point sets (per group the sorted values, utilities and permutation),
    O(block) arrays and two levels of one group's range-max table.
    Everything here works on the point sets alone and shares no code with
    the optimizer.
    """
    groups = sorted(point_sets)
    if gamma == 0.0:
        total = sum(float(point_sets[g].utils.max()) for g in groups)
        return total, {g: point_sets[g].first_best() for g in groups}

    best_total: float | None = None
    best_m = 0.0
    for source in groups:
        values = point_sets[source].values
        for start in range(0, len(values), _SCAN_BLOCK):
            block = values[start : start + _SCAN_BLOCK]
            fresh = np.empty(len(block), dtype=bool)
            fresh[0] = start == 0 or block[0] != values[start - 1]
            np.not_equal(block[1:], block[:-1], out=fresh[1:])
            block = block[fresh]
            lows = gamma * block
            # In the source group a value's run of repeats ends where the
            # next fresh value starts; only the block's last run is searched.
            run_ends = start + np.flatnonzero(fresh)[1:]
            last_end = np.searchsorted(values, block[-1:], "right")
            totals = np.zeros(len(block))
            feasible = np.ones(len(block), dtype=bool)
            for g in groups:
                lo = np.searchsorted(point_sets[g].values, lows, "left")
                if g == source:
                    hi = np.concatenate([run_ends, last_end])
                else:
                    hi = np.searchsorted(point_sets[g].values, block, "right")
                feasible &= hi > lo
                totals += _window_maxima(point_sets[g].utils, lo, hi)
            candidates = np.flatnonzero(feasible)
            if len(candidates) == 0:
                continue
            i = candidates[np.argmax(totals[candidates])]
            if best_total is None or totals[i] > best_total or (
                totals[i] == best_total and block[i] < best_m
            ):
                best_total, best_m = float(totals[i]), block[i]
    if best_total is None:
        return None
    picks = {}
    for g in groups:
        points = point_sets[g]
        lo = int(np.searchsorted(points.values, gamma * best_m, "left"))
        hi = int(np.searchsorted(points.values, best_m, "right"))
        last_best = hi - 1 - int(np.argmax(points.utils[lo:hi][::-1]))
        picks[g] = int(points.order[last_best])
    return best_total, picks


def _window_maxima(utils: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(utils[lo:hi]) of each window, 0.0 where a window is empty.

    ``lo`` and ``hi`` are nondecreasing. A range-max table over the span the
    windows cover is built one level at a time: level k holds the max of
    every run of 2**k values, and a window whose length is in [2**k, 2**(k+1))
    reads two overlapping runs at level k. Only that level and the next are
    alive at once.
    """
    maxima = np.zeros(len(lo))
    if len(lo) == 0:
        return maxima
    level_of = np.frexp(np.maximum(hi - lo, 0))[1] - 1  # floor(log2(length)); -1 if empty
    base = int(lo[0])
    table = utils[base : max(int(hi[-1]), base)]
    lo, hi = lo - base, hi - base
    for level in range(int(level_of.max()) + 1):
        if level:
            half = 1 << (level - 1)
            table = np.maximum(table[:-half], table[half:])
        at = np.flatnonzero(level_of == level)
        maxima[at] = np.maximum(table[lo[at]], table[hi[at] - (1 << level)])
    return maxima


def _cut_for_point(data: _GroupData, qs: np.ndarray, idx: int) -> GroupCut:
    """The cut of threshold point ``idx`` of ``_threshold_points(data, family, qs)``."""
    tau_index, q_index = divmod(idx, len(qs))
    return GroupCut(tau=float(data.taus[tau_index]), boundary=float(qs[q_index]))


def _oracle_single_family(
    groups_data: Mapping[str, _GroupData], family: str, gamma: float, qs: np.ndarray
) -> GroupThreshold:
    point_sets: dict[str, _PointSet] = {}
    free_cuts: dict[str, GroupCut] = {}
    for g, data in groups_data.items():
        points = _threshold_points(data, family, qs)
        if points is None:
            fallback = _threshold_points(data, "positive_rate", qs)
            free_cuts[g] = _cut_for_point(data, qs, fallback.first_best())
            continue
        point_sets[g] = points
    found = _window_search(point_sets, gamma)
    if found is None:
        raise InfeasibleConstraintError("oracle found no feasible grid tuple")
    _, picks = found
    cuts = {g: _cut_for_point(groups_data[g], qs, idx) for g, idx in picks.items()}
    cuts.update(free_cuts)
    return GroupThreshold(cuts)


# ---------------------------------------------------------------------------
# Joint TPR+FPR: vertex-pair mixtures with exact weights
# ---------------------------------------------------------------------------


def _roc_vertices(data: _GroupData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fpr, tpr, util) of every deterministic threshold cut."""
    above, _ = data.threshold_masks()
    pos = (data.labels == 1).astype(float)
    neg = (data.labels == 0).astype(float)
    n_pos = data.n_pos
    n_neg = data.n - n_pos
    tpr = (above @ pos) / n_pos if n_pos else np.zeros(len(data.taus))
    fpr = (above @ neg) / n_neg if n_neg else np.zeros(len(data.taus))
    util = above @ data.du
    return fpr, tpr, util


def _oracle_separation_both(
    groups_data: Mapping[str, _GroupData], gamma: float
) -> DecisionRule:
    groups = sorted(groups_data)
    if gamma == 0.0:
        cuts = {}
        for g in groups:
            fpr, tpr, util = _roc_vertices(groups_data[g])
            idx = int(np.argmax(util))
            cuts[g] = GroupCut(tau=float(groups_data[g].taus[idx]), boundary=0.0)
        return GroupThreshold(cuts)
    if len(groups) != 2:
        raise OracleSizeError(
            "joint TPR+FPR enumeration is implemented for two groups "
            "(use gamma = 0 for more)"
        )
    ga, gb = groups
    fa, ta, ua = _roc_vertices(groups_data[ga])
    fb, tb, ub = _roc_vertices(groups_data[gb])
    if len(fa) > 80 or len(fb) > 80:
        raise OracleSizeError("too many threshold vertices for pairwise enumeration")

    use_tpr = groups_data[ga].n_pos > 0 and groups_data[gb].n_pos > 0
    use_fpr = (groups_data[ga].n - groups_data[ga].n_pos) > 0 and (
        groups_data[gb].n - groups_data[gb].n_pos
    ) > 0

    ia, ja = np.triu_indices(len(fa))
    ib, jb = np.triu_indices(len(fb))

    best = {"util": -np.inf}
    tol = 1e-9
    for pa in range(len(ia)):
        a1, a2 = int(ia[pa]), int(ja[pa])
        # Point of group a: w * vertex1 + (1 - w) * vertex2, linear in w.
        ta0, dta = ta[a2], ta[a1] - ta[a2]
        fa0, dfa = fa[a2], fa[a1] - fa[a2]
        ua0, dua = ua[a2], ua[a1] - ua[a2]
        tb0, dtb = tb[jb], tb[ib] - tb[jb]
        fb0, dfb = fb[jb], fb[ib] - fb[jb]
        ub0, dub = ub[jb], ub[ib] - ub[jb]

        # Constraints alpha * wa + beta * wb + delta >= 0, broadcast over pairs.
        cons: list[tuple[float, np.ndarray, np.ndarray]] = []
        if use_tpr:
            cons.append((dta, -gamma * dtb, ta0 - gamma * tb0))
            cons.append((-gamma * dta, dtb, tb0 - gamma * ta0))
        if use_fpr:
            cons.append((dfa, -gamma * dfb, fa0 - gamma * fb0))
            cons.append((-gamma * dfa, dfb, fb0 - gamma * fa0))

        zeros = np.zeros(len(ib))
        ones = np.ones(len(ib))
        candidates: list[tuple[np.ndarray, np.ndarray]] = [
            (zeros, zeros),
            (zeros, ones),
            (ones, zeros),
            (ones, ones),
        ]
        for alpha, beta, delta in cons:
            with np.errstate(divide="ignore", invalid="ignore"):
                for wa_fixed in (zeros, ones):
                    wb = np.where(beta != 0.0, -(alpha * wa_fixed + delta) / np.where(beta != 0.0, beta, 1.0), np.nan)
                    candidates.append((wa_fixed, wb))
                for wb_fixed in (0.0, 1.0):
                    denom = np.where(alpha != 0.0, alpha, np.nan)
                    wa = -(beta * wb_fixed + delta) / denom
                    candidates.append((wa, np.full(len(ib), wb_fixed)))
        for c1 in range(len(cons)):
            for c2 in range(c1 + 1, len(cons)):
                a1c, b1c, d1c = cons[c1]
                a2c, b2c, d2c = cons[c2]
                det = a1c * b2c - a2c * b1c
                with np.errstate(divide="ignore", invalid="ignore"):
                    safe = np.where(np.abs(det) > 1e-14, det, np.nan)
                    wa = (d2c * b1c - d1c * b2c) / safe
                    wb = (a2c * d1c - a1c * d2c) / safe
                candidates.append((wa, wb))

        for wa, wb in candidates:
            wa = np.broadcast_to(wa, len(ib)).astype(float)
            wb = np.broadcast_to(wb, len(ib)).astype(float)
            ok = (wa >= -tol) & (wa <= 1 + tol) & (wb >= -tol) & (wb <= 1 + tol)
            ok &= ~np.isnan(wa) & ~np.isnan(wb)
            for alpha, beta, delta in cons:
                ok &= alpha * wa + beta * wb + delta >= -tol
            if not ok.any():
                continue
            utils = np.where(ok, ua0 + dua * wa + ub0 + dub * wb, -np.inf)
            pb = int(np.argmax(utils))
            if utils[pb] > best["util"]:
                best = {
                    "util": float(utils[pb]),
                    "a": (a1, a2, float(min(max(wa[pb], 0.0), 1.0))),
                    "b": (int(ib[pb]), int(jb[pb]), float(min(max(wb[pb], 0.0), 1.0))),
                }
    if not np.isfinite(best["util"]):
        raise InfeasibleConstraintError("oracle found no feasible vertex-pair mixture")

    a1, a2, wa = best["a"]
    b1, b2, wb = best["b"]
    first = GroupThreshold(
        {
            ga: GroupCut(tau=float(groups_data[ga].taus[a1]), boundary=0.0),
            gb: GroupCut(tau=float(groups_data[gb].taus[b1]), boundary=0.0),
        }
    )
    second = GroupThreshold(
        {
            ga: GroupCut(tau=float(groups_data[ga].taus[a2]), boundary=0.0),
            gb: GroupCut(tau=float(groups_data[gb].taus[b2]), boundary=0.0),
        }
    )
    return Mixture(weights={ga: wa, gb: wb}, first=first, second=second)


# ---------------------------------------------------------------------------
# Sufficiency: interval candidates on the grid
# ---------------------------------------------------------------------------


def _interval_taus(data: _GroupData) -> np.ndarray:
    return data.taus[(data.taus > 0.0) & (data.taus < 1.0)]


def _interval_points(
    data: _GroupData, qs: np.ndarray, families: tuple[str, ...]
) -> tuple[list[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Each family's value of every interval point, by flat index, and the utility lines.

    With the T thresholds of ``_interval_taus``, point ``(branch * T +
    tau_index) * len(qs) + q_index`` accepts the records above tau (branch 0,
    the lower form) or below it (branch 1, the upper form), and q of those at
    tau. A family's value is NaN where its denominator is 0. The utilities
    are ``_grid(*lines, qs)``, made by the caller when it needs them.
    """
    taus = _interval_taus(data)
    at = data.scores[None, :] == taus[:, None]
    branches = (data.scores[None, :] > taus[:, None], data.scores[None, :] < taus[:, None])

    def lines(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's summed weights: of the records its branch accepts, and of those at tau."""
        return np.concatenate([mask @ weights for mask in branches]), np.tile(at @ weights, 2)

    if not families:
        return [], lines(data.du)
    ep = _grid(*lines(np.ones(data.n)), qs)
    epy = _grid(*lines((data.labels == 1).astype(float)), qs)
    values = {}
    if "for_rate" in families:
        values["for_rate"] = _ratio(data.n_pos - epy, data.n - ep)
    if "ppv" in families:
        values["ppv"] = _ratio(epy, ep)  # written into epy, so after FOR
    return [values[f] for f in families], lines(data.du)


def _interval_point_set(data: _GroupData, family: str, qs: np.ndarray) -> _PointSet:
    (values,), util_lines = _interval_points(data, qs, (family,))
    return _PointSet.sort(values, lambda: _grid(*util_lines, qs))


def _interval_cut(data: _GroupData, qs: np.ndarray, idx: int) -> IntervalCut:
    """The cut of interval point ``idx`` of ``_interval_points(data, qs, ...)``."""
    taus = _interval_taus(data)
    branch, rest = divmod(idx, len(taus) * len(qs))
    tau_index, q_index = divmod(rest, len(qs))
    tau, q = float(taus[tau_index]), float(qs[q_index])
    if branch == 0:
        return IntervalCut(low=tau, high=1.0, boundary=q, form="lower")
    return IntervalCut(low=0.0, high=tau, boundary=q, form="upper")


def _oracle_sufficiency(
    groups_data: Mapping[str, _GroupData],
    families: tuple[str, ...],
    gamma: float,
    qs: np.ndarray,
) -> GroupInterval:
    groups = sorted(groups_data)

    if gamma == 0.0:
        cuts = {}
        for g in groups:
            _, util_lines = _interval_points(groups_data[g], qs, ())
            cuts[g] = _interval_cut(groups_data[g], qs, int(np.argmax(_grid(*util_lines, qs))))
        return GroupInterval(cuts)

    if len(families) == 1:
        sets = {g: _interval_point_set(groups_data[g], families[0], qs) for g in groups}
        found = _window_search(sets, gamma)
        if found is None:
            raise InfeasibleConstraintError("oracle found no feasible grid tuple")
        _, picks = found
        cuts = {g: _interval_cut(groups_data[g], qs, idx) for g, idx in picks.items()}
        return GroupInterval(cuts)

    if len(groups) != 2:
        raise OracleSizeError(
            "joint PPV+FOR enumeration is implemented for two groups "
            "(use gamma = 0 for more)"
        )
    ga, gb = groups
    (ppv_a, for_a), lines_a = _interval_points(groups_data[ga], qs, ("ppv", "for_rate"))
    (ppv_b, for_b), lines_b = _interval_points(groups_data[gb], qs, ("ppv", "for_rate"))
    util_a, util_b = _grid(*lines_a, qs), _grid(*lines_b, qs)
    idx_a = np.nonzero(~np.isnan(ppv_a) & ~np.isnan(for_a))[0]
    idx_b = np.nonzero(~np.isnan(ppv_b) & ~np.isnan(for_b))[0]
    if len(idx_a) * len(idx_b) > 40_000_000:
        raise OracleSizeError("too many interval pairs for joint enumeration")
    best_util = -np.inf
    best_pair: tuple[int, int] | None = None
    ppv_b, for_b, util_b = ppv_b[idx_b], for_b[idx_b], util_b[idx_b]
    for a_pos in range(len(idx_a)):
        a_idx = int(idx_a[a_pos])
        p_a, f_a, u_a = ppv_a[a_idx], for_a[a_idx], util_a[a_idx]
        ok = (
            (ppv_b >= gamma * p_a)
            & (p_a >= gamma * ppv_b)
            & (for_b >= gamma * f_a)
            & (f_a >= gamma * for_b)
        )
        if not ok.any():
            continue
        utils = np.where(ok, u_a + util_b, -np.inf)
        b_pos = int(np.argmax(utils))
        if utils[b_pos] > best_util:
            best_util = float(utils[b_pos])
            best_pair = (a_idx, int(idx_b[b_pos]))
    if best_pair is None:
        raise InfeasibleConstraintError("oracle found no feasible interval pair")
    return GroupInterval(
        {
            ga: _interval_cut(groups_data[ga], qs, best_pair[0]),
            gb: _interval_cut(groups_data[gb], qs, best_pair[1]),
        }
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def brute_force_oracle(problem: OptimizationProblem, grid_step: float = 1e-3) -> DecisionRule:
    """Feasible utility-max rule found by exhaustive enumeration on a q-grid of ``grid_step``."""
    dataset = problem.dataset
    if len(dataset) > MAX_ORACLE_RECORDS:
        raise OracleSizeError(
            f"oracle refuses datasets over {MAX_ORACLE_RECORDS} records "
            f"(got {len(dataset)})"
        )
    utility = problem.utility
    gamma = problem.criterion.gamma
    kind = problem.criterion.kind
    qs = _q_grid(grid_step)
    if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY:
        return _oracle_conditional_parity(problem, qs)
    codes = dataset.columns.group_codes
    groups_data = {
        g: _GroupData.build(g, dataset, np.flatnonzero(codes == i), utility)
        for i, g in enumerate(dataset.groups)
    }
    if set(kind.families) <= {"ppv", "for_rate"}:
        return _oracle_sufficiency(groups_data, kind.families, gamma, qs)
    if kind.families == ("tpr", "fpr"):
        return _oracle_separation_both(groups_data, gamma)
    return _oracle_single_family(groups_data, kind.families[0], gamma, qs)


def _oracle_conditional_parity(problem: OptimizationProblem, qs: np.ndarray) -> DecisionRule:
    dataset, utility = problem.dataset, problem.utility
    names = problem.criterion.legit_names
    gamma = problem.criterion.gamma
    cuts: dict[tuple[str, tuple[str, ...]], GroupCut] = {}
    for stratum, groups_here in _stratum_group_rows(dataset, names):
        data = {g: _GroupData.build(g, dataset, rows, utility) for g, rows in groups_here.items()}
        constrained = (
            all(len(groups_here.get(g, ())) >= problem.min_count for g in dataset.groups)
            and len(data) >= 2
        )
        # At gamma 0 every group of an unconstrained stratum takes its best cut.
        rule = _oracle_single_family(data, "positive_rate", gamma if constrained else 0.0, qs)
        for g, cut in rule.cuts.items():
            cuts[(g, stratum)] = cut
    return StratifiedGroupThreshold(legit_names=names, cuts=cuts)
