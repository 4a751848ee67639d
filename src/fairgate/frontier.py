"""Performance-fairness tradeoff: sweep the relaxation level and emit curves."""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from typing import Mapping, Sequence

from .metrics import (
    UndefinedMetricError,
    _disparity_detail,
    rates_from_probabilities,
    utility_from_probabilities,
)
from .model import Dataset, DecisionRule, FairnessCriterion, decision_probabilities
from .optimizer import InfeasibleConstraintError, OptimizationProblem, solve_context

# 0.8 is the four-fifths rule level; the 0.05 grid passes through it.
DEFAULT_GAMMA_GRID: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(21))


@dataclass(frozen=True)
class FrontierPoint:
    """One sample of the tradeoff curve at a requested relaxation level."""

    gamma: float
    feasible: bool
    rule: DecisionRule | None
    achieved_ratio: float | None  # on the evaluation split
    utility_train: float | None
    utility_test: float | None
    headline_rates: Mapping[str, float | None]
    note: str = ""


def headline_rate_names(criterion: FairnessCriterion, groups: Sequence[str]) -> list[str]:
    return [f"{family}_{g}" for family in criterion.kind.families for g in groups]


def sweep(
    problem: OptimizationProblem,
    gammas: Sequence[float] = DEFAULT_GAMMA_GRID,
    test_dataset: Dataset | None = None,
) -> list[FrontierPoint]:
    """One frontier point per gamma; the 0 and 1 endpoints are always included.

    Optimization runs on the problem's (training) dataset; ratios and the
    second utility are evaluated on ``test_dataset`` when given, otherwise on
    the training split. Infeasible levels are recorded and the sweep goes on.
    Every level is solved from one solve context (``solve_context``), so the
    search state that does not depend on gamma is built once, and each
    distinct rule is evaluated once: one vector of decision probabilities
    per split gives the rates, the utilities, the disparity and the headline
    rates, none of which depends on the level. A level whose rule equals
    (``==``) the one evaluated last reuses them.
    """
    levels = sorted(set(float(g) for g in gammas) | {0.0, 1.0})
    evaluation = test_dataset if test_dataset is not None else problem.dataset
    criterion, utility = problem.criterion, problem.utility
    context = solve_context(problem)
    points: list[FrontierPoint] = []
    last = None  # the point of the rule evaluated last
    for gamma in levels:
        try:
            rule = context.solve(gamma)
        except InfeasibleConstraintError as exc:
            names = headline_rate_names(criterion, problem.dataset.groups)
            points.append(FrontierPoint(gamma=gamma, feasible=False, rule=None,
                                        achieved_ratio=None, utility_train=None, utility_test=None,
                                        headline_rates=dict.fromkeys(names), note=str(exc)))
            continue
        if last is not None and rule == last.rule:
            points.append(dataclasses.replace(last, gamma=gamma, rule=rule))
            continue
        dp_eval = decision_probabilities(rule, evaluation)
        dp_train = (
            dp_eval if evaluation is problem.dataset
            else decision_probabilities(rule, problem.dataset)
        )
        rates = rates_from_probabilities(evaluation, dp_eval)
        try:
            ratio = _disparity_detail(rates, criterion).ratio
        except UndefinedMetricError:
            ratio = None
        groups = evaluation.groups
        values = [getattr(rates, f)[g] for f in criterion.kind.families for g in groups]
        last = FrontierPoint(
            gamma=gamma,
            feasible=True,
            rule=rule,
            achieved_ratio=ratio,
            utility_train=utility_from_probabilities(problem.dataset, dp_train, utility),
            utility_test=utility_from_probabilities(evaluation, dp_eval, utility),
            headline_rates=dict(zip(headline_rate_names(criterion, groups), values)),
        )
        points.append(last)
    return points


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def frontier_csv(points: Sequence[FrontierPoint]) -> str:
    """Full-precision CSV; parsing the cells back reproduces the floats.

    A rate name that holds a comma or a quote (a group's name) is quoted.
    """
    if not points:
        raise ValueError("no frontier points to emit")
    rate_names = list(points[0].headline_rates)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["gamma", "achieved_ratio", "utility_train", "utility_test", *rate_names])
    for p in points:
        writer.writerow([
            repr(p.gamma),
            _fmt(p.achieved_ratio),
            _fmt(p.utility_train),
            _fmt(p.utility_test),
            *(_fmt(p.headline_rates[name]) for name in rate_names),
        ])
    return text.getvalue()


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, whose module would load ``urllib.request`` and ``ssl``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def frontier_svg(points: Sequence[FrontierPoint]) -> str:
    """Two inline-styled charts: headline rates vs gamma, utility vs gamma.

    The unconstrained (gamma = 0) and fully fair (gamma = 1) rules are marked
    on the utility chart. Self-contained: no external assets.
    """
    if not points:
        raise ValueError("no frontier points to emit")
    feas = [p for p in points if p.feasible]
    width, height = 900, 360
    pad = 55.0
    panel_w = (width - 3 * pad) / 2

    def panel(x0: float, series: dict[str, list[tuple[float, float]]], title: str, marks):
        y_values = [y for pts in series.values() for _, y in pts]
        y_lo = min(y_values + [0.0]) if y_values else 0.0
        y_hi = max(y_values + [1.0]) if y_values else 1.0
        if y_hi - y_lo < 1e-9:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        x1, y_top, y_bot = x0 + panel_w, 40.0, height - pad
        parts = [
            f'<rect x="{x0}" y="{y_top}" width="{panel_w}" height="{y_bot - y_top}" '
            'fill="none" stroke="#333" stroke-width="1"/>',
            f'<text x="{x0 + panel_w / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
        ]
        for frac in (0.0, 0.5, 1.0):
            gx = _scale(frac, 0.0, 1.0, x0, x1)
            parts.append(
                f'<text x="{gx}" y="{y_bot + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{frac:g}</text>'
            )
            gy = _scale(y_lo + frac * (y_hi - y_lo), y_lo, y_hi, y_bot, y_top)
            parts.append(
                f'<text x="{x0 - 6}" y="{gy + 4}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{y_lo + frac * (y_hi - y_lo):.3g}</text>'
            )
        parts.append(
            f'<text x="{x0 + panel_w / 2}" y="{height - 14}" text-anchor="middle" '
            'font-family="sans-serif" font-size="12">gamma</text>'
        )
        for si, (name, pts) in enumerate(series.items()):
            if not pts:
                continue
            color = _PALETTE[si % len(_PALETTE)]
            coords = " ".join(
                f"{_scale(g, 0.0, 1.0, x0, x1):.2f},{_scale(v, y_lo, y_hi, y_bot, y_top):.2f}"
                for g, v in pts
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            lx, ly = x0 + 8, y_top + 16 + 14 * si
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" font-size="11">'
                f"{_escape(name)}</text>"
            )
        for g, v, label in marks:
            mx = _scale(g, 0.0, 1.0, x0, x1)
            my = _scale(v, y_lo, y_hi, y_bot, y_top)
            parts.append(f'<circle cx="{mx:.2f}" cy="{my:.2f}" r="4" fill="#000"/>')
            anchor = "start" if g < 0.5 else "end"
            parts.append(
                f'<text x="{mx:.2f}" y="{my - 8:.2f}" text-anchor="{anchor}" '
                f'font-family="sans-serif" font-size="11">{label}</text>'
            )
        return "\n".join(parts)

    rate_series = {
        name: [(p.gamma, p.headline_rates[name]) for p in feas if p.headline_rates[name] is not None]
        for name in (points[0].headline_rates if points else ())
    }
    util_series = {
        "utility_train": [(p.gamma, p.utility_train) for p in feas],
        "utility_test": [(p.gamma, p.utility_test) for p in feas],
    }
    marks = []
    for p in feas:
        if p.gamma == 0.0:
            marks.append((0.0, p.utility_test, "unconstrained"))
        if p.gamma == 1.0:
            marks.append((1.0, p.utility_test, "fair"))

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        panel(pad, rate_series, "group rates vs gamma", []),
        panel(2 * pad + panel_w, util_series, "utility vs gamma", marks),
        "</svg>",
    ]
    return "\n".join(body) + "\n"


def emit_frontier(points: Sequence[FrontierPoint], format: str) -> str:
    """Frontier file content in the requested format ('csv' or 'svg')."""
    if format == "csv":
        return frontier_csv(points)
    if format == "svg":
        return frontier_svg(points)
    raise ValueError(f"unknown frontier format {format!r} (expected csv or svg)")
