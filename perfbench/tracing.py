"""In-memory span recorder installed from outside the fairgate package.

``install`` wraps the public functions of each layer (module) listed in
``LAYERS`` in every fairgate namespace that binds them, so calls made through
``fairgate.cli.optimize`` or ``fairgate.frontier.compute_rates`` are seen as
well as calls through the defining module. Each call records a span: name,
start, end, parent span and the work it was given. Work is counted outside
the span: atom counts before the call, in a ``trace.count`` span so that
their time is not charged to the enclosing layer, and lengths after it.
``aggregate`` turns the spans of one or more processes into per-layer self
time, call and work counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path


def _arg_len(position: int):
    """Counter: the length of a positional argument (fairgate passes these positionally)."""
    return lambda args, result: len(args[position])


def _result_len(args, result) -> int:
    return len(result)


def _atoms(args) -> int:
    """Distinct (group, score) pairs of the problem's dataset or of the dataset given."""
    dataset = getattr(args[0], "dataset", args[0])
    if dataset is None:
        return 0
    return len({(rec.group, rec.score) for rec in dataset.records})


# layer -> function -> (work counter, count before the call, count after it);
# exactly one of the two counting functions is given.
LAYERS: dict[str, dict[str, tuple]] = {
    "cli": {
        "load_csv": ("rows", None, _result_len),
        "dataset_from_rows": ("rows", None, _arg_len(1)),
    },
    "scorer": {
        "split": ("records", None, _arg_len(0)),
        "fit": ("records", None, _arg_len(0)),
        "score_dataset": ("records", None, _arg_len(1)),
    },
    "optimizer": {
        name: ("atoms", _atoms, None)
        for name in (
            "optimize_independence",
            "optimize_separation",
            "optimize_sufficiency",
            "optimize_conditional_parity",
            "optimize_unconstrained",
        )
    },
    "metrics": {
        name: ("records", None, _arg_len(0))
        for name in ("compute_rates", "decision_maker_utility", "fec_check", "metric_report")
    },
    "frontier": {
        "sweep": ("levels", None, _result_len),
        "emit_frontier": ("points", None, _arg_len(0)),
    },
    "oracle": {
        "brute_force_oracle": ("records", None, lambda args, result: len(args[0].dataset)),
    },
}

COUNT_SPAN = "trace.count"
INFEASIBLE = "InfeasibleConstraintError"


def work_names(module: str, function: str) -> tuple[str, ...]:
    """Work counters reported for one layer function, besides busy_s and calls."""
    work = LAYERS[module][function][0]
    return (work, "infeasible") if module == "optimizer" else (work,)


class SpanRecorder:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": start, "end": None, "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, end: float) -> dict:
        self._stack.pop()
        span = self.spans[index]
        span["end"] = end
        return span

    def wrap(self, name: str, fn, work: str, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = {}
            if before is not None:
                index = self._open(COUNT_SPAN, time.perf_counter())
                done[work] = before(args)
                self._close(index, time.perf_counter())
            index = self._open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index]["error"] = type(exc).__name__
                raise
            finally:
                self._close(index, time.perf_counter())["work"] = done
            if after is not None:
                done[work] = after(args, result)
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def install() -> SpanRecorder:
    """Wrap every listed function wherever a fairgate module binds it."""
    recorder = SpanRecorder()
    for module in LAYERS:
        importlib.import_module(f"fairgate.{module}")
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "fairgate"]
    for module, functions in LAYERS.items():
        defining = sys.modules[f"fairgate.{module}"]
        for function, (work, before, after) in functions.items():
            original = getattr(defining, function)
            traced = recorder.wrap(f"{module}.{function}", original, work, before, after)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, traced)
    return recorder


def aggregate(span_lists: list[list[dict]]) -> tuple[dict[str, dict[str, float]], float]:
    """Per-layer {busy_s, calls, work...} and the summed root-span time.

    Self (busy) time is a span's duration minus the durations of its direct
    children; in one thread the children are disjoint and lie inside it.
    """
    layers: dict[str, dict[str, float]] = {}
    attributed = 0.0
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
            else:
                attributed += span["end"] - span["start"]
        for span, children in zip(spans, child_time):
            if span["name"] == COUNT_SPAN:
                continue
            entry = layers.setdefault(span["name"], {"busy_s": 0.0, "calls": 0})
            entry["busy_s"] += span["end"] - span["start"] - children
            entry["calls"] += 1
            for key, value in span.get("work", {}).items():
                entry[key] = entry.get(key, 0) + value
            if span.get("error") == INFEASIBLE:
                entry["infeasible"] = entry.get("infeasible", 0) + 1
    return layers, attributed
