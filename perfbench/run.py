"""Seeded end-to-end benchmark of the fairgate command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark writes the workload's
inputs from the seed under ``.bench_out/``, then runs each of the workload's
CLI commands through ``fairgate.cli.main`` in a fresh child process, one at
a time (a closed loop with a single client). With ``--trace 0`` it cycles
through the commands for ``--seconds``, at least once each, and reports the
end-to-end metrics; ``wall_s`` sums the median run of each command. With
``--trace 1`` it runs every command once untraced and once under the span
recorder of ``tracing.py`` and reports the per-layer metrics.
Every output is checked (``check.py``); the last line of standard output is
the JSON result. ``--workload all`` runs every workload in turn and also
writes the results to ``.bench_out/BENCH_seed<N>_trace<T>.json``.

Each command runs under a time and a peak-RSS guard; a command that trips
one is recorded as ``skipped: <reason>`` and counted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import Outcome, check_repeats, classify
from tracing import LAYERS, aggregate, work_names
from workloads import WORKLOADS, Workload, generate_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

OP_TIMEOUT_S = 120.0
OP_RSS_LIMIT_MB = 2048.0
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 9
GUARD_POLL_S = 0.05
COMMANDS = ("optimize", "sweep", "report")


@dataclass
class ChildResult:
    code: int
    wall_s: float
    rss_mb: float
    guard: str  # why the guard stopped the child, "" if it did not


def _peak_rss_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def spawn(args: list[str], timeout_s: float, log_dir: Path | None = None) -> ChildResult:
    """Run child.py with ``args``; time it from spawn to exit and read its own peak RSS.

    With ``log_dir`` the child's output goes to ``stdout`` and ``stderr`` there.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if log_dir is None:
        stdout = stderr = subprocess.DEVNULL
    else:
        stdout = open(log_dir / "stdout", "w", encoding="utf-8")
        stderr = open(log_dir / "stderr", "w", encoding="utf-8")
    tripped: list[str] = []
    wall = None
    done = threading.Event()
    lock = threading.Lock()
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env=env, stdout=stdout, stderr=stderr,
        )

        def guard() -> None:
            deadline = start + timeout_s
            while not done.wait(GUARD_POLL_S):
                peak = _peak_rss_kb(proc.pid)
                reason = ""
                if time.perf_counter() > deadline:
                    reason = f"skipped: time guard {timeout_s:.0f} s"
                elif peak is not None and peak > OP_RSS_LIMIT_MB * 1024:
                    reason = f"skipped: memory guard {OP_RSS_LIMIT_MB:.0f} MB"
                if reason:
                    with lock:
                        if not done.is_set():
                            tripped.append(reason)
                            os.kill(proc.pid, signal.SIGKILL)
                    return

        watcher = threading.Thread(target=guard, daemon=True)
        watcher.start()
        # The child is reaped only after the guard has stopped, so no signal
        # can reach a reused pid.
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            with lock:
                done.set()
                if wall is None:  # interrupted: leave no child behind
                    os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            watcher.join()
    finally:
        if log_dir is not None:
            stdout.close()
            stderr.close()
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, tripped[0] if tripped else "")


class Runner:
    """One workload at one seed: inputs, guards and the outcome of every invocation."""

    def __init__(self, workload: Workload, seed: int, started: float):
        self.workload = workload
        self.started = started
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.paths = generate_inputs(workload, seed, self.dir / "inputs")
        self.invocations = 0
        self.first_wall: dict[str, float] = {}

    def csvs(self) -> list[str]:
        return [str(self.paths[key]) for key in self.workload.inputs]

    def remaining(self) -> float:
        return self.started + RUN_DEADLINE_S - time.perf_counter()

    def warm_up(self) -> None:
        """Compile bytecode and fill the file cache before anything is timed."""
        spawn(["setup", *self.csvs()], OP_TIMEOUT_S)

    def setup_time(self) -> float:
        return spawn(["setup", *self.csvs()], OP_TIMEOUT_S).wall_s

    def invoke(self, op, spans: Path | None = None) -> Outcome:
        self.invocations += 1
        outcome = Outcome(op=op.name, command=op.command)
        timeout = min(OP_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            return outcome.fail("skipped: run deadline")
        log_dir = self.dir / "out" / f"{self.invocations:04d}_{op.name}"
        out_dir = log_dir / "cli"
        out_dir.mkdir(parents=True)
        argv = op.argv(self.paths[op.input], out_dir, self.paths["assessment"])
        trace_args = ["--spans", str(spans)] if spans else []
        child = spawn(["run", *trace_args, "--", *argv], timeout, log_dir)
        outcome.wall_s, outcome.rss_mb = child.wall_s, child.rss_mb
        self.first_wall.setdefault(op.name, child.wall_s)
        if child.guard:
            return outcome.fail(child.guard)
        stderr = (log_dir / "stderr").read_text(encoding="utf-8")
        rows = self.workload.inputs[op.input].rows
        classify(outcome, op, child.code, stderr, out_dir, rows)
        shutil.rmtree(out_dir)
        return outcome

    def one_pass(self, trace: bool = False) -> list[Outcome]:
        (self.dir / "spans").mkdir(exist_ok=True)
        return [
            self.invoke(op, self.dir / "spans" / f"{op.name}.json" if trace else None)
            for op in self.workload.ops
        ]

    def measure(self, seconds: float) -> tuple[list[Outcome], list[float]]:
        """Cycle through the commands for ``seconds``, completing at least one pass.

        After the first pass a command starts only if its first run fits in
        what is left of ``seconds``. The set-up probes are spread over the run,
        one after each command until there are ``SETUP_REPEATS``, so that
        their median sees the host as the commands do. Returns the outcomes
        and the set-up times.
        """
        begin = time.perf_counter()
        ops = self.workload.ops
        outcomes: list[Outcome] = []
        setup: list[float] = []
        for index in itertools.count():
            op = ops[index % len(ops)]
            if index >= len(ops):
                left = min(seconds - (time.perf_counter() - begin), self.remaining())
                if self.first_wall[op.name] > left:
                    break
            outcomes.append(self.invoke(op))
            if len(setup) < SETUP_REPEATS:
                setup.append(self.setup_time())
        while len(setup) < SETUP_REPEATS:
            setup.append(self.setup_time())
        return outcomes, setup


class DigestStore:
    """Output digests of earlier runs in this checkout, keyed by source tree and inputs."""

    path = OUT / "digests.json"

    def __init__(self, workload: str, inputs: list[Path]):
        key = hashlib.sha256()
        for path in [*sorted((ROOT / "src").rglob("*.py")), *inputs]:
            key.update(path.name.encode())
            key.update(path.read_bytes())
        self.key = f"{workload} {key.hexdigest()[:16]}"

    def __enter__(self) -> dict[str, str]:
        self.store = json.loads(self.path.read_text()) if self.path.is_file() else {}
        return self.store.setdefault(self.key, {})

    def __exit__(self, *exc) -> None:
        self.path.write_text(json.dumps(self.store, indent=1, sort_keys=True))


def _first_per_op(outcomes: list[Outcome]) -> list[Outcome]:
    seen: dict[str, Outcome] = {}
    for outcome in outcomes:
        seen.setdefault(outcome.op, outcome)
    return list(seen.values())


def end_to_end(outcomes: list[Outcome], setup: list[float]) -> dict[str, tuple[float, str]]:
    walls: dict[str, list[float]] = {}
    for outcome in outcomes:
        walls.setdefault(outcome.op, []).append(outcome.wall_s)
    firsts = _first_per_op(outcomes)
    # A solve counts once its rule passed the level check, even when a later
    # check of the same invocation (the oracle comparison) failed.
    utilities = [u for o in firsts if o.status != "infeasible" for u in o.utilities]
    feasible = [g for o in firsts if o.status != "infeasible" for g in o.reached]
    infeasible = [g for o in firsts if o.status == "infeasible" for g in o.reached]
    solves = feasible + infeasible
    return {
        "setup_s": (statistics.median(setup), "s"),
        # One pass over the commands, each at the median of its runs.
        "wall_s": (sum(statistics.median(w) for w in walls.values()), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        "utility_mean": (statistics.fmean(utilities) if utilities else 0.0, "utility"),
        "feasible_share": (len(feasible) / len(solves) if solves else 0.0, "share"),
        "gamma_reached_mean": (statistics.fmean(solves) if solves else 0.0, "gamma"),
    }


def per_layer(
    untraced: list[Outcome], traced: list[Outcome], span_files: list[Path]
) -> dict[str, tuple[float, str]]:
    span_lists = []
    for path in span_files:
        if path.is_file():
            span_lists.append(json.loads(path.read_text()))
    layers, attributed = aggregate(span_lists)
    metrics: dict[str, tuple[float, str]] = {}
    for module, functions in LAYERS.items():
        for function in functions:
            name = f"{module}.{function}"
            entry = layers.get(name, {})
            metrics[f"{name}.busy_s"] = (entry.get("busy_s", 0.0), "s")
            metrics[f"{name}.calls"] = (entry.get("calls", 0), "count")
            for work in work_names(module, function):
                unit = "count" if work == "infeasible" else work
                metrics[f"{name}.{work}"] = (entry.get(work, 0), unit)
    traced_wall = sum(o.wall_s for o in traced)
    untraced_wall = sum(o.wall_s for o in untraced)
    metrics["process.unattributed_s"] = (traced_wall - attributed, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    for command in COMMANDS:
        wall = sum(o.wall_s for o in untraced if o.command == command)
        metrics[f"{command}_s"] = (wall, "s")
    metrics["infeasible_count"] = (sum(o.status == "infeasible" for o in untraced), "count")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    runner = Runner(WORKLOADS[name], seed, started)
    runner.warm_up()
    if trace:
        untraced = runner.one_pass()
        traced = runner.one_pass(trace=True)
        outcomes = untraced + traced
        span_files = [runner.dir / "spans" / f"{op.name}.json" for op in runner.workload.ops]
        metrics = per_layer(untraced, traced, span_files)
    else:
        outcomes, setup = runner.measure(seconds)
        metrics = end_to_end(outcomes, setup)
    with DigestStore(name, list(runner.paths.values())) as first:
        check_repeats(outcomes, first)
    for outcome in outcomes:
        detail = f" ({outcome.reason})" if outcome.reason else ""
        print(f"{name} {outcome.op}: {outcome.status} {outcome.wall_s:.3f} s "
              f"{outcome.rss_mb:.0f} MB{detail}")
    return {
        "correct": not any(o.check_failed for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status == "failed" for o in outcomes),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fairgate" / "cli.py").is_file():
        print(f"perfbench: no fairgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the fit check reads scored.csv with fairgate
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload == "all":
        path = OUT / f"BENCH_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        for name, result in results.items():
            for key, metric in result["metrics"].items():
                print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
