"""Classify each command's outcome and check its outputs.

Every invocation ends as ``ok``, ``infeasible`` (the optimizer's
InfeasibleConstraintError diagnostic, which names the highest achievable
level it found) or ``failed``. A failed invocation is one that crashed,
exited non-zero for any other reason, tripped the time or memory guard, or
wrote outputs that fail a check:

- ``optimize``: ``disparity_ratio >= gamma - 1e-9`` in metrics_train.json,
  and with ``--verify`` the oracle comparison reports
  ``optimizer_not_worse``;
- ``sweep``: frontier.csv has one row per level, and for the criteria solved
  by the exact window sweep ``utility_train`` does not rise with gamma;
- ``report``: every seed's fair and four-fifths rules reach their level on
  the training split, and the FEC table is present;
- ``fit``: scored.csv loads back through ``fairgate.cli.load_csv`` with
  ``--score-col score``;
- repeated invocations of one command write identical outputs, within a
  run and across the runs on one seed in one source tree.

A solve yields its training utility and the level it reached: the requested
gamma for a returned rule, the reported highest achievable level for an
infeasible one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-9
SWEEP_LEVELS = 21  # the CLI's default grid 0, 0.05, ..., 1
EXACT_SWEEP_CRITERIA = ("independence", "tpr_parity", "fpr_parity")
ALWAYS_FEASIBLE = ("independence", "separation", "tpr_parity", "fpr_parity")
_INFEASIBLE = re.compile(r"highest achievable level found: ([0-9.eE+-]+)")


@dataclass
class Outcome:
    """Result of one invocation; ``reason`` explains a failure."""

    op: str
    command: str
    status: str = "ok"
    reason: str = ""
    wall_s: float = 0.0
    rss_mb: float = 0.0
    utilities: list[float] = field(default_factory=list)
    reached: list[float] = field(default_factory=list)
    digest: str = ""

    def fail(self, reason: str) -> "Outcome":
        self.status, self.reason = "failed", reason
        return self

    @property
    def check_failed(self) -> bool:
        """The command ran to its end but its output is wrong."""
        return self.status == "failed" and self.reason.startswith("check:")


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_optimize(outcome: Outcome, op, out_dir: Path) -> Outcome:
    report = _load_json(out_dir / "metrics_train.json")
    if not (out_dir / "rule.json").is_file():
        return outcome.fail("check: rule.json missing")
    ratio = report["disparity_ratio"]
    if ratio is None or ratio < op.gamma - TOL:
        return outcome.fail(f"check: disparity_ratio {ratio} below gamma {op.gamma}")
    # The rule is feasible at gamma; the oracle comparison only judges optimality.
    outcome.utilities.append(report["utility"])
    outcome.reached.append(op.gamma)
    if "--verify" in op.extra:
        verification = report.get("verification", {})
        if not verification.get("checked"):
            return outcome.fail(f"check: verify not run: {verification.get('reason')}")
        if not verification["optimizer_not_worse"]:
            gap = verification["oracle_utility"] - verification["optimizer_utility"]
            return outcome.fail(f"check: verify: optimizer {gap:.3g} below the oracle")
    return outcome


def _check_sweep(outcome: Outcome, op, out_dir: Path) -> Outcome:
    if not (out_dir / "frontier.svg").is_file():
        return outcome.fail("check: frontier.svg missing")
    with open(out_dir / "frontier.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != SWEEP_LEVELS:
        return outcome.fail(f"check: frontier.csv has {len(rows)} rows, want {SWEEP_LEVELS}")
    feasible = [(float(r["gamma"]), float(r["utility_train"])) for r in rows if r["utility_train"]]
    if op.criterion in EXACT_SWEEP_CRITERIA:
        for (g0, u0), (g1, u1) in zip(feasible, feasible[1:]):
            if u1 > u0 + TOL:
                return outcome.fail(f"check: utility_train rises from {u0} to {u1} at gamma {g1}")
    if op.criterion in ALWAYS_FEASIBLE and len(feasible) < len(rows):
        return outcome.fail("check: sweep reports a level infeasible that always has a rule")
    for row in rows:
        gamma = float(row["gamma"])
        if row["utility_train"]:
            outcome.utilities.append(float(row["utility_train"]))
            outcome.reached.append(gamma)
        else:
            outcome.reached.append(0.0)  # the frontier does not report a reachable level
    return outcome


def _check_report(outcome: Outcome, op, out_dir: Path) -> Outcome:
    summary = _load_json(out_dir / "report.json")
    gamma = summary["criterion"]["gamma"]
    for entry in summary["per_seed"]:
        for name, level in (("fair", gamma), ("four_fifths", 0.8)):
            train = entry[name]["train"]
            if train["disparity_ratio"] is None or train["disparity_ratio"] < level - TOL:
                return outcome.fail(
                    f"check: seed {entry['seed']} {name} ratio {train['disparity_ratio']} "
                    f"below {level}"
                )
            if "fec" not in train:
                return outcome.fail(f"check: seed {entry['seed']} {name} has no FEC table")
    for entry in summary["per_seed"]:
        outcome.reached += [gamma, 0.8]
        outcome.utilities += [
            entry[name]["train"]["utility"] for name in ("unconstrained", "fair", "four_fifths")
        ]
    return outcome


def _check_fit(outcome: Outcome, op, out_dir: Path, rows: int) -> Outcome:
    from fairgate.cli import ColumnRoles, load_csv

    if not (out_dir / "model.json").is_file():
        return outcome.fail("check: model.json missing")
    try:
        scored = load_csv(out_dir / "scored.csv", ColumnRoles("group", "label", score="score"))
    except ValueError as exc:
        return outcome.fail(f"check: scored.csv does not load back: {exc}")
    if len(scored) != rows:
        return outcome.fail(f"check: scored.csv has {len(scored)} rows, want {rows}")
    return outcome


def classify(outcome: Outcome, op, code: int, stderr: str, out_dir: Path, rows: int) -> Outcome:
    """Fill in the outcome of an invocation that ran to its end."""
    if code != 0:
        found = _INFEASIBLE.search(stderr)
        last = stderr.strip().splitlines()[-1] if stderr.strip() else "no diagnostic"
        if op.command != "optimize" or found is None:
            return outcome.fail(f"exit {code}: {last}")
        level = float(found.group(1))
        if op.criterion in ALWAYS_FEASIBLE or not level < op.gamma:
            return outcome.fail(f"check: wrong infeasibility: {last}")
        outcome.status = "infeasible"
        outcome.reached.append(level)
        return outcome
    outcome.digest = digest(out_dir)
    try:
        if op.command == "optimize":
            return _check_optimize(outcome, op, out_dir)
        if op.command == "sweep":
            return _check_sweep(outcome, op, out_dir)
        if op.command == "report":
            return _check_report(outcome, op, out_dir)
        return _check_fit(outcome, op, out_dir, rows)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return outcome.fail(f"check: unreadable output: {type(exc).__name__}: {exc}")


def check_repeats(outcomes: list[Outcome], first: dict[str, str]) -> None:
    """Fail every invocation whose outputs differ from the first run of its command.

    ``first`` maps command names to the digest of their first successful run,
    earlier benchmark runs on the same inputs included; it is updated in place.
    """
    for outcome in outcomes:
        if outcome.status != "ok":
            continue
        reference = first.setdefault(outcome.op, outcome.digest)
        if outcome.digest != reference:
            outcome.fail("check: outputs differ from the first run of this command")
