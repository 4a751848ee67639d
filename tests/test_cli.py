"""Golden-output tests of the command-line surface.

Every command below runs in-process on ``golden/cli/input.csv`` (450 rows,
two-decimal scores in column ``p``, ``x_`` features and an ``l_tier``
stratum), so the default training split has 300 rows and ``--verify`` runs
the brute-force oracle. Each output file must equal its golden copy byte for
byte. To rewrite the golden files after an intended output change, run
``PYTHONPATH=src python tests/test_cli.py``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from fairgate.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
INPUT = GOLDEN / "input.csv"

# Decision-sourced benefit: independence with no justifier, separation with
# the outcome, conditional parity with the stratum. Outcome-sourced benefit
# with the decision as justifier: sufficiency.
ASSESSMENTS = {
    "none": {"benefit_source": "decision", "justifier": "none"},
    "outcome": {"benefit_source": "decision", "justifier": "outcome"},
    "decision": {"benefit_source": "outcome", "justifier": "decision"},
    "legitimate": {
        "benefit_source": "decision",
        "justifier": "legitimate",
        "justifier_names": ["tier"],
    },
}

SCORED = ("--input", str(INPUT), "--score-col", "p")
SEPARATION_RULE = GOLDEN / "optimize_separation" / "rule.json"

# name -> (argv without --out, assessment file the command reads or None)
COMMANDS: dict[str, tuple[tuple[str, ...], str | None]] = {
    "optimize_independence_verify": (
        ("optimize", *SCORED, "--criterion", "independence", "--gamma", "0.8", "--verify"),
        None,
    ),
    "optimize_separation": (
        ("optimize", *SCORED, "--criterion", "separation", "--gamma", "0.9"),
        None,
    ),
    "optimize_ppv_parity": (
        ("optimize", *SCORED, "--criterion", "ppv_parity", "--gamma", "0.9"),
        None,
    ),
    **{
        f"evaluate_{justifier}": (
            ("evaluate", *SCORED, "--rule", str(SEPARATION_RULE)),
            justifier,
        )
        for justifier in ASSESSMENTS
    },
    "sweep": (("sweep", *SCORED, "--criterion", "tpr_parity"), None),
    "report": (
        ("report", "--input", str(INPUT), "--seeds", "2", "--min-count", "20"),
        "legitimate",
    ),
}


def run_command(name: str, out: Path, scratch: Path) -> None:
    argv, justifier = COMMANDS[name]
    argv = [*argv, "--out", str(out)]
    if justifier is not None:
        path = scratch / f"assessment_{justifier}.json"
        path.write_text(json.dumps(ASSESSMENTS[justifier]), encoding="utf-8")
        argv += ["--assessment", str(path)]
    assert main(argv) == 0, f"{name} exited nonzero"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / "out"
    run_command(name, out, tmp_path)
    expected = GOLDEN / name
    produced = sorted(p.name for p in out.iterdir())
    assert produced == sorted(p.name for p in expected.iterdir())
    for file_name in produced:
        assert (out / file_name).read_bytes() == (expected / file_name).read_bytes(), file_name


def test_fit_output_loads_back(tmp_path):
    assert main(["fit", "--input", str(INPUT), "--out", str(tmp_path / "fit")]) == 0
    scored = tmp_path / "fit" / "scored.csv"
    argv = ["optimize", "--input", str(scored), "--score-col", "score"]
    assert main([*argv, "--criterion", "independence", "--out", str(tmp_path / "opt")]) == 0


def _regenerate() -> None:
    scratch = GOLDEN / "_scratch"
    scratch.mkdir(exist_ok=True)
    try:
        # The evaluate commands read the separation rule, so it goes first.
        for name in sorted(COMMANDS, key=lambda n: n != "optimize_separation"):
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            run_command(name, target, scratch)
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
