"""Smoke tests of the benchmark at small sizes.

    python3 -m pytest perfbench

Every workload runs once untraced and once traced on shrunken inputs; the
tests check that every metric named in BENCHMARK.json is emitted with its
unit, and that the checker rejects corrupted outputs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
from workloads import WORKLOADS, InputSpec, Op, generate_inputs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the fit check reads scored.csv with fairgate
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_ROWS = {"coarse": 3_000, "continuous": 1_200, "small": 90, "separation0": 300}


def _small(workload):
    """The workload on shrunken inputs, with one separation instance."""
    inputs = {
        key: dataclasses.replace(spec, rows=SMALL_ROWS[key])
        for key, spec in workload.inputs.items()
        if key in SMALL_ROWS
    }
    ops = tuple(op for op in workload.ops if op.input in inputs)
    return dataclasses.replace(workload, inputs=inputs, ops=ops)


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {name: _small(w) for name, w in WORKLOADS.items()})


def _result(capsys, *args) -> dict:
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_file_lists_the_workloads():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, small_workloads, capsys):
    untraced = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", "0")
    _assert_metrics(untraced, SPEC["end_to_end"])
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        assert untraced["metrics"][name]["value"] > 0
    assert untraced["correct"] is True and untraced["failed"] == 0
    traced = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1")
    _assert_metrics(traced, SPEC["per_layer"])
    # every command parses its CSV once, directly or through load_csv
    ingests = traced["metrics"]["cli.dataset_from_rows.calls"]["value"]
    assert ingests == len(run.WORKLOADS[workload].ops)


@pytest.fixture
def optimize_output(tmp_path):
    """A real optimize run on a small input, and the op that produced it."""
    paths = generate_inputs(
        dataclasses.replace(WORKLOADS["sufficiency_search"], inputs={"small": InputSpec(300, 3)}),
        seed=5,
        directory=tmp_path / "inputs",
    )
    op = Op("optimize_independence_0.8", "optimize", "small", "independence", 0.8)
    out = tmp_path / "out"
    out.mkdir()
    child = run.spawn(["run", "--", *op.argv(paths["small"], out, paths["assessment"])], 60.0)
    assert child.code == 0
    return op, out


def _classify(op, out: Path, code: int = 0, stderr: str = "") -> check.Outcome:
    return check.classify(check.Outcome(op.name, op.command), op, code, stderr, out, 300)


def test_checker_accepts_real_output(optimize_output):
    op, out = optimize_output
    outcome = _classify(op, out)
    assert outcome.status == "ok", outcome.reason
    assert outcome.reached == [0.8]


def test_checker_rejects_ratio_below_gamma(optimize_output):
    op, out = optimize_output
    report = json.loads((out / "metrics_train.json").read_text())
    report["disparity_ratio"] = 0.79
    (out / "metrics_train.json").write_text(json.dumps(report))
    outcome = _classify(op, out)
    assert outcome.check_failed and "below gamma" in outcome.reason


def test_checker_rejects_missing_and_truncated_output(optimize_output):
    op, out = optimize_output
    (out / "metrics_train.json").write_text('{"disparity_ratio": ')
    assert _classify(op, out).check_failed
    (out / "metrics_train.json").unlink()
    assert _classify(op, out).check_failed


def test_checker_rejects_outputs_that_change_between_runs(optimize_output, tmp_path):
    op, out = optimize_output
    first = _classify(op, out)
    again = tmp_path / "again"
    shutil.copytree(out, again)
    rule = again / "rule.json"
    rule.write_text(rule.read_text().replace("0.", "0.0", 1))
    second = _classify(op, again)
    check.check_repeats([first, second], {})
    assert first.status == "ok"
    assert second.check_failed and "differ" in second.reason
    earlier = {first.op: first.digest}
    third = _classify(op, again)
    check.check_repeats([third], earlier)
    assert third.check_failed


def test_infeasibility_classification():
    op = Op("optimize_sufficiency_1.0", "optimize", "small", "sufficiency", 1.0)
    stderr = "error: no interval rule reaches gamma = 1; highest achievable level found: 0.99\n"
    outcome = _classify(op, Path("/nonexistent"), 1, stderr)
    assert outcome.status == "infeasible" and outcome.reached == [0.99]
    wrong = _classify(op, Path("/nonexistent"), 1, stderr.replace("0.99", "1.0"))
    assert wrong.check_failed
    crash = _classify(op, Path("/nonexistent"), 1, "error: something else\n")
    assert crash.status == "failed" and not crash.check_failed


def test_sweep_checker_rejects_missing_row(tmp_path):
    op = Op("sweep_independence", "sweep", "coarse", criterion="independence")
    rows = ["gamma,achieved_ratio,utility_train,utility_test"]
    rows += [f"{0.05 * i!r},1.0,{0.9 - 0.01 * i!r},0.8" for i in range(check.SWEEP_LEVELS)]
    (tmp_path / "frontier.svg").write_text("<svg/>")
    (tmp_path / "frontier.csv").write_text("\n".join(rows) + "\n")
    assert _classify(op, tmp_path).status == "ok"
    (tmp_path / "frontier.csv").write_text("\n".join(rows[:-1]) + "\n")
    assert _classify(op, tmp_path).check_failed
    rows[5] = rows[5].replace("0.86", "0.99")
    (tmp_path / "frontier.csv").write_text("\n".join(rows) + "\n")
    assert "rises" in _classify(op, tmp_path).reason


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frontier_coarse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _run_op(tmp_path, spec: InputSpec, seed: int, op: Op) -> check.Outcome:
    """Run one op in a fresh child on a generated input and classify it."""
    paths = generate_inputs(
        dataclasses.replace(WORKLOADS["sufficiency_search"], inputs={op.input: spec}),
        seed=seed,
        directory=tmp_path / "inputs",
    )
    out = tmp_path / "out"
    out.mkdir()
    log = tmp_path / "log"
    log.mkdir()
    child = run.spawn(["run", "--", *op.argv(paths[op.input], out, paths["assessment"])], 120.0,
                      log)
    stderr = (log / "stderr").read_text()
    return check.classify(check.Outcome(op.name, op.command), op, child.code, stderr, out,
                          spec.rows)


def _assert_fixed(outcome: check.Outcome, defect: str) -> None:
    """Pass once the op succeeds; fail with AssertionError only for the known defect."""
    if outcome.status != "ok" and defect not in outcome.reason:
        raise RuntimeError(f"unexpected failure: {outcome.reason}")
    assert outcome.status == "ok", outcome.reason


# Known defects of the program. Each is kept out of the benchmark's workloads,
# because a workload must not fail, and is pinned here instead: once the
# program is fixed the test passes, strict xfail reports that, and the op can
# go back into its workload. Any other failure is an error, not an xfail.

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fit writes repr(np.float64) cells into scored.csv")
def test_known_defect_fit_output_loads_back(tmp_path):
    outcome = _run_op(tmp_path, InputSpec(400, 6), 3, Op("fit", "fit", "continuous"))
    _assert_fixed(outcome, "scored.csv does not load back")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ppv_parity optimizer below the oracle on this draw")
def test_known_defect_ppv_parity_matches_oracle(tmp_path):
    op = Op("verify_ppv_parity_0.9", "optimize", "small", "ppv_parity", 0.9, extra=("--verify",))
    outcome = _run_op(tmp_path, InputSpec(600, 3), 1, op)
    _assert_fixed(outcome, "below the oracle")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="separation sweep cannot realize a target on this draw")
def test_known_defect_separation_sweep_realizes_every_level(tmp_path):
    op = Op("sweep_separation", "sweep", "coarse", criterion="separation")
    outcome = _run_op(tmp_path, InputSpec(20_000, 2), 203, op)
    _assert_fixed(outcome, "could not realize the target point")
