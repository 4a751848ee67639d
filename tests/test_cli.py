"""Golden-output tests of the command-line surface.

Every command below runs in-process on ``golden/cli/input.csv`` (450 rows,
two-decimal scores in column ``p``, ``x_`` features and an ``l_tier``
stratum), so the default training split has 300 rows and ``--verify`` runs
the brute-force oracle. Each output file must equal its golden copy byte for
byte. To rewrite the golden files after an intended output change, run
``PYTHONPATH=src python tests/test_cli.py``.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fairgate import cli, metrics
from fairgate.cli import ColumnRoles, RunConfig, _build_config, build_parser, main, run_report
from fairgate.model import UtilityMatrix
from fairgate.scorer import FitConfig

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
    "fit": (("fit", "--input", str(INPUT)), None),
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
    "optimize_ppv_parity_verify": (
        ("optimize", *SCORED, "--criterion", "ppv_parity", "--gamma", "0.9", "--verify"),
        None,
    ),
    "optimize_for_parity": (
        ("optimize", *SCORED, "--criterion", "for_parity", "--gamma", "0.9"),
        None,
    ),
    "optimize_sufficiency": (
        ("optimize", *SCORED, "--criterion", "sufficiency", "--gamma", "0.8"),
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
    **{
        f"sweep_{criterion}": (("sweep", *SCORED, "--criterion", criterion), None)
        for criterion in ("independence", "separation", "sufficiency")
    },
    "sweep_conditional_parity": (("sweep", *SCORED), "legitimate"),
    "report": (
        ("report", "--input", str(INPUT), "--seeds", "2", "--min-count", "20"),
        "legitimate",
    ),
}


def run_command(command: tuple[tuple[str, ...], str | None], out: Path, scratch: Path) -> None:
    argv, justifier = command
    argv = [*argv, "--out", str(out)]
    if justifier is not None:
        path = scratch / f"assessment_{justifier}.json"
        path.write_text(json.dumps(ASSESSMENTS[justifier]), encoding="utf-8")
        argv += ["--assessment", str(path)]
    assert main(argv) == 0, f"{argv} exited nonzero"


def assert_golden(out: Path, name: str) -> None:
    expected = GOLDEN / name
    produced = sorted(p.name for p in out.iterdir())
    assert produced == sorted(p.name for p in expected.iterdir())
    for file_name in produced:
        assert (out / file_name).read_bytes() == (expected / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / "out"
    run_command(COMMANDS[name], out, tmp_path)
    assert_golden(out, name)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_in_chunks_of_seven(name, tmp_path, monkeypatch):
    # The golden input is one chunk at the default length; at seven rows a
    # chunk every command reads it in 65 chunks and must write the same bytes.
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    test_output_matches_golden(name, tmp_path)


def test_a_report_evaluates_each_rule_once_per_split(tmp_path, monkeypatch):
    # Two seeds, three rules (unconstrained, fair and four-fifths), two splits:
    # one evaluation gives each split's rates, utility and equal-chances table.
    calls = []
    evaluate = metrics.decision_probabilities
    monkeypatch.setattr(
        metrics, "decision_probabilities", lambda *args: calls.append(args) or evaluate(*args)
    )
    run_command(COMMANDS["report"], tmp_path / "out", tmp_path)
    assert len(calls) == 2 * 3 * 2


# Solves whose training metrics must pass a check of their own: separation
# at gamma 1 reaches parity up to rounding, and --verify finds one-family FOR
# parity, and conditional parity solved stratum by stratum, no worse than the
# brute-force oracle. Same shape as COMMANDS.
CHECKED_SOLVES: dict[str, tuple[tuple[str, ...], str | None]] = {
    "separation_at_one": (
        ("optimize", *SCORED, "--criterion", "separation", "--gamma", "1.0"),
        None,
    ),
    "for_parity_verify": (
        ("optimize", *SCORED, "--criterion", "for_parity", "--gamma", "0.9", "--verify"),
        None,
    ),
    "conditional_parity_verify": (("optimize", *SCORED, "--verify"), "legitimate"),
}


@pytest.mark.parametrize("name", sorted(CHECKED_SOLVES))
def test_a_solve_passes_its_check(name, tmp_path):
    out = tmp_path / "out"
    run_command(CHECKED_SOLVES[name], out, tmp_path)
    metrics = json.loads((out / "metrics_train.json").read_text(encoding="utf-8"))
    if "--verify" in CHECKED_SOLVES[name][0]:
        assert metrics["verification"]["optimizer_not_worse"] is True
    else:
        assert metrics["disparity_ratio"] >= 1 - 1e-9


# The golden input with its id, group and label columns renamed, and the
# options that name them.
RENAMED_ROLES = ("--id-col", "key", "--group-col", "race", "--label-col", "y")


@pytest.fixture
def renamed_input(tmp_path) -> Path:
    lines = INPUT.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].startswith("id,group,label,")
    lines[0] = "key,race,y," + lines[0][len("id,group,label,"):]
    path = tmp_path / "renamed.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_renamed_columns_give_the_golden_separation_outputs(renamed_input, tmp_path):
    argv = ["optimize", "--input", str(renamed_input), "--score-col", "p", *RENAMED_ROLES]
    out = tmp_path / "out"
    assert main([*argv, "--criterion", "separation", "--gamma", "0.9", "--out", str(out)]) == 0
    assert_golden(out, "optimize_separation")


def test_fit_output_loads_back(tmp_path):
    assert main(["fit", "--input", str(INPUT), "--out", str(tmp_path / "fit")]) == 0
    scored = tmp_path / "fit" / "scored.csv"
    argv = ["optimize", "--input", str(scored), "--score-col", "score"]
    assert main([*argv, "--criterion", "independence", "--out", str(tmp_path / "opt")]) == 0


def test_fit_output_quotes_a_field_with_a_comma(tmp_path):
    lines = INPUT.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].startswith("r0,")
    lines[1] = '"r0,x"' + lines[1][2:]
    source = tmp_path / "input.csv"
    source.write_text("".join(lines), encoding="utf-8")
    assert main(["fit", "--input", str(source), "--out", str(tmp_path / "fit")]) == 0
    scored = tmp_path / "fit" / "scored.csv"
    with open(scored, newline="", encoding="utf-8") as handle:
        header, first, *_ = csv.reader(handle)
    assert first[0] == "r0,x" and len(first) == len(header)
    argv = ["optimize", "--input", str(scored), "--score-col", "score"]
    assert main([*argv, "--criterion", "independence", "--out", str(tmp_path / "opt")]) == 0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["assess"], RunConfig()),
        (
            ["optimize", "--input", "in.csv"],
            RunConfig(input=Path("in.csv"), roles=ColumnRoles("group", "label")),
        ),
        (
            ["fit", "--input", "in.csv", "--seed", "3", "--l2", "0.5", "--use-group-feature"],
            RunConfig(
                input=Path("in.csv"),
                roles=ColumnRoles("group", "label"),
                seed=3,
                fit_config=FitConfig(l2=0.5, include_group=True),
            ),
        ),
        (
            ["sweep", "--input", "in.csv", "--utility", "2,0,0,1", "--gammas", "0.5,1",
             "--train-fraction", "0.5", "--min-count", "5"],
            RunConfig(
                input=Path("in.csv"),
                roles=ColumnRoles("group", "label"),
                utility=UtilityMatrix(2.0, 0.0, 0.0, 1.0),
                gammas=(0.5, 1.0),
                train_fraction=0.5,
                min_count=5,
            ),
        ),
        (
            ["report", "--input", "in.csv", "--seeds", "2"],
            RunConfig(input=Path("in.csv"), roles=ColumnRoles("group", "label"), seeds=2),
        ),
    ],
)
def test_options_left_out_take_the_config_defaults(argv, expected):
    assert _build_config(build_parser().parse_args(argv)) == expected


# Options a command would parse and then ignore; its parser does not take them.
UNREAD_OPTIONS = {
    "fit": ("--criterion independence", "--assessment a.json", "--gamma 0.8", "--min-count 5",
            "--verify", "--seeds 2", "--utility 1,0,0,1", "--learning-rate 0.1"),
    "evaluate": ("--seed 1", "--seeds 2", "--train-fraction 0.5", "--min-count 5", "--verify"),
    "sweep": ("--gamma 0.8", "--seeds 2", "--verify"),
    "optimize": ("--seeds 2",),
    "report": ("--verify",),
}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, options in UNREAD_OPTIONS.items() for option in options],
)
def test_a_command_rejects_an_option_it_does_not_read(command, option, capsys):
    argv = [command, "--input", "in.csv", *option.split()]
    if command == "evaluate":
        argv += ["--rule", "rule.json"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: " + option.split()[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_a_justifier_the_data_lacks_is_named(command, tmp_path, capsys):
    assessment = tmp_path / "assessment.json"
    assessment.write_text(
        json.dumps({**ASSESSMENTS["legitimate"], "justifier_names": ["age"]}), encoding="utf-8"
    )
    argv = [command, *SCORED, "--assessment", str(assessment), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: the data has no legitimate attribute(s) ['age'] to condition on\n"
    assert not (tmp_path / "out").exists()


def run_in_child(argv: list[str]) -> tuple[subprocess.CompletedProcess, list[str]]:
    """``main(argv)`` in a fresh interpreter, and the modules it ended with.

    The child imports the package these tests import: the source tree, or
    the installed copy when the suite runs on an install. Its module names
    are the last line of its stdout.
    """
    env = {name: value for name, value in os.environ.items() if name != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "from fairgate.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "raise SystemExit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    return done, json.loads(done.stdout.splitlines()[-1])


def small_stratum_warnings(command: tuple[str, ...], tmp_path: Path) -> list[str]:
    """The SmallStratumWarning lines of ``command`` through the 'legitimate' assessment.

    Stratum 'high' is left unconstrained at every solve. Python shows a
    warning from one place once, and leaving a ``warnings.catch_warnings``
    context resets that.
    """
    assessment = tmp_path / "assessment.json"
    assessment.write_text(json.dumps(ASSESSMENTS["legitimate"]), encoding="utf-8")
    done, _ = run_in_child(
        [*command, "--assessment", str(assessment), "--out", str(tmp_path / "out")]
    )
    return [line for line in done.stderr.splitlines() if "SmallStratumWarning" in line]


def test_a_sweep_shows_a_solver_warning_once(tmp_path):
    # 21 levels.
    assert len(small_stratum_warnings(("sweep", *SCORED), tmp_path)) == 1


def test_a_report_shows_a_solver_warning_once(tmp_path):
    # Three seeds, two solves each.
    command = ("report", "--input", str(INPUT), "--score-col", "p", "--seeds", "3")
    assert len(small_stratum_warnings(command, tmp_path)) == 1


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_command_loads_only_what_it_runs(name, tmp_path):
    # numpy 2.x's plain np.unique imports numpy.ma on first use, and no
    # command needs it. optimize loads the oracle only for --verify, only
    # sweep loads the frontier, only an assessment loads its module and only
    # report loads statistics.
    argv, justifier = COMMANDS[name]
    argv = [*argv, "--out", str(tmp_path / "out")]
    if justifier is not None:
        path = tmp_path / "assessment.json"
        path.write_text(json.dumps(ASSESSMENTS[justifier]), encoding="utf-8")
        argv += ["--assessment", str(path)]
    _, modules = run_in_child(argv)
    assert "numpy.ma" not in modules
    assert ("fairgate.oracle" in modules) == ("--verify" in argv)
    assert ("fairgate.frontier" in modules) == (argv[0] == "sweep")
    assert ("fairgate.assessment" in modules) == (justifier is not None)
    assert ("statistics" in modules) == (argv[0] == "report")


def test_the_reported_level_solves(tmp_path, capsys):
    # The level is printed in full, so passing it back solves at the level
    # that was checked, not at one rounded above it.
    argv = ["optimize", *SCORED, "--criterion", "sufficiency"]
    assert main([*argv, "--gamma", "1.0", "--out", str(tmp_path / "infeasible")]) == 1
    err = capsys.readouterr().err
    prefix = "highest achievable level found: "
    assert prefix in err
    level = err.split(prefix)[1].strip()
    assert main([*argv, "--gamma", level, "--out", str(tmp_path / "out")]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics_train.json").read_text(encoding="utf-8"))
    assert metrics["disparity_ratio"] >= float(level) - 1e-9


@pytest.mark.parametrize("cells", ["1,0,0,nan", "1,0,0,inf"])
def test_a_non_finite_payoff_is_rejected(cells, tmp_path, capsys):
    argv = ["optimize", *SCORED, "--criterion", "independence", "--utility", cells]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    shown = ", ".join(repr(float(c)) for c in cells.split(","))
    err = capsys.readouterr().err
    assert err == f"error: utility matrix cells must be finite numbers, got [{shown}]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "option, value", [("--gammas", ""), ("--gammas", "0.5,,0.7"), ("--utility", "1,0,0,x")]
)
def test_a_list_of_numbers_with_an_empty_or_bad_entry_is_rejected(option, value, tmp_path, capsys):
    argv = ["sweep", *SCORED, "--criterion", "independence", option, value]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    message = f"error: {option} needs comma-separated numbers, got {value!r}\n"
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_report_needs_at_least_one_seed(seeds, tmp_path, capsys):
    argv = ["report", *SCORED, "--criterion", "independence", "--seeds", seeds]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: --seeds must be at least 1, got {seeds}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", [0, -2])
def test_a_report_config_needs_at_least_one_seed(seeds):
    # A library caller skips the command line, so the config checks itself.
    roles = ColumnRoles("group", "label", score="p")
    with pytest.raises(ValueError, match=f"^--seeds must be at least 1, got {seeds}$"):
        run_report(RunConfig(input=INPUT, roles=roles, criterion="independence", seeds=seeds))


@pytest.mark.parametrize(
    "option, message",
    [
        ("--iterations 0", "--iterations must be at least 1, got 0"),
        ("--l2 -1", "--l2 must be finite and at least 0, got -1.0"),
    ],
)
def test_fit_rejects_a_training_setting_out_of_range(option, message, tmp_path, capsys):
    argv = ["fit", "--input", str(INPUT), *option.split(), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["fit"], ["report", "--criterion", "independence"]])
def test_a_non_finite_feature_fails_the_command(command, value, tmp_path, capsys):
    lines = INPUT.read_text(encoding="utf-8").splitlines()
    cells = lines[4].split(",")
    cells[4] = value  # x_logit of line 5
    lines[4] = ",".join(cells)
    (tmp_path / "in.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [*command, "--input", str(tmp_path / "in.csv"), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    message = f"line 5: bad feature value (x_logit must be a finite number, got {value!r})"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_fit_refuses_an_input_that_has_a_score_column(tmp_path, capsys):
    lines = INPUT.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = lines[0].replace(",p,", ",score,")
    source = tmp_path / "input.csv"
    source.write_text("".join(lines), encoding="utf-8")
    assert main(["fit", "--input", str(source), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: the input already has a 'score' column, the one fit writes\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header", [",score,", ",p,"], ids=["score_column", "bad_value"])
def test_fit_names_a_malformed_row_in_a_later_chunk_first(header, tmp_path, monkeypatch, capsys):
    # The first chunk holds a score column or a bad label; a malformed row far
    # later still wins, as it does when the whole file is read first.
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    lines = INPUT.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = lines[0].replace(",p,", header)
    lines[1] = lines[1].replace(",a,1,", ",a,2,")
    lines[400] = "r399,a\n"
    source = tmp_path / "input.csv"
    source.write_text("".join(lines), encoding="utf-8")
    assert main(["fit", "--input", str(source), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {source}: malformed row at line 401\n"
    assert not (tmp_path / "out").exists()


def test_a_field_longer_than_csv_takes_fails_in_one_line(tmp_path, capsys):
    lines = INPUT.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[3] = "0." + "5" * 140_000  # the score p of line 3
    lines[2] = ",".join(cells)
    source = tmp_path / "input.csv"
    source.write_text("".join(lines), encoding="utf-8")
    argv = ["optimize", "--input", str(source), "--score-col", "p", "--criterion", "independence"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    limit = f"field larger than field limit ({csv.field_size_limit()})"
    assert capsys.readouterr().err == f"error: {source}: malformed row at line 3 ({limit})\n"
    assert not (tmp_path / "out").exists()


# How each data command's output names FPR parity: the criterion kind, or for
# sweep the frontier's rate columns.
FPR_PARITY_WRITTEN = {
    "optimize": (lambda out: json.loads((out / "rule.json").read_text())["criterion"]["kind"],
                 "fpr_parity"),
    "evaluate": (lambda out: json.loads((out / "metrics.json").read_text())["criterion"]["kind"],
                 "fpr_parity"),
    "sweep": (lambda out: (out / "frontier.csv").read_text().splitlines()[0].split(",")[4:],
              ["fpr_a", "fpr_b"]),
    "report": (lambda out: json.loads((out / "report.json").read_text())["criterion"]["kind"],
               "fpr_parity"),
}


def assessment_argv(command: str, path: Path, out: Path, scored=SCORED) -> list[str]:
    argv = [command, *scored, "--assessment", str(path), "--out", str(out)]
    return argv + (["--rule", str(SEPARATION_RULE)] if command == "evaluate" else [])


@pytest.mark.parametrize("command", sorted(FPR_PARITY_WRITTEN))
def test_an_assessment_file_is_pruned_as_the_wizard_prunes(command, tmp_path, capsys):
    # Outcome 1 gets benefit 0 either way, so only outcome 0 is a fairness
    # claim: FPR parity, not separation.
    answers = tmp_path / "answers.txt"
    answers.write_text("matrix\n0, 0, 1, 0\ngroup\noutcome\nboth\n", encoding="utf-8")
    assert main(["assess", "--answers", str(answers), "--out", str(tmp_path / "assess")]) == 0
    assert "criterion: fpr_parity\n" in capsys.readouterr().out
    path = tmp_path / "assessment.json"
    doc = {"benefit_source": "decision", "justifier": "outcome", "benefit_matrix": [0, 0, 1, 0]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(assessment_argv(command, path, tmp_path / "out")) == 0
    read, expected = FPR_PARITY_WRITTEN[command]
    assert read(tmp_path / "out") == expected


@pytest.mark.parametrize("command", sorted(FPR_PARITY_WRITTEN))
def test_an_assessment_file_whose_every_value_is_pruned_is_an_error(command, tmp_path, capsys):
    # The benefit varies with the outcome only, so no outcome value is a claim.
    path = tmp_path / "assessment.json"
    doc = {"benefit_source": "decision", "justifier": "outcome", "benefit_matrix": [0, 1, 0, 1]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(assessment_argv(command, path, tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: every justifier value was pruned: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(FPR_PARITY_WRITTEN))
def test_an_assessment_file_whose_matrix_contradicts_its_source_is_an_error(
    command, tmp_path, capsys
):
    # The benefit varies with the outcome only, so the decision cannot be its source.
    path = tmp_path / "assessment.json"
    doc = {"benefit_source": "decision", "justifier": "none", "benefit_matrix": [0, 1, 0, 1]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(assessment_argv(command, path, tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "error: benefit matrix [0.0, 1.0, 0.0, 1.0] does not vary with the decision, "
        "so the decision cannot be its benefit source\n"
    )
    assert not (tmp_path / "out").exists()


SUFFICIENCY_ASSESSMENT = {"benefit_source": "outcome", "justifier": "decision"}
ONE_CUT = {"kind": "single_threshold", "tau": 0.5}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"benefit_source": "outcome"}, "missing key 'justifier'"),
        (
            {**SUFFICIENCY_ASSESSMENT, "benefit_matrix": [0, 1, 2]},
            "'benefit_matrix' must be a list of four numbers, got a list of 3 entries",
        ),
        (
            {**SUFFICIENCY_ASSESSMENT, "relevant_values": 1},
            "'relevant_values' must be a list of integers, got a number",
        ),
        ([SUFFICIENCY_ASSESSMENT], "expected a JSON object, got a list of 1 entries"),
        (
            {**ASSESSMENTS["legitimate"], "justifier_names": "tier"},
            "'justifier_names' must be a list of strings, got a string",
        ),
        ('{"justifier": ', "Expecting value: line 1 column 15 (char 14)"),
        (
            {"benefit_source": "decision", "justifier": "outcome", "relevant_value": [1]},
            "unknown key 'relevant_value'",
        ),
        (
            {**SUFFICIENCY_ASSESSMENT, "criterion": ["sufficiency"]},
            "'criterion' must be an object, got a list of 1 entries",
        ),
        (
            {**SUFFICIENCY_ASSESSMENT, "criterion": {"kind": "sufficiency", "gama": 1.0}},
            "unknown key 'gama'",
        ),
    ],
    ids=[
        "missing_key", "three_cells", "relevant_values", "list", "names_string", "truncated",
        "misspelt_key", "criterion_list", "criterion_key",
    ],
)
def test_a_malformed_assessment_file_is_named_in_one_line(doc, message, tmp_path, capsys):
    # A string is the file's text as it stands, not JSON to encode.
    path = tmp_path / "assessment.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    assert main(assessment_argv("optimize", path, tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: assessment file {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(FPR_PARITY_WRITTEN))
def test_an_assessment_file_whose_criterion_entry_differs_is_an_error(command, tmp_path, capsys):
    # The answers map to TPR parity at the default level; the entry names
    # another criterion and level, which no command may take in silence.
    path = tmp_path / "assessment.json"
    doc = {
        "benefit_source": "decision",
        "justifier": "outcome",
        "relevant_values": [1],
        "criterion": {"kind": "ppv_parity", "gamma": 0.5, "legit_names": []},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(assessment_argv(command, path, tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"error: assessment file {path}: its criterion entry is ppv_parity at gamma 0.5, "
        "but the assessment maps to tpr_parity at gamma 1; set the level with --gamma\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(FPR_PARITY_WRITTEN))
def test_an_assessment_file_for_another_group_column_is_an_error(
    command, renamed_input, tmp_path, capsys
):
    # The file was written about a column named "group"; this data's groups
    # are in "race", so solving on them would answer another question.
    path = tmp_path / "assessment.json"
    doc = {**ASSESSMENTS["none"], "group_attribute": "group"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    scored = ("--input", str(renamed_input), "--score-col", "p", *RENAMED_ROLES)
    assert main(assessment_argv(command, path, tmp_path / "out", scored)) == 1
    assert capsys.readouterr().err == (
        f"error: assessment file {path}: its group_attribute is 'group', "
        "but the group column is 'race'; name the column with --group-col\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"rule": {"kind": "group_threshold", "groups": []}},
            "'groups' must be an object, got a list of 0 entries",
        ),
        ({"rule": {"kind": "group_threshold"}}, "missing key 'groups'"),
        (
            [{"rule": {"kind": "single_threshold", "tau": 0.5}}],
            "expected a JSON object, got a list of 1 entries",
        ),
        ('{"rule": ', "Expecting value: line 1 column 10 (char 9)"),
        ({"rule": ONE_CUT, "note": "x"}, "unknown key 'note'"),
        ({"rule": {**ONE_CUT, "bondary": 0.5}}, "unknown key 'bondary'"),
        (
            {
                "rule": {
                    "kind": "group_threshold",
                    "groups": {"a": {"tau": 0.5, "bondary": 0.5}, "b": {"tau": 0.5}},
                }
            },
            "unknown key 'bondary'",
        ),
        ({"rule": {"kind": "group_threshold", "groups": {}, "cuts": []}}, "unknown key 'cuts'"),
        (
            {"rule": {"kind": "group_interval", "groups": {"a": {"low": 0.2, "hi": 1.0}}}},
            "unknown key 'hi'",
        ),
        (
            {
                "rule": {
                    "kind": "stratified_group_threshold",
                    "legit_names": ["tier"],
                    "cuts": [{"group": "a", "stratum": ["high"], "tau": 0.5, "tier": "high"}],
                }
            },
            "unknown key 'tier'",
        ),
        (
            {
                "rule": {
                    "kind": "mixture",
                    "weights": {"a": 0.5, "b": 0.5},
                    "first": ONE_CUT,
                    "second": ONE_CUT,
                    "third": ONE_CUT,
                }
            },
            "unknown key 'third'",
        ),
        (
            {"rule": ONE_CUT, "criterion": {"kind": "independence", "gama": 0.8}},
            "unknown key 'gama'",
        ),
    ],
    ids=[
        "groups_list", "missing_groups", "list", "truncated", "file_key", "single_threshold_key",
        "group_cut_key", "group_threshold_key", "interval_cut_key", "stratified_cut_key",
        "mixture_key", "criterion_key",
    ],
)
def test_a_malformed_rule_file_is_named_in_one_line(doc, message, tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    argv = ["evaluate", *SCORED, "--rule", str(path), "--criterion", "independence"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: rule file {path}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_verify_past_the_oracle_size_guard_gives_the_oracle_reason(tmp_path):
    # Every row twice, the copy under a new id: a 600-record training split.
    header, *rows = INPUT.read_text(encoding="utf-8").splitlines()
    doubled = tmp_path / "input.csv"
    doubled.write_text("\n".join([header, *rows, *(f"c{row}" for row in rows)]) + "\n")
    argv = ["optimize", "--input", str(doubled), "--score-col", "p", "--criterion", "independence"]
    assert main([*argv, "--verify", "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "metrics_train.json").read_text(encoding="utf-8"))
    assert report["verification"] == {
        "checked": False,
        "reason": "oracle refuses datasets over 500 records (got 600)",
    }


def test_evaluate_takes_one_of_criterion_and_assessment(tmp_path, capsys):
    path = tmp_path / "assessment.json"
    path.write_text(json.dumps(ASSESSMENTS["none"]), encoding="utf-8")
    argv = assessment_argv("evaluate", path, tmp_path / "out") + ["--criterion", "tpr_parity"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: exactly one of --criterion and --assessment is required\n"
    )
    assert not (tmp_path / "out").exists()


# Answers to the assess wizard that reach each criterion, without and with a
# benefit matrix; a matrix reaches each one-sided criterion by pruning.
WIZARD_SCRIPTS = [
    ("independence", ["decision", "1", "group", "none"]),
    ("independence", ["matrix", "0, 0, 1, 1", "group", "none"]),
    ("conditional_statistical_parity", ["decision", "1", "group", "legitimate", "tier"]),
    ("conditional_statistical_parity", ["matrix", "0, 0, 1, 1", "group", "legitimate", "tier"]),
    ("separation", ["decision", "1", "group", "outcome", "both"]),
    ("separation", ["matrix", "1, 2, 3, 4", "group", "outcome", "both"]),
    ("tpr_parity", ["decision", "1", "group", "outcome", "1"]),
    ("tpr_parity", ["matrix", "0.5, 0, 0.5, 1", "group", "outcome", "both"]),
    ("fpr_parity", ["decision", "0", "group", "outcome", "0"]),
    ("fpr_parity", ["matrix", "0, 0, 1, 0", "group", "outcome", "both"]),
    ("sufficiency", ["outcome", "1", "group", "decision", "both"]),
    ("sufficiency", ["matrix", "1, 2, 3, 4", "group", "decision", "both"]),
    ("ppv_parity", ["outcome", "1", "group", "decision", "1"]),
    ("ppv_parity", ["matrix", "1, 1, 0, 2", "group", "decision", "both"]),
    ("for_parity", ["outcome", "0", "group", "decision", "0"]),
    ("for_parity", ["matrix", "0, 1, 2, 2", "group", "decision", "both"]),
]


@pytest.mark.parametrize("kind, answers", WIZARD_SCRIPTS)
def test_assess_and_optimize_name_the_same_criterion(kind, answers, tmp_path, capsys):
    script = tmp_path / "answers.txt"
    script.write_text("\n".join(answers) + "\n", encoding="utf-8")
    assert main(["assess", "--answers", str(script), "--out", str(tmp_path)]) == 0
    assert f"criterion: {kind}\n" in capsys.readouterr().out
    argv = ["optimize", *SCORED, "--assessment", str(tmp_path / "assessment.json")]
    assert main([*argv, "--gamma", "0.8", "--out", str(tmp_path)]) == 0
    rule = json.loads((tmp_path / "rule.json").read_text(encoding="utf-8"))
    assert rule["criterion"]["kind"] == kind


STRATIFIED_BY_JOB = {
    "kind": "stratified_group_threshold",
    "legit_names": ["job"],
    "cuts": [{"group": g, "stratum": ["x"], "tau": 0.5, "boundary": 1.0} for g in "ab"],
}


@pytest.mark.parametrize(
    "rule, message",
    [
        (None, "mixture does not cover group 'c'"),
        (STRATIFIED_BY_JOB, "records miss legitimate attribute 'job'"),
    ],
    ids=["group", "attribute"],
)
def test_a_rule_that_does_not_cover_the_data_is_named(rule, message, tmp_path, capsys):
    # The first record moves to a third group, "c", that the separation rule lacks.
    lines = INPUT.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].startswith("r0,a,")
    lines[1] = "r0,c," + lines[1][len("r0,a,"):]
    source = tmp_path / "input.csv"
    source.write_text("".join(lines), encoding="utf-8")
    rule_path = SEPARATION_RULE
    if rule is not None:
        rule_path = tmp_path / "rule.json"
        doc = {"rule": rule, "criterion": {"kind": "independence"}}
        rule_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["evaluate", "--input", str(source), "--score-col", "p", "--rule", str(rule_path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def _regenerate() -> None:
    scratch = GOLDEN / "_scratch"
    scratch.mkdir(exist_ok=True)
    try:
        # The evaluate commands read the separation rule, so it goes first.
        for name in sorted(COMMANDS, key=lambda n: n != "optimize_separation"):
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            run_command(COMMANDS[name], target, scratch)
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
