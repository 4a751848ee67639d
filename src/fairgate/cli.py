"""Command-line surface: assess -> fit -> optimize -> evaluate -> sweep -> report.

All randomness flows from explicit seeds and every command is deterministic
given its configuration: reruns produce byte-identical csv outputs. On any
module error the command exits nonzero with a single-line diagnostic and
removes partial outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import statistics
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import assessment as assess_mod
from .assessment import (
    MoralAssessment,
    criterion_equation,
    load_assessment,
    map_assessment,
    run_wizard,
    save_assessment,
)
from .frontier import DEFAULT_GAMMA_GRID, emit_frontier, sweep
from .metrics import UndefinedCellWarning, compute_rates, decision_maker_utility, metric_report
from .model import (
    BenefitMatrix,
    CriterionKind,
    Dataset,
    DecisionRule,
    FairnessCriterion,
    GroupInterval,
    GroupThreshold,
    Mixture,
    Record,
    SingleThreshold,
    StratifiedGroupThreshold,
    UtilityMatrix,
    read_rule_file,
    write_rule_file,
)
from .optimizer import OptimizationProblem, optimize, optimize_unconstrained
from .oracle import MAX_ORACLE_RECORDS, OracleSizeError, brute_force_oracle
from .scorer import FitConfig, fit, load_model, save_model, score_dataset, split

FEATURE_PREFIX = "x_"
LEGIT_PREFIX = "l_"


@dataclass(frozen=True)
class ColumnRoles:
    group: str
    label: str
    score: str | None = None
    id: str | None = None


@dataclass
class RunConfig:
    input: Path | None = None
    roles: ColumnRoles | None = None
    criterion: str | None = None
    assessment_path: Path | None = None
    rule_path: Path | None = None
    gamma: float | None = None
    utility: UtilityMatrix = field(default_factory=UtilityMatrix.accuracy)
    seed: int = 0
    seeds: int = 1
    train_fraction: float = 2.0 / 3.0
    out: Path = Path(".")
    answers: Path | None = None
    verify: bool = False
    min_count: int = 30
    fit_config: FitConfig = field(default_factory=FitConfig)
    gammas: tuple[float, ...] | None = None

    @property
    def seed_list(self) -> list[int]:
        return [self.seed + i for i in range(self.seeds)]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _read_rows(path: Path) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        rows = []
        for row in reader:
            if None in row or any(v is None for v in row.values()):
                raise ValueError(f"{path}: malformed row at line {reader.line_num}")
            rows.append((reader.line_num, dict(row)))
    return list(reader.fieldnames), rows


def _parse_binary(raw: str, line: int, column: str) -> int:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"line {line}: {column} must be 0 or 1, got {raw!r}") from None
    if value not in (0.0, 1.0):
        raise ValueError(f"line {line}: {column} must be 0 or 1, got {raw!r}")
    return int(value)


def dataset_from_rows(
    fieldnames: Sequence[str], rows: Sequence[tuple[int, dict[str, str]]], roles: ColumnRoles
) -> Dataset:
    for required in (roles.group, roles.label):
        if required not in fieldnames:
            raise ValueError(f"missing column {required!r}")
    if roles.score is not None and roles.score not in fieldnames:
        raise ValueError(f"missing score column {roles.score!r}")
    feature_names = tuple(c for c in fieldnames if c.startswith(FEATURE_PREFIX))
    legit_names = tuple(c[len(LEGIT_PREFIX) :] for c in fieldnames if c.startswith(LEGIT_PREFIX))
    records = []
    for line, row in rows:
        label = _parse_binary(row[roles.label], line, roles.label)
        score = None
        if roles.score is not None:
            try:
                score = float(row[roles.score])
            except ValueError:
                raise ValueError(
                    f"line {line}: score must be a decimal in [0, 1], got {row[roles.score]!r}"
                ) from None
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"line {line}: score {score} outside [0, 1]")
        features = None
        if feature_names:
            try:
                features = tuple(float(row[c]) for c in feature_names)
            except ValueError as exc:
                raise ValueError(f"line {line}: bad feature value ({exc})") from None
        legit = {name: row[LEGIT_PREFIX + name] for name in legit_names}
        rec_id = row[roles.id] if roles.id is not None else str(line)
        records.append(
            Record(
                id=rec_id,
                label=label,
                group=row[roles.group],
                score=score,
                legit=legit,
                features=features,
            )
        )
    if not records:
        raise ValueError("no data rows")
    return Dataset.from_records(records, legit_names=legit_names, feature_names=feature_names)


def load_csv(path: str | Path, roles: ColumnRoles) -> Dataset:
    """Parse a UTF-8 CSV with a header row into a Dataset.

    Columns prefixed ``x_`` become features and ``l_`` legitimate
    attributes; ids default to file line numbers. Malformed rows raise with
    their line number.
    """
    fieldnames, rows = _read_rows(Path(path))
    return dataset_from_rows(fieldnames, rows, roles)


# ---------------------------------------------------------------------------
# Output handling
# ---------------------------------------------------------------------------


class _OutputTracker:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []

    def write_text(self, name: str, content: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        path.write_text(content, encoding="utf-8")
        self.register(path)
        return path

    def register(self, path: Path) -> None:
        self.paths.append(path)
        print(f"wrote {path}")

    def discard_all(self) -> None:
        for path in self.paths:
            try:
                path.unlink()
            except OSError:
                pass


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Shared command helpers
# ---------------------------------------------------------------------------


def _resolve_criterion(
    config: RunConfig, dataset: Dataset | None
) -> tuple[FairnessCriterion, MoralAssessment | None]:
    if (config.criterion is None) == (config.assessment_path is None):
        raise ValueError("exactly one of --criterion and --assessment is required")
    if config.assessment_path is not None:
        assessment = load_assessment(config.assessment_path)
        criterion = map_assessment(assessment)
    else:
        assessment = None
        kind = CriterionKind(config.criterion)
        legit = dataset.legit_names if dataset is not None else ()
        if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY and not legit:
            raise ValueError("conditional statistical parity needs l_-prefixed columns")
        criterion = FairnessCriterion(
            kind, legit_names=legit if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY else ()
        )
    gamma = config.gamma if config.gamma is not None else 1.0
    return dataclasses.replace(criterion, gamma=gamma), assessment


def _benefit_for(assessment: MoralAssessment) -> BenefitMatrix:
    if assessment.benefit_matrix is not None:
        return assessment.benefit_matrix
    v = assessment.benefit_value
    if assessment.benefit_source is assess_mod.BenefitSource.DECISION:
        return BenefitMatrix(
            b00=1.0 if v == 0 else 0.0,
            b01=1.0 if v == 0 else 0.0,
            b10=1.0 if v == 1 else 0.0,
            b11=1.0 if v == 1 else 0.0,
        )
    return BenefitMatrix(
        b00=1.0 if v == 0 else 0.0,
        b01=1.0 if v == 1 else 0.0,
        b10=1.0 if v == 0 else 0.0,
        b11=1.0 if v == 1 else 0.0,
    )


def describe_rule(rule: DecisionRule, indent: str = "") -> str:
    if isinstance(rule, SingleThreshold):
        return f"{indent}single threshold tau={rule.tau:.6g} (boundary accept p={rule.boundary:g})"
    if isinstance(rule, GroupThreshold):
        parts = [
            f"{g}: tau={c.tau:.6g} (q={c.boundary:.6g})" for g, c in sorted(rule.cuts.items())
        ]
        return f"{indent}group thresholds: " + "; ".join(parts)
    if isinstance(rule, GroupInterval):
        parts = [
            f"{g}: [{c.low:.6g}, {c.high:.6g}] (q={c.boundary:.6g})"
            for g, c in sorted(rule.cuts.items())
        ]
        return f"{indent}group intervals: " + "; ".join(parts)
    if isinstance(rule, StratifiedGroupThreshold):
        parts = [
            f"{g}@{'/'.join(s)}: tau={c.tau:.6g} (q={c.boundary:.6g})"
            for (g, s), c in sorted(rule.cuts.items())
        ]
        return f"{indent}stratified thresholds: " + "; ".join(parts)
    if isinstance(rule, Mixture):
        w = "; ".join(f"{g}: {v:.6g}" for g, v in sorted(rule.weights.items()))
        return (
            f"{indent}mixture (first-rule weights {w})\n"
            f"{describe_rule(rule.first, indent + '  ')}\n"
            f"{describe_rule(rule.second, indent + '  ')}"
        )
    return f"{indent}{rule!r}"


def _split_scored(config: RunConfig, dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Split, fitting and scoring with this seed's model when scores are absent."""
    train, test = split(dataset, config.train_fraction, seed)
    if config.roles is not None and config.roles.score is not None:
        return train, test
    model = fit(train, config.fit_config)
    return score_dataset(model, train), score_dataset(model, test)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_assess(config: RunConfig, out: _OutputTracker) -> int:
    if config.answers is not None:
        with open(config.answers, encoding="utf-8") as handle:
            assessment = run_wizard(istream=handle, ostream=sys.stdout)
    else:
        assessment = run_wizard()
    criterion = map_assessment(assessment)
    doc = assess_mod.assessment_to_dict(assessment)
    out.write_text("assessment.json", _json_text(doc))
    print(f"criterion: {criterion.kind.value}")
    print(f"requirement: {criterion_equation(criterion)}")
    return 0


def cmd_fit(config: RunConfig, out: _OutputTracker) -> int:
    fieldnames, rows = _read_rows(config.input)
    dataset = dataset_from_rows(fieldnames, rows, config.roles)
    if not dataset.feature_names:
        raise ValueError(f"no {FEATURE_PREFIX}-prefixed feature columns found")
    train, _ = split(dataset, config.train_fraction, config.seed)
    model = fit(train, config.fit_config)
    scored = score_dataset(model, dataset)

    buffer = [",".join(list(fieldnames) + ["score"])]
    for (_, row), rec in zip(rows, scored.records):
        buffer.append(",".join([row[c] for c in fieldnames] + [repr(float(rec.score))]))
    out.out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out.out_dir / "model.json"
    save_model(model_path, model)
    out.register(model_path)
    out.write_text("scored.csv", "\n".join(buffer) + "\n")
    print(f"final training loss: {model.final_loss:.6f}")
    return 0


def _load_scored(config: RunConfig) -> Dataset:
    if config.roles is None or config.roles.score is None:
        raise ValueError("--score-col is required here (run fit first)")
    dataset = load_csv(config.input, config.roles)
    dataset.require_scores()
    return dataset


def cmd_optimize(config: RunConfig, out: _OutputTracker) -> int:
    dataset = _load_scored(config)
    criterion, assessment = _resolve_criterion(config, dataset)
    train, _ = split(dataset, config.train_fraction, config.seed)
    problem = OptimizationProblem(
        dataset=train,
        utility=config.utility,
        criterion=criterion,
        min_count=config.min_count,
    )
    rule = optimize(problem)
    rule_path = out.out_dir / "rule.json"
    out.out_dir.mkdir(parents=True, exist_ok=True)
    write_rule_file(rule_path, rule, criterion)
    out.paths.append(rule_path)
    print(f"wrote {rule_path}")

    benefit = _benefit_for(assessment) if assessment is not None else None
    report = metric_report(train, rule, criterion, config.utility, assessment, benefit)
    if config.verify:
        report["verification"] = _verify_against_oracle(problem, rule)
    out.write_text("metrics_train.json", _json_text(report))
    print(describe_rule(rule))
    print(f"training utility: {report['utility']:.6f}")
    print(f"training disparity ratio: {report['disparity_ratio']:.6f}")
    return 0


def _verify_against_oracle(problem: OptimizationProblem, rule: DecisionRule) -> dict:
    if len(problem.dataset) > MAX_ORACLE_RECORDS:
        return {
            "checked": False,
            "reason": f"training split over {MAX_ORACLE_RECORDS} records",
        }
    try:
        reference = brute_force_oracle(problem)
    except OracleSizeError as exc:
        return {"checked": False, "reason": str(exc)}
    mine = decision_maker_utility(problem.dataset, rule, problem.utility)
    theirs = decision_maker_utility(problem.dataset, reference, problem.utility)
    return {
        "checked": True,
        "optimizer_utility": mine,
        "oracle_utility": theirs,
        "optimizer_not_worse": bool(mine >= theirs - 1e-9),
    }


def cmd_evaluate(config: RunConfig, out: _OutputTracker) -> int:
    dataset = _load_scored(config)
    rule, stored_criterion = read_rule_file(config.rule_path)
    assessment = None
    if config.assessment_path is not None:
        assessment = load_assessment(config.assessment_path)
        criterion = map_assessment(assessment)
    elif config.criterion is not None:
        criterion, _ = _resolve_criterion(config, dataset)
    elif stored_criterion is not None:
        criterion = stored_criterion
    else:
        raise ValueError("no criterion: pass --criterion/--assessment or a rule file that has one")
    if config.gamma is not None:
        criterion = dataclasses.replace(criterion, gamma=config.gamma)
    benefit = _benefit_for(assessment) if assessment is not None else None
    report = metric_report(dataset, rule, criterion, config.utility, assessment, benefit)
    out.write_text("metrics.json", _json_text(report))
    print(f"utility: {report['utility']:.6f}")
    print(f"disparity ratio: {report['disparity_ratio']:.6f}")
    return 0


def cmd_sweep(config: RunConfig, out: _OutputTracker) -> int:
    dataset = _load_scored(config)
    criterion, _ = _resolve_criterion(config, dataset)
    train, test = split(dataset, config.train_fraction, config.seed)
    problem = OptimizationProblem(
        dataset=train,
        utility=config.utility,
        criterion=criterion,
        min_count=config.min_count,
    )
    grid = config.gammas if config.gammas is not None else DEFAULT_GAMMA_GRID
    points = sweep(problem, grid, test_dataset=test)
    out.write_text("frontier.csv", emit_frontier(points, "csv"))
    out.write_text("frontier.svg", emit_frontier(points, "svg"))
    infeasible = [p.gamma for p in points if not p.feasible]
    if infeasible:
        print(f"infeasible at gamma: {', '.join(f'{g:g}' for g in infeasible)}")
    return 0


def _rule_thresholds(rule: DecisionRule) -> dict[str, float] | None:
    if isinstance(rule, GroupThreshold):
        return {g: c.tau for g, c in rule.cuts.items()}
    if isinstance(rule, SingleThreshold):
        return {"all": rule.tau}
    return None


def run_report(config: RunConfig) -> dict:
    """Multi-seed pipeline behind cmd_report; returns the aggregate document."""
    fieldnames, rows = _read_rows(config.input)
    dataset = dataset_from_rows(fieldnames, rows, config.roles)
    criterion, assessment = _resolve_criterion(config, dataset)
    benefit = _benefit_for(assessment) if assessment is not None else None
    four_fifths = dataclasses.replace(criterion, gamma=0.8)

    per_seed = []
    for seed in config.seed_list:
        train, test = _split_scored(config, dataset, seed)
        unconstrained = optimize_unconstrained(train, config.utility)
        problem = OptimizationProblem(
            dataset=train,
            utility=config.utility,
            criterion=criterion,
            min_count=config.min_count,
        )
        fair_rule = optimize(problem)
        ff_rule = optimize(dataclasses.replace(problem, criterion=four_fifths))
        entry: dict = {"seed": seed}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedCellWarning)
            for name, rule in (
                ("unconstrained", unconstrained),
                ("fair", fair_rule),
                ("four_fifths", ff_rule),
            ):
                entry[name] = {
                    "train": metric_report(train, rule, criterion, config.utility,
                                           assessment, benefit),
                    "test": metric_report(test, rule, criterion, config.utility,
                                          assessment, benefit),
                    "thresholds": _rule_thresholds(rule),
                }
        per_seed.append(entry)

    def mean_of(path_fn) -> float | None:
        values = [path_fn(entry) for entry in per_seed]
        values = [v for v in values if v is not None]
        return statistics.fmean(values) if values else None

    summary: dict = {
        "criterion": criterion.to_dict(),
        "requirement": criterion_equation(criterion),
        "seeds": config.seed_list,
        "train_fraction": config.train_fraction,
        "utility_matrix": list(config.utility.cells()),
        "mean": {},
        "per_seed": per_seed,
    }
    for name in ("unconstrained", "fair", "four_fifths"):
        block = {
            "utility_train": mean_of(lambda e, n=name: e[n]["train"]["utility"]),
            "utility_test": mean_of(lambda e, n=name: e[n]["test"]["utility"]),
            "disparity_ratio_train": mean_of(lambda e, n=name: e[n]["train"]["disparity_ratio"]),
            "disparity_ratio_test": mean_of(lambda e, n=name: e[n]["test"]["disparity_ratio"]),
        }
        groups = dataset.groups
        for family in ("positive_rate", "tpr", "fpr", "ppv", "for_rate"):
            for g in groups:
                block[f"{family}_{g}_test"] = mean_of(
                    lambda e, n=name, f=family, gg=g: e[n]["test"]["groups"][gg][f]
                )
        thresholds = [e[name]["thresholds"] for e in per_seed]
        if all(t is not None for t in thresholds):
            keys = sorted(thresholds[0])
            block["thresholds"] = {
                k: statistics.fmean(t[k] for t in thresholds) for k in keys
            }
        summary["mean"][name] = block
    return summary


def _report_text(summary: dict) -> str:
    lines = [
        "fairness report",
        "===============",
        f"criterion: {summary['criterion']['kind']} (gamma={summary['criterion']['gamma']:g})",
        f"requirement: {summary['requirement']}",
        f"seeds: {', '.join(str(s) for s in summary['seeds'])}",
        "",
    ]
    labels = {
        "unconstrained": "unconstrained rule",
        "fair": f"fair rule (gamma={summary['criterion']['gamma']:g})",
        "four_fifths": "four-fifths rule (gamma=0.8)",
    }
    for name, label in labels.items():
        block = summary["mean"][name]
        lines.append(label)
        if block.get("thresholds"):
            taus = "; ".join(f"{k}: {v:.4f}" for k, v in block["thresholds"].items())
            lines.append(f"  mean thresholds: {taus}")
        lines.append(
            f"  mean utility: train {block['utility_train']:.4f}, "
            f"test {block['utility_test']:.4f}"
        )
        lines.append(
            f"  mean disparity ratio: train {block['disparity_ratio_train']:.4f}, "
            f"test {block['disparity_ratio_test']:.4f}"
        )
        rates = [
            (key[: -len("_test")], value)
            for key, value in block.items()
            if key.endswith("_test") and not key.startswith("utility")
            and not key.startswith("disparity") and value is not None
        ]
        if rates:
            lines.append("  mean test rates: " + "; ".join(f"{k}: {v:.4f}" for k, v in rates))
        lines.append("")
    ratio = summary["mean"]["fair"]["disparity_ratio_test"]
    verdict = "passes" if ratio is not None and ratio >= 0.8 else "fails"
    lines.append(f"four-fifths check: the fair rule's mean test ratio {verdict} 0.8")
    return "\n".join(lines) + "\n"


def cmd_report(config: RunConfig, out: _OutputTracker) -> int:
    summary = run_report(config)
    out.write_text("report.json", _json_text(summary))
    out.write_text("report.txt", _report_text(summary))
    print(_report_text(summary))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, needs_input: bool = True) -> None:
    if needs_input:
        parser.add_argument("--input", required=True, type=Path, help="input csv path")
        parser.add_argument("--group-col", default="group")
        parser.add_argument("--label-col", default="label")
        parser.add_argument("--score-col", default=None)
        parser.add_argument("--id-col", default=None)
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    parser.add_argument("--train-fraction", type=float, default=2.0 / 3.0)
    parser.add_argument("--utility", default="1,0,0,1",
                        help="u(0,0),u(0,1),u(1,0),u(1,1); default is accuracy")
    parser.add_argument("--criterion", default=None,
                        choices=[k.value for k in CriterionKind])
    parser.add_argument("--assessment", type=Path, default=None, dest="assessment_path")
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--min-count", type=int, default=30)
    parser.add_argument("--verify", action="store_true")


def _build_config(args: argparse.Namespace) -> RunConfig:
    utility_cells = tuple(float(v) for v in args.utility.split(","))
    if len(utility_cells) != 4:
        raise ValueError("--utility needs four comma-separated numbers")
    roles = None
    if getattr(args, "input", None) is not None:
        roles = ColumnRoles(
            group=args.group_col,
            label=args.label_col,
            score=args.score_col,
            id=args.id_col,
        )
    fit_config = FitConfig(
        learning_rate=getattr(args, "learning_rate", 0.1),
        iterations=getattr(args, "iterations", 2000),
        l2=getattr(args, "l2", 1e-4),
        include_group=getattr(args, "use_group_feature", False),
    )
    gammas = None
    if getattr(args, "gammas", None):
        gammas = tuple(float(v) for v in args.gammas.split(","))
    return RunConfig(
        input=getattr(args, "input", None),
        roles=roles,
        criterion=getattr(args, "criterion", None),
        assessment_path=getattr(args, "assessment_path", None),
        rule_path=getattr(args, "rule", None),
        gamma=getattr(args, "gamma", None),
        utility=UtilityMatrix(*utility_cells),
        seed=args.seed,
        seeds=args.seeds,
        train_fraction=args.train_fraction,
        out=args.out,
        answers=getattr(args, "answers", None),
        verify=getattr(args, "verify", False),
        min_count=getattr(args, "min_count", 30),
        fit_config=fit_config,
        gammas=gammas,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgate",
        description="moral assessment to criterion to optimal fair decision rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser("assess", help="run the moral assessment questionnaire")
    p_assess.add_argument("--answers", type=Path, default=None,
                          help="file of scripted answers, one per line")
    p_assess.add_argument("--out", type=Path, default=Path("."))
    p_assess.add_argument("--seed", type=int, default=0)
    p_assess.add_argument("--seeds", type=int, default=1)
    p_assess.add_argument("--train-fraction", type=float, default=2.0 / 3.0)
    p_assess.add_argument("--utility", default="1,0,0,1")
    p_assess.set_defaults(func=cmd_assess)

    p_fit = sub.add_parser("fit", help="train the logistic scorer and score the data")
    _add_common(p_fit)
    p_fit.add_argument("--learning-rate", type=float, default=0.1)
    p_fit.add_argument("--iterations", type=int, default=2000)
    p_fit.add_argument("--l2", type=float, default=1e-4)
    p_fit.add_argument("--use-group-feature", action="store_true",
                       help="one-hot encode the group column into the features")
    p_fit.set_defaults(func=cmd_fit)

    p_opt = sub.add_parser("optimize", help="derive the optimal constrained rule")
    _add_common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="apply a rule file and report metrics")
    _add_common(p_eval)
    p_eval.add_argument("--rule", type=Path, required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="trace the performance-fairness frontier")
    _add_common(p_sweep)
    p_sweep.add_argument("--gammas", default=None,
                         help="comma-separated levels; default 0..1 step 0.05")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="full multi-seed pipeline summary")
    _add_common(p_report)
    p_report.set_defaults(func=cmd_report)
    return parser


_ERRORS = (ValueError, RuntimeError, KeyError, OSError)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        tracker = _OutputTracker(config.out)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(config, tracker)
    except _ERRORS as exc:
        tracker.discard_all()
        message = str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
