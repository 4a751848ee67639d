"""Command-line surface: assess -> fit -> optimize -> evaluate -> sweep -> report.

All randomness flows from explicit seeds and every command is deterministic
given its configuration: reruns produce byte-identical csv outputs. On any
module error the command exits nonzero with a single-line diagnostic and
removes partial outputs.

CSV ingest streams its input: ``dataset_from_rows`` converts ``CHUNK_ROWS``
rows at a time into arrays and merges the chunks once at the end, so memory
holds the returned arrays and one chunk of rows as Python objects, never the
whole file as rows. ``fit`` reads its input a second time to write the
scored copy row by row. Errors win in the order of a whole-file read: a
malformed row anywhere in the file wins over every other error.

A criterion comes from ``--criterion`` or from an ``--assessment`` file.
``_resolve_criterion`` is the one resolver of optimize, evaluate, sweep and
report; it settles an assessment file with ``assessment.settle``, the
function that settles the ``assess`` wizard's answers, and the settled
assessment carries the benefit of its equal-chances table. Evaluate alone
falls back to the criterion stored in its rule file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .assessment import (
    MoralAssessment,
    assessment_to_dict,
    criterion_equation,
    load_assessment,
    map_assessment,
    run_wizard,
    settle,
)
from .metrics import decision_maker_utility, metric_report
from .model import (
    Columns,
    CriterionKind,
    Dataset,
    DecisionRule,
    FairnessCriterion,
    GroupInterval,
    GroupThreshold,
    Mixture,
    SingleThreshold,
    StratifiedGroupThreshold,
    UtilityMatrix,
    encode,
    read_rule_file,
    write_rule_file,
)
from .optimizer import OptimizationProblem, optimize, optimize_unconstrained, solve_context
from .scorer import FitConfig, fit, save_model, score_dataset, split

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

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError(f"--seeds must be at least 1, got {self.seeds}")

    @property
    def seed_list(self) -> list[int]:
        return [self.seed + i for i in range(self.seeds)]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


# Data rows converted at a time. Only the chunk being read is held as Python
# lists and strings; every earlier one is already arrays.
CHUNK_ROWS = 1024


class _RowStream:
    """The data rows of an open CSV reader, each with the line it ends on, read once.

    Blank lines are skipped. A row whose width is not the header's raises
    with its line, and the stream yields nothing after that. ``len`` is the
    number of data rows read so far: once the stream is spent it is the
    length of a list of its rows, the count that ``perfbench/tracing.py``
    takes of what ``dataset_from_rows`` was given.
    """

    def __init__(self, reader, width: int, path: Path):
        self._count = 0
        self._rows = self._read(reader, width, path)

    def _read(self, reader, width: int, path: Path) -> Iterator[tuple[int, list[str]]]:
        for values in reader:
            if len(values) != width:
                if not values:
                    continue
                raise ValueError(f"{path}: malformed row at line {reader.line_num}")
            self._count += 1
            yield reader.line_num, values

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        return self._rows

    def __len__(self) -> int:
        return self._count


@contextlib.contextmanager
def _read_rows(path: Path) -> Iterator[tuple[list[str], _RowStream]]:
    """The header of the CSV at ``path``, and a stream of its data rows.

    A UTF-8 byte-order mark before the header is dropped. When the body
    raises a ValueError, the rest of the file is still read for its shape:
    a malformed row anywhere in the file wins over every other error, as it
    does when the whole file is read before anything is checked.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        fieldnames = next(reader, None)
        if fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        rows = _RowStream(reader, len(fieldnames), path)
        try:
            yield fieldnames, rows
        except ValueError:
            for _ in rows:
                pass
            raise


def _check_row(line: int, row: dict, roles: ColumnRoles, features: Sequence[str]) -> None:
    """Raise the first error of one row: its label, then its score, then its features.

    A feature must parse as a finite number: NaN or infinity would drop the
    feature from a fit as constant, or fail it.
    """
    raw = row[roles.label]
    try:
        binary = float(raw) in (0.0, 1.0)
    except ValueError:
        binary = False
    if not binary:
        raise ValueError(f"line {line}: {roles.label} must be 0 or 1, got {raw!r}")
    if roles.score is not None:
        raw = row[roles.score]
        try:
            score = float(raw)
        except ValueError:
            message = f"line {line}: score must be a decimal in [0, 1], got {raw!r}"
            raise ValueError(message) from None
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"line {line}: score {score} outside [0, 1]")
    for name in features:
        try:
            value = float(row[name])
        except ValueError as exc:
            raise ValueError(f"line {line}: bad feature value ({exc})") from None
        if not math.isfinite(value):
            message = f"{name} must be a finite number, got {row[name]!r}"
            raise ValueError(f"line {line}: bad feature value ({message})")


def dataset_from_rows(
    fieldnames: Sequence[str], rows: Iterable[tuple[int, list[str]]], roles: ColumnRoles
) -> Dataset:
    """The dataset of rows as ``_read_rows`` gives them, from a list or the stream itself.

    The rows are taken ``CHUNK_ROWS`` at a time, and each chunk becomes a
    dataset as soon as it is read (``_chunk_dataset``). The chunks are merged
    once at the end (``_concat``). Given the stream, memory holds the arrays
    of the chunks read so far and one chunk of rows as Python objects; the
    merge briefly holds the arrays twice.
    """
    if len(set(fieldnames)) < len(fieldnames):
        repeated = next(name for i, name in enumerate(fieldnames) if name in fieldnames[:i])
        raise ValueError(f"the header names column {repeated!r} more than once")
    for required in (roles.group, roles.label):
        if required not in fieldnames:
            raise ValueError(f"missing column {required!r}")
    for role, name in (("score", roles.score), ("id", roles.id)):
        if name is not None and name not in fieldnames:
            raise ValueError(f"missing {role} column {name!r}")
    rows = iter(rows)
    parts = []
    while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
        parts.append(_chunk_dataset(fieldnames, chunk, roles))
    if not parts:
        raise ValueError("no data rows")
    return _concat(parts)


def _chunk_dataset(
    fieldnames: Sequence[str], rows: list[tuple[int, list[str]]], roles: ColumnRoles
) -> Dataset:
    """One chunk of rows, converted column by column.

    The arrays are checked once, by ``Dataset``. Only when a check fails are
    the rows parsed one by one, to name the first bad line; every earlier
    chunk passed its checks, so that line is the first bad line of the file.
    """
    feature_names = tuple(c for c in fieldnames if c.startswith(FEATURE_PREFIX))
    legit_names = tuple(c[len(LEGIT_PREFIX) :] for c in fieldnames if c.startswith(LEGIT_PREFIX))
    position = {name: i for i, name in enumerate(fieldnames)}
    # Every row has the header's width (``_RowStream``), so the transpose
    # holds one tuple per column.
    by_column = list(zip(*(values for _, values in rows)))

    def column(name: str) -> Sequence[str]:
        return by_column[position[name]]

    floats = lambda name: np.fromiter(map(float, column(name)), float, len(rows))
    (groups, *legit_values), codes = encode(
        [column(roles.group), *(column(LEGIT_PREFIX + name) for name in legit_names)]
    )
    ids = column(roles.id) if roles.id is not None else [str(line) for line, _ in rows]
    try:
        # A label other than 0 or 1, or a NaN given as a score, becomes -1, which
        # Dataset rejects.
        labels = floats(roles.label)
        scores = np.full(len(rows), np.nan)
        if roles.score is not None:
            scores = floats(roles.score)
            scores[np.isnan(scores)] = -1.0
        features = [floats(name) for name in feature_names]
        columns = Columns(
            ids=np.array(ids, dtype=object),
            labels=np.where((labels == 0.0) | (labels == 1.0), labels, -1.0).astype(np.int64),
            scores=scores,
            group_codes=codes[:, 0],
            legit_codes=codes[:, 1:],
            legit_values=tuple(legit_values),
            features=np.column_stack(features) if features else None,
        )
        return Dataset(columns, tuple(groups), legit_names, feature_names)
    except ValueError:
        for line, row in rows:  # a check failed: name the first bad line
            _check_row(line, dict(zip(fieldnames, row)), roles, feature_names)
        raise


def _concat(parts: list[Dataset]) -> Dataset:
    """The datasets of consecutive chunks of one file, as one dataset.

    The groups, and the values of each legitimate attribute, become the
    sorted union of the parts' values, as ``encode`` sorts them for a whole
    file, and every part's codes are mapped into it. The other columns are
    joined as they are.
    """
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    # Entry 0 is the groups, entry 1 + j the values of legitimate attribute j;
    # column k of a part's codes below indexes its entry k.
    own = [(part.groups, *part.columns.legit_values) for part in parts]
    vocabularies = [tuple(sorted(set().union(*values))) for values in zip(*own)]
    ranks = [{value: i for i, value in enumerate(vocab)} for vocab in vocabularies]
    recoded = []
    for part, values in zip(parts, own):
        codes = np.column_stack((part.columns.group_codes, part.columns.legit_codes))
        for k, (rank, vocab) in enumerate(zip(ranks, values)):
            codes[:, k] = np.array([rank[value] for value in vocab], np.intp)[codes[:, k]]
        recoded.append(codes)
    codes = np.concatenate(recoded)
    join = lambda name: np.concatenate([getattr(part.columns, name) for part in parts])
    columns = Columns(
        ids=join("ids"),
        labels=join("labels"),
        scores=join("scores"),
        group_codes=codes[:, 0],
        legit_codes=codes[:, 1:],
        legit_values=tuple(vocabularies[1:]),
        features=None if first.columns.features is None else join("features"),
    )
    return Dataset(columns, vocabularies[0], first.legit_names, first.feature_names)


def load_csv(path: str | Path, roles: ColumnRoles) -> Dataset:
    """Parse a UTF-8 CSV with a header row into a Dataset, one array per column.

    Columns prefixed ``x_`` become features and ``l_`` legitimate
    attributes; ids default to file line numbers. A malformed or invalid row
    raises with its line number. The file is streamed through
    ``dataset_from_rows``: besides the arrays it returns, memory holds one
    chunk of ``CHUNK_ROWS`` rows as Python objects, never the whole file.
    """
    with _read_rows(Path(path)) as (fieldnames, rows):
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

    def write_csv(self, name: str, rows: Iterable[Sequence[str]]) -> Path:
        """Write the rows as they come; a failure part way still leaves the file to discard."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.paths.append(path)
        with open(path, "w", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        print(f"wrote {path}")
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


def _named(criterion: FairnessCriterion) -> str:
    """A criterion in a message: its kind, its level and any legitimate attributes."""
    given = f" given {', '.join(criterion.legit_names)}" if criterion.legit_names else ""
    return f"{criterion.kind.value} at gamma {criterion.gamma:g}{given}"


def _resolve_criterion(
    config: RunConfig, dataset: Dataset
) -> tuple[FairnessCriterion, MoralAssessment | None]:
    """The criterion at the configured gamma (default 1), and the settled assessment if any.

    Exactly one of ``--criterion`` and ``--assessment`` must be given. An
    assessment file is settled as the ``assess`` wizard settles its answers
    (``assessment.settle``), so the same answers map to the same criterion.
    The file's ``criterion`` entry, if any, must be that criterion at its
    default level, as the wizard writes it: an edited entry would otherwise
    change nothing and say nothing. Its ``group_attribute`` must name the
    group column the data was read with, for the same reason.
    """
    if (config.criterion is None) == (config.assessment_path is None):
        raise ValueError("exactly one of --criterion and --assessment is required")
    if config.assessment_path is not None:
        loaded, stored = load_assessment(config.assessment_path)
        if loaded.group_attribute != config.roles.group:
            raise ValueError(
                f"assessment file {config.assessment_path}: its group_attribute is "
                f"{loaded.group_attribute!r}, but the group column is {config.roles.group!r}; "
                "name the column with --group-col"
            )
        assessment = settle(loaded)
        criterion = map_assessment(assessment)
        if stored is not None and stored != criterion:
            raise ValueError(
                f"assessment file {config.assessment_path}: its criterion entry is "
                f"{_named(stored)}, but the assessment maps to {_named(criterion)}; "
                "set the level with --gamma"
            )
    else:
        assessment = None
        kind = CriterionKind(config.criterion)
        legit = dataset.legit_names if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY else ()
        if kind is CriterionKind.CONDITIONAL_STATISTICAL_PARITY and not legit:
            raise ValueError("conditional statistical parity needs l_-prefixed columns")
        criterion = FairnessCriterion(kind, legit_names=legit)
    gamma = config.gamma if config.gamma is not None else 1.0
    return dataclasses.replace(criterion, gamma=gamma), assessment


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
            f"{g}: [{c.low:.6g}, {c.high:.6g}]"
            + (f" {c.form}-bound" if c.form_is_open else "")
            + f" (q={c.boundary:.6g})"
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


def _problem(config: RunConfig, train: Dataset, crit: FairnessCriterion) -> OptimizationProblem:
    return OptimizationProblem(train, config.utility, crit, min_count=config.min_count)


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
    out.write_text("assessment.json", _json_text(assessment_to_dict(assessment)))
    print(f"criterion: {criterion.kind.value}")
    print(f"requirement: {criterion_equation(criterion)}")
    return 0


def cmd_fit(config: RunConfig, out: _OutputTracker) -> int:
    with _read_rows(config.input) as (fieldnames, rows):
        if "score" in fieldnames:
            raise ValueError("the input already has a 'score' column, the one fit writes")
        dataset = dataset_from_rows(fieldnames, rows, config.roles)
    if not dataset.feature_names:
        raise ValueError(f"no {FEATURE_PREFIX}-prefixed feature columns found")
    train, _ = split(dataset, config.train_fraction, config.seed)
    model = fit(train, config.fit_config)
    scores = score_dataset(model, dataset).columns.scores

    out.out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out.out_dir / "model.json"
    save_model(model_path, model)
    out.register(model_path)
    # The scored copy reads the input a second time, row by row, rather than
    # keeping every row of the first read.
    with _read_rows(config.input) as (_, rows):
        scored = (values + [repr(score)] for (_, values), score in zip(rows, map(float, scores)))
        out.write_csv("scored.csv", itertools.chain([fieldnames + ["score"]], scored))
    print(f"final training loss: {model.final_loss:.6f}")
    return 0


def _load_scored(config: RunConfig) -> Dataset:
    if config.roles is None or config.roles.score is None:
        raise ValueError("--score-col is required here (run fit first)")
    return load_csv(config.input, config.roles)  # every row has a valid score


def cmd_optimize(config: RunConfig, out: _OutputTracker) -> int:
    dataset = _load_scored(config)
    criterion, assessment = _resolve_criterion(config, dataset)
    train, _ = split(dataset, config.train_fraction, config.seed)
    problem = _problem(config, train, criterion)
    rule = optimize(problem)
    rule_path = out.out_dir / "rule.json"
    out.out_dir.mkdir(parents=True, exist_ok=True)
    write_rule_file(rule_path, rule, criterion)
    out.register(rule_path)

    report = metric_report(train, rule, criterion, config.utility, assessment)
    if config.verify:
        report["verification"] = _verify_against_oracle(problem, report["utility"])
    out.write_text("metrics_train.json", _json_text(report))
    print(describe_rule(rule))
    print(f"training utility: {report['utility']:.6f}")
    print(f"training disparity ratio: {report['disparity_ratio']:.6f}")
    return 0


def _verify_against_oracle(problem: OptimizationProblem, mine: float) -> dict:
    """The brute-force oracle's utility beside ``mine``, the optimizer's training utility."""
    from .oracle import OracleSizeError, brute_force_oracle  # loaded only for --verify

    try:
        reference = brute_force_oracle(problem)
    except OracleSizeError as exc:
        return {"checked": False, "reason": str(exc)}
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
    if config.criterion is not None or config.assessment_path is not None:
        criterion, assessment = _resolve_criterion(config, dataset)
    elif stored_criterion is not None:
        gamma = config.gamma if config.gamma is not None else stored_criterion.gamma
        criterion, assessment = dataclasses.replace(stored_criterion, gamma=gamma), None
    else:
        raise ValueError("no criterion: pass --criterion/--assessment or a rule file that has one")
    report = metric_report(dataset, rule, criterion, config.utility, assessment)
    out.write_text("metrics.json", _json_text(report))
    print(f"utility: {report['utility']:.6f}")
    print(f"disparity ratio: {report['disparity_ratio']:.6f}")
    return 0


def cmd_sweep(config: RunConfig, out: _OutputTracker) -> int:
    from .frontier import DEFAULT_GAMMA_GRID, emit_frontier, sweep  # loaded only here

    dataset = _load_scored(config)
    criterion, _ = _resolve_criterion(config, dataset)
    train, test = split(dataset, config.train_fraction, config.seed)
    problem = _problem(config, train, criterion)
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
    dataset = load_csv(config.input, config.roles)
    criterion, assessment = _resolve_criterion(config, dataset)

    per_seed = []
    for seed in config.seed_list:
        train, test = _split_scored(config, dataset, seed)
        unconstrained = optimize_unconstrained(train, config.utility)
        # One solve context gives the fair rule and the four-fifths rule.
        context = solve_context(_problem(config, train, criterion))
        fair_rule = context.solve(criterion.gamma)
        ff_rule = context.solve(0.8)
        entry: dict = {"seed": seed}
        for name, rule in (
            ("unconstrained", unconstrained),
            ("fair", fair_rule),
            ("four_fifths", ff_rule),
        ):
            entry[name] = {
                "train": metric_report(train, rule, criterion, config.utility, assessment),
                "test": metric_report(test, rule, criterion, config.utility, assessment),
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


# Options copied as given into RunConfig and FitConfig. Subcommand parsers
# leave out every option that is not on the command line, so the defaults are
# the dataclass defaults alone.
_RUN_OPTIONS = (
    "input", "criterion", "assessment_path", "rule_path", "gamma", "seed", "seeds",
    "train_fraction", "out", "answers", "verify", "min_count",
)
_FIT_OPTIONS = ("iterations", "l2", "include_group")


# The options of the data commands, each given to the commands that read it.
_DATA_OPTIONS = {
    "--input": dict(required=True, type=Path, help="input csv path"),
    "--group-col": dict(default="group"),
    "--label-col": dict(default="label"),
    "--score-col": dict(default=None),
    "--id-col": dict(default=None),
    "--out": dict(type=Path, help="output directory"),
    "--seed": dict(type=int),
    "--seeds": dict(type=int, help="number of consecutive seeds"),
    "--train-fraction": dict(type=float),
    "--utility": dict(help="u(0,0),u(0,1),u(1,0),u(1,1); default is accuracy"),
    "--criterion": dict(choices=[k.value for k in CriterionKind]),
    "--assessment": dict(type=Path, dest="assessment_path"),
    "--gamma": dict(type=float),
    "--min-count": dict(type=int),
    "--verify": dict(action="store_true"),
}
_IN_OUT = ("--input", "--group-col", "--label-col", "--score-col", "--id-col", "--out")
_SPLIT = ("--seed", "--train-fraction")
_CRITERION = ("--utility", "--criterion", "--assessment")


def _add_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_DATA_OPTIONS[flag])


def _build_config(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    run = {name: given[name] for name in _RUN_OPTIONS if name in given}
    if "utility" in given:
        cells = tuple(float(v) for v in given["utility"].split(","))
        if len(cells) != 4:
            raise ValueError("--utility needs four comma-separated numbers")
        run["utility"] = UtilityMatrix(*cells)
    if "input" in given:
        run["roles"] = ColumnRoles(
            group=args.group_col,
            label=args.label_col,
            score=args.score_col,
            id=args.id_col,
        )
    if given.get("gammas"):
        run["gammas"] = tuple(float(v) for v in args.gammas.split(","))
    fit_config = FitConfig(**{name: given[name] for name in _FIT_OPTIONS if name in given})
    return RunConfig(fit_config=fit_config, **run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgate",
        description="moral assessment to criterion to optimal fair decision rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func) -> argparse.ArgumentParser:
        # An option left off the command line stays out of the namespace. No
        # abbreviations: sweep's --gammas would otherwise take --gamma.
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p_assess = command("assess", "run the moral assessment questionnaire", cmd_assess)
    p_assess.add_argument("--answers", type=Path,
                          help="file of scripted answers, one per line")
    p_assess.add_argument("--out", type=Path)

    p_fit = command("fit", "train the logistic scorer and score the data", cmd_fit)
    _add_options(p_fit, *_IN_OUT, *_SPLIT)
    p_fit.add_argument("--iterations", type=int, help="the cap on Newton steps")
    p_fit.add_argument("--l2", type=float)
    p_fit.add_argument("--use-group-feature", action="store_true", dest="include_group",
                       help="one-hot encode the group column into the features")

    p_opt = command("optimize", "derive the optimal constrained rule", cmd_optimize)
    _add_options(p_opt, *_IN_OUT, *_SPLIT, *_CRITERION, "--gamma", "--min-count", "--verify")

    p_eval = command("evaluate", "apply a rule file and report metrics", cmd_evaluate)
    _add_options(p_eval, *_IN_OUT, *_CRITERION, "--gamma")
    p_eval.add_argument("--rule", type=Path, required=True, dest="rule_path", metavar="RULE")

    p_sweep = command("sweep", "trace the performance-fairness frontier", cmd_sweep)
    _add_options(p_sweep, *_IN_OUT, *_SPLIT, *_CRITERION, "--min-count")
    p_sweep.add_argument("--gammas", help="comma-separated levels; default 0..1 step 0.05")

    p_report = command("report", "full multi-seed pipeline summary", cmd_report)
    _add_options(p_report, *_IN_OUT, *_SPLIT, "--seeds", *_CRITERION, "--gamma", "--min-count")
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
