"""Command-line surface: assess -> fit -> optimize -> evaluate -> sweep -> report.

All randomness flows from explicit seeds and every command is deterministic
given its configuration: reruns produce byte-identical csv outputs. On any
module error the command exits nonzero with a single-line diagnostic and
removes partial outputs.

CSV ingest streams its input: ``load_csv`` reads ``CHUNK_ROWS`` lines at a
time into one structured table, parsed by numpy's C reader or, where a chunk
raises any doubt, split by ``csv.reader`` and cast by numpy; one function
turns every table into arrays, and the chunks are merged once at the end, so
memory holds the returned arrays and one chunk as Python objects, never the
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
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

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

if TYPE_CHECKING:
    from .assessment import MoralAssessment

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


# Data lines parsed at a time, or data rows converted at a time where the rows
# are given. Only the chunk being read is held as Python strings; every
# earlier one is already arrays.
CHUNK_ROWS = 1024

# Characters that send a chunk of lines to be split by csv.reader: a quote
# (csv's quoting), NUL (which csv.reader rejects before Python 3.11) and
# \x1c-\x1f, which numpy's reader strips around a number and ``float`` does not.
_DOUBTFUL = '"\x00\x1c\x1d\x1e\x1f'


class _RowStream:
    """The data lines of an open CSV file after its header, read once.

    They are read row by row through ``csv.reader`` (iteration), or a chunk
    of lines at a time (``datasets``). Blank lines are skipped. A row whose
    width is not the header's, or that ``csv.reader`` cannot read, raises
    with its line, and the stream yields nothing after that. ``len`` is the
    number of data rows read so far: once the stream is spent it is the
    length of a list of its rows, the count that ``perfbench/tracing.py``
    takes of what ``dataset_from_rows`` was given.
    """

    def __init__(self, lines: Iterator[str], line: int, width: int, path: Path):
        self._lines = lines
        self._line = line  # the lines read so far, the header's among them
        self._width = width
        self._path = path
        self._count = 0

    def _rows(
        self, lines: Iterable[str], stop: float = math.inf
    ) -> Iterator[tuple[int, list[str]]]:
        """The rows ``csv.reader`` makes of ``lines``, each with the line it ends on.

        Reading ends at the first row that ends ``stop`` or more lines in.
        """
        reader = csv.reader(lines)
        start = self._line
        try:
            for values in reader:
                self._line = start + reader.line_num
                if len(values) == self._width:
                    self._count += 1
                    yield self._line, values
                elif values:
                    self._lines = iter(())
                    raise ValueError(f"{self._path}: malformed row at line {self._line}")
                if reader.line_num >= stop:
                    return
        except csv.Error as exc:  # a field too long, or NUL before Python 3.11
            self._lines = iter(())
            line = start + reader.line_num
            raise ValueError(f"{self._path}: malformed row at line {line} ({exc})") from None

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        return self._rows(self._lines)

    def __len__(self) -> int:
        return self._count

    def datasets(self, fieldnames: Sequence[str], roles: ColumnRoles) -> Iterator[Dataset]:
        """One dataset per chunk of ``CHUNK_ROWS`` lines.

        ``_parse_lines`` parses a chunk with numpy's C reader. Where it has any
        doubt, ``csv.reader`` splits the chunk's lines again, on into the
        lines after them if a quoted value runs on, and ``_chunk_dataset``
        converts its rows, naming the first bad line.
        """
        dtype = _line_dtype(fieldnames, roles)
        while lines := list(itertools.islice(self._lines, CHUNK_ROWS)):
            first = self._line + 1
            part = _parse_lines(lines, first, dtype, fieldnames, roles)
            if part is not None:
                self._line += len(lines)
                self._count += len(lines)
                yield part
            elif rows := list(self._rows(itertools.chain(lines, self._lines), len(lines))):
                yield _chunk_dataset(fieldnames, rows, roles)


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
        try:
            fieldnames = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{path}: malformed row at line {reader.line_num} ({exc})") from None
        if fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        rows = _RowStream(handle, reader.line_num, len(fieldnames), path)
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

    Given the stream, the lines are taken ``CHUNK_ROWS`` at a time
    (``_RowStream.datasets``); given rows, the rows are, and each chunk of
    rows is converted as soon as it is read (``_chunk_dataset``). The chunks
    are merged once at the end (``_concat``). Memory holds the arrays of the
    chunks read so far and one chunk as Python objects; the merge briefly
    holds the arrays twice.
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
    if isinstance(rows, _RowStream):
        parts = list(rows.datasets(fieldnames, roles))
    else:
        rows = iter(rows)
        chunks = iter(lambda: list(itertools.islice(rows, CHUNK_ROWS)), [])
        parts = [_chunk_dataset(fieldnames, chunk, roles) for chunk in chunks]
    if not parts:
        raise ValueError("no data rows")
    return _concat(parts)


def _attribute_names(fieldnames: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The feature names (``x_`` columns) and legitimate attribute names (``l_``, unprefixed)."""
    features = tuple(c for c in fieldnames if c.startswith(FEATURE_PREFIX))
    legit = tuple(c[len(LEGIT_PREFIX) :] for c in fieldnames if c.startswith(LEGIT_PREFIX))
    return features, legit


def _line_dtype(fieldnames: Sequence[str], roles: ColumnRoles) -> np.dtype:
    """The structured dtype of a chunk's table, field ``f<i>`` for column i.

    The label, score and ``x_`` columns are numbers (doubles). Every other
    column is text (Python strings): the group, id and ``l_`` columns, a
    column that also has one of those roles, and the rest, which are
    dropped. A text column's numbers are ``float`` of its strings.
    """
    features, legit = _attribute_names(fieldnames)
    text = {roles.group, roles.id, *(LEGIT_PREFIX + name for name in legit)}
    numbers = {roles.label, roles.score, *features} - text
    return np.dtype([(f"f{i}", "f8" if c in numbers else "O") for i, c in enumerate(fieldnames)])


def _parse_lines(
    lines: list[str], first: int, dtype: np.dtype, fieldnames: Sequence[str], roles: ColumnRoles
) -> Dataset | None:
    """The dataset of data lines numbered from ``first``, or None on any doubt.

    One ``np.loadtxt`` call parses every line into a table. Doubt is a blank
    line, a character of ``_DOUBTFUL``, a line longer than ``csv.reader``
    takes, a line that numpy does not parse or a value that ``Dataset``
    rejects. With none of these, each line is one row, split at its commas
    as ``csv.reader`` splits it, and each number is the double that
    ``float`` makes of it, so the table equals the one ``_chunk_dataset``
    builds.
    """
    if "\n" in lines or "\r\n" in lines or "\r" in lines:
        return None
    text = "".join(lines)
    limit = csv.field_size_limit()
    if any(c in text for c in _DOUBTFUL) or len(text) > limit and max(map(len, lines)) > limit:
        return None
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        return _table_dataset(table, range(first, first + len(lines)), fieldnames, roles)
    except ValueError:
        return None


def _chunk_dataset(
    fieldnames: Sequence[str], rows: list[tuple[int, list[str]]], roles: ColumnRoles
) -> Dataset:
    """One chunk of rows as ``csv.reader`` splits them, converted as a parsed chunk is.

    The rows become the table ``np.loadtxt`` builds: numpy casts a string
    into a number field by ``float``'s rules. Only when a value is rejected
    are the rows checked one by one, to name the first bad line; every
    earlier chunk passed its checks, so that line is the first bad line of
    the file.
    """
    try:
        table = np.array([tuple(values) for _, values in rows], _line_dtype(fieldnames, roles))
        return _table_dataset(table, [line for line, _ in rows], fieldnames, roles)
    except ValueError:
        features, _ = _attribute_names(fieldnames)
        for line, row in rows:  # a check failed: name the first bad line
            _check_row(line, dict(zip(fieldnames, row)), roles, features)
        raise


def _table_dataset(
    table: np.ndarray, lines: Sequence[int], fieldnames: Sequence[str], roles: ColumnRoles
) -> Dataset:
    """The dataset of one chunk's table (``_line_dtype``), whose rows end on ``lines``.

    Ids default to the line numbers. A label other than 0 or 1, or a NaN
    given as a score, becomes -1, which ``Dataset`` rejects.
    """
    position = {name: f"f{i}" for i, name in enumerate(fieldnames)}
    column = lambda name: table[position[name]]
    number = lambda name: np.asarray(column(name), float)  # a text field through float()
    features, legit = _attribute_names(fieldnames)
    (groups, *legit_values), codes = encode(
        [column(roles.group), *(column(LEGIT_PREFIX + name) for name in legit)]
    )
    if roles.id is not None:
        ids = column(roles.id).copy()
    else:
        ids = np.fromiter(map(str, lines), object, len(lines))
    labels = number(roles.label)
    if roles.score is None:
        scores = np.full(len(table), np.nan)
    else:
        scores = number(roles.score)
        scores = np.where(np.isnan(scores), -1.0, scores)
    columns = Columns(
        ids=ids,
        labels=np.where((labels == 0.0) | (labels == 1.0), labels, -1.0).astype(np.int64),
        scores=scores,
        group_codes=codes[:, 0],
        legit_codes=codes[:, 1:],
        legit_values=tuple(legit_values),
        features=np.column_stack([number(name) for name in features]) if features else None,
    )
    return Dataset(columns, tuple(groups), legit, features)


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
    chunk of ``CHUNK_ROWS`` lines as Python objects, never the whole file.

    Each chunk of lines is parsed by one ``np.loadtxt`` call, in numpy's C
    reader (``_parse_lines``), into a structured table. When the chunk holds
    a blank line, a quote, NUL or a character 0x1c-0x1f, a line longer than
    ``csv.field_size_limit()``, a line numpy does not parse or a value that
    ``Dataset`` rejects, ``csv.reader`` splits it instead and numpy casts
    its rows into the same table (``_chunk_dataset``). One function turns
    either table into the chunk's dataset (``_table_dataset``). Every error,
    its line and which error wins are the row path's; a line that
    ``csv.reader`` cannot read is a malformed row.
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
        from .assessment import load_assessment, map_assessment, settle  # loaded only here

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
    from .assessment import assessment_to_dict, criterion_equation, map_assessment, run_wizard

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
    import statistics

    from .assessment import criterion_equation  # loaded only by report and assessments

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


def _numbers(flag: str, text: str) -> tuple[float, ...]:
    """The comma-separated numbers given to ``flag``; an empty entry is an error."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated numbers, got {text!r}") from None


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The options given, copied into the config fields of the same name.

    Subcommand parsers leave out every option not on the command line, so the
    defaults are the dataclass defaults alone.
    """
    given = vars(args)
    named = lambda cls: {f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given}
    run = named(RunConfig)
    if "utility" in run:
        cells = _numbers("--utility", run["utility"])
        if len(cells) != 4:
            raise ValueError("--utility needs four comma-separated numbers")
        run["utility"] = UtilityMatrix(*cells)
    if "input" in run:
        run["roles"] = ColumnRoles(
            group=args.group_col,
            label=args.label_col,
            score=args.score_col,
            id=args.id_col,
        )
    if "gammas" in run:
        run["gammas"] = _numbers("--gammas", run["gammas"])
    return RunConfig(fit_config=FitConfig(**named(FitConfig)), **run)


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
