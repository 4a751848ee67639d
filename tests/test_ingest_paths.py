"""CSV ingest: the chunk parser against the row path, on seeded files with every oddity.

``load_csv`` parses each chunk of lines with one ``np.loadtxt`` call and
splits a chunk again with ``csv.reader`` where it has any doubt. The row path
(``dataset_from_rows`` given the rows ``csv.reader`` makes of the whole file)
is the reference: every file must load to the same columns, byte for byte,
or fail with the same message.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from fairgate import cli
from fairgate.cli import ColumnRoles, dataset_from_rows, load_csv

HEADER = ("id", "group", "label", "p", "x_a", "x_b", "l_tier", "note")
ROLES = (
    ColumnRoles(group="group", label="label", score="p"),
    ColumnRoles(group="group", label="label", score="p", id="id"),
    ColumnRoles(group="group", label="label"),
    # Two text roles in one column, and two number roles in another.
    ColumnRoles(group="l_tier", label="label", score="x_a"),
    # A column with a text role and a number role: read as text, its numbers
    # are float of its strings.
    ColumnRoles(group="x_b", label="label", score="p"),
    ColumnRoles(group="group", label="label", score="p", id="p"),
)
LONG = "g" * 80
# Values that either path reads alike, and values that only float() or only
# csv.reader take as they are; every one must come out as the row path has it.
ODD = {
    "group": ["a", "b", " a", "é", LONG, '"a,b"', '"x""y"', "", "﻿a", "a\x0bb", "a b"],
    "label": ["0", "1", "1.0", " 1 ", "0_0", "\xa01", "2", "x", "nan", "", "1_0", "\x1c1"],
    "p": ["0.5", " 0.5 ", ".25", "1e-1", "0.2_5", "nan", "inf", "-inf", "1.5", "", "abc",
          "\x1f0.5", " 0.5", '"0.5"', "٠.5"],
    "x": ["1.0", "-2.5e3", " 3 ", "1_0", "nan", "inf", "-inf", "zz", "", "\t4", '"5"'],
    "l_tier": ["low", "mid", "high", "", " low", LONG],
    "note": ["n", "", "#c", "a\x00b", '"one\ntwo"', '"one\r\ntwo"'],
}
ENDS = ["\n", "\r\n", "\r"]


def ordinary_row(rng: random.Random, i: int) -> list[str]:
    score = round(rng.random(), 2)
    return [
        f"r{i}",
        rng.choice(["a", "b", "c"]),
        str(int(rng.random() < score)),
        f"{score:.2f}",
        f"{rng.gauss(0, 1):.6f}",
        f"{rng.gauss(0, 1):.6f}",
        rng.choice(["low", "mid", "high"]),
        "n",
    ]


def seeded_text(seed: int) -> str:
    """A CSV of 5-40 rows, most ordinary, a few with an odd value, width or line."""
    rng = random.Random(seed)
    end = rng.choice(ENDS) if rng.random() < 0.3 else "\n"
    lines = [",".join(HEADER)]
    for i in range(rng.randint(5, 40)):
        row = ordinary_row(rng, i)
        if rng.random() < 0.04:
            column = rng.randrange(len(HEADER))
            key = {"x_a": "x", "x_b": "x", "id": "group"}.get(HEADER[column], HEADER[column])
            row[column] = rng.choice(ODD[key])
        draw = rng.random()
        if draw < 0.01:
            row = row[:-1]
        elif draw < 0.02:
            row = row + ["extra"]
        lines.append(",".join(row))
        draw = rng.random()
        if draw < 0.02:
            lines.append("")
        elif draw < 0.025:
            lines.append("  ")
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    return ("﻿" if rng.random() < 0.1 else "") + text


def outcome(load) -> tuple:
    """The dataset's names and columns, each array as its dtype, shape and bytes, or the error."""
    try:
        dataset = load()
    except ValueError as exc:
        return ("error", str(exc))
    cols = dataset.columns
    arrays = []
    for name in ("labels", "scores", "group_codes", "legit_codes", "features"):
        array = getattr(cols, name)
        arrays.append(None if array is None else (array.dtype.str, array.shape, array.tobytes()))
    return (
        dataset.groups, dataset.legit_names, dataset.feature_names, cols.legit_values,
        cols.ids.dtype.str, cols.ids.tolist(), arrays,
    )


def row_path(path: Path, roles: ColumnRoles) -> tuple:
    def load():
        with cli._read_rows(path) as (fieldnames, rows):
            return dataset_from_rows(fieldnames, list(rows), roles)

    return outcome(load)


@pytest.fixture
def parsed_chunks(monkeypatch):
    """The number of chunks the numpy parser took, without falling back to the row path."""
    counts = {"parsed": 0}
    original = cli._parse_lines

    def counted(*args):
        part = original(*args)
        counts["parsed"] += part is not None
        return part

    monkeypatch.setattr(cli, "_parse_lines", counted)
    return counts


@pytest.mark.parametrize("chunk", [2, 7, 1024])
def test_the_chunk_parser_loads_what_the_row_path_loads(
    chunk, tmp_path, monkeypatch, parsed_chunks
):
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
    path = tmp_path / "input.csv"
    kinds = {"error": 0, "dataset": 0}
    for seed in range(120):
        path.write_bytes(seeded_text(seed).encode("utf-8"))
        for roles in ROLES:
            expected = row_path(path, roles)
            assert outcome(lambda: load_csv(path, roles)) == expected, (seed, roles)
            kinds["error" if expected[0] == "error" else "dataset"] += 1
    # Both outcomes occur, and the parser, not only its fallback, ran.
    assert min(kinds.values()) > 50
    assert parsed_chunks["parsed"] > 60


@pytest.mark.parametrize(
    "line, parsed",
    [
        ("r1,a,1,0.5,1.0,2.0,low,n", True),
        ("r1,a,1,0.5,1.0,2.0,low,\"n\"", False),  # a quote
        ("r1,a,1,0.5\x1c,1.0,2.0,low,n", False),  # numpy strips it, float() does not
        ("r1,a,1,0.2_5,1.0,2.0,low,n", False),  # float() reads it, numpy does not
        ("r1,a\x00,1,0.5,1.0,2.0,low,n", False),  # NUL
        ("r1,a,1,0.5,1.0,2.0,low", False),  # short
    ],
)
def test_a_doubtful_chunk_goes_through_the_row_path(line, parsed, tmp_path, parsed_chunks):
    path = tmp_path / "input.csv"
    text = ",".join(HEADER) + "\n" + line + "\nr2,b,0,0.25,0.5,1.5,mid,n\n"
    path.write_text(text, encoding="utf-8")
    roles = ROLES[0]
    expected = row_path(path, roles)
    assert outcome(lambda: load_csv(path, roles)) == expected
    assert parsed_chunks["parsed"] == parsed


def test_a_blank_line_sends_only_its_chunk_through_the_row_path(
    tmp_path, monkeypatch, parsed_chunks
):
    # Lines 2-3 are the first chunk, 4-5 (one blank) the second, 6-7 the third.
    monkeypatch.setattr(cli, "CHUNK_ROWS", 2)
    rows = [",".join(ordinary_row(random.Random(i), i)) for i in range(5)]
    path = tmp_path / "input.csv"
    text = "\n".join([",".join(HEADER), rows[0], rows[1], "", rows[2], rows[3], rows[4]]) + "\n"
    path.write_text(text, encoding="utf-8")
    dataset = load_csv(path, ROLES[0])
    assert parsed_chunks["parsed"] == 2
    assert dataset.columns.ids.tolist() == ["2", "3", "5", "6", "7"]
    assert outcome(lambda: dataset) == row_path(path, ROLES[0])


def test_a_quoted_newline_at_a_chunk_end_is_read_on_into_the_next_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 2)
    path = tmp_path / "input.csv"
    row = lambda i, note: f"r{i},a,1,0.5,1.0,2.0,low,{note}"
    lines = [
        ",".join(HEADER), row(0, "n"), row(1, '"one'), "two", 'three"', row(2, "n"), row(3, "n")
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dataset = load_csv(path, ROLES[0])
    assert dataset.columns.ids.tolist() == ["2", "5", "6", "7"]
    assert np.array_equal(dataset.columns.scores, np.full(4, 0.5))


def test_a_field_longer_than_csv_takes_is_named_with_its_line(tmp_path):
    path = tmp_path / "input.csv"
    score = "0." + "5" * 140_000
    text = ",".join(HEADER) + "\nr1,a,1,0.5,1.0,2.0,low,n\nr2,b,0," + score + ",0.5,1.5,mid,n\n"
    path.write_text(text, encoding="utf-8")
    limit = f"field larger than field limit ({cli.csv.field_size_limit()})"
    with pytest.raises(ValueError) as raised:
        load_csv(path, ROLES[0])
    assert str(raised.value) == f"{path}: malformed row at line 3 ({limit})"
    assert row_path(path, ROLES[0]) == ("error", str(raised.value))
