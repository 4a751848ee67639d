"""CSV ingest: every rejection with its line and message, and the loaded columns.

``load_csv`` converts each column once and validates with array checks; only
after a check has failed does it go row by row to name the first bad line.
These tests pin those messages and the arrays that a valid file loads into.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fairgate import model
from fairgate.model import Dataset
from fairgate.cli import ColumnRoles, _read_rows, dataset_from_rows, load_csv

GOLDEN_INPUT = Path(__file__).parent / "golden" / "cli" / "input.csv"
ROLES = ColumnRoles(group="group", label="label", score="p")
HEADER = "id,group,label,p,x_a,l_tier\n"


def load_text(tmp_path: Path, text: str, roles: ColumnRoles = ROLES):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    return load_csv(path, roles)


def rejection(tmp_path: Path, text: str, roles: ColumnRoles = ROLES) -> str:
    with pytest.raises(ValueError) as info:
        load_text(tmp_path, text, roles)
    return str(info.value).replace(str(tmp_path / "input.csv"), "PATH")


@pytest.mark.parametrize(
    "rows, message",
    [
        ("r1,a,1,0.5,1.0,x\nr2,a,0,0.5,1.0\n", "PATH: malformed row at line 3"),
        ("r1,a,1,0.5,1.0,x\nr2,a,0,0.5,1.0,x,extra\n", "PATH: malformed row at line 3"),
        ("r1,a,1,0.5,1.0,x\nr2,a,2,0.5,1.0,x\n", "line 3: label must be 0 or 1, got '2'"),
        ("r1,a,x,0.5,1.0,x\n", "line 2: label must be 0 or 1, got 'x'"),
        ("r1,a,0.5,0.5,1.0,x\n", "line 2: label must be 0 or 1, got '0.5'"),
        ("r1,a,nan,0.5,1.0,x\n", "line 2: label must be 0 or 1, got 'nan'"),
        ("r1,a,1,abc,1.0,x\n", "line 2: score must be a decimal in [0, 1], got 'abc'"),
        ("r1,a,1,0.5,1.0,x\nr2,a,1,1.5,1.0,x\n", "line 3: score 1.5 outside [0, 1]"),
        ("r1,a,1,-0.25,1.0,x\n", "line 2: score -0.25 outside [0, 1]"),
        ("r1,a,1,nan,1.0,x\n", "line 2: score nan outside [0, 1]"),
        (
            "r1,a,1,0.5,1.0,x\nr2,a,1,0.5,zz,x\n",
            "line 3: bad feature value (could not convert string to float: 'zz')",
        ),
    ],
)
def test_bad_row_is_named_by_line(tmp_path, rows, message):
    assert rejection(tmp_path, HEADER + rows) == message


def test_first_bad_line_wins_across_columns(tmp_path):
    rows = "r1,a,1,0.5,1.0,x\nr2,a,1,0.5,zz,x\nr3,a,1,7,1.0,x\nr4,a,2,0.5,1.0,x\n"
    assert rejection(tmp_path, HEADER + rows) == (
        "line 3: bad feature value (could not convert string to float: 'zz')"
    )


def test_label_then_score_then_features_within_a_row(tmp_path):
    assert rejection(tmp_path, HEADER + "r1,a,2,7,zz,x\n") == (
        "line 2: label must be 0 or 1, got '2'"
    )
    assert rejection(tmp_path, HEADER + "r1,a,1,7,zz,x\n") == "line 2: score 7.0 outside [0, 1]"


def test_blank_lines_are_skipped_and_counted(tmp_path):
    text = HEADER + "r1,a,1,0.5,1.0,x\n\n\nr2,b,1,1.5,1.0,x\n"
    assert rejection(tmp_path, text) == "line 5: score 1.5 outside [0, 1]"
    dataset = load_text(tmp_path, HEADER + "r1,a,1,0.5,1.0,x\n\nr2,b,0,0.25,2.0,y\n")
    assert [r.id for r in dataset.records] == ["2", "4"]


def test_quoted_newline_counts_both_lines(tmp_path):
    text = HEADER + '"r\n1",a,1,0.5,1.0,x\nr2,b,1,1.5,1.0,x\n'
    assert rejection(tmp_path, text) == "line 4: score 1.5 outside [0, 1]"


@pytest.mark.parametrize(
    "header, roles, message",
    [
        ("id,label,p\n", ROLES, "missing column 'group'"),
        ("id,group,p\n", ROLES, "missing column 'label'"),
        ("id,group,label\n", ROLES, "missing score column 'p'"),
        ("id,group,label\n", ColumnRoles("group", "label", id="x"), "missing id column 'x'"),
    ],
)
def test_missing_column(tmp_path, header, roles, message):
    assert rejection(tmp_path, header + "r1,a,1\n", roles) == message


def test_a_column_named_twice_is_rejected(tmp_path):
    text = "id,group,label,p,x_a,p\nr1,a,1,0.5,1.0,0.25\n"
    assert rejection(tmp_path, text) == "the header names column 'p' more than once"


def test_a_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text("\ufeffgroup,label,p\na,1,0.5\nb,0,0.25\n", encoding="utf-8")
    dataset = load_csv(path, ROLES)
    assert dataset.groups == ("a", "b")


def test_empty_file(tmp_path):
    assert rejection(tmp_path, "") == "PATH: empty file, expected a header row"


def test_header_only(tmp_path):
    assert rejection(tmp_path, HEADER) == "no data rows"


def test_id_column_names_the_record_without_a_score(tmp_path):
    text = "name,group,label,x_a\nalice,a,1,0.5\nbob,b,0,0.25\n"
    dataset = load_text(tmp_path, text, ColumnRoles("group", "label", id="name"))
    with pytest.raises(ValueError, match="^record alice has no score$"):
        dataset.require_scores()
    assert [r.id for r in dataset.records] == ["alice", "bob"]


def test_groups_and_strata_are_sorted(tmp_path):
    dataset = load_text(tmp_path, HEADER + "r1,b,1,0.5,1,z\nr2,a,0,0.25,2,y\nr3,b,0,0.75,3,y\n")
    again = Dataset.from_records(dataset.records, ("tier",), ("x_a",))
    for ds in (dataset, again):
        assert ds.groups == ("a", "b")
        assert ds.columns.group_codes.tolist() == [1, 0, 1]
        codes, strata = ds.strata(("tier",))
        assert (codes.tolist(), strata) == ([1, 0, 0], (("y",), ("z",)))
    assert [(r.group, r.legit) for r in again.records] == [
        ("b", {"tier": "z"}), ("a", {"tier": "y"}), ("b", {"tier": "y"})
    ]


def test_strata_of_an_attribute_the_data_lacks(tmp_path):
    dataset = load_text(tmp_path, HEADER + "r1,b,1,0.5,1,z\n")
    message = r"^the data has no legitimate attribute\(s\) \['age'\] to condition on$"
    with pytest.raises(ValueError, match=message):
        dataset.strata(("tier", "age"))


def test_load_csv_builds_no_record(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("load_csv built a Record")

    monkeypatch.setattr(model.Record, "__post_init__", refuse)
    dataset = load_csv(GOLDEN_INPUT, ROLES)
    assert len(dataset) == 450


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "roles, expected",
    [
        (
            ROLES,
            {
                "columns": "cce4c707e6827f0e",
                "strata": "bd1da961f0d78b53",
                "records": "6f397d2097bcb325",
            },
        ),
        (
            ColumnRoles(group="group", label="label", id="id"),
            {
                "columns": "fe6256e136cd940a",
                "strata": "bd1da961f0d78b53",
                "records": "4ed115f6e69600b0",
            },
        ),
    ],
)
def test_golden_input_loads_to_the_same_values(roles, expected):
    # The digests were taken from the record-based ingest this one replaced.
    for dataset in (
        load_csv(GOLDEN_INPUT, roles),
        dataset_from_rows(*_read_rows(GOLDEN_INPUT), roles),
    ):
        assert dataset.groups == ("a", "b")
        assert dataset.legit_names == ("tier",)
        assert dataset.feature_names == ("x_logit", "x_noise")
        cols = dataset.columns
        assert (cols.scores.dtype, cols.labels.dtype, cols.group_codes.dtype) == (
            np.float64, np.int64, np.intp
        )
        got = {
            "columns": digest(cols.scores, cols.labels, cols.group_codes),
            "strata": digest(*dataset.strata(("tier",))),
            "records": digest(*dataset.records),
        }
        assert got == expected
