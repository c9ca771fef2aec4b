import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab.reporting import (
    decimal_spelling,
    format_cell,
    output,
    read_csv,
    write_csv,
    write_json,
    write_svg_lines,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**200) | st.sampled_from([0, 1, 2**64 - 1, 2**64 + 1]),
                          st.integers(0, 3000) | st.sampled_from([0, 63, 64, 65, 127, 128, 129])), max_size=12))
def test_decimal_spelling_is_str_of_the_int(pairs):
    """Any mantissa and shift, in any order, so the cached powers are reused
    and grown between calls."""
    spell = decimal_spelling()
    assert [spell(m, e) for m, e in pairs] == [str(m << e) for m, e in pairs]


def test_format_cell_round_trips_floats():
    for value in (0.1, 1e-300, 123456.789, 2.0**-52):
        assert float(format_cell(value)) == value


def test_format_cell_handles_none_and_ints():
    assert format_cell(None) == ""
    assert format_cell(7) == "7"


def test_format_cell_unwraps_numpy_scalars():
    assert format_cell(np.float64(0.1)) == repr(0.1)
    assert format_cell(np.int64(3)) == "3"


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [{"a": 1, "b": 0.25}, {"a": 2, "b": None}]
    write_csv(path, ["a", "b"], rows)
    back = read_csv(path)
    assert back == [{"a": "1", "b": "0.25"}, {"a": "2", "b": ""}]


def test_csv_byte_determinism(tmp_path):
    rows = [{"x": 0.1 + 0.2}, {"x": 1.0 / 3.0}]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["x"], rows)
    write_csv(p2, ["x"], rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_report_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["kind", "value"], [])
    assert path.read_text() == "kind,value\n"


def test_json_round_trip(tmp_path):
    path = tmp_path / "verdicts.json"
    data = {"ok": True, "gap": 0.043, "by_depth": {"64": 2.2}}
    write_json(path, data)
    assert json.loads(path.read_text()) == data


def test_svg_is_written_and_wellformed(tmp_path):
    path = tmp_path / "chart.svg"
    write_svg_lines(
        path,
        {"a": [(64.0, 1.0), (512.0, 2.0)], "b": [(64.0, 0.5), (512.0, 0.7)]},
        title="trends",
    )
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2


def test_svg_tolerates_empty_series(tmp_path):
    path = tmp_path / "empty.svg"
    write_svg_lines(path, {})
    assert "<svg" in path.read_text()


def test_write_csv_failing_partway_leaves_no_file(tmp_path):
    path = tmp_path / "sub" / "table.csv"

    def rows():
        yield {"a": 1}
        raise RuntimeError("row 2")

    with pytest.raises(RuntimeError):
        write_csv(path, ["a"], rows())
    assert not path.parent.exists() and tmp_path.is_dir()


def test_a_failed_output_removes_only_the_directories_it_made(tmp_path):
    (tmp_path / "kept").mkdir()
    path = tmp_path / "kept" / "new" / "sub" / "table.csv"
    with pytest.raises(RuntimeError), output(path) as fh:
        fh.write("a\n")
        raise RuntimeError("write failed")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]


def test_json_is_strict_with_null_for_non_finite_floats(tmp_path, capsys):
    path = tmp_path / "sub" / "data.json"
    data = {"b": [math.inf, (1.0, -math.inf)], "a": {"gap": math.nan, "ok": True}}
    expected = {"a": {"gap": None, "ok": True}, "b": [None, [1.0, None]]}
    write_json(path, data)
    write_json(None, data)

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    for text in (path.read_text(), capsys.readouterr().out):
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert json.loads(text, parse_constant=reject) == expected
