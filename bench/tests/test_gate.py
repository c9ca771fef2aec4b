"""Tests of the benchmark's correctness gate and sample statistics.

Run from the root of a checkout:  python3 -m pytest bench/tests
"""

import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from gate import (  # noqa: E402
    REL_TOL,
    Comparison,
    compact_rows,
    digest,
    read_rows,
    rel_change,
    summarize,
    top_percentile,
    write_rows,
)

KEY = ("kind", "tier", "J", "probe")


def row(kind="norm2d", J="6", probe="", value="1.5"):
    return {"kind": kind, "tier": "grid", "J": J, "probe": probe, "value": value}


# relative-change rule


def test_identical_text_is_zero_change():
    assert rel_change("0.1", "0.1") == 0.0
    assert rel_change("convergent-at-scale", "convergent-at-scale") == 0.0


def test_numbers_change_relative_to_the_reference():
    assert rel_change("1.01", "1.0") == pytest.approx(0.01)
    assert rel_change(2.0, 4.0) == 0.5
    # equal values in different spellings are unchanged
    assert rel_change("64", "64.0") == 0.0


def test_zero_reference_and_type_changes_are_infinite():
    assert rel_change("1e-300", "0.0") == math.inf
    assert rel_change("ok", "FAIL") == math.inf
    assert rel_change(True, False) == math.inf
    assert rel_change(1, True) == math.inf
    assert rel_change(None, 0.0) == math.inf
    assert rel_change(None, None) == 0.0
    assert rel_change(float("nan"), 1.0) == math.inf


def test_long_integers_compare_exactly():
    big = 3 ** 2000
    assert rel_change(str(big + 1), str(big)) > 0.0
    assert rel_change(str(2 * big), str(big)) == 1.0
    assert rel_change(str(big), str(big)) == 0.0


def test_digest_references_match_only_the_same_text():
    big = str(7 ** 900)
    assert rel_change(big, digest(big)) == 0.0
    assert rel_change(str(7 ** 900 + 1), digest(big)) == math.inf


def test_compact_rows_digests_only_long_integers(tmp_path):
    rows = [{"j": "3", "n_j": str(5 ** 100), "theta_j": "1.2345678901234567"}]
    compact = compact_rows(rows)
    assert compact[0]["j"] == "3"
    assert compact[0]["n_j"] == digest(str(5 ** 100))
    assert compact[0]["theta_j"] == "1.2345678901234567"
    path = tmp_path / "ref.csv.gz"
    write_rows(path, compact)
    first = path.read_bytes()
    write_rows(path, compact)
    assert path.read_bytes() == first  # reproducible compression
    assert read_rows(path) == compact


# row-matching comparator


def test_rows_match_by_key_not_position():
    ref = [row(J="6", value="1.0"), row(J="8", value="2.0")]
    out = [row(J="8", value="2.0"), row(J="6", value="1.0")]
    comp = Comparison()
    comp.rows("pathology", out, ref, KEY)
    assert comp.ok and comp.max_rel_change == 0.0


def test_missing_reference_row_fails_extra_rows_are_ignored():
    ref = [row(J="6"), row(J="8")]
    out = [row(J="6"), row(J="16"), row(kind="pm_seminorm_deep", J="48")]
    comp = Comparison()
    comp.rows("pathology", out, ref, KEY)
    assert len(comp.problems) == 1 and "missing" in comp.problems[0]


def test_numeric_keys_match_by_value():
    ref = [row(kind="diagnostic", J="64", probe="1.0078125")]
    out = [row(kind="diagnostic", J="64.0", probe="1.00781250")]
    comp = Comparison()
    comp.rows("sequence", out, ref, KEY)
    assert comp.ok


def test_change_within_tolerance_is_reported_but_passes():
    comp = Comparison()
    comp.rows("pathology", [row(value=repr(1.5 * (1 + REL_TOL / 10)))], [row(value="1.5")], KEY)
    assert comp.ok
    assert 0.0 < comp.max_rel_change <= REL_TOL


def test_change_beyond_tolerance_fails():
    comp = Comparison()
    comp.rows("pathology", [row(value="1.6")], [row(value="1.5")], KEY)
    assert not comp.ok
    assert comp.max_rel_change == pytest.approx(0.1 / 1.5)


def test_missing_column_fails():
    comp = Comparison()
    out = [{k: v for k, v in row().items() if k != "value"}]
    comp.rows("pathology", out, [row()], KEY)
    assert not comp.ok


def test_json_tree_requires_every_reference_leaf():
    ref = {"pathology": {"norm2d_saturates": True, "pm_seminorm_increasing_all_probes": False,
                         "min_diagnostic_by_depth": {"64": 2.2}}}
    comp = Comparison()
    comp.tree("v", {"pathology": {"norm2d_saturates": True,
                                  "pm_seminorm_increasing_all_probes": False,
                                  "min_diagnostic_by_depth": {"64": 2.2}, "new": 1}}, ref)
    assert comp.ok
    comp = Comparison()
    comp.tree("v", {"pathology": {"norm2d_saturates": True,
                                  "pm_seminorm_increasing_all_probes": True}}, ref)
    assert len(comp.problems) == 2  # flipped verdict and missing depth table


# median / percentile reporting


def test_top_percentile_needs_ten_samples_beyond_it():
    assert top_percentile(10) is None
    assert top_percentile(11) == 9
    assert top_percentile(20) == 50
    assert top_percentile(100) == 90
    assert top_percentile(1000) == 99
    for n in (11, 20, 37, 100, 1000):
        p = top_percentile(n)
        assert n * (100 - p) / 100 >= 10


def test_summarize_reports_median_and_count():
    s = summarize([3.0, 1.0, 2.0])
    assert s == {"n": 3, "median": 2.0}
    values = [float(i) for i in range(1, 101)]
    s = summarize(values)
    assert s["n"] == 100
    assert s["median"] == statistics.median(values)
    assert s["p90"] == pytest.approx(90.1)
    assert sum(v > s["p90"] for v in values) >= 10


def test_summarize_rejects_no_samples():
    with pytest.raises(ValueError):
        summarize([])
