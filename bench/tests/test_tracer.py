"""Tests of the outside-in tracer on a small stand-in package.

Run from the root of a checkout:  python3 -m pytest bench/tests
"""

import importlib
import sys
import textwrap
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import tracer as tracer_mod  # noqa: E402

FAKE = {
    "__init__.py": "",
    "atoms.py": """
        import time
        import numpy as np

        def psi0(t):
            time.sleep(0.002)
            return np.asarray(t) * 0.0

        def level_weight(field, j, xN):
            return psi0(xN)
    """,
    "fieldnorms.py": """
        import time
        from functools import lru_cache
        from .atoms import level_weight

        @lru_cache(maxsize=None)
        def level_lp_pow(j):
            return float(j)

        def pm_seminorm(n):
            time.sleep(0.005)
            for j in range(n):
                level_weight(None, j, [1.0, 2.0, 3.0])
                level_lp_pow(j % 2)
            return n
    """,
    "cli.py": """
        from . import fieldnorms

        def main(argv):
            return fieldnorms.pm_seminorm(int(argv[0]))
    """,
}


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakelab"
    pkg.mkdir()
    for name, body in FAKE.items():
        (pkg / name).write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(tracer_mod, "PACKAGE", "fakelab")
    importlib.import_module("fakelab.cli")
    yield importlib.import_module("fakelab")
    for name in [m for m in sys.modules if m == "fakelab" or m.startswith("fakelab.")]:
        del sys.modules[name]


def test_names_bound_by_value_are_traced_and_restored(fake_package):
    fieldnorms = sys.modules["fakelab.fieldnorms"]
    original = fieldnorms.level_weight
    t = tracer_mod.Tracer()
    t.install()
    assert fieldnorms.level_weight is not original  # `from .atoms import` binding
    t.command = "pm"
    start = time.perf_counter()
    sys.modules["fakelab.cli"].main(["4"])
    wall = time.perf_counter() - start
    t.uninstall()
    assert fieldnorms.level_weight is original

    assert t.metric("cli.main.calls") == 1
    assert t.metric("fieldnorms.pm_seminorm.calls") == 1
    assert t.metric("atoms.level_weight.calls") == 4
    assert t.metric("atoms.level_weight.points") == 12
    assert t.metric("atoms.psi0.calls") == 4
    assert t.metric("atoms.psi0.points") == 12
    # self times partition the outermost call's time
    assert t.self_time_total() == pytest.approx(t.metric("cli.main.total_s"), rel=1e-9)
    assert t.metric("cli.main.total_s") <= wall
    assert t.metric("atoms.psi0.self_s") >= 4 * 0.002
    assert t.metric("fieldnorms.pm_seminorm.self_s") >= 0.005
    assert t.metric("atoms.level_weight.self_s") < t.metric("atoms.psi0.self_s")


def test_cache_hit_ratio_is_read_from_the_wrapped_cache(fake_package):
    t = tracer_mod.Tracer()
    t.install()
    sys.modules["fakelab.cli"].main(["6"])
    t.uninstall()
    assert t.metric("fieldnorms.level_lp_pow.hit_ratio") == pytest.approx(4 / 6)


def test_missing_names_read_as_none(fake_package):
    t = tracer_mod.Tracer()
    t.install()
    t.uninstall()
    assert t.metric("fieldnorms.pm_level_lp_pow.hit_ratio") is None
    assert t.metric("sequences.gamma.self_s") is None
    assert t.metric("atoms.eval_f.calls") is None


def test_spans_for_layers_none_for_leaves(fake_package, tmp_path):
    t = tracer_mod.Tracer()
    t.install()
    t.command = "pm"
    sys.modules["fakelab.cli"].main(["3"])
    t.uninstall()
    names = [s[0] for s in t.spans]
    assert "cli.main" in names and "fieldnorms.pm_seminorm" in names
    assert "atoms.psi0" not in names and "atoms.level_weight" not in names
    by_name = {s[0]: (i, s) for i, s in enumerate(t.spans)}
    main_id, _ = by_name["cli.main"]
    assert by_name["fieldnorms.pm_seminorm"][1][3] == main_id
    assert all(s[4] == "pm" for s in t.spans)
    path = tmp_path / "spans.jsonl"
    t.write_spans(path)
    assert len(path.read_text().splitlines()) == len(t.spans)


def test_counted_functions_count_calls_in_c(fake_package, monkeypatch):
    monkeypatch.setattr(tracer_mod, "COUNTED", frozenset({"atoms.psi0"}))
    t = tracer_mod.Tracer()
    t.install()
    sys.modules["fakelab.cli"].main(["5"])
    t.uninstall()
    assert t.metric("atoms.psi0.calls") == 5
    assert t.metric("atoms.psi0.self_s") is None
