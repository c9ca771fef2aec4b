"""What the benchmark in bench/ reads of the program keeps working.

bench/tracer.py finds functions by name and reads the lru_cache statistics of
two of them; a renamed function or a dropped cache turns its metric into
None, and the benchmark then prints no result.  bench/workloads.py also calls
besovlab in its own process to check field-eval against the dense oracle.
Both are exercised here on tiny inputs; the bench files are only read.
"""

import ast
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

TINY = {
    "N": 2, "d": 1, "p": 1, "q": 2, "s": 1.5, "M": 2, "L": 0.25,
    "psi": {"family": "constant", "c": 1.0},
    "control_psi": {"family": "log-power", "b": 1.0},
    "J": {"norm": [4, 6], "seq": [16, 32, 64], "mixed": [16, 32]},
    "probes": {"x": 8, "y": 2},
    "lemma": {"m": [0.5, 2.0], "n_max": 2000},
    "emit_svg": True,
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(*argvs):
    """A bench tracer after cli.main has run each argv, each exiting 0."""
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        from besovlab import cli

        for argv in argvs:
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer


def _metrics(tracer, prefix=""):
    """The BENCHMARK.json per-layer metrics starting with prefix, as the
    tracer reads them, after asserting that each is a finite number."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # trace_overhead_s is computed by bench/run.py, not read from the tracer
    names = [m["name"] for m in spec["per_layer"]
             if m["name"].startswith(prefix) and m["name"] != "trace_overhead_s"]
    values = {name: tracer.metric(name) for name in names}
    broken = {
        name: value for name, value in values.items()
        if not isinstance(value, (int, float)) or not math.isfinite(value)
    }
    assert not broken
    return values


def _tiny_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    return str(config)


def test_every_per_layer_metric_is_a_number(tmp_path):
    config = _tiny_config(tmp_path)
    points = tmp_path / "points.csv"
    points.write_text("x1,x2\n32.0,1.5\n0.0,0.0\n")
    out = tmp_path / "out"
    tracer = _traced(
        ["--config", config, "--out", str(out), "pathology-run"],
        ["--config", config, "--out", str(out), "report"],
        ["--config", config, "--out", str(out / "f.csv"),
         "field-eval", "--J", "4", "--points", str(points)],
    )
    values = _metrics(tracer)
    assert values["fieldnorms.pm_seminorm.calls"] > 0
    assert values["atoms.eval_f.points"] == 2


def test_pathology_run_keeps_sequences_metrics(tmp_path):
    """A traced pathology-run alone: every sequences.* per-layer metric stays
    a number.  The exact tier finds covering levels by bisect, so the
    per-probe oracles coverage_count and sup_diagnostic read 0 calls."""
    config = _tiny_config(tmp_path)
    tracer = _traced(["--config", config, "--out", str(tmp_path / "out"), "pathology-run"])
    values = _metrics(tracer, "sequences.")
    assert values["sequences.coverage_count.calls"] == 0
    assert values["sequences.sup_diagnostic.calls"] == 0
    assert values["sequences.rearrange.self_s"] > 0


def test_exact_eval_commands_keep_sequences_metrics(tmp_path):
    """exact-eval's exact-deep stage (psi-check, seq-build --csv, seq-verify)
    traced: every sequences.* per-layer metric stays a number."""
    config = _tiny_config(tmp_path)
    blocks, table = tmp_path / "blocks.json", tmp_path / "seq.csv"
    J = 64
    tracer = _traced(
        ["--config", config, "psi-check"],
        ["--config", config, "--out", str(blocks), "seq-build", "--J", str(J), "--csv", str(table)],
        ["seq-verify", str(blocks)],
    )
    values = _metrics(tracer, "sequences.")
    # one build_S each in build_lambda_blocks and level_table: O(J), not O(J^2)
    assert values["sequences.build_S.levels"] == 2 * J
    assert tracer.metric("sequences.block_average.calls") == J + 1
    assert len(table.read_text().splitlines()) == J + 2


def test_window_prefix_walks(tmp_path, monkeypatch):
    """pathology-run walks the window prefix twice: in rearrange, and once
    for the exact tier's LevelTable, whose prefix serves both the x-probe
    and the y-probe profile.  seq-build --csv walks it once, in rearrange:
    its table's columns never read the prefix."""
    from besovlab import cli, sequences

    walks, walk = [], sequences._window_prefix

    def counted(levels):
        walks.append(None)
        return walk(levels)

    monkeypatch.setattr(sequences, "_window_prefix", counted)
    config = _tiny_config(tmp_path)
    assert cli.main(["--config", config, "--out", str(tmp_path / "out"), "pathology-run"]) == 0
    assert len(walks) == 2
    walks.clear()
    assert cli.main(["--config", config, "--out", str(tmp_path / "blocks.json"),
                     "seq-build", "--J", "64", "--csv", str(tmp_path / "seq.csv")]) == 0
    assert len(walks) == 1


def test_field_eval_oracle_calls():
    """The in-process calls of the field-eval stage's dense-oracle check."""
    from besovlab import sequences
    from besovlab.atoms import AtomicField, eval_f, eval_f_dense
    from besovlab.experiments import config_from_dict
    from besovlab.params import load_config

    J = 4
    config = config_from_dict(load_config(BENCH / "inputs" / "flagship.json"))
    blocks = sequences.rearrange(sequences.build_lambda_blocks(config.psi, config.params, J))
    field = AtomicField(config.params, blocks, J)
    c_m = 2 * (config.params.M + 2)
    pts = np.array([[c_m * j, 1.0 + k / 2**j] for j in range(2, J + 1) for k in range(2**j)])
    dense = eval_f_dense(field, pts)
    assert np.count_nonzero(dense) > 0
    np.testing.assert_allclose(eval_f(field, pts), dense, rtol=1e-12, atol=0.0)


def _referenced_names(tree) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def test_src_holds_only_the_program():
    """Every public module-level function and class in src/besovlab is
    referenced in src/ or bench/ outside its own definition, or named by a
    BENCHMARK.json per-layer metric.  Slow reference implementations that
    only the tests call live in tests/oracles.py."""
    src = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src + sorted(BENCH.rglob("*.py"))}
    used = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = {m["name"].rpartition(".")[0] for m in spec["per_layer"]}
    unused = [
        f"{path.stem}.{node.name}"
        for path in src
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and used[node.name] == _referenced_names(node)[node.name]
        and f"{path.stem}.{node.name}" not in measured
    ]
    assert unused == []
