import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from besovlab import cli, sequences
from besovlab.atoms import AtomicField, eval_f, level_weight, level_weights
from besovlab.cli import FIELD_EVAL_CHUNK, main
from besovlab.atoms import psi0
from besovlab.experiments import MAX_LEMMA_N, config_from_dict
from besovlab.params import load_config
from oracles import blocks_to_json, field_eval_text, lemma_le_partials, write_level_csv


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "N": 2, "d": 1, "p": 1, "q": 2, "s": 1.5, "M": 2, "L": 0.25,
        "psi": {"family": "constant", "c": 1.0},
        "J": {"norm": [4, 6], "seq": [16, 32, 64], "mixed": [16, 32]},
        "probes": {"x": 8, "y": 2},
        "lemma": {"m": [0.5, 2.0], "n_max": 2000},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_psi_check(config_path, capsys):
    assert main(["--config", config_path, "psi-check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"] == "violated"
    assert out["kappa"] == 2.0


def test_missing_config_exits_2(capsys):
    assert main(["psi-check"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N": 2, "d": 1, "p": 3, "q": 2, "s": 1.5, "M": 2,
                               "psi": {"family": "constant"}}))
    assert main(["--config", str(bad), "pathology-run"]) == 2


def test_seq_build_and_verify(config_path, tmp_path, capsys):
    out = tmp_path / "blocks.json"
    assert main(["--config", config_path, "--out", str(out), "seq-build", "--J", "10"]) == 0
    assert main(["seq-verify", str(out)]) == 0
    assert "ok" in capsys.readouterr().out


def test_seq_build_csv_matches_per_level_oracles(config_path, tmp_path):
    J = 64
    table = tmp_path / "seq.csv"
    assert main(["--config", config_path, "--out", str(tmp_path / "blocks.json"),
                 "seq-build", "--J", str(J), "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [
        "j", "S_j", "Gamma_j1", "n_j", "theta_j", "start_j", "block_average", "mixed_norm_partial",
    ]
    assert [int(row["j"]) for row in rows] == list(range(J + 1))

    config = config_from_dict(load_config(config_path))
    psi, params = config.psi, config.params
    blocks = sequences.rearrange(sequences.build_lambda_blocks(psi, params, J))
    for j, row in enumerate(rows):
        lvl = blocks.levels[j]
        S_j = float(sequences.build_S(psi, params.kappa, j)[-1]) if j else 0.0
        gamma = sequences.gamma(psi, params.kappa, j, 1.0) if j else 0.0
        assert (float(row["S_j"]), float(row["Gamma_j1"])) == (S_j, gamma)
        assert (int(row["n_j"]), float(row["theta_j"]), int(row["start_j"])) == (
            lvl.n, lvl.theta, lvl.start)
        assert float(row["block_average"]) == sequences.block_average(blocks, j)
        assert float(row["mixed_norm_partial"]) == sequences.mixed_norm(
            blocks, params.p, params.q, j)


def test_seq_verify_flags_tampering(config_path, tmp_path, capsys):
    out = tmp_path / "blocks.json"
    main(["--config", config_path, "--out", str(out), "seq-build", "--J", "8"])
    data = json.loads(out.read_text())
    data["levels"][5]["start_m"] += 1  # start_5 = 0 becomes 1
    out.write_text(json.dumps(data))
    assert main(["seq-verify", str(out)]) == 1
    assert "violation: start_5 = 1 * 2^0 inconsistent with cursor rule (0 * 2^0)" in capsys.readouterr().err
    data["levels"][5]["start_m"] -= 1
    out.write_bytes(_tampered(json.dumps(data), "theta", -0.5, 5))  # read, then flagged
    assert main(["seq-verify", str(out)]) == 1
    assert "violation: theta_5 negative" in capsys.readouterr().err
    data.update(rearranged=False, cursor=[0, 1])  # an unrearranged sequence has cursor 0
    out.write_text(json.dumps(data))
    assert main(["seq-verify", str(out)]) == 0
    capsys.readouterr()
    out.write_bytes(_tampered(json.dumps(data), "cursor", [1, 3]))
    assert main(["seq-verify", str(out)]) == 1
    assert "violation: cursor 1/3 of an unrearranged sequence must be 0" in capsys.readouterr().err


def _levels_doc(J: int, js) -> bytes:
    """A blocks.json at depth J whose levels carry the indices js."""
    levels = [{"j": j, "theta": 0.0, "n_m": 0, "n_e": 0, "start_m": 0, "start_e": 0} for j in js]
    return json.dumps({"J": J, "rearranged": True, "cursor": [0, 1], "levels": levels}).encode()


def _tampered(text: str, key: str, value, level: int | None = None) -> bytes:
    """The blocks.json text with key, top-level or of one level, set to value;
    the string "1e400" is written as that number."""
    data = json.loads(text)
    (data if level is None else data["levels"][level])[key] = value
    return json.dumps(data).replace('"1e400"', "1e400").encode()


def _level_edited(text: str, index: int, edit) -> bytes:
    """The blocks.json text with the level at position index replaced by edit(level)."""
    data = json.loads(text)
    data["levels"][index] = edit(data["levels"][index])
    return json.dumps(data).encode()


def test_seq_verify_unreadable_blocks_exit_2(config_path, tmp_path, capsys):
    """Truncated, malformed, non-JSON and non-UTF-8 files exit 2 with the
    same message, whichever point the streamed reader reaches.  So do files
    whose levels do not carry j = 0..J once each, files with a value of the
    wrong type, a level that is no object or lacks a key, a cursor outside
    [0, 1), or a cursor or theta that is no number; the message names the
    level, the j, or the key.  So do files with a negative shift and files
    in the decimal layout, whose levels hold n and start in full."""
    out = tmp_path / "blocks.json"
    assert main(["--config", config_path, "--out", str(out), "seq-build", "--J", "12"]) == 0
    text = out.read_text()
    bad = tmp_path / "bad.json"
    decimal = json.dumps({**json.loads(text), "levels": [
        {"j": lvl.j, "theta": lvl.theta, "n": lvl.n, "start": lvl.start}
        for lvl in config_from_dict(load_config(config_path)).blocks(12).levels]}).encode()
    for content in (text[: len(text) // 2].encode(), text[:-3].encode(), b"", b"\x89PNG\r\n\xff\xfe",
                    text.replace('"start_m"', '"begin_m"', 1).encode(), (text + "]").encode()):
        bad.write_bytes(content)
        assert main(["seq-verify", str(bad)]) == 2, content[-20:]
        assert f"cannot read blocks from {bad}" in capsys.readouterr().err
    for content, named in ((_levels_doc(2, [0, 0, 2]), ("duplicate j: [0]", "missing j: [1]")),
                           (_levels_doc(3, [0, 1, 2, 7]), ("missing j: [3]", "out-of-range j: [7]")),
                           (_levels_doc(2, [-1, 1, 2]), ("missing j: [0]", "out-of-range j: [-1]"))):
        bad.write_bytes(content)
        assert main(["seq-verify", str(bad)]) == 2, content
        err = capsys.readouterr().err
        assert f"cannot read blocks from {bad}" in err
        assert all(part in err for part in named), err
    for content, named in ((_tampered(text, "cursor", [1, 0]), "cursor denominator must be positive"),
                           (_tampered(text, "theta", math.nan, 5), "theta_5 must be finite, got NaN"),
                           (_tampered(text, "theta", math.inf, 5), "theta_5 must be finite, got Infinity"),
                           (_tampered(text, "theta", "1e400", 5), "theta_5 must be finite, got Infinity"),
                           (_tampered(text, "theta", "0.5", 5), 'theta_5 must be a number, got "0.5"'),
                           (_tampered(text, "J", 6.7), "J must be an integer, got 6.7"),
                           (_tampered(text, "n_m", 2.5, 5), "n_m of level j=5 must be an integer, got 2.5"),
                           (_tampered(text, "n_e", "3", 5), 'n_e of level j=5 must be an integer, got "3"'),
                           (_tampered(text, "start_m", True, 5), "start_m of level j=5 must be an integer, got true"),
                           (_tampered(text, "n_e", -1, 5), "n_e of level j=5 must be >= 0, got -1"),
                           (_tampered(text, "start_e", -2, 5), "start_e of level j=5 must be >= 0, got -2"),
                           (_tampered(text, "n_m", -3, 5), "n_5 out of range [0, 2^5]: negative"),
                           (decimal, 'level j=0 has no "n_m"'),
                           (_tampered(text, "rearranged", "no"), 'rearranged must be true or false, got "no"'),
                           (_tampered(text, "cursor", [5, 3]), "cursor must lie in [0, 1), got [5, 3]"),
                           (_tampered(text, "cursor", [-1, 3]), "cursor must lie in [0, 1), got [-1, 3]"),
                           (_tampered(_tampered(text, "rearranged", False).decode(), "cursor", [5, 3]),
                            "cursor must lie in [0, 1), got [5, 3]"),
                           (_level_edited(text, 3, lambda level: 1), "level 3 must be an object, got 1"),
                           (_level_edited(text, 5, lambda level: {k: v for k, v in level.items() if k != "start_e"}),
                            'level j=5 has no "start_e"'),
                           (_level_edited(text, 5, lambda level: {k: v for k, v in level.items() if k != "n_e"}),
                            'level j=5 has no "n_e"'),
                           (_level_edited(text, 4, lambda level: {k: v for k, v in level.items() if k != "j"}),
                            'level 4 has no "j"')):
        bad.write_bytes(content)
        assert main(["seq-verify", str(bad)]) == 2, named
        err = capsys.readouterr().err
        assert f"cannot read blocks from {bad}" in err and named in err, err


def test_seq_verify_names_a_huge_shift_by_its_bit_length(config_path, tmp_path, capsys):
    """A shift of 10^12 exits 2 at once with a one-line message: the range
    check and its message never build the 2^(10^12)-bit integer."""
    out = tmp_path / "blocks.json"
    assert main(["--config", config_path, "--out", str(out), "seq-build", "--J", "8"]) == 0
    text, bad = out.read_text(), tmp_path / "bad.json"
    for key, named in (("n", "n_5 out of range [0, 2^5]: 1000000000002 bits"),
                       ("start", "start_5 out of range [0, 2^5): 1000000000002 bits")):
        bad.write_bytes(_tampered(_tampered(text, f"{key}_m", 3, 5).decode(), f"{key}_e", 10**12, 5))
        start = time.perf_counter()
        assert main(["seq-verify", str(bad)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err and "MemoryError" not in err, err


def test_field_eval(config_path, tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n24.0,1.5\n0.0,0.0\n")
    result = tmp_path / "vals.csv"
    assert main(["--config", config_path, "--out", str(result),
                 "field-eval", "--J", "6", "--points", str(pts)]) == 0
    lines = result.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,f"
    assert len(lines) == 3
    assert float(lines[2].split(",")[2]) == 0.0


def test_norm_est_partial_map_needs_y(config_path):
    assert main(["--config", config_path, "norm-est", "--target", "partial-map"]) == 2


def test_norm_est_field_is_the_classical_norm2d(config_path, tmp_path, capsys):
    """norm-est --target field is the Psi = 1 norm that pathology.csv records
    as norm2d, whatever the config's psi: bitwise equal at the same depth."""
    path = _with(config_path, tmp_path, psi={"family": "log-power", "b": 0.25})
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "pathology-run"]) == 0
    rows = csv.DictReader((out / "pathology.csv").read_text().splitlines())
    norm2d = {int(r["J"]): float(r["value"]) for r in rows if r["kind"] == "norm2d"}
    capsys.readouterr()
    assert main(["--config", path, "norm-est", "--target", "field", "--J", "6"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == norm2d[6] == pytest.approx(5.480431860518486, rel=1e-12)


def test_lemma_le_emits_files(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["--config", config_path, "--out", str(out), "lemma-le"]) == 0
    assert (out / "lemma_le.csv").exists()
    assert (out / "lemma_le_verdicts.json").exists()


def test_pathology_run_and_report_agree(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["--config", config_path, "--out", str(out), "pathology-run"]) == 0
    first = (out / "verdicts.json").read_bytes()
    assert main(["--config", config_path, "--out", str(out), "report"]) == 0
    # report recomputes the row-derived verdicts from the CSVs and adds the
    # config-derived keys (classifications, note, caveat)
    assert (out / "verdicts.json").read_bytes() == first
    assert "caveat" in json.loads(first)["pathology"]


RECORDED = Path(__file__).resolve().parent / "recorded"


@pytest.mark.parametrize("name", ["flagship", "decaying_psi", "p_below_one", "q_inf"])
def test_pathology_run_and_report_reproduce_the_recorded_verdicts(name, tmp_path):
    """pathology-run, then report, write the recorded verdicts.json byte for
    byte: on the flagship and on three corners of the abstract, a decaying
    Psi (log-power b = 0.25, J.seq to 2^15), p < 1 (p = 0.5, q = 1) and
    q = inf.  The recordings keep the threshold verdicts that misfire on the
    corners: mixed_norm_cauchy false at gaps of 5.73% and 8.81%, and
    control_bound_plateau false on q = inf, whose control is satisfied."""
    config = Path(__file__).resolve().parent.parent / "configs" / "flagship.json"
    if name != "flagship":
        config = RECORDED / f"{name}.json"
    out = tmp_path / "out"
    for command in ("pathology-run", "report"):
        assert main(["--config", str(config), "--out", str(out), command]) == 0
        assert (out / "verdicts.json").read_bytes() == (RECORDED / f"{name}_verdicts.json").read_bytes(), command


def test_pathology_run_is_deterministic_across_processes(tmp_path):
    """Two separate processes write byte-identical CSVs and verdicts."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    outs = []
    for label in ("one", "two"):
        out = tmp_path / label
        subprocess.run(
            [sys.executable, "-m", "besovlab.cli", "--config", str(root / "configs" / "flagship.json"),
             "--out", str(out), "pathology-run"],
            env=env, check=True, capture_output=True, timeout=600,
        )
        outs.append(out)
    for name in ("lemma_le.csv", "sequence.csv", "pathology.csv", "verdicts.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _fresh_python(code: str, **env_changes) -> str:
    """stdout of `python -c code` in a new process with src on PYTHONPATH;
    an env_changes value of None removes that variable."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                          text=True, timeout=600)
    return done.stdout


def test_cli_runs_one_blas_thread():
    """The CLI sets OPENBLAS_NUM_THREADS=1 before numpy loads, so the process
    has no idle BLAS worker: one thread, the interpreter's own."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs /proc/self/task")
    out = _fresh_python("import os, besovlab.cli; "
                        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))",
                        OPENBLAS_NUM_THREADS=None)
    assert out.split() == ["1", "1"]


def test_cli_keeps_a_user_set_blas_thread_count():
    out = _fresh_python("import os, besovlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                        OPENBLAS_NUM_THREADS="2")
    assert out.split() == ["2"]


def test_library_modules_leave_the_environment_alone():
    """Only the CLI entry sets the BLAS thread count; importing the library does not."""
    modules = ("atoms", "experiments", "fieldnorms", "norms", "params", "reporting", "sequences",
               "slowly_varying")
    out = _fresh_python(f"import importlib, os; [importlib.import_module('besovlab.' + m) for m in {modules}]; "
                        "print(os.environ.get('OPENBLAS_NUM_THREADS'))", OPENBLAS_NUM_THREADS=None)
    assert out.split() == ["None"]


def test_pathology_run_does_not_load_numpy_ma(config_path, tmp_path):
    """The flagship path uses no masked arrays, so it pays no numpy.ma import
    (numpy's np.unique would load it)."""
    out = _fresh_python(f"import sys; from besovlab import cli; "
                        f"code = cli.main(['--config', {config_path!r}, '--out', {str(tmp_path / 'out')!r}, "
                        f"'pathology-run']); print(code, 'numpy.ma' in sys.modules)")
    assert out.split()[-2:] == ["0", "False"]


def _with(cfg_path, tmp_path, **changes):
    cfg = json.loads(Path(cfg_path).read_text())
    for key, value in changes.items():
        cfg[key] = value
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(cfg))
    return str(path)


DEEP = str(sequences.MAX_SEQ_DEPTH + 1)


@pytest.mark.parametrize(
    "changes, argv",
    [
        ({"probes": {"x": 128, "y": 2}}, ["pathology-run"]),
        ({"probes": {"x": 8, "y": 0}}, ["pathology-run"]),
        ({"J": {"norm": [4, 6], "seq": [16, 32, 64], "mixed": [32]}}, ["pathology-run"]),
        ({"J": {"norm": [4, 16], "seq": [16, 32, 64], "mixed": [16, 32]}}, ["pathology-run"]),
        ({"psi": {"family": "tabulated", "table": [[j, 1.0] for j in range(33)]}}, ["pathology-run"]),
        ({"psi": {"family": "tabulated", "table": [[j, 1.0] for j in range(65)]}}, ["psi-check"]),
        ({"psi": {"family": "tabulated", "table": [[j, 1.0] for j in range(65)]}},
         ["seq-build", "--J", "100"]),
        ({}, ["seq-build", "--J", "0"]),
        ({}, ["norm-est", "--target", "field", "--J", "16"]),
        ({}, ["norm-est", "--target", "partial-map", "--J", "16", "--y", "1.5"]),
        ({"N": 3, "d": 2}, ["norm-est", "--target", "field", "--J", "4"]),
        ({}, ["field-eval", "--J", "4", "--points", "x1,x2\n1.5,np.float64(66.0)\n"]),
        ({}, ["field-eval", "--J", "4", "--points", "x1,x2\n1.5,1.5\n24.0\n"]),
        ({}, ["field-eval", "--J", "4", "--points", "x1,x2\n1.5,1.5\n   \n24.0,1.5\n"]),
        ({"grid": {"res_scale": -1}}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"grid": {"res_scale": 0}}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"probes": {"x": "abc", "y": 2}}, ["psi-check"]),
        ({"diag_threshold": "abc"}, ["psi-check"]),
        ({"lemma": {"m": [0.5], "n_max": 0}}, ["lemma-le"]),
        ({}, ["seq-build", "--J", DEEP]),
        ({}, ["field-eval", "--J", DEEP, "--points", "x1,x2\n24.0,1.5\n"]),
        ({"J": {"norm": [4, 6], "seq": [16, 32, int(DEEP)], "mixed": [16, 32]}}, ["pathology-run"]),
        ({"J": {"norm": [4, 6], "seq": [16, 32, 64], "mixed": [16, int(DEEP)]}}, ["lemma-le"]),
        ({"q": 1}, ["seq-build", "--J", "4"]),
        ({"q": 1}, ["field-eval", "--J", "4", "--points", "x1,x2\n24.0,1.5\n"]),
        ({"q": 1}, ["pathology-run"]),
        ({"q": 1}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"q": 1}, ["norm-est", "--target", "partial-map", "--J", "4", "--y", "1.5"]),
        ({"lemma": {"m": [0.5], "n_max": MAX_LEMMA_N + 1}}, ["lemma-le"]),
        ({}, ["norm-est", "--target", "partial-map", "--J", "4", "--y", "nan"]),
        ({}, ["norm-est", "--target", "partial-map", "--J", "4", "--y", "inf"]),
        ({}, ["field-eval", "--J", "4", "--points", "x1,x2\nnan,1.5\n"]),
        ({}, ["field-eval", "--J", "4", "--points", "x1,x2\n24.0,inf\n"]),
        ({"s": 0.5}, ["field-eval", "--J", "2100", "--points", "x1,x2\n16800.0,1.5\n"]),
        ({"M": 1}, ["pathology-run"]),
        ({"M": 1}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"M": 1}, ["norm-est", "--target", "partial-map", "--J", "4", "--y", "1.5"]),
        ({"L": 0.9}, ["psi-check"]),
        ({"L": 0.9}, ["seq-build", "--J", "4"]),
        ({"L": 0.9}, ["field-eval", "--J", "4", "--points", "x1,x2\n24.0,1.5\n"]),
        ({"L": 0.9}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"L": 0.9}, ["lemma-le"]),
        ({"L": 0.9}, ["report"]),
        ({"N": 3}, ["psi-check"]),
        ({"N": 3}, ["seq-build", "--J", "4"]),
        ({"N": 3}, ["field-eval", "--J", "4", "--points", "x1,x2\n24.0,1.5\n"]),
        ({"N": 3}, ["lemma-le"]),
        ({"N": 3}, ["pathology-run"]),
        ({"d": 2}, ["norm-est", "--target", "partial-map", "--J", "4", "--y", "1.5"]),
        ({"q": 0.5}, ["psi-check"]),
        ({"M": 2.5}, ["pathology-run"]),
        ({"N": 2.5}, ["psi-check"]),
        ({"J": {"norm": [4, 6.5], "seq": [16, 32, 64], "mixed": [16, 32]}}, ["pathology-run"]),
        ({"probes": {"x": 8.5, "y": 2}}, ["pathology-run"]),
        ({"lemma": {"m": [0.5], "n_max": 2000.5}}, ["lemma-le"]),
        ({"psi": {"family": "tabulated", "table": [[j + 0.5, 1.0] for j in range(65)]}}, ["psi-check"]),
        ({"psi": {"family": "constant", "c": 1e300}}, ["psi-check"]),
        ({"psi": {"family": "constant", "c": 1e-300}}, ["seq-build", "--J", "4"]),
        ({"control_psi": {"family": "log-power", "b": 1000}}, ["psi-check"]),
        ({"q": 1e308}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"grid": {"res_scale": 1e-300}}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"grid": {"res_scale": 16}}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"lemma": {"m": [0.5, math.nan], "n_max": 2000}}, ["lemma-le"]),
        ({"lemma": {"m": [math.inf], "n_max": 2000}}, ["lemma-le"]),
        ({"lemma": {"m": [-math.inf], "n_max": 2000}}, ["pathology-run"]),
        ({"grid": {"res_scale": 2.0}}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"emit_svg": False}, ["pathology-run"]),
        ({"emit_svg": "false"}, ["psi-check"]),
        ({"diag_threshold": math.nan}, ["pathology-run"]),
        ({"diag_threshold": 3.0}, ["psi-check"]),
        ({"grid": 5}, ["psi-check"]),
        ({"probes": 5}, ["psi-check"]),
        ({"lemma": 5}, ["lemma-le"]),
        ({"J": 5}, ["psi-check"]),
        ({"J": [4, 6]}, ["norm-est", "--target", "field", "--J", "4"]),
        ({"psi": 5}, ["psi-check"]),
        ({"psi": {"family": "other"}}, ["psi-check"]),
        ({"lemma": {"m": 0.5, "n_max": 2000}}, ["lemma-le"]),
        ({"J": {"norm": 6, "seq": [16, 32, 64], "mixed": [16, 32]}}, ["pathology-run"]),
        ({"control_psi": 0}, ["psi-check"]),
        ({"control_psi": {}}, ["pathology-run"]),
        ({"p": "1"}, ["psi-check"]),
        ({"q": True}, ["psi-check"]),
        ({"s": "1.5"}, ["field-eval", "--J", "4", "--points", "x1,x2\n24.0,1.5\n"]),
        ({"M": "2"}, ["psi-check"]),
        ({"M": True}, ["pathology-run"]),
        ({"L": "0.25"}, ["seq-build", "--J", "4"]),
        ({"probes": {"x": True, "y": 2}}, ["psi-check"]),
        ({"probes": {"x": 8, "y": "16"}}, ["pathology-run"]),
        ({"J": {"norm": ["4", 6], "seq": [16, 32, 64], "mixed": [16, 32]}}, ["pathology-run"]),
        ({"J": {"norm": [4, 6], "seq": [16, True, 64], "mixed": [16, 32]}}, ["pathology-run"]),
        ({"J": {"norm": [4, 6], "seq": [16, 32, 64], "mixed": [16, "32"]}}, ["pathology-run"]),
        ({"lemma": {"m": ["0.5"], "n_max": 2000}}, ["lemma-le"]),
        ({"lemma": {"m": [0.5], "n_max": "2000"}}, ["lemma-le"]),
        ({"psi": {"family": "constant", "c": "1.0"}}, ["psi-check"]),
        ({"psi": {"family": "log-power", "b": False}}, ["psi-check"]),
        ({"psi": {"family": "iterated-log-power", "b": 0.5, "b2": "1"}}, ["psi-check"]),
        ({"psi": {"family": "tabulated", "table": [[j, "1.0"] for j in range(513)]}}, ["psi-check"]),
        ({"psi": {"family": "tabulated", "table": [[str(j), 1.0] for j in range(513)]}}, ["psi-check"]),
        ({"control_psi": {"family": "log-power", "b": "0.75"}}, ["pathology-run"]),
    ],
    ids=[
        "x-probes-128", "y-probes-0", "one-mixed-depth", "norm-depth-above-grid-cap",
        "psi-table-short-of-run", "psi-table-short-of-psi-check", "psi-table-short-of-J",
        "seq-build-J-0", "norm-est-field-above-grid-cap", "norm-est-partial-map-above-grid-cap",
        "norm-est-field-not-planar", "field-eval-cell-not-a-float", "field-eval-one-cell-row",
        "field-eval-whitespace-only-line",
        "res-scale-negative", "res-scale-zero", "x-probes-not-an-int", "diag-threshold-not-a-float",
        "lemma-n-max-0", "seq-build-above-block-cap", "field-eval-above-block-cap",
        "J-seq-above-block-cap", "J-mixed-above-block-cap",
        "p-equals-q-seq-build", "p-equals-q-field-eval", "p-equals-q-pathology-run",
        "p-equals-q-norm-est-field", "p-equals-q-norm-est-partial-map",
        "lemma-n-max-above-cap", "partial-map-y-nan", "partial-map-y-inf",
        "field-eval-point-nan", "field-eval-point-inf", "field-eval-coefficient-overflows",
        "M-below-s-pathology-run", "M-below-s-norm-est-field", "M-below-s-norm-est-partial-map",
        "L-above-bound-psi-check", "L-above-bound-seq-build",
        "L-above-bound-field-eval", "L-above-bound-norm-est", "L-above-bound-lemma-le",
        "L-above-bound-report", "N-3-psi-check", "N-3-seq-build", "N-3-field-eval", "N-3-lemma-le",
        "N-3-pathology-run", "d-2-norm-est-partial-map", "q-below-p-psi-check", "M-not-integral",
        "N-not-integral", "J-norm-not-integral", "x-probes-not-integral", "lemma-n-max-not-integral",
        "psi-table-j-not-integral", "psi-c-power-overflows", "psi-c-power-underflows",
        "control-psi-underflows", "estimate-term-q-overflows", "res-scale-too-fine",
        "res-scale-too-coarse", "lemma-m-nan", "lemma-m-inf", "lemma-m-minus-inf-pathology-run",
        "res-scale-not-1", "emit-svg-false", "emit-svg-string-false", "diag-threshold-nan",
        "diag-threshold-not-2.5", "grid-not-an-object", "probes-not-an-object", "lemma-not-an-object",
        "J-not-an-object", "J-bare-list", "psi-not-an-object", "psi-unknown-family", "lemma-m-not-a-list",
        "J-norm-not-a-list", "control-psi-zero", "control-psi-empty",
        "p-string", "q-true", "s-string", "M-string", "M-true", "L-string", "x-probes-true",
        "y-probes-string", "J-norm-string", "J-seq-true", "J-mixed-string", "lemma-m-string",
        "lemma-n-max-string", "psi-c-string", "psi-b-false", "psi-b2-string", "psi-table-value-string",
        "psi-table-j-string", "control-psi-b-string",
    ],
)
def test_rejected_input_exits_2(config_path, tmp_path, capsys, request, changes, argv):
    """A rejected input exits 2 with a message and writes nothing to --out."""
    path = _with(config_path, tmp_path, **changes)
    argv = list(argv)
    if "--points" in argv:  # the argument after --points is the file's text
        points = tmp_path / "points.csv"
        points.write_text(argv[argv.index("--points") + 1])
        argv[argv.index("--points") + 1] = str(points)
    assert main(["--config", path, "--out", str(tmp_path / "out"), *argv]) == 2
    assert f"configuration error: {MESSAGE_START.get(request.node.callspec.id, '')}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# rows of test_rejected_input_exits_2 whose message must begin with the key at fault
MESSAGE_START = {
    **{f"N-3-{command}": "N is fixed at 2, got 3\n"
       for command in ("psi-check", "seq-build", "field-eval", "lemma-le", "pathology-run")},
    "norm-est-field-not-planar": "N is fixed at 2, got 3\n", "d-2-norm-est-partial-map": "d is fixed at 1, got 2\n",
    "grid-not-an-object": "grid must be an object", "probes-not-an-object": "probes must be an object",
    "lemma-not-an-object": "lemma must be an object", "J-not-an-object": "J must be an object",
    "J-bare-list": "J must be an object", "psi-not-an-object": "psi must be an object",
    "psi-unknown-family": "psi: ", "lemma-m-not-a-list": "lemma.m must be a list",
    "J-norm-not-a-list": "J.norm must be a list", "control-psi-zero": "control_psi must be an object",
    "control-psi-empty": "control_psi: ",
    "x-probes-not-an-int": 'probes.x must be an integer, got "abc"',
    "p-string": 'p must be a number, got "1"', "q-true": "q must be a number, got true",
    "s-string": 's must be a number, got "1.5"', "M-string": 'M must be an integer, got "2"',
    "M-true": "M must be an integer, got true", "L-string": 'L must be a number, got "0.25"',
    "x-probes-true": "probes.x must be an integer, got true",
    "y-probes-string": 'probes.y must be an integer, got "16"',
    "J-norm-string": 'J.norm must be an integer, got "4"', "J-seq-true": "J.seq must be an integer, got true",
    "J-mixed-string": 'J.mixed must be an integer, got "32"', "lemma-m-string": 'lemma.m must be a number, got "0.5"',
    "lemma-n-max-string": 'lemma.n_max must be an integer, got "2000"',
    "psi-c-string": 'psi: c must be a number, got "1.0"', "psi-b-false": "psi: b must be a number, got false",
    "psi-b2-string": 'psi: b2 must be a number, got "1"',
    "psi-table-value-string": 'psi: table value must be a number, got "1.0"',
    "psi-table-j-string": 'psi: table j must be an integer, got "0"',
    "control-psi-b-string": 'control_psi: b must be a number, got "0.75"',
}


def _strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict parsers do."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_p_equals_q_config_keeps_commands_without_blocks(config_path, tmp_path, capsys):
    """kappa = inf is a valid config: psi-check and lemma-le need no blocks."""
    path = _with(config_path, tmp_path, q=1)
    assert main(["--config", path, "psi-check"]) == 0
    assert _strict_json(capsys.readouterr().out)["kappa"] is None
    assert main(["--config", path, "--out", str(tmp_path / "out"), "lemma-le"]) == 0


def test_psi_check_prints_a_deviation_that_overflows_as_null(config_path, tmp_path, capsys):
    """Psi(2^-21) / Psi(2^-20) = 1e300 / 1e-300 overflows: strict JSON has no
    Infinity, so the slow-variation deviation prints as null."""
    table = [[j, {20: 1e-300, 21: 1e300}.get(j, 1.0)] for j in range(513)]
    path = _with(config_path, tmp_path, p=0.3, q=0.6, s=5.0, M=6, psi={"family": "tabulated", "table": table})
    assert main(["--config", path, "psi-check"]) == 0
    result = _strict_json(capsys.readouterr().out)
    assert result["slow_variation_deviation_r0.5_j40"] is None and result["kappa"] == pytest.approx(0.6)


def test_integral_floats_read_as_integers(config_path, tmp_path):
    """2.0 is the integer 2 wherever a config field counts."""
    changes = {"N": 2.0, "d": 1.0, "M": 2.0, "probes": {"x": 8.0, "y": 2.0},
               "J": {"norm": [4.0, 6.0], "seq": [16.0, 32.0, 64.0], "mixed": [16.0, 32.0]},
               "lemma": {"m": [0.5], "n_max": 2000.0}}
    config = config_from_dict(load_config(_with(config_path, tmp_path, **changes)))
    counts = (config.params.M, config.x_probes, config.y_probes,
              config.lemma_n_max, *config.J_norm, *config.J_seq, *config.J_mixed)
    assert counts == (2, 8, 2, 2000, 4, 6, 16, 32, 64, 16, 32)
    assert all(type(n) is int for n in counts)


def test_table_of_ones_reproduces_the_constant_run(config_path, tmp_path):
    """A tabulated psi of ones writes seq.csv and sequence.csv byte for byte
    as constant(1.0) does."""
    ones = _with(config_path, tmp_path, psi={"family": "tabulated", "table": [[j, 1.0] for j in range(65)]})
    outputs = []
    for label, path in (("constant", config_path), ("ones", ones)):
        out = tmp_path / label
        assert main(["--config", path, "--out", str(out / "blocks.json"),
                     "seq-build", "--J", "64", "--csv", str(out / "seq.csv")]) == 0
        assert main(["--config", path, "--out", str(out), "pathology-run"]) == 0
        outputs.append([(out / name).read_bytes() for name in ("seq.csv", "sequence.csv")])
    assert outputs[0] == outputs[1]


def test_lemma_n_max_cap_admits_the_flagship():
    flagship = load_config(Path(__file__).resolve().parent.parent / "configs" / "flagship.json")
    assert 10**6 <= config_from_dict(flagship).lemma_n_max <= MAX_LEMMA_N


def test_field_eval_at_a_deep_level(config_path, tmp_path):
    """Level 2100's coefficient c_j = theta_j 2^-1050 is formed in log space
    (2^1050 alone overflows a double).  16800 = C_M j, so u = 0."""
    J = 2100
    blocks = config_from_dict(load_config(config_path)).blocks(J)
    lvl = blocks.levels[J]
    # a y whose cell is on at level J, and the flagship probe y = 1.5
    y_on = float(1 + Fraction(lvl.start + lvl.n // 2, 2**J))
    pts = tmp_path / "pts.csv"
    pts.write_text(f"x1,x2\n16800.0,1.5\n16800.0,{y_on!r}\n")
    result = tmp_path / "vals.csv"
    assert main(["--config", config_path, "--out", str(result),
                 "field-eval", "--J", str(J), "--points", str(pts)]) == 0
    values = [float(line.split(",")[2]) for line in result.read_text().splitlines()[1:]]
    expected = []
    for y in (1.5, y_on):
        k = (Fraction(y) * 2**J).numerator  # 2^J y is an integer at this depth
        on = [(k + d - 2**J - lvl.start) % 2**J < lvl.n for d in (-1, 0, 1)]
        weight = sum(0.5 * psi0(d / 2) for d, is_on in zip((1, 0, -1), on) if is_on)
        expected.append(math.ldexp(lvl.theta, -1050) * 0.5 * psi0(0.0) * weight)
    assert expected[1] > 0.0
    assert values == pytest.approx(expected, rel=1e-6, abs=0.0)


def test_unreadable_input_files_exit_2(config_path, tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    too_deep = tmp_path / "deep.json"  # json raises RecursionError, not ValueError
    too_deep.write_text('{"J": ' + "[" * 100_000 + "]" * 100_000 + "}")
    missing = str(tmp_path / "missing")
    for argv in (
        ["--config", missing, "psi-check"],
        ["--config", str(bad_json), "psi-check"],
        ["--config", str(too_deep), "psi-check"],
        ["--config", config_path, "field-eval", "--J", "4", "--points", missing],
        ["seq-verify", missing],
        ["seq-verify", str(bad_json)],
        ["seq-verify", str(too_deep)],
        ["seq-verify", config_path],
    ):
        assert main(argv) == 2, argv
        assert "configuration error" in capsys.readouterr().err


def test_field_eval_far_points_raise_no_warning(config_path, tmp_path):
    """Coordinates far from every level are 0.0, with nothing on stderr even
    when warnings are errors."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n24.0,1e300\n1e300,1.5\n-1e300,-1e300\n24.0,1.5\n")
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "besovlab.cli", "--config", config_path,
         "field-eval", "--J", "10", "--points", str(pts)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    values = [float(line.split(",")[2]) for line in done.stdout.splitlines()[1:]]
    assert values[:3] == [0.0, 0.0, 0.0] and values[3] > 0.0


def test_field_eval_points_without_header(config_path, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("24.0,1.5\n0.0,0.0,7\n")
    result = tmp_path / "vals.csv"
    assert main(["--config", config_path, "--out", str(result),
                 "field-eval", "--J", "6", "--points", str(pts)]) == 0
    lines = result.read_text().splitlines()
    assert lines[0] == "x1,x2,f"
    assert [line.split(",")[:2] for line in lines[1:]] == [["24.0", "1.5"], ["0.0", "0.0"]]


def test_removed_global_flags_are_rejected(config_path):
    for flag in ("--threads", "--seed"):
        with pytest.raises(SystemExit):
            main(["--config", config_path, flag, "1", "psi-check"])


def test_removed_indicator_target_is_rejected(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", config_path, "norm-est", "--target", "indicator", "--J", "4"])
    assert exc.value.code == 2
    assert "invalid choice: 'indicator'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--out", "DIR", "seq-build", "--J", "4"],
        ["seq-build", "--J", "4", "--csv", "DIR"],
        ["--out", "DIR", "field-eval", "--J", "4", "--points", "POINTS"],
        ["--out", "DIR", "norm-est", "--target", "field", "--J", "2"],
        ["--out", "FILE", "lemma-le"],
        ["--out", "FILE", "pathology-run"],
        ["--out", "FILE", "report"],
    ],
    ids=["seq-build-out-dir", "seq-build-csv-dir", "field-eval-out-dir", "norm-est-out-dir",
         "lemma-le-out-file", "pathology-run-out-file", "report-out-file"],
)
def test_unwritable_output_exits_2(config_path, tmp_path, capsys, argv):
    """An output path naming a directory where a file goes, or a file where a
    directory goes, exits 2 with a message and leaves the path as it was."""
    paths = {"DIR": tmp_path / "taken", "FILE": tmp_path / "taken.txt", "POINTS": tmp_path / "pts.csv"}
    paths["DIR"].mkdir()
    paths["FILE"].write_text("taken\n")
    paths["POINTS"].write_text("x1,x2\n24.0,1.5\n")
    assert main(["--config", config_path, *(str(paths.get(a, a)) for a in argv)]) == 2
    assert "error: cannot write output: " in capsys.readouterr().err
    assert not any(paths["DIR"].iterdir()) and paths["FILE"].read_text() == "taken\n"


@pytest.fixture
def int_str_digits():
    """set(limit): Python's int-to-str digit limit for the test, restored after."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_seq_build_under_the_least_int_str_digit_limit(config_path, tmp_path, capsys, int_str_digits):
    """blocks.json holds each n_j and start_j as a (mantissa, shift) pair, so
    no step reads a decimal back: at Python's least int-to-str limit, 640
    digits, J = 2127 (2^2127 > 10^640) builds with its CSV and reads back,
    and seq.csv spells its 641-digit start_j without int-to-str."""
    J, config = 2127, config_from_dict(load_config(config_path))
    write_level_csv(tmp_path / "oracle.csv", config.blocks(J), config.psi, config.params)
    int_str_digits(640)
    out, table = tmp_path / "blocks.json", tmp_path / "seq.csv"
    assert main(["--config", config_path, "--out", str(out), "seq-build", "--J", str(J), "--csv", str(table)]) == 0
    assert main(["seq-verify", str(out)]) == 0
    assert capsys.readouterr().out == f"ok: J={J}, rearranged=True\n"
    assert table.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_seq_build_runs_to_max_seq_depth(config_path, tmp_path, capsys):
    """seq-build stops at MAX_SEQ_DEPTH and nowhere below it: J =
    MAX_SEQ_DEPTH builds, seq-verify reads it back whole, and one level
    deeper exits 2 before any block is built."""
    J, out = sequences.MAX_SEQ_DEPTH, tmp_path / "blocks.json"
    assert main(["--config", config_path, "--out", str(out), "seq-build", "--J", str(J)]) == 0
    assert main(["seq-verify", str(out)]) == 0
    assert capsys.readouterr().out == f"ok: J={J}, rearranged=True\n"
    with open(out) as stream:
        again = sequences.read_blocks(stream)
    assert again.levels == config_from_dict(load_config(config_path)).blocks(J).levels
    assert main(["--config", config_path, "--out", str(tmp_path / "deeper.json"),
                 "seq-build", "--J", str(J + 1)]) == 2
    assert f"depth {J + 1} is above the block cap {J}" in capsys.readouterr().err
    assert not (tmp_path / "deeper.json").exists()


FLAGSHIP = str(Path(__file__).resolve().parent.parent / "configs" / "flagship.json")


@pytest.mark.parametrize("J", [1, 2, 8, 64])
@pytest.mark.parametrize("flagship", [False, True], ids=["small", "flagship"])
def test_seq_build_streams_the_encoder_bytes(config_path, tmp_path, capsys, J, flagship):
    """blocks.json, on stdout and through --out, is byte for byte the json
    encoder's document, and seq.csv is reporting.write_csv's."""
    path = FLAGSHIP if flagship else config_path
    config = config_from_dict(load_config(path))
    blocks = config.blocks(J)
    write_level_csv(tmp_path / "oracle.csv", blocks, config.psi, config.params)
    argv = ["seq-build", "--J", str(J)]
    assert main(["--config", path, *argv]) == 0
    assert main(["--config", path, "--out", str(tmp_path / "blocks.json"),
                 *argv, "--csv", str(tmp_path / "seq.csv")]) == 0
    text = blocks_to_json(blocks) + "\n"
    assert capsys.readouterr().out == text
    assert (tmp_path / "blocks.json").read_bytes() == text.encode()
    assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_seq_build_with_an_unwritable_csv_leaves_no_blocks_file(config_path, tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    assert main(["--config", config_path, "--out", str(tmp_path / "blocks.json"),
                 "seq-build", "--J", "4", "--csv", str(tmp_path / "taken")]) == 2
    assert "error: cannot write output: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


def _chunked_points(J, n=2 * FIELD_EVAL_CHUNK + 123):
    """n points over three chunks, nine in ten on the level supports of a
    depth-J field of the test config."""
    rng = np.random.default_rng(18)
    j = rng.integers(2, J + 1, n)
    x1 = 8.0 * j + rng.uniform(-2.0, 2.0, n) * 2.0 ** -j  # C_M = 8 at M = 2
    x1[::10] = rng.uniform(-5.0, 8.0 * J + 5.0, x1[::10].size)
    return np.column_stack([x1, rng.uniform(0.9, 2.1, n)])


@pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
def test_field_eval_chunks_write_the_single_call_bytes(config_path, tmp_path, header):
    """Across three chunks field-eval writes byte for byte what one eval_f
    call on every point gives."""
    J = 6
    pts = _chunked_points(J)
    points = tmp_path / "pts.csv"
    points.write_text(("x1,x2\n" if header else "") + "".join(f"{a!r},{b!r}\n" for a, b in pts.tolist()))
    result = tmp_path / "f.csv"
    assert main(["--config", config_path, "--out", str(result),
                 "field-eval", "--J", str(J), "--points", str(points)]) == 0
    config = config_from_dict(load_config(config_path))
    expected = field_eval_text(AtomicField(config.params, config.blocks(J), J), pts)
    assert result.read_bytes() == expected.encode()
    assert sum(float(line.rsplit(",", 1)[1]) > 0 for line in expected.splitlines()[1:]) > len(pts) // 4


# a bad cell, and a coefficient that overflows at the level only the last chunk reaches
failing_last_chunks = pytest.mark.parametrize(
    "changes, J, last",
    [({}, 6, "1.5,abc"), ({"s": 0.5}, 2100, "16800.0,1.5")],
    ids=["bad-cell", "coefficient-overflows"],
)


@failing_last_chunks
def test_field_eval_failing_in_the_last_chunk_writes_nothing(config_path, tmp_path, capsys, changes, J, last):
    """A bad cell or a coefficient that overflows in the last chunk exits 2
    after the earlier chunks are written, and removes the partial output."""
    result = tmp_path / "f.csv"
    assert _field_eval_failing_in_the_third_chunk(config_path, tmp_path, changes, J, last, result) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not result.exists()


def test_field_eval_coefficient_overflowing_in_the_last_chunk_prints_the_earlier_chunks(config_path, tmp_path,
                                                                                        capsys):
    """A c_j that overflows only at the level the last chunk reaches fails no
    earlier chunk: without --out their rows are already on stdout."""
    assert _field_eval_failing_in_the_third_chunk(config_path, tmp_path, {"s": 0.5}, 2100, "16800.0,1.5", None) == 2
    captured = capsys.readouterr()
    assert captured.err == ("configuration error: a computed value is out of double range "
                            "(Numerical result out of range)\n")
    assert len(captured.out.splitlines()) == 1 + 2 * FIELD_EVAL_CHUNK


def test_field_eval_deep_field_with_overflowing_coefficients_on_shallow_points(config_path, tmp_path):
    """At J = 2100 and s = 0.5, c_j overflows a double on the deep levels, but
    points on levels <= 10 or on none read no deep level: field-eval exits 0
    with the bytes of the same blocks cut at depth 10, and level_weights
    reads every level."""
    path = _with(config_path, tmp_path, s=0.5)
    pts = _chunked_points(10)
    points = tmp_path / "pts.csv"
    points.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in pts.tolist()))
    result = tmp_path / "f.csv"
    assert main(["--config", path, "--out", str(result), "field-eval", "--J", "2100", "--points", str(points)]) == 0
    config = config_from_dict(load_config(path))
    expected = field_eval_text(AtomicField(config.params, config.blocks(2100), 10), pts)
    assert result.read_bytes() == expected.encode()
    assert sum(float(line.rsplit(",", 1)[1]) > 0 for line in expected.splitlines()[1:]) > len(pts) // 10
    field = AtomicField(config.params, config.blocks(2100), 2100)  # the weights read no c_j
    weights = level_weights(field, 1.5)
    assert max(weights) == 2100 and weights == {j: float(level_weight(field, j, np.array([1.5]))[0]) for j in weights}


def _field_eval_failing_in_the_third_chunk(config_path, tmp_path, changes, J, last, out) -> int:
    """field-eval's exit code on a header, 2 chunks and 5 rows of points where
    the field is 0, then the line `last` (line 2 FIELD_EVAL_CHUNK + 7)."""
    path = _with(config_path, tmp_path, **changes)
    far = "".join(f"{-3.0 - i},1.5\n" for i in range(2 * FIELD_EVAL_CHUNK + 5))
    points = tmp_path / "pts.csv"
    points.write_text("x1,x2\n" + far + last + "\n")
    return main(["--config", path, *(["--out", str(out)] if out else []),
                 "field-eval", "--J", str(J), "--points", str(points)])


@failing_last_chunks
def test_a_failed_field_eval_leaves_no_directory(config_path, tmp_path, capsys, changes, J, last):
    """The directories output() made for --out go with the removed file."""
    out = tmp_path / "new" / "sub" / "f.csv"
    assert _field_eval_failing_in_the_third_chunk(config_path, tmp_path, changes, J, last, out) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_field_eval_names_the_file_line_of_a_bad_cell(config_path, tmp_path, capsys):
    """The message names the bad cell's line in the file, not its row in the
    chunk; on stdout the rows of the two earlier chunks are already printed."""
    assert _field_eval_failing_in_the_third_chunk(config_path, tmp_path, {}, 6, "1.5,abc", None) == 2
    captured = capsys.readouterr()
    line = 2 * FIELD_EVAL_CHUNK + 7
    assert captured.err == (f"configuration error: points file {tmp_path / 'pts.csv'}, line {line}: "
                            "could not convert string 'abc' to float64, column 2.\n")
    assert len(captured.out.splitlines()) == 1 + 2 * FIELD_EVAL_CHUNK


@pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
@pytest.mark.parametrize("bad", ["nan,1.5", "16.0,inf", "-inf,-inf"])
def test_field_eval_names_the_file_line_of_a_non_finite_point(config_path, tmp_path, capsys, monkeypatch,
                                                               header, bad):
    """A cell that parses to NaN or an infinity, in the second chunk, is
    reported with its line in the file, blank and # lines counted."""
    monkeypatch.setattr(cli, "FIELD_EVAL_CHUNK", 3)
    lines = ["12.0,1.5", "", "# c", "13.0,1.5", "14.0,1.5", "", "15.0,1.5", "# between", bad, "17.0,1.5"]
    points = tmp_path / "pts.csv"
    points.write_text("\n".join(["x1,x2"] * header + lines) + "\n")
    assert main(["--config", config_path, "field-eval", "--J", "4", "--points", str(points)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: points file {points}, line {9 + header}: a point is not finite\n"
    assert len(captured.out.splitlines()) == 1 + 3


def _field_eval_on_a_pipe(config_path, data: bytes) -> tuple[int, str]:
    """field-eval's exit code on points read from a pipe that holds data, and
    the points path it was given."""
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    path = f"/dev/fd/{read}"
    try:
        return main(["--config", config_path, "field-eval", "--J", "4", "--points", path]), path
    finally:
        os.close(read)


def test_field_eval_names_the_line_of_a_non_finite_point_in_a_pipe(config_path, capsys):
    """A points file that cannot seek names a non-finite point's line too."""
    code, path = _field_eval_on_a_pipe(config_path, b"x1,x2\n12.0,1.5\nnan,1.5\n")
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: points file {path}, line 3: a point is not finite\n"


_bad_lines = {"1.5,abc": "could not convert string 'abc' to float64, column 2.", "nan,1.5": "a point is not finite",
              "16.0,inf": "a point is not finite", "-inf,-inf": "a point is not finite"}
_other_lines = st.lists(st.sampled_from(["12.0,1.5", "", "# c", "#", " 13.0 ,\t1.5 # n, 2", "14.0,1.5,7"]),
                        max_size=9)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.booleans(), before=_other_lines, bad=st.sampled_from(sorted(_bad_lines)), after=_other_lines,
       crlf=st.booleans())
def test_field_eval_names_the_line_of_a_bad_line_in_a_file_and_in_a_pipe(config_path, tmp_path, capsys, monkeypatch,
                                                                          header, before, bad, after, crlf):
    """A bad cell or a non-finite point anywhere among blank lines, # lines
    and data lines, after an optional header, with LF or CRLF endings and
    chunks of 3 points, is reported with its 1-based line in the file, read
    from the file and from a pipe."""
    monkeypatch.setattr(cli, "FIELD_EVAL_CHUNK", 3)
    lines = ["x1,x2"] * header + before + [bad] + after
    data = ("\r\n" if crlf else "\n").join(lines).encode() + b"\n"
    points = tmp_path / "pts.csv"
    points.write_bytes(data)
    code = main(["--config", config_path, "field-eval", "--J", "4", "--points", str(points)])
    runs = [(code, str(points), capsys.readouterr().err)]
    runs.append((*_field_eval_on_a_pipe(config_path, data), capsys.readouterr().err))
    for code, path, err in runs:
        assert code == 2
        assert err == f"configuration error: points file {path}, line {header + len(before) + 1}: {_bad_lines[bad]}\n"


@pytest.mark.parametrize("data, chunk", [
    (b"\xff,1.5\n12.0,1.5\n", FIELD_EVAL_CHUNK),
    (b"12.0,1.5\n" * 2000 + b"\xff,1.5\n", 3),
], ids=["first-line", "later-chunk"])
def test_field_eval_rejects_undecodable_points(config_path, tmp_path, capsys, monkeypatch, data, chunk):
    """Bytes that are not UTF-8, on the first line (no header) or past the
    first decoded block, where loadtxt reads a later chunk, exit 2 with the
    codec's message."""
    monkeypatch.setattr(cli, "FIELD_EVAL_CHUNK", chunk)
    points = tmp_path / "pts.csv"
    points.write_bytes(data)
    assert main(["--config", config_path, "field-eval", "--J", "4", "--points", str(points)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: points file {points}: "
                                   "'utf-8' codec can't decode byte 0xff ")
    assert captured.err.count("\n") == 1
    assert (len(captured.out.splitlines()) > 1) is (chunk == 3)  # a later chunk: the earlier ones are written


def test_field_eval_streams_odd_lines_across_chunks(config_path, tmp_path, monkeypatch):
    """Blank lines, comment lines, CRLF endings and a third column, each on a
    chunk boundary, give the oracle's bytes on the parsed points; no eval_f
    call gets more than FIELD_EVAL_CHUNK points."""
    chunk, J = 5, 6
    monkeypatch.setattr(cli, "FIELD_EVAL_CHUNK", chunk)
    sizes = []

    def counted_eval_f(field, pts):
        sizes.append(len(pts))
        return eval_f(field, pts)

    monkeypatch.setattr(cli, "eval_f", counted_eval_f)
    pts = _chunked_points(J, n=4 * chunk + 3)
    lines = ["x1,x2", "", "# a comment"]
    for i, (a, b) in enumerate(pts.tolist()):
        lines.append(f"{a!r},{b!r}" + (",7" if i % chunk in (0, chunk - 1) else ""))
        if i % chunk == chunk - 1:
            lines += ["", "# between chunks"]
    points = tmp_path / "pts.csv"
    points.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    result = tmp_path / "f.csv"
    assert main(["--config", config_path, "--out", str(result),
                 "field-eval", "--J", str(J), "--points", str(points)]) == 0
    config = config_from_dict(load_config(config_path))
    expected = field_eval_text(AtomicField(config.params, config.blocks(J), J), pts)
    assert result.read_bytes() == expected.encode()
    assert sizes == [chunk] * 4 + [3]


def test_field_eval_echoes_repr_cells_around_odd_lines(config_path, tmp_path, monkeypatch):
    """repr-spelled points with spaces and tabs around their cells, # comments
    after them, a third column, CRLF endings and blank and comment lines, on
    and around every chunk boundary, and a last line without a newline: the
    oracle's bytes, each point's cells written back as repr spells them,
    two rows per write."""
    chunk, J = 5, 6
    monkeypatch.setattr(cli, "FIELD_EVAL_CHUNK", chunk)
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 2)
    pts = _chunked_points(J, n=4 * chunk + 2)
    lines = ["x1, x2 ,f"]
    for i, (a, b) in enumerate(pts.tolist()):
        lines.append([f"{a!r},{b!r}", f" {a!r}\t,  {b!r} ", f"{a!r},{b!r} # note, 3", f"{a!r},{b!r},-1e9"][i % 4])
        if i % chunk in (0, chunk - 1):
            lines += ["", "#"]
    points = tmp_path / "pts.csv"
    points.write_bytes("\r\n".join(lines).encode())
    result = tmp_path / "f.csv"
    assert main(["--config", config_path, "--out", str(result),
                 "field-eval", "--J", str(J), "--points", str(points)]) == 0
    config = config_from_dict(load_config(config_path))
    assert result.read_bytes() == field_eval_text(AtomicField(config.params, config.blocks(J), J), pts).encode()


def test_field_eval_writes_other_spellings_as_the_file_spells_them(config_path, tmp_path, monkeypatch):
    """A cell not in repr spelling is written back stripped but as spelled,
    and float() of it is bitwise the coordinate the field was evaluated at."""
    monkeypatch.setattr(cli, "FIELD_EVAL_CHUNK", 3)
    evaluated = []

    def recorded_eval_f(field, pts):
        evaluated.append(pts.copy())
        return eval_f(field, pts)

    monkeypatch.setattr(cli, "eval_f", recorded_eval_f)
    cells = [("24", "1.5"), ("2.4e1", " 2.50 "), ("+.5", "-0"), ("5.", "1e0"), ("24.0000", "+1.75E+0"),
             ("-0.0", "0"), ("16", "1.25")]
    points = tmp_path / "pts.csv"
    points.write_text("x1,x2\n" + "".join(f"{a},{b}\n" for a, b in cells))
    result = tmp_path / "f.csv"
    assert main(["--config", config_path, "--out", str(result),
                 "field-eval", "--J", "6", "--points", str(points)]) == 0
    rows = [line.split(",") for line in result.read_text().splitlines()[1:]]
    assert [(x1, x2) for x1, x2, _ in rows] == [(a.strip(), b.strip()) for a, b in cells]
    pts = np.concatenate(evaluated)
    assert pts.tobytes() == np.array([[float(a), float(b)] for a, b in cells]).tobytes()
    config = config_from_dict(load_config(config_path))
    values = eval_f(AtomicField(config.params, config.blocks(6), 6), pts)
    assert [f for _, _, f in rows] == [repr(v) for v in values.tolist()]
    assert values[0] > 0.0


@pytest.mark.parametrize("text, plain", [
    ("1,2\n", True), ("0.5,-1.25e-3\n+.5,5.\n", True), ("1,2", False), ("1,2\n\n", False),
    ("1,2\n# c\n", False), ("1,2 \n", False), (" 1,2\n", False), ("1,2,3\n", False), ("1\n2,,\n", False),
    ("1,2\r\n", False), (" 1,2\n", False), ("", True),
])
def test_plain_chunks(text, plain):
    """A plain chunk: number characters, one comma and a newline on each line."""
    assert cli._is_plain(text) is plain


_number_text = st.text("0123456789+-.eE", max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.builds("{},{}\n".format, _number_text, _number_text),
    st.text("0123456789+-.eE,# \t x", max_size=8).map(lambda line: line + "\n"),
), max_size=8))
def test_a_plain_chunk_has_the_per_line_cells(lines):
    """Wherever the plain-chunk test passes, splitting the chunk at its line
    ends gives the cells the per-line normaliser gives."""
    text = "".join(lines)
    if cli._is_plain(text):
        assert cli._echo(text) == [cells for cells in map(cli._line_cells, text.split("\n")) if cells is not None]


@pytest.mark.parametrize("text, out, err", [
    ("x1,x2\n24.0,1.5\n", ["24.0,1.5"], ""),
    ("24.0,1.5\n1,2\n", ["24.0,1.5", "1,2"], ""),
    ("x1,x2\n24.0,1.5\ninf,1.5\n", [], "line 3: a point is not finite"),
], ids=["before-header", "before-data", "non-finite-on-line-3"])
def test_field_eval_reads_past_a_utf8_bom(config_path, tmp_path, capsys, text, out, err):
    """A spreadsheet's "CSV UTF-8" export begins with a byte order mark: it is
    not part of the first cell, and lines are counted as without it."""
    points = tmp_path / "pts.csv"
    points.write_bytes(b"\xef\xbb\xbf" + text.encode())
    code = main(["--config", config_path, "field-eval", "--J", "6", "--points", str(points)])
    captured = capsys.readouterr()
    assert code == (2 if err else 0)
    assert [line.rsplit(",", 1)[0] for line in captured.out.splitlines()[1:]] == out
    assert captured.err == (f"configuration error: points file {points}, {err}\n" if err else "")


def test_field_eval_onto_its_points_file_exits_2(config_path, tmp_path, capsys):
    """--out naming the points file, by any path, exits 2 and leaves it as it was."""
    points = tmp_path / "pts.csv"
    points.write_text("x1,x2\n24.0,1.5\n")
    (tmp_path / "sub").mkdir()
    for out in (points, tmp_path / "sub" / ".." / "pts.csv"):
        assert main(["--config", config_path, "--out", str(out),
                     "field-eval", "--J", "6", "--points", str(points)]) == 2
        assert "is the points file" in capsys.readouterr().err
        assert points.read_text() == "x1,x2\n24.0,1.5\n"


@pytest.mark.parametrize(
    "name, text",
    [
        ("sequence", "kind,tier,J,probe,value\nmixed_norm,exact,16,,abc\nmixed_norm,exact,32,,1.0\n"),
        ("sequence", "kind,tier,J,probe,value\ndiagnostic,exact,16,1.0078125,1.0\n"),
        ("sequence", "kind,tier,J,probe,value\nmixed_norm,exact\n"),
        ("lemma_le", "a,b,c\n1,2,3\n"),
        ("lemma_le", "m,n,partial_sum\n1.0,1,0.0\n1.0,2,0.0\n"),
        ("pathology", "kind,tier,J,probe,value\npm_seminorm,grid,4,1.5,1.0\npm_seminorm,grid,6,1.5,2.0\n"
                      "pm_coverage,exact,4,1.25,1.0\npm_coverage,exact,6,1.25,2.0\n"),
    ],
    ids=["value-not-a-number", "no-mixed-norm-rows", "short-row", "lemma-other-columns",
         "lemma-partial-sums-zero", "pathology-coverage-of-other-probes"],
)
def test_report_on_an_unreadable_csv_exits_2(config_path, tmp_path, capsys, name, text):
    """report reads CSVs from outside the program: one it cannot turn into
    verdicts exits 2 with a message and leaves verdicts.json as it was."""
    out = tmp_path / "out"
    out.mkdir()
    (out / f"{name}.csv").write_text(text)
    (out / "verdicts.json").write_text("before\n")
    assert main(["--config", config_path, "--out", str(out), "report"]) == 2
    assert f"configuration error: cannot read {out / f'{name}.csv'}: " in capsys.readouterr().err
    assert (out / "verdicts.json").read_text() == "before\n"


@pytest.mark.parametrize("existing", [False, True], ids=["fresh-dir", "empty-dir"])
def test_report_with_no_csv_exits_2(config_path, tmp_path, capsys, existing):
    """report on an --out with none of its CSVs (a mistyped directory, say)
    exits 2 and creates nothing."""
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    assert main(["--config", config_path, "--out", str(out), "report"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: no lemma_le.csv, sequence.csv or pathology.csv in {out}\n")
    assert out.is_dir() == existing and not (existing and any(out.iterdir()))


def test_lemma_le_past_the_double_range_warns_nothing(config_path, tmp_path):
    """At m = 400, U**m overflows and at m = -400 it underflows: the partial
    sums are the oracle's, bit for bit, with nothing on stderr even when
    warnings are errors."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    path = _with(config_path, tmp_path, lemma={"m": [-400.0, 400.0], "n_max": 1000})
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "besovlab.cli", "--config", path,
         "--out", str(tmp_path / "out"), "lemma-le"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    rows = list(csv.DictReader((tmp_path / "out" / "lemma_le.csv").read_text().splitlines()))
    with np.errstate(over="ignore", divide="ignore"):
        for m in (-400.0, 400.0):
            partials = lemma_le_partials(np.ones(1000), m, 1000)
            got = [(int(r["n"]), float(r["partial_sum"])) for r in rows if float(r["m"]) == m]
            assert got and got == [(n, float(partials[n - 1])) for n, _ in got]


def test_a_zero_first_depth_writes_strict_json(tmp_path):
    """At a first J.norm and J.mixed depth with no active level, the relative
    increase and gap are infinite: every JSON file, before and after report,
    parses under a strict parser and holds them as null."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "flagship.json")
    cfg["J"] = {"norm": [1, 3], "seq": [1, 8], "mixed": [1, 2]}
    cfg["lemma"]["n_max"] = 100
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    for command in ("pathology-run", "report"):
        assert main(["--config", str(path), "--out", str(out), command]) == 0
        files = {p.name: _strict_json(p.read_text()) for p in out.glob("*.json")}
        assert len(files) == 4, sorted(files)
        verdicts = files["verdicts.json"]
        assert verdicts["pathology"]["norm2d_relative_increase"] is None
        assert verdicts["sequence"]["mixed_norm_relative_gap"] is None
