"""Command-line entry point.

Subcommands: psi-check, seq-build, seq-verify, field-eval, norm-est,
lemma-le, pathology-run, report.  Exit code 0 on a completed run, 2 on a
rejected configuration, an unreadable input file or an unwritable output
path.  Every JSON output is strict, with null for a non-finite value.  CSV
columns are stable across versions: lemma_le.csv has (m, n, partial_sum);
sequence.csv and pathology.csv have (kind, tier, J, probe, value).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import re
import sys
import warnings
from pathlib import Path

# Set before numpy loads OpenBLAS: a second BLAS thread speeds up none of our
# small matmuls, yet spins a core at import and after each one.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import experiments, fieldnorms, sequences
from .atoms import AtomicField, eval_f
from .experiments import ConfigError, ExperimentConfig, config_from_dict
from .params import load_config
from .reporting import output, read_csv, write_json
from .slowly_varying import classify_condition, slow_variation_deviation, summability_partial


def _load_experiment_config(path: str | None) -> ExperimentConfig:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        cfg = load_config(path)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return config_from_dict(cfg)


PSI_CHECK_DEPTHS = (8, 64, 512)


def cmd_psi_check(args) -> int:
    config = _load_experiment_config(args.config)
    config.check_depth(max(PSI_CHECK_DEPTHS))
    kappa = config.params.kappa
    result = {  # kappa = inf (p = q) prints as null
        "classification": classify_condition(config.psi, config.params.p, config.params.q),
        "kappa": kappa,
        "slow_variation_deviation_r0.5_j40": slow_variation_deviation(config.psi, 40),
    }
    if math.isfinite(kappa):
        result["summability_partials"] = {
            str(J): summability_partial(config.psi, kappa, J) for J in PSI_CHECK_DEPTHS
        }
    write_json(None, result)
    return 0


def cmd_seq_build(args) -> int:
    config = _load_experiment_config(args.config)
    blocks = config.blocks(args.J)
    csv_out = output(args.csv) if args.csv else contextlib.nullcontext()
    with output(args.out) as out, csv_out as stream:
        table = None if stream is None else sequences.level_table(blocks, config.psi, config.params)
        rows = None if table is None else (stream, zip(table.S, table.gamma, table.average, table.partial))
        sequences.write_blocks(blocks, out, rows)
    return 0


def cmd_seq_verify(args) -> int:
    try:
        with open(args.infile) as stream:
            blocks = sequences.read_blocks(stream)
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read blocks from {args.infile}: {exc!r}") from exc
    problems = sequences.verify_blocks(blocks)
    for problem in problems:
        print(f"violation: {problem}", file=sys.stderr)
    print(f"{'FAIL' if problems else 'ok'}: J={blocks.J}, rearranged={blocks.rearranged}")
    return 1 if problems else 0


# points per chunk of field-eval: each chunk is read, checked, evaluated and
# written before the next is read, so memory does not grow with the file
FIELD_EVAL_CHUNK = 1 << 12
# rows per write of field-eval: strings of about 30 kB, where one string of
# a whole chunk's 230 kB raised the process's peak memory
_ROWS_PER_WRITE = 1 << 9

# the bytes of a number, which _is_plain deletes from a chunk: each plain line
# leaves its comma and its newline
_NUMBER_BYTES = b"0123456789+-.eE"


def _load_points(rows, max_rows: int) -> np.ndarray:
    """The first two cells of the next max_rows data rows; loadtxt reads no line past the last."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a blank line, or no points left
        return np.loadtxt(rows, delimiter=",", usecols=(0, 1), ndmin=2, max_rows=max_rows)


def _is_plain(text: str) -> bool:
    """Whether every line of text is number characters, one comma, number
    characters and a newline: lines that _line_cells would return unchanged,
    with no comment or blank line to skip."""
    if not text.isascii():
        return False
    rest = text.encode().translate(None, _NUMBER_BYTES)
    return rest == b",\n" * rest.count(b"\n")


def _line_cells(line: str) -> str | None:
    """"x1,x2": the first two cells of a data line without its newline,
    stripped, as loadtxt reads them; None for a line loadtxt skips, empty
    once its # comment is cut."""
    body = line.split("#", 1)[0]
    if not body:
        return None
    x1, x2 = body.split(",", 2)[:2]
    return f"{x1.strip()},{x2.strip()}"


def _echo(text: str) -> list[str]:
    """The "x1,x2" cells of each data line of text, as _line_cells spells them."""
    if _is_plain(text):  # a plain chunk is checked and split at C speed
        return text.splitlines()
    return [cells for cells in map(_line_cells, text.split("\n")) if cells is not None]


def _point_chunks(fh, path: str):
    """(points, cells) of an open points CSV, chunk by chunk: an (n, 2)
    array of its first two columns, n <= FIELD_EVAL_CHUNK, and the n "x1,x2"
    cells as the file spells them (_line_cells).  Every cell must be a finite
    number; a bad cell or point is reported with its line in the file."""
    read = []  # the lines loadtxt has read for this chunk
    lines = map(lambda line: read.append(line) or line, fh)
    rows, before = None, 0  # before: the number of lines of earlier chunks
    while True:
        try:
            if rows is None:  # the first line is a header when its first two cells read x1, x2
                first = next(lines, "")
                if [c.strip() for c in first.split(",")[:2]] == ["x1", "x2"]:
                    rows, before = lines, len(read)
                    read.clear()
                else:
                    rows = itertools.chain([first], lines)
            pts = _load_points(rows, FIELD_EVAL_CHUNK)
        except (OSError, UnicodeError) as exc:  # text is decoded in blocks, ahead of the lines
            raise ConfigError(f"points file {path}: {exc}") from exc
        except ValueError as exc:  # loadtxt stops at the bad line, and counts its rows within the chunk
            message = re.sub(r" at row [0-9]+", "", str(exc))
            raise ConfigError(f"points file {path}, line {before + len(read)}: {message}") from exc
        if not len(pts):
            return
        if not np.isfinite(pts).all():
            data_lines = [n for n, line in enumerate(read, before + 1) if _line_cells(line.rstrip("\n")) is not None]
            at = data_lines[np.argmin(np.isfinite(pts).all(axis=1))]
            raise ConfigError(f"points file {path}, line {at}: a point is not finite")
        cells = _echo("".join(read))
        if len(cells) != len(pts):
            raise RuntimeError(f"points file {path}: the lines read hold {len(cells)} rows, not {len(pts)}")
        before += len(read)
        read.clear()
        yield pts, cells


def cmd_field_eval(args) -> int:
    config = _load_experiment_config(args.config)
    try:
        points = open(args.points, encoding="utf-8-sig")  # a spreadsheet's "CSV UTF-8" begins with a BOM
    except OSError as exc:
        raise ConfigError(f"points file {args.points}: {exc}") from exc
    with points:
        # output() empties --out before the points are read, so it must not be the points file
        if args.out and os.path.exists(args.out) and os.path.samefile(args.points, args.out):
            raise ConfigError(f"--out {args.out} is the points file, which field-eval reads as it writes")
        field = AtomicField(config.params, config.blocks(args.J), args.J)
        with output(args.out) as out:
            out.write("x1,x2,f\n")
            for chunk, cells in _point_chunks(points, args.points):
                # eval_f is pointwise, so each value is bitwise that of one call on every point
                row_cells = [None] * (2 * len(cells))
                row_cells[::2], row_cells[1::2] = cells, eval_f(field, chunk).tolist()
                for i in range(0, len(row_cells), 2 * _ROWS_PER_WRITE):
                    piece = tuple(row_cells[i:i + 2 * _ROWS_PER_WRITE])
                    out.write("%s,%r\n" * (len(piece) // 2) % piece)
    return 0


def cmd_norm_est(args) -> int:
    import time

    config = _load_experiment_config(args.config)
    start = time.perf_counter()
    config.check_grid_depth(args.J)
    if args.target == "partial-map" and (args.y is None or not math.isfinite(args.y)):
        raise ConfigError(f"target partial-map needs a finite --y, got {args.y}")
    field = AtomicField(config.params, config.blocks(args.J), args.J)
    if args.target == "field":
        est = fieldnorms.field_besov_norm(field, args.J)
    else:  # partial-map; argparse admits no other target
        est = fieldnorms.pm_seminorm(field, args.y, config.psi, args.J)
    wall_ms = (time.perf_counter() - start) * 1e3
    result = {
        "value": est.value,
        "resolution": est.resolution,
        "t_levels": est.t_levels,
        "h_samples": est.h_samples,
        "wall_time_ms": wall_ms,
    }
    write_json(args.out, result)
    return 0


def cmd_lemma_le(args) -> int:
    config = _load_experiment_config(args.config)
    report = experiments.run_lemma_le(config)
    files = experiments.emit_report(report, Path(args.out or "out"))
    for path in files:
        print(path)
    return 0


def cmd_pathology_run(args) -> int:
    config = _load_experiment_config(args.config)
    exact = experiments.exact_tier(config)  # first: it rejects a config with p = q
    # every report is built before a file is written: a rejected config writes nothing
    reports = [
        experiments.run_lemma_le(config),
        experiments.run_sequence_experiment(config, exact),
        experiments.run_pathology(config, exact),
    ]
    out = Path(args.out or "out")
    files = []
    for report in reports:
        files += experiments.emit_report(report, out)
    write_json(out / "verdicts.json", {report.name: report.verdicts for report in reports})
    files.append(out / "verdicts.json")
    for path in files:
        print(path)
    return 0


def cmd_report(args) -> int:
    config = _load_experiment_config(args.config)
    out = Path(args.out or "out")
    verdicts = {}
    for name in ("lemma_le", "sequence", "pathology"):
        csv_path = out / f"{name}.csv"
        if csv_path.exists():  # every CSV is read before verdicts.json is written
            try:
                verdicts[name] = experiments.verdicts_from_csv_rows(name, read_csv(csv_path), config)
            except (ArithmeticError, LookupError, OSError, TypeError, ValueError, csv.Error) as exc:
                raise ConfigError(f"cannot read {csv_path}: {exc!r}") from exc
    if not verdicts and not out.is_file():  # a file at --out fails below, as an unwritable output
        raise ConfigError(f"no lemma_le.csv, sequence.csv or pathology.csv in {out}")
    write_json(out / "verdicts.json", verdicts)
    print(out / "verdicts.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besovlab",
        description="Numerical laboratory for restriction pathologies of Besov functions",
    )
    parser.add_argument("--config", help="path to JSON experiment configuration")
    parser.add_argument("--out", help="output directory (default: ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("psi-check", help="classify the summability condition for psi")

    p = sub.add_parser("seq-build", help="build and emit the rearranged block sequence")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--csv", help="also write the per-level CSV table here")

    p = sub.add_parser("seq-verify", help="re-read a block sequence and re-check invariants")
    p.add_argument("infile")

    p = sub.add_parser("field-eval", help="evaluate the counterexample field on points")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--points", required=True, help="CSV with columns x1,x2")

    p = sub.add_parser("norm-est", help="grid norm estimate of the field or a partial map")
    p.add_argument("--target", choices=["field", "partial-map"], required=True)
    p.add_argument("--J", type=int, default=8, help="field depth / t-levels")
    p.add_argument("--y", type=float, help="freeze coordinate for partial-map")

    sub.add_parser("lemma-le", help="partial-sum convergence suite")
    sub.add_parser("pathology-run", help="full desk-scale pathology experiment")
    sub.add_parser("report", help="recompute verdicts.json from CSVs in --out")

    return parser


_COMMANDS = {
    "psi-check": cmd_psi_check,
    "seq-build": cmd_seq_build,
    "seq-verify": cmd_seq_verify,
    "field-eval": cmd_field_eval,
    "norm-est": cmd_norm_est,
    "lemma-le": cmd_lemma_le,
    "pathology-run": cmd_pathology_run,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # such as a coefficient c_j or an estimate term^q
        detail = exc.args[-1] if exc.args else "overflow"
        print(f"configuration error: a computed value is out of double range ({detail})", file=sys.stderr)
        return 2
    except OSError as exc:  # the commands turn a failed input read into ConfigError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
