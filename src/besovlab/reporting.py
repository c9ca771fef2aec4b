"""CSV / JSON / SVG emission for experiment reports, and the blocks.json codec.

Every output opens through `output`, which leaves no partial file behind.
CSV cells are written with Python's shortest round-trip float repr, so a run
with a fixed configuration is byte-reproducible.  JSON is strict: a
non-finite float is written as null.  The SVG writer is a tiny built-in line
chart (no plotting dependency): depth on a logarithmic axis, one polyline
per series.  blocks.json holds each level's n_j and start_j as (mantissa,
shift) pairs; only seq.csv spells them in decimal, in time linear in j.
"""

from __future__ import annotations

import contextlib
import csv
import decimal
import json
import math
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import TextIO

from .params import as_float, as_int
from .sequences import BlockLevel, BlockSequence, LevelTable, _dyadic


@contextlib.contextmanager
def output(path: str | Path | None):
    """A text stream to path, its parent made, or stdout when path is None.
    A command that fails while writing removes the file and the directories
    made for it: no partial output."""
    if path is None:
        yield sys.stdout
        return
    parent = Path(path).parent
    made = [folder for folder in (parent, *parent.parents) if not folder.exists()]  # deepest first
    parent.mkdir(parents=True, exist_ok=True)
    fh = None
    try:
        fh = open(path, "w", newline="")
        with fh:
            yield fh
    except BaseException:
        if fh is not None:
            Path(path).unlink(missing_ok=True)
        for folder in made:
            with contextlib.suppress(OSError):  # no longer empty: another process wrote there
                folder.rmdir()
        raise


def format_cell(value) -> str:
    if value is None:
        return ""
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def decimal_spelling() -> Callable[[int, int], str]:
    """A function (m, e) -> str(m << e), in time linear in e for a short m,
    where str() of an e-bit int is quadratic in e.  It spells m << e as
    Decimal(m << (e mod 64)) * 2^(e - e mod 64), with the powers 2^(64 k)
    kept as Decimals, each built from the one before.  The arithmetic is
    exact: integer operands, and no rounding at the context's precision."""
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    powers = [decimal.Decimal(1)]  # powers[k] = 2^(64 k)

    def spell(m: int, e: int) -> str:
        while len(powers) <= e >> 6:
            powers.append(exact.multiply(powers[-1], 1 << 64))
        return str(exact.multiply(m << (e & 63), powers[e >> 6]))

    return spell


def write_csv(path: str | Path, fieldnames: list[str], rows: Iterable[dict]) -> None:
    with output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([format_cell(row.get(name)) for name in fieldnames])


def read_csv(path: str | Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(data):
    """data with every non-finite float, at any depth, replaced by None."""
    if isinstance(data, dict):
        return {key: _finite(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_finite(value) for value in data]
    return None if isinstance(data, float) and not math.isfinite(data) else data


def write_json(path: str | Path | None, data) -> None:
    """data as indented, key-sorted strict JSON to path, or to stdout when
    path is None; NaN and infinities are written as null."""
    with output(path) as fh:
        fh.write(json.dumps(_finite(data), indent=2, sort_keys=True, allow_nan=False) + "\n")


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def write_svg_lines(
    path: str | Path,
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
) -> None:
    """Write a minimal line chart; series maps label -> [(x, y), ...], x on a
    log2 axis."""
    width, height, margin = 640, 420, 56
    pts_all = [pt for pts in series.values() for pt in pts]
    if not pts_all:
        xs = ys = [0.0, 1.0]
    else:
        xs = [math.log2(x) for x, _ in pts_all]
        ys = [y for _, y in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (math.log2(x) - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="11">'
        'log2(depth J)</text>',
    ]
    for idx, (label, pts) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * idx}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with output(path) as fh:
        fh.write("\n".join(parts) + "\n")


LEVEL_COLUMNS = ("j", "S_j", "Gamma_j1", "n_j", "theta_j", "start_j", "block_average", "mixed_norm_partial")


def write_blocks(blocks: BlockSequence, out: TextIO, table: tuple[TextIO, LevelTable] | None = None) -> None:
    """blocks as indented JSON to out and, given table = (stream, blocks'
    LevelTable), the LEVEL_COLUMNS CSV to that stream, in one streamed pass
    over the levels: the bytes of json.dumps(indent=2) and write_csv
    (tests/oracles.py).  blocks.json holds each n_j and start_j as its
    (mantissa, shift) pair; the CSV spells them in decimal, by
    decimal_spelling, in time linear in j."""
    text = decimal_spelling()
    cursor, flag = blocks.cursor, "true" if blocks.rearranged else "false"
    out.write(f'{{\n  "J": {blocks.J},\n  "rearranged": {flag},\n  "cursor": [\n'
              f'    {cursor.numerator},\n    {cursor.denominator}\n  ],\n  "levels": [')
    csv_out, columns = table or (None, None)
    rows = zip(columns.S, columns.gamma, columns.average, columns.partial) if table else repeat(None)
    if csv_out is not None:
        csv_out.write(",".join(LEVEL_COLUMNS) + "\n")
    sep = ""
    for lvl, row in zip(blocks.levels, rows):
        out.write(f'{sep}\n    {{\n      "j": {lvl.j},\n      "theta": {lvl.theta!r},\n'
                  f'      "n_m": {lvl.n_m},\n      "n_e": {lvl.n_e},\n'
                  f'      "start_m": {lvl.start_m},\n      "start_e": {lvl.start_e}\n    }}')
        sep = ","
        if csv_out is not None:
            S_j, gamma_j, average, partial = row
            n, start = text(lvl.n_m, lvl.n_e), text(lvl.start_m, lvl.start_e)
            csv_out.write(f"{lvl.j},{S_j!r},{gamma_j!r},{n},{lvl.theta!r},{start},{average!r},{partial!r}\n")
    out.write("\n  ]\n}\n")


_PAIR_KEYS = ("n_m", "n_e", "start_m", "start_e")  # a level's n and start in blocks.json


def read_blocks(stream: TextIO) -> BlockSequence:
    """The BlockSequence of a blocks.json document: the top-level keys in any
    order, any JSON whitespace.  Each level object becomes its BlockLevel as
    the decoder closes it, so the document never holds its level dicts.
    Equals json.load and then the same checks (tests/oracles.py); a
    malformed or truncated document raises ValueError."""
    def level(d: dict):
        """d's BlockLevel.  The document, and any object that fails the checks
        of a level, stay dicts: _blocks_from_json reads the document and
        checks each level again, to reject one with its index."""
        if "levels" in d:
            return d
        try:
            return _level_from_json(d, 0)
        except ValueError:
            return d

    return _blocks_from_json(json.load(stream, object_hook=level))


def _level_from_json(d, index: int) -> BlockLevel:
    """The level of the blocks.json level object at position index of the
    levels array: j, the pairs (n_m, n_e) and (start_m, start_e) JSON
    integers (4.0 reads as 4), each shift >= 0, theta a finite JSON number.
    A pair need not be canonical: (4, 0) reads as (1, 2)."""
    if not isinstance(d, dict):
        raise ValueError(f"level {index} must be an object, got {json.dumps(d)}")
    if "j" not in d:
        raise ValueError(f'level {index} has no "j"')
    j = as_int(d["j"], "j")
    for key in ("theta", *_PAIR_KEYS):
        if key not in d:
            raise ValueError(f'level j={j} has no "{key}"')
    theta = as_float(d["theta"], f"theta_{j}")
    if not math.isfinite(theta):
        raise ValueError(f"theta_{j} must be finite, got {json.dumps(theta)}")
    n_m, n_e, start_m, start_e = (as_int(d[key], f"{key} of level j={j}") for key in _PAIR_KEYS)
    for key, e in (("n_e", n_e), ("start_e", start_e)):
        if e < 0:
            raise ValueError(f"{key} of level j={j} must be >= 0, got {e}")
    return BlockLevel._of(j, theta, _dyadic(n_m, n_e), _dyadic(start_m, start_e))


def _blocks_from_json(doc) -> BlockSequence:
    """The BlockSequence of a decoded blocks.json document, whose levels are
    read or still to read (_level_from_json): an object with J a JSON
    integer, rearranged a JSON boolean (default false), cursor two JSON
    integers with a positive denominator, a fraction in [0, 1) (default
    [0, 1]), and levels an array."""
    if isinstance(doc, BlockLevel):  # read_blocks' hook reads a level-shaped document as its BlockLevel
        doc = doc._asdict()
    if not isinstance(doc, dict):
        raise ValueError(f"a blocks.json document is an object, got {type(doc).__name__}")
    for key in ("levels", "J"):
        if key not in doc:
            raise ValueError(f'blocks.json has no "{key}"')
    rearranged, cursor, levels = doc.get("rearranged", False), doc.get("cursor", [0, 1]), doc["levels"]
    if not isinstance(rearranged, bool):
        raise ValueError(f"rearranged must be true or false, got {json.dumps(rearranged)}")
    if not isinstance(cursor, list) or len(cursor) != 2:
        raise ValueError(f"cursor must be [numerator, denominator], got {json.dumps(cursor)}")
    num, den = (as_int(c, "cursor") for c in cursor)
    if den <= 0:
        raise ValueError(f"cursor denominator must be positive, got {json.dumps(cursor)}")
    if not 0 <= num < den:
        raise ValueError(f"cursor must lie in [0, 1), got {json.dumps(cursor)}")
    if not isinstance(levels, list):
        raise ValueError(f"levels must be an array, got {type(levels).__name__}")
    levels = [lvl if isinstance(lvl, BlockLevel) else _level_from_json(lvl, i) for i, lvl in enumerate(levels)]
    return BlockSequence(J=as_int(doc["J"], "J"), levels=tuple(sorted(levels, key=lambda lvl: lvl.j)),
                         rearranged=rearranged, cursor=Fraction(num, den))
