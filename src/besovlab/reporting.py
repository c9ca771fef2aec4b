"""CSV / JSON / SVG emission for experiment reports.

Every output opens through `output`, which leaves no partial file behind.
CSV cells are written with Python's shortest round-trip float repr, so a run
with a fixed configuration is byte-reproducible.  JSON is strict: a
non-finite float is written as null.  The SVG writer is a tiny built-in line
chart (no plotting dependency): depth on a logarithmic axis, one polyline
per series.
"""

from __future__ import annotations

import contextlib
import csv
import decimal
import json
import math
import sys
from collections.abc import Callable, Iterable
from pathlib import Path


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
