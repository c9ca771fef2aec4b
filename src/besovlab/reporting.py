"""CSV / JSON / SVG emission for experiment reports.

CSV cells are written with Python's shortest round-trip float repr, so a run
with a fixed configuration is byte-reproducible.  The SVG writer is a tiny
built-in line chart (no plotting dependency): depth on a logarithmic axis,
one polyline per series.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from pathlib import Path


def format_cell(value) -> str:
    if value is None:
        return ""
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, fieldnames: list[str], rows: Iterable[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([format_cell(row.get(name)) for name in fieldnames])


def read_csv(path: str | Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_json(path: str | Path, data: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
