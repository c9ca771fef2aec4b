"""Correctness gate and sample statistics for the besovlab benchmark.

Outputs are compared with references recorded at the seed commit.  CSV rows
are matched by key, never by position, so rows that a later version adds are
ignored while a reference row that disappears counts as a failure.  Every
recorded value is compared by one relative-change rule; its largest value over
a run is the run's `out_max_rel_change`.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import math
import statistics
from fractions import Fraction
from pathlib import Path

# A value whose relative change exceeds this fails the gate.  The ROADMAP's
# per-value gate for the grid kernel is 1e-12; verdict numbers such as
# norm2d_relative_increase are differences of close values and amplify a
# change of the inputs by about 20x, so the gate leaves three decades.
REL_TOL = 1e-9

# Integer cells longer than this are stored in references as a digest: at
# J = 4096 the exact on-counts and window starts run to 1,234 digits.
DIGEST_MIN_LEN = 40
DIGEST_PREFIX = "sha256:"

KEYS = {
    "lemma_le": ("m", "n"),
    "sequence": ("kind", "tier", "J", "probe"),
    "pathology": ("kind", "tier", "J", "probe"),
    "seq": ("j",),
    "anchors": ("x1", "x2"),
}


def _number(cell: str):
    """int or float parsed from a CSV cell, or None when it is not a number."""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def digest(cell: str) -> str:
    return DIGEST_PREFIX + hashlib.sha256(cell.encode()).hexdigest()[:32]


def rel_change(out, ref) -> float:
    """Relative change of an output value against its reference value.

    0 when the two are equal (byte-identical text always is); |out - ref| / |ref|
    for numbers, computed exactly for integers of any length; inf when the
    reference is 0 and the output is not, when the types differ, when text
    differs, or when a digest does not match.
    """
    if isinstance(ref, str) and ref.startswith(DIGEST_PREFIX):
        return 0.0 if isinstance(out, str) and digest(out) == ref else math.inf
    if isinstance(out, str) and isinstance(ref, str):
        if out == ref:
            return 0.0
        out, ref = _number(out), _number(ref)
        if out is None or ref is None:
            return math.inf
    if isinstance(out, bool) or isinstance(ref, bool) or out is None or ref is None:
        return 0.0 if type(out) is type(ref) and out == ref else math.inf
    if not isinstance(out, (int, float)) or not isinstance(ref, (int, float)):
        return 0.0 if out == ref else math.inf
    if out == ref:
        return 0.0
    try:
        if isinstance(out, int) and isinstance(ref, int):
            if not ref:
                return math.inf
            # a difference too small for a float still reads as a change
            return float(abs(Fraction(out - ref, ref))) or math.ulp(0.0)
        out, ref = float(out), float(ref)
    except OverflowError:
        return math.inf
    if ref == 0 or not (math.isfinite(out) and math.isfinite(ref)):
        return math.inf
    return abs(out - ref) / abs(ref)


def _key_cell(cell):
    if cell in (None, ""):
        return None
    number = _number(cell)
    return cell if number is None else number


def _key(row: dict, key_cols) -> tuple:
    # numeric key cells are matched by value, so "64" and "64.0" are one key
    return tuple(_key_cell(row.get(c)) for c in key_cols)


class Comparison:
    """Accumulated result of comparing outputs against references."""

    def __init__(self):
        self.max_rel_change = 0.0
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def value(self, where: str, out, ref) -> None:
        change = rel_change(out, ref)
        self.max_rel_change = max(self.max_rel_change, change)
        if change > REL_TOL:
            self.problems.append(f"{where}: {out!r} vs reference {ref!r} (relative change {change:.3g})")

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def rows(self, name: str, out_rows: list[dict], ref_rows: list[dict], key_cols) -> None:
        """Match rows by key; a missing reference row fails, extra rows are ignored."""
        by_key = {}
        for row in out_rows:
            by_key.setdefault(_key(row, key_cols), row)
        for ref in ref_rows:
            key = _key(ref, key_cols)
            row = by_key.get(key)
            if row is None:
                self.fail(f"{name}: reference row {key} missing")
                continue
            for col, ref_cell in ref.items():
                if col in key_cols:
                    continue
                if col not in row:
                    self.fail(f"{name}: column {col!r} missing")
                    return
                self.value(f"{name}{list(key)}.{col}", row[col], ref_cell)

    def tree(self, where: str, out, ref) -> None:
        """Compare two JSON values leaf by leaf; keys absent from the output fail."""
        if isinstance(ref, dict):
            if not isinstance(out, dict):
                self.fail(f"{where}: expected an object")
                return
            for key, sub in ref.items():
                if key not in out:
                    self.fail(f"{where}.{key}: missing")
                else:
                    self.tree(f"{where}.{key}", out[key], sub)
        elif isinstance(ref, list):
            if not isinstance(out, list) or len(out) != len(ref):
                self.fail(f"{where}: expected a list of {len(ref)}")
                return
            for i, (a, b) in enumerate(zip(out, ref)):
                self.tree(f"{where}[{i}]", a, b)
        else:
            self.value(where, out, ref)


def read_rows(path: str | Path) -> list[dict]:
    """CSV rows as dicts of text cells; gzip files are read transparently."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", newline="") as fh:
        return list(csv.DictReader(fh))


def compact_rows(rows: list[dict]) -> list[dict]:
    """Rows with long integer cells replaced by their digest."""
    out = []
    for row in rows:
        out.append({
            col: digest(cell) if len(cell) >= DIGEST_MIN_LEN and isinstance(_number(cell), int) else cell
            for col, cell in row.items()
        })
    return out


def write_rows(path: str | Path, rows: list[dict]) -> None:
    """Write rows as CSV; a .gz path is compressed reproducibly (mtime 0)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    data = buf.getvalue().encode()
    path = Path(path)
    if path.suffix == ".gz":
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)


# ---------------------------------------------------------------------------
# Sample statistics


def top_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples above it."""
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n)


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "median": statistics.median(values)}
    pct = top_percentile(n)
    if pct is not None:
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


def iqr_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
