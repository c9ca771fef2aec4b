"""Dyadic block sequences: series test, block construction, rearrangement.

A BlockSequence stores O(1) machine words per level: the on-value, and the
on-count and window start each as an odd mantissa and a shift; the dense
array of 2^(J+1) positions exists only as a small-J oracle.  The
rearrangement is the cyclic sliding-window placement: each level's on-run
starts where the previous level's run ended, modulo 1.  The cursor is the
exact window prefix W_j = sum_{i<=j} n_i 2^-i, a dyadic number kept as an
integer over 2^K, K raised when a finer term arrives: n_j = floor(2^j g_j)
of a double g_j has at most 53 significant bits, so K stays near 53 +
log2(1/g_j), not j.  The windows tile [0, W_J) end to end, so a probe's
covering levels are found by bisect on the same prefix.  blocks.json holds
the pairs too; only seq.csv spells n_j and start_j in decimal, in time
linear in j.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import TextIO

import numpy as np

from .params import Params, as_float, as_int
from .reporting import decimal_spelling
from .slowly_varying import PsiDescriptor, psi_dyadic, psi_dyadic_log

# Deepest BlockSequence a command or configuration may build.  A level is
# O(1) words, so a build is O(J): build_lambda_blocks plus rearrange hold
# about 9 MB of levels at this depth (tests/test_sequences.py's memory guard).
MAX_SEQ_DEPTH = 2**15


def _dyadic(v: int, shift: int = 0) -> tuple[int, int]:
    """(m, e) with v << shift = m << e and m odd; (0, 0) for v = 0."""
    if not v:
        return 0, 0
    e = (v & -v).bit_length() - 1
    return v >> e, e + shift


class BlockLevel(namedtuple("BlockLevel", "j theta n_m n_e start_m start_e")):
    """Level j of a BlockSequence: on-value theta, on-count n in [0, 2^j] and
    window start in [0, 2^j), n = n_m << n_e and start = start_m << start_e
    with odd mantissas (0 as (0, 0)).  BlockLevel(j, theta, n, start) takes
    the integers; .n and .start build them back, j bits long."""

    __slots__ = ()

    def __new__(cls, j: int, theta: float, n: int, start: int):
        return cls._of(j, theta, _dyadic(n), _dyadic(start))

    @classmethod
    def _of(cls, j: int, theta: float, n: tuple[int, int], start: tuple[int, int]) -> BlockLevel:
        """The level with n and start given as (mantissa, shift) pairs."""
        return tuple.__new__(cls, (j, theta, *n, *start))

    @property
    def n(self) -> int:
        return self.n_m << self.n_e

    @property
    def start(self) -> int:
        return self.start_m << self.start_e

    @property
    def active(self) -> bool:
        """Whether level j carries any atom: a nonzero count and on-value."""
        return self.n_m > 0 and self.theta > 0.0


def _size(m: int, e: int) -> str:
    """m << e described without building it: negative, or its bit length."""
    return "negative" if m < 0 else f"{m.bit_length() + e} bits"


def _level_index_problem(levels, J: int) -> str | None:
    """Why the J + 1 levels do not carry j = 0..J in order; None if they do."""
    if all(lvl.j == i for i, lvl in enumerate(levels)):
        return None
    seen = Counter(lvl.j for lvl in levels)
    parts = [f"{what} j: {js}" for what, js in (
        ("duplicate", sorted(j for j, c in seen.items() if c > 1)),
        ("missing", [j for j in range(J + 1) if j not in seen]),
        ("out-of-range", sorted(j for j in seen if not 0 <= j <= J)),
    ) if js]
    return f"levels must carry j = 0..{J} in order, once each ({'; '.join(parts) or 'out of order'})"


@dataclass(frozen=True, eq=False)
class BlockSequence:
    """Sparse per-level representation of a blockwise on/off sequence.

    Within block T_j = {2^j, ..., 2^(j+1)-1}, positions whose cell offset
    satisfies (k - 2^j - start_j) mod 2^j < n_j carry value theta_j; all other
    positions carry 0.  Levels 0 and 1 are identically zero.

    Equality and hashing are by identity: a sequence keys the grid-tier
    caches (through AtomicField) in O(1), never by walking its levels.
    """

    J: int
    levels: tuple[BlockLevel, ...]
    rearranged: bool = False
    cursor: Fraction = Fraction(0)

    def __post_init__(self):
        if len(self.levels) != self.J + 1:
            raise ValueError("levels must cover j = 0..J")
        if (problem := _level_index_problem(self.levels, self.J)) is not None:
            raise ValueError(problem)
        for lvl in self.levels:  # bit lengths, never 1 << j, nor m << e in a message
            if lvl.n_m < 0 or lvl.n_m.bit_length() + lvl.n_e > lvl.j + (lvl.n_m == 1):
                raise ValueError(f"n_{lvl.j} out of range [0, 2^{lvl.j}]: {_size(lvl.n_m, lvl.n_e)}")
            if lvl.start_m < 0 or lvl.start_m.bit_length() + lvl.start_e > lvl.j:
                raise ValueError(f"start_{lvl.j} out of range [0, 2^{lvl.j}): {_size(lvl.start_m, lvl.start_e)}")

    def is_on(self, j: int, k: int) -> bool:
        """Whether position k of block T_j carries the on-value."""
        lvl = self.levels[j]
        size = 1 << j
        if not size <= k < 2 * size:
            raise ValueError(f"k={k} not in T_{j}")
        if lvl.n_m == 0:
            return False
        return (k - size - lvl.start) % size < lvl.n


_LEMMA_CHUNK = 1 << 16  # terms per chunk of lemma_le_unit_partials: 0.5 MB a column


def lemma_le_unit_partials(m: float, checkpoints) -> list[float]:
    """lemma_le_partials(np.ones(n), m, n)[n_i - 1] (tests/oracles.py) at each
    checkpoint n_i, bitwise, in memory that does not grow with n.

    With u = 1 the running sum U_j is exactly j (for j < 2^53).  The series
    is summed chunk by chunk, each chunk's cumsum starting from the partial
    sum carried over, so the additions happen in numpy's sequential order.
    """
    if min(checkpoints) < 1:
        raise ValueError(f"checkpoints must be >= 1, got {min(checkpoints)}")
    n_max, values, total = max(checkpoints), {}, 0.0
    for lo in range(0, n_max, _LEMMA_CHUNK):
        hi = min(lo + _LEMMA_CHUNK, n_max)
        U = np.arange(lo + 1, hi + 1, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):  # U**m past the double range: a term of 0 or inf
            terms = 1.0 / U**m
        partials = np.cumsum(np.concatenate([[total], terms]))  # partials[i] = S_(lo + i)
        values.update((n, float(partials[n - lo])) for n in checkpoints if lo < n <= hi)
        total = partials[-1]
    return [values[n] for n in checkpoints]


def build_S(desc: PsiDescriptor, kappa: float, J: int) -> np.ndarray:
    """(S_1, ..., S_J) with S_j = sum_{k=1..j} Psi(2^-k)^kappa."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    terms = np.array([psi_dyadic(desc, j) ** kappa for j in range(1, J + 1)])
    return np.cumsum(terms)


def _gamma(kappa: float, log_psi: float, S_j: float, m: float = 1.0) -> float:
    """Psi(2^-j)^kappa / S_j^m from ln Psi(2^-j), in log space; at m = 1 the double build_lambda_blocks floors."""
    return math.exp(kappa * log_psi - m * math.log(S_j))


def gamma(desc: PsiDescriptor, kappa: float, j: int, m: float) -> float:
    """Psi(2^-j)^kappa / S_j^m, as _gamma forms it."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    S = build_S(desc, kappa, j)
    return _gamma(kappa, psi_dyadic_log(desc, j), float(S[-1]), m)


def _floor_count(g: float, j: int) -> tuple[int, int]:
    """floor(2^j g) clamped to [0, 2^j], exact, as a (mantissa, shift) pair.
    g = num / 2^d with num odd, so the count is num << (j - d) for j >= d
    and num >> (d - j), at most 53 bits, below."""
    num, den = g.as_integer_ratio()
    if num <= 0:
        return 0, 0
    if num >= den:
        return 1, j
    d = den.bit_length() - 1
    return (num, j - d) if j >= d else _dyadic(num >> (d - j))


def build_lambda_blocks(desc: PsiDescriptor, params: Params, J: int) -> BlockSequence:
    """Unrearranged block sequence with n_j = floor(2^j Gamma_{j,1}) on-cells
    of value theta_j = S_j^L / Psi(2^-j)^p per level, levels 0-1 zero."""
    if not params.p < params.q:
        raise ValueError("construction requires p < q")
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    kap = params.kappa
    S = build_S(desc, kap, J)
    levels = [BlockLevel(0, 0.0, 0, 0), BlockLevel(1, 0.0, 0, 0)]
    for j in range(2, J + 1):
        log_psi = psi_dyadic_log(desc, j)
        # powers in log space so deep levels neither overflow nor underflow
        theta = math.exp(params.L * math.log(S[j - 1]) - params.p * log_psi)
        levels.append(BlockLevel._of(j, theta, _floor_count(_gamma(kap, log_psi, S[j - 1]), j), (0, 0)))
    return BlockSequence(J=J, levels=tuple(levels))


def block_average(blocks: BlockSequence, j: int) -> float:
    """n_j * theta_j / 2^j, the exact average of the sequence over T_j.
    n_j / 2^j = n_m / 2^(j - n_e) is an int true division, correctly rounded
    in CPython; for a count built from a double, 2^(j - n_e) <= 2^1074."""
    lvl = blocks.levels[j]
    return lvl.n_m / (1 << (j - lvl.n_e)) * lvl.theta


def _window_prefix(levels: Iterable[BlockLevel]) -> Iterator[tuple[int, int]]:
    """W_j = sum_{i<=j} n_i 2^-i for each level j, exact, as (W, K) with W_j =
    W / 2^K.  The term n_j 2^-j is n_m / 2^(j - n_e); K is raised to that
    exponent when it is larger.  Level j's window ends at W_j, where level
    j+1's starts."""
    W = K = 0
    for lvl in levels:
        if lvl.n_m:
            d = lvl.j - lvl.n_e
            if d > K:
                W, K = W << (d - K), d
            W += lvl.n_m << (K - d)
        yield W, K


def rearrange(blocks: BlockSequence) -> BlockSequence:
    """Sliding-window rearrangement; preserves each block's value multiset.

    Level j's window starts where level j-1's ended, modulo 1: start_j =
    frac(W_{j-1}) 2^j, with W the window prefix, and the cursor is W_J mod 1.
    This is the cursor rule start_j = floor(c_{j-1} 2^j), c_j =
    frac((start_j + n_j) / 2^j), whose floor is exact because c_{j-1} has
    denominator 2^(j-1): W_{j-1} = W / 2^K with K <= j - 1.
    """
    levels, W, K = [], 0, 0
    for lvl, (next_W, next_K) in zip(blocks.levels, _window_prefix(blocks.levels)):
        start = _dyadic(W & ((1 << K) - 1), lvl.j - K)
        levels.append(BlockLevel._of(lvl.j, lvl.theta, (lvl.n_m, lvl.n_e), start))
        W, K = next_W, next_K
    return BlockSequence(J=blocks.J, levels=tuple(levels), rearranged=True,
                         cursor=Fraction(W & ((1 << K) - 1), 1 << K))


def _covering_levels(blocks: BlockSequence, x, J: int | None) -> Iterator[BlockLevel]:
    """Each on-level j <= J whose on-window contains position floor(2^j x).

    x in [1,2); converted to an exact rational so deep levels resolve the
    correct cell (a float times 2^j loses the cell index past 52 bits).
    """
    xf = Fraction(x)
    if not 1 <= xf < 2:
        raise ValueError(f"x must lie in [1,2), got {x}")
    if J is None:
        J = blocks.J
    num, den = xf.numerator, xf.denominator
    for j in range(min(J, blocks.J) + 1):
        lvl = blocks.levels[j]
        if not lvl.active:
            continue
        size = 1 << j
        k = (num << j) // den
        if (k - size - lvl.start) % size < lvl.n:
            yield lvl


def coverage_count(blocks: BlockSequence, x, J: int | None = None) -> int:
    """Number of levels j <= J whose on-window contains position floor(2^j x)."""
    return sum(1 for _ in _covering_levels(blocks, x, J))


def mixed_norm(blocks: BlockSequence, p: float, q: float, J: int | None = None) -> float:
    """(sum_j (sum_k lambda_{j,k}^p)^(q/p))^(1/q) via the block-average identity
    sum_k lambda_{j,k}^p = block_average(j); sup-norm form when q = inf."""
    if J is None:
        J = blocks.J
    averages = [block_average(blocks, j) for j in range(min(J, blocks.J) + 1)]
    if math.isinf(q):
        return max((a ** (1.0 / p) for a in averages), default=0.0)
    total = math.fsum(a ** (q / p) for a in averages)
    return total ** (1.0 / q)


LEVEL_COLUMNS = (
    "j", "S_j", "Gamma_j1", "n_j", "theta_j", "start_j", "block_average", "mixed_norm_partial",
)


@dataclass(frozen=True)
class LevelTable:
    """The exact tier's per-level columns of blocks (level_table), each an
    array('d') indexed by j = 0..blocks.J, and its window prefix."""

    blocks: BlockSequence
    S: array  # S_j, 0.0 at j = 0
    gamma: array  # Gamma_{j,1}, 0.0 at j = 0
    average: array  # the block average A_j
    partial: array  # the mixed-norm partial

    @cached_property
    def prefix(self) -> tuple[array, int, int]:
        """(laps, K, W), built on first use: floor(W_j) of each level j, and W_J = W / 2^K."""
        laps, W, K = array("q"), 0, 0
        for W, K in _window_prefix(self.blocks.levels):
            laps.append(W >> K)
        return laps, K, W

    def window_end(self, j: int) -> int:
        """W_j 2^K of a rearranged sequence: W_j = floor(W_j) + start_{j+1} 2^-(j+1),
        as level j+1's window starts at W_j mod 1."""
        laps, K, W = self.prefix
        if j == self.blocks.J:
            return W
        nxt = self.blocks.levels[j + 1]  # start_m odd, so its denominator 2^(j + 1 - start_e) divides 2^K
        return (laps[j] << K) + (nxt.start_m << (K + nxt.start_e - j - 1) if nxt.start_m else 0)


def level_table(blocks: BlockSequence, desc: PsiDescriptor, params: Params) -> LevelTable:
    """The LevelTable of blocks in one pass, each entry equal to its per-j
    oracle: S_j = build_S(j)[-1], from one prefix-stable build_S; Gamma_{j,1}
    = gamma(j, 1.0), the double build_lambda_blocks floors; block_average(j);
    and mixed_norm(blocks, p, q, j), the exact running sum of
    block_average^(q/p) kept as one integer in units of 2^-1074, which every
    double is a whole multiple of, and rounded once, as math.fsum over the
    prefix does, or for q = inf the running max of block_average^(1/p)."""
    kappa, p, q = params.kappa, params.p, params.q
    S = array("d", [0.0, *build_S(desc, kappa, blocks.J)])
    table = LevelTable(blocks, S, array("d", [0.0]), array("d"), array("d"))
    total, unit, best = 0, 1 << 1074, 0.0
    for j in range(blocks.J + 1):
        if j:
            table.gamma.append(_gamma(kappa, psi_dyadic_log(desc, j), S[j]))
        average = block_average(blocks, j)
        if math.isinf(q):
            partial = best = max(best, average ** (1.0 / p))
        else:
            num, den = (average ** (q / p)).as_integer_ratio()
            total += num << (1075 - den.bit_length())  # den = 2^(bit_length - 1)
            partial = (total / unit) ** (1.0 / q)
        table.average.append(average)
        table.partial.append(partial)
    return table


def _diagnostic_term(lvl: BlockLevel, desc: PsiDescriptor, p: float) -> float:
    """2^(j/p) lambda_{j,k} Psi(2^-j) on an on-cell k of level j, through the
    identity with (block value)^(1/p) * Psi(2^-j), in log space, so deep
    levels neither overflow nor underflow."""
    return math.exp(math.log(lvl.theta) / p + psi_dyadic_log(desc, lvl.j))


def sup_diagnostic(blocks: BlockSequence, desc: PsiDescriptor, p: float, x, J: int | None = None) -> float:
    """max over j <= J of 2^(j/p) lambda_{j,floor(2^j x)} Psi(2^-j)."""
    return max((_diagnostic_term(lvl, desc, p) for lvl in _covering_levels(blocks, x, J)), default=0.0)


def _bisect_covering_levels(table: LevelTable, J: int, x) -> Iterator[BlockLevel]:
    """The levels j <= J of _covering_levels, found by bisect on the window
    prefix (LevelTable.window_end) of a rearranged sequence.

    The windows [W_{j-1}, W_j) tile [0, W_J) and are at most 1 long, so level
    j covers x = 1 + y iff W_{j-1} <= y + m < W_j for one integer m >= 0, and
    distinct m give increasing levels.  Both sides are compared as integers
    scaled by den(x) 2^K, so every comparison is exact.
    """
    xf = Fraction(x)
    if not 1 <= xf < 2:
        raise ValueError(f"x must lie in [1,2), got {x}")
    K, den = table.prefix[1], xf.denominator
    target = (xf.numerator - den) << K  # (y + m) den 2^K, m = 0
    j = 0
    while (j := bisect_right(range(J + 1), target, lo=j, key=lambda i: table.window_end(i) * den)) <= J:
        lvl = table.blocks.levels[j]
        if lvl.active:
            yield lvl
        target += den << K
        j += 1


def covering_profile(table: LevelTable, desc: PsiDescriptor, p: float, probes, depths) -> list[list[tuple[float, int]]]:
    """(sup_diagnostic, coverage_count) at each probe x for each J in depths,
    read off the levels covering x at the deepest J.  The table's one window
    prefix serves every probe and every call; it reads the starts that
    rearrange stored, so the table's blocks must come from rearrange."""
    if not table.blocks.rearranged:
        raise ValueError("covering_profile needs a rearranged BlockSequence")
    J = min(max(depths), table.blocks.J)
    profiles = []
    for x in probes:
        terms = [(lvl.j, _diagnostic_term(lvl, desc, p)) for lvl in _bisect_covering_levels(table, J, x)]
        profiles.append([
            (max((t for j, t in terms if j <= depth), default=0.0), sum(1 for j, _ in terms if j <= depth))
            for depth in depths
        ])
    return profiles


def write_blocks(blocks: BlockSequence, out: TextIO,
                 table: tuple[TextIO, Iterable[tuple[float, ...]]] | None = None) -> None:
    """blocks as indented JSON to out and, given table = (stream, the rows
    of blocks' LevelTable), the LEVEL_COLUMNS CSV to that stream, in one
    streamed pass over the levels: the bytes of json.dumps(indent=2) and
    reporting.write_csv (tests/oracles.py).  blocks.json holds each n_j and
    start_j as its (mantissa, shift) pair; the CSV spells them in decimal,
    by reporting.decimal_spelling, in time linear in j."""
    text = decimal_spelling()
    cursor, flag = blocks.cursor, "true" if blocks.rearranged else "false"
    out.write(f'{{\n  "J": {blocks.J},\n  "rearranged": {flag},\n  "cursor": [\n'
              f'    {cursor.numerator},\n    {cursor.denominator}\n  ],\n  "levels": [')
    csv, rows = table or (None, repeat(None))
    if csv is not None:
        csv.write(",".join(LEVEL_COLUMNS) + "\n")
    sep = ""
    for lvl, row in zip(blocks.levels, rows):
        out.write(f'{sep}\n    {{\n      "j": {lvl.j},\n      "theta": {lvl.theta!r},\n'
                  f'      "n_m": {lvl.n_m},\n      "n_e": {lvl.n_e},\n'
                  f'      "start_m": {lvl.start_m},\n      "start_e": {lvl.start_e}\n    }}')
        sep = ","
        if csv is not None:
            S_j, gamma_j, average, partial = row
            n, start = text(lvl.n_m, lvl.n_e), text(lvl.start_m, lvl.start_e)
            csv.write(f"{lvl.j},{S_j!r},{gamma_j!r},{n},{lvl.theta!r},{start},{average!r},{partial!r}\n")
    out.write("\n  ]\n}\n")


_PAIR_KEYS = ("n_m", "n_e", "start_m", "start_e")  # a level's n and start in blocks.json


def read_blocks(stream: TextIO) -> BlockSequence:
    """The BlockSequence of a blocks.json document: the top-level keys in any
    order, any JSON whitespace.  Each level object becomes its BlockLevel as
    the decoder closes it, so the document never holds its level dicts.
    Equals json.load and then the same checks (tests/oracles.py); a
    malformed or truncated document raises ValueError, KeyError or TypeError."""
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
    if not isinstance(doc, dict):
        raise ValueError(f"a blocks.json document is an object, got {type(doc).__name__}")
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


def verify_blocks(blocks: BlockSequence) -> list[str]:
    """Re-check structural invariants; returns violation messages."""
    problems = []
    for j in (0, 1):
        if j <= blocks.J and blocks.levels[j].n_m != 0:
            problems.append(f"level {j} must be identically zero")
    for lvl in blocks.levels:
        if lvl.theta < 0:
            problems.append(f"theta_{lvl.j} negative")
    if blocks.rearranged:
        expected = rearrange(blocks)  # its starts and cursor follow from the n_j alone
        for lvl, exp in zip(blocks.levels, expected.levels):
            if (lvl.start_m, lvl.start_e) != (exp.start_m, exp.start_e):  # as pairs: start_j has j bits
                problems.append(f"start_{lvl.j} = {lvl.start_m} * 2^{lvl.start_e} inconsistent with "
                                f"cursor rule ({exp.start_m} * 2^{exp.start_e})")
        if blocks.cursor != expected.cursor:
            problems.append(f"cursor {blocks.cursor} != recomputed {expected.cursor}")
    elif blocks.cursor != 0:
        problems.append(f"cursor {blocks.cursor} of an unrearranged sequence must be 0")
    return problems
