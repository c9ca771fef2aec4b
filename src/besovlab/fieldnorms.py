"""Fast norm estimation for atomic fields, from one reference-bump kernel.

The 2-D norm is the classical one (Psi = 1), the norm of B^s_{p,q}(R^2) that
the construction keeps bounded; a partial map f(., y) is measured in the
generalized B^(s,Psi)_{p,inf}(R) seminorm, with the configuration's Psi.

Level j of the field is c_j X(u) w_j(x2) in its local coordinate
u = 2^j x1 - C_M 2^j j (atoms).  Levels have disjoint supports even after
inflating by the stencil reach M*t, so difference norms split exactly into
per-level integrals.  In u every level's grid has spacing 1/16 (16 cells per
atom half-width) and a step h is H = 2^j h: a partial map's level integral is
|c_j w_j(y)|^p 2^-j T(p, M, H, 1/16), with T one table over the reference
bump.  A 2-D level integral takes the same local x1 axis, the global x2 axis
(which 2^j maps exactly onto the local one) and |c_j|^p once, outside the grid.  On an
x2 row whose stencil points all have weight exactly 1 or 0 (the bumps are a
partition of unity) it is T over the points of weight 1, so only the rows
near the on-window's edges read w_j, and only at their stencil points whose
weight is neither.  The rows of each run of one plateau state are counted in
integer cell units, so no array spans the 2^(j+4)-row axis, and one pass
computes every step of every t-level of a level: one level_weight call on
all its unknown stencil points.  The pass is cached on the field cut at
depth j, so every depth J >= j shares it.  A partial map's level integrals
form one such table per level, shared by every y-probe, which weighs it by
|w_j(y)|^p; both estimators reduce their tables to the list of moduli (per
t-level, the max over steps of the level sum) that the dyadic sum reads.
Where the stencil translates are disjoint (|H| >= 4, or |h2| past the x2
extent) a difference norm is a binomial multiple of the level's L^p norm.

Difference norms are even in h: Delta_{-h}^M g(x) = (-1)^M Delta_h^M g(x - Mh),
and the grid built for -h holds the points of the one for h shifted by Mh.  So
the moduli compute one integral per pair +-h of default_h_set and give -h its
mirror's value; the two integrals differ only by rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .atoms import AtomicField, _bump_factor, level_plateau, level_weight, level_weights
from .norms import NormEstimate, _dyadic_seminorm, _stencil_coeffs, default_h_set
from .slowly_varying import PsiDescriptor, constant


# The grid tier's depth cap comes from the global-coordinate rounding bound
# C_M J 2^J eps <= GRID_ABS_TOL, an error the local kernel no longer has, and
# no array holds the 2^(j+4) x2 rows: they are counted, not built.  The cap now
# guards only two defects that deeper levels would reach: small steps cancel
# in T (the stencil differences of _bump_diff_lp_pow), and deep coefficients
# leave the double range (AtomicField.coef, 2^(j s) in the dyadic sum).
GRID_ABS_TOL = 1e-9


def grid_depth_cap(M: int) -> int:
    """Deepest level J with C_M J 2^J eps <= GRID_ABS_TOL, for C_M = 2(M+2):
    J = 15 for M = 2.  The integer C_M J 2^J is compared with the float
    GRID_ABS_TOL / eps exactly, so no M overflows a double here."""
    C_M = 2 * (M + 2)
    J = 0
    while C_M * (J + 1) << (J + 1) <= GRID_ABS_TOL / sys.float_info.epsilon:
        J += 1
    return J


def default_level_resolution(j: int) -> float:
    """Grid spacing for level j: 16 cells per atom half-width (1/16 in u)."""
    return 2.0 ** (-(j + 4))


def _level_fields(field: AtomicField) -> list[tuple[AtomicField, int]]:
    """(field cut at depth j, j) for each active level j: the 2-D cache keys."""
    return [(AtomicField(field.params, field.blocks, j), j) for j in field.active_levels()]


def _disjoint_factor(M: int, p: float) -> float:
    return math.fsum(math.comb(M, i) ** p for i in range(M + 1))


def _axis_cells(lo: float, hi: float, M: int, h: float, res: float) -> tuple[float, int]:
    """(first edge, cell count) of the midpoint grid over [lo, hi] widened by
    the reach of the stencil along h."""
    lo, hi = lo - M * max(h, 0.0), hi - M * min(h, 0.0)
    return lo, max(1, int(math.ceil((hi - lo) / res - 1e-9)))


def _stencil_axis(lo: float, hi: float, M: int, h: float, res: float) -> np.ndarray:
    """Midpoint grid over [lo, hi] widened by the reach of the stencil along h."""
    lo, ncells = _axis_cells(lo, hi, M, h, res)
    return lo + (np.arange(ncells) + 0.5) * res


@lru_cache(maxsize=4096)
def _stencil_rows(M: int, H: float, du: float) -> np.ndarray:
    """The (M+1) x nu matrix of c_i X(u + i H) on the local x1 axis with
    spacing du, c_i the stencil weights of Delta^M."""
    u = _stencil_axis(-2.0, 2.0, M, H, du)
    rows = np.array(_stencil_coeffs(M))[:, None] * _bump_factor(u + np.arange(M + 1)[:, None] * H)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=4096)
def _bump_diff_lp_pow(p: float, M: int, H: float, du: float, mask: int) -> float:
    """T_mask(p, M, H, du): integral over R of |sum over the stencil points i
    in the bitmask of c_i X(u + i H)|^p, midpoint rule with spacing du.  With
    every bit set it is the integral of |Delta_H^M X|^p (M = 0: of |X|^p)."""
    rows = _stencil_rows(M, H, du)
    acc = sum(rows[i] for i in range(M + 1) if mask >> i & 1)
    return float(np.sum(np.abs(acc) ** p)) * du


def pm_level_diff_lp_pow(field: AtomicField, j: int, p: float, M: int, h: float, res: float) -> float:
    """integral over R of |Delta_h^M level_x1_profile|^p at global spacing
    res; times |w_j(y)|^p it is level j's share of ||Delta_h^M f(., y)||_p^p."""
    H = math.ldexp(h, j)
    if abs(H) >= 4.0:
        # translates of X's support (-2, 2) along H are pairwise disjoint:
        # each stencil point contributes its binomial weight times |f|^p
        return _disjoint_factor(M, p) * pm_level_lp_pow(field, j, p, res)
    T = _bump_diff_lp_pow(p, M, H, math.ldexp(res, j), (1 << (M + 1)) - 1)
    return abs(field.coef(j)) ** p * math.ldexp(T, -j)


@lru_cache(maxsize=4096)
def pm_level_lp_pow(field: AtomicField, j: int, p: float, res: float) -> float:
    """integral over R of |level_x1_profile|^p; times |w_j(y)|^p it is the
    level's share of the partial map's integral at y."""
    return pm_level_diff_lp_pow(field, j, p, 0, 0.0, res)


@lru_cache(maxsize=4096)
def level_lp_pow(field: AtomicField, j: int, p: float, res: float) -> float:
    """integral over R^2 of |f_level|^p."""
    return level_diff_lp_pow(field, j, p, 0, (0.0, 0.0), res)


@lru_cache(maxsize=4096)
def _plateau_cuts(field: AtomicField, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(cuts, states): the x2 where level j's level_plateau changes from cell
    to cell, and states[i] the level_plateau of a point with i cuts <= x2
    (states[0] = 0).  A point's state is that of its cell c, read off the
    cells c - 1 .. c + 2, so it changes only at the cells e - 2 .. e + 1 of an
    edge e of T_j or of the on-window: level_plateau reads e - 3 .. e + 1.
    The cuts are cell edges, so counting them (searchsorted, side="right")
    reads the state exactly while every cell index up to 2^(j+1) + 1 is a
    double, through level 51; deeper levels raise."""
    if j > 51:
        raise ValueError(f"plateau cuts are exact through level 51, got j = {j}")
    lvl, size = field.blocks.levels[j], 1 << j
    edges = (size, 2 * size, size + lvl.start, size + (lvl.start + lvl.n) % size)
    cell_x = np.ldexp(np.array(sorted({e + d for e in edges for d in range(-3, 2)}), dtype=float), -j)
    state = level_plateau(field, j, cell_x)
    change = np.flatnonzero(state[1:] != state[:-1]) + 1
    cuts, states = cell_x[change], np.concatenate([state[:1], state[change]])
    cuts.flags.writeable = states.flags.writeable = False
    return cuts, states


def _row_counts(lo: np.ndarray, h2: np.ndarray, n: np.ndarray, res: float, M: int,
                cuts: np.ndarray) -> np.ndarray:
    """counts[s, i, c]: how many rows r < n[s] of step s have their column-i
    point lo[s] + (r + 0.5) res + i h2[s] below cuts[c], np.searchsorted on
    the built column.  The columns are sorted, so the count is the row where
    the point crosses the cut: solved for, then moved while a neighbour's
    point, formed by that same float expression, disagrees."""
    lo, h2, n = lo[:, None, None], h2[:, None, None], n[:, None, None]
    ih2 = np.arange(M + 1)[:, None] * h2
    r = np.clip(np.ceil((cuts - ih2 - lo) / res - 0.5), 0, n).astype(np.int64)
    while True:
        down = (r > 0) & (lo + (r - 0.5) * res + ih2 >= cuts)
        up = (r < n) & (lo + (r + 0.5) * res + ih2 < cuts)
        if not (down.any() or up.any()):
            return r
        r += up.astype(np.int64) - down


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct values of x, sorted; the index of each x among them):
    np.unique's result with return_inverse, without the numpy.ma it loads."""
    order = np.argsort(x)
    xs = x[order]
    first = np.ones(x.size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    inverse = np.empty(x.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return xs[first], inverse


def _level_rows(field: AtomicField, j: int, M: int, h2s: list, res: float) -> tuple[list, list]:
    """(plain, weights) of level j's grid rows for a step with each h2 of h2s.

    Row r reads w_j at the stencil points x2_r + i h2 = lo + (r + 0.5) res +
    i h2, which h2 alone fixes.  Each stencil column is sorted, so the rows
    where it crosses the cuts of _plateau_cuts split the rows into runs on
    which every point's weight is 1, 0 or unknown.  plain[g] lists the
    (length, stencil bitmask of weight 1) of the runs without unknown
    weights, bitmask 0 left out.  The rows of the other runs, near the
    window's edges, read w_j at their points of unknown weight, each distinct
    point once in one level_weight call for all of h2s, and take 1.0 or 0.0
    at the others, level_weight's value to within 1 eps: weights[g] is their
    (M+1) x rows array, None if there are none.
    """
    half = 2.0 ** (1 - j)
    lo, n = zip(*(_axis_cells(1.0 - half, 2.0 + half, M, h2, res) for h2 in h2s))
    h2, lo, n = np.array(h2s), np.array(lo), np.array(n)
    cuts, states = _plateau_cuts(field, j)
    counts = _row_counts(lo, h2, n, res, M, cuts)
    # run bounds: 0, n and every count; runs of length 0 are skipped
    bounds = np.sort(np.concatenate([np.zeros_like(n)[:, None], n[:, None], counts.reshape(n.size, -1)], axis=1),
                     axis=1)
    starts, lengths = bounds[:, :-1], np.diff(bounds, axis=1)
    # the state of each run's column i: a point is past the cuts whose count is <= its row
    runs = states[(counts[:, :, :, None] <= starts[:, None, None, :]).sum(axis=2)]
    edge = (runs < 0).any(axis=1) & (lengths > 0)
    masks = ((runs == 1) << np.arange(M + 1)[:, None]).sum(axis=1)
    plain = [[(int(length), int(mask)) for mask, length in zip(m[keep], ln[keep]) if mask]
             for m, ln, keep in zip(masks, lengths, (lengths > 0) & ~edge)]
    # the edge rows of every h2, in order: their h2, row and stencil points
    eg, ek = np.nonzero(edge)
    elen = lengths[eg, ek]
    run = np.repeat(np.arange(eg.size), elen)
    rows = starts[eg, ek][run] + np.arange(run.size) - np.repeat(np.cumsum(elen) - elen, elen)
    group = eg[run]
    state = runs[eg, :, ek][run]
    w = state.astype(float)
    unknown = state < 0
    points = (lo[group] + (rows + 0.5) * res)[:, None] + np.arange(M + 1) * h2[group][:, None]
    values, inverse = _distinct(points[unknown])  # the h2 = 0 and 2^-k rows share one lattice
    w[unknown] = level_weight(field, j, values)[inverse]
    ends = np.searchsorted(group, np.arange(n.size + 1))
    weights = [np.ascontiguousarray(w[a:b].T) if b > a else None for a, b in zip(ends[:-1], ends[1:])]
    return plain, weights


def _step_integrals(field: AtomicField, j: int, p: float, M: int, steps, res: float) -> list[float]:
    """level_diff_lp_pow at each step h = (h1, h2) of steps, in one pass over
    level j's rows (_level_rows).  A run of rows without unknown weights
    contributes its length times T over the points of weight 1; the edge rows
    contribute their own integral against the stencil rows of H = 2^j h1."""
    half = 2.0 ** (1 - j)
    du = math.ldexp(res, j)
    out, grid = [], []
    for h1, h2 in steps:
        H = math.ldexp(h1, j)
        if abs(H) >= 4.0 or abs(h2) >= 1.0 + 2 * half:
            # translates of the support along h are pairwise disjoint
            out.append(_disjoint_factor(M, p) * level_lp_pow(field, j, p, res))
        else:
            out.append(None)
            grid.append((len(out) - 1, H, h2))
    if not grid:
        return out
    shared = {h2: g for g, h2 in enumerate(dict.fromkeys(h2 for _, _, h2 in grid))}
    plain, weights = _level_rows(field, j, M, list(shared), res)
    scale = abs(field.coef(j)) ** p
    for i, H, h2 in grid:
        g = shared[h2]
        total = math.fsum(length * _bump_diff_lp_pow(p, M, H, du, mask) for length, mask in plain[g])
        if weights[g] is not None:
            diff = weights[g].T @ _stencil_rows(M, H, du)
            np.abs(diff, out=diff)
            if p != 1.0:  # |x| ** 1.0 is |x|
                diff **= p
            total += float(np.sum(diff)) * du
        out[i] = scale * math.ldexp(total, -j) * res
    return out


@lru_cache(maxsize=4096)
def level_diff_lp_pow(field: AtomicField, j: int, p: float, M: int, h, res: float) -> float:
    """integral over R^2 of |Delta_h^M f_level|^p; h is a pair of floats.

    h and -h give the same integral up to rounding (module docstring).  On
    the flagship field's steps, levels 2-10 and t = 2^-k for k <= 10, the two
    differ by 1.1e-11 relative at worst (level 2, t = 2^-10, where small steps
    cancel in T) and by at most 1e-14 for t >= 2^-6.
    """
    return _step_integrals(field, j, p, M, [h], res)[0]


@lru_cache(maxsize=256)
def _field_steps(t: float) -> tuple[tuple[float, float], ...]:
    """The 8 steps of default_h_set(2, t) that stand for its 16.  Each radius
    lists its 8 directions by angle, so direction k + 4 mirrors k: the
    directions 0-3 of each radius stand for their pairs."""
    return tuple((float(h[0]), float(h[1])) for i, h in enumerate(default_h_set(2, t)) if i % 8 < 4)


@lru_cache(maxsize=4096)
def level_steps_lp_pow(field: AtomicField, j: int, p: float, M: int, ts: tuple[float, ...],
                       res: float) -> tuple[tuple[float, ...], ...]:
    """level_diff_lp_pow at the field_moduli steps of each t in ts, one tuple
    per t, from one pass over the level."""
    steps = [h for t in ts for h in _field_steps(t)]
    values = _step_integrals(field, j, p, M, steps, res)
    return tuple(tuple(values[k:k + 8]) for k in range(0, len(values), 8))


def field_lp(field: AtomicField) -> float:
    p = field.params.p
    total = math.fsum(
        level_lp_pow(lf, j, p, default_level_resolution(j))
        for lf, j in _level_fields(field)
    )
    return total ** (1.0 / p)


def _moduli(levels, p: float, n_t: int) -> list[float]:
    """At each t-level k < n_t, the max over steps s of (fsum over (weight,
    table) in levels of weight * table[k][s])^(1/p); 0.0 with no level."""
    weights = [wp for wp, _ in levels]
    moduli = []
    for k in range(n_t):
        best = 0.0
        for column in zip(*(table[k] for _, table in levels)):
            best = max(best, math.fsum(wp * v for wp, v in zip(weights, column)) ** (1.0 / p))
        moduli.append(best)
    return moduli


def _estimate(field: AtomicField, moduli, args: tuple, desc, q, j_max, h_samples) -> NormEstimate:
    """NormEstimate of the dyadic seminorm on level grids; moduli(field,
    *args, ts) gives the modulus at each t = 2^-k of ts, k = 0..j_max."""
    s, M = field.params.s, field.params.M
    if not M > s:
        raise ValueError(f"M > s required, got M={M}, s={s}")
    ts = tuple(2.0 ** (-k) for k in range(j_max + 1))
    value = _dyadic_seminorm(moduli(field, *args, ts), desc, s, q)
    finest = default_level_resolution(max(field.active_levels(), default=0))
    return NormEstimate(value=value, resolution=finest, t_levels=j_max + 1, h_samples=h_samples)


def field_moduli(field: AtomicField, ts) -> list[float]:
    """At each t of ts, the max over the 16 steps of default_h_set(2, t) of
    ||Delta_h^M f||_p, from the 8 steps that stand for them (_field_steps)."""
    p, M = field.params.p, field.params.M
    ts = tuple(ts)
    levels = [(1.0, level_steps_lp_pow(lf, j, p, M, ts, default_level_resolution(j)))
              for lf, j in _level_fields(field)]
    return _moduli(levels, p, len(ts))


def field_seminorm(field: AtomicField, j_max: int) -> NormEstimate:
    """Level-decomposed 2-D classical (Psi = 1) Besov seminorm, in
    field.params' s, p, q, M: the norm of B^s_{p,q}(R^2) that f belongs to."""
    return _estimate(field, field_moduli, (), constant(1.0), field.params.q, j_max, h_samples=16)


def field_besov_norm(field: AtomicField, j_max: int) -> NormEstimate:
    semi = field_seminorm(field, j_max)
    return replace(semi, value=semi.value + field_lp(field))


@lru_cache(maxsize=4096)
def pm_level_steps_lp_pow(field: AtomicField, j: int, p: float, M: int, ts: tuple[float, ...],
                          res: float) -> tuple[tuple[float, ...], ...]:
    """pm_level_diff_lp_pow at the pm_moduli steps t, 3t/4 and t/2 of each t
    in ts, one tuple per t.  Cached on the field cut at depth j, so every
    y-probe and every depth J >= j shares it."""
    return tuple(tuple(pm_level_diff_lp_pow(field, j, p, M, h, res) for h in default_h_set(1, t)[::2])
                 for t in ts)


def pm_moduli(field: AtomicField, y: float, ts) -> list[float]:
    """At each t of ts, the max over the 6 steps of default_h_set(1, t) of the
    partial map's difference norm at y: the steps t, 3t/4 and t/2 stand for
    their pairs, and level j weighs its table by |w_j(y)|^p."""
    p, M = field.params.p, field.params.M
    ts = tuple(ts)
    weights = level_weights(field, y)
    levels = [(abs(weights[j]) ** p, pm_level_steps_lp_pow(lf, j, p, M, ts, default_level_resolution(j)))
              for lf, j in _level_fields(field) if weights[j] != 0.0]
    return _moduli(levels, p, len(ts))


def pm_seminorm(field: AtomicField, y: float, desc: PsiDescriptor, j_max: int) -> NormEstimate:
    """1-D generalized seminorm of the partial map at y, q = inf, in field.params' s, p, M."""
    return _estimate(field, pm_moduli, (y,), desc, math.inf, j_max, h_samples=6)
