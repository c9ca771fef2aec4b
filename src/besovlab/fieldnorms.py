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
weight is neither.  It is cached on the field cut at depth j, so every depth
J >= j shares it.  Where the stencil translates are disjoint (|H| >= 4, or
|h2| past the x2 extent) a difference norm is a binomial multiple of the
level's L^p norm.

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


# The grid tier's depth cap keeps the value of the global-coordinate rounding
# bound C_M J 2^J eps <= GRID_ABS_TOL, an error the local kernel no longer has.
# What it still bounds is size: a 2-D level integral sorts the rows of its x2
# axis, M+2 arrays (the axis and its M+1 stencil columns) of up to about
# (M+1) * 2^(j+4) doubles, 50 MB at J = 15 for M = 2.
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


def _stencil_axis(lo: float, hi: float, M: int, h: float, res: float) -> np.ndarray:
    """Midpoint grid over [lo, hi] widened by the reach of the stencil along h."""
    lo, hi = lo - M * max(h, 0.0), hi - M * min(h, 0.0)
    ncells = max(1, int(math.ceil((hi - lo) / res - 1e-9)))
    return lo + (np.arange(ncells) + 0.5) * res


@lru_cache(maxsize=4096)
def _stencil_rows(M: int, H: float, du: float) -> np.ndarray:
    """The (M+1) x nu matrix of c_i X(u + i H) on the local x1 axis with
    spacing du, c_i the stencil weights of Delta^M."""
    u = _stencil_axis(-2.0, 2.0, M, H, du)
    rows = np.array([coef * _bump_factor(u + i * H) for i, coef in enumerate(_stencil_coeffs(M))])
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
    (states[0] = 0).  A point's plateau state is that of its cell, 0 outside
    the cells 2^j - 3 .. 2^(j+1) + 2; the cuts are cell edges, so counting
    them (searchsorted, side="right") reads the state exactly."""
    cell_x = np.ldexp(np.arange((1 << j) - 3, (2 << j) + 3, dtype=float), -j)
    state = level_plateau(field, j, cell_x)
    change = np.flatnonzero(state[1:] != state[:-1]) + 1
    cuts, states = cell_x[change], np.concatenate([state[:1], state[change]])
    cuts.flags.writeable = states.flags.writeable = False
    return cuts, states


def _plateau_state(field: AtomicField, j: int, x2: np.ndarray) -> np.ndarray:
    """level_plateau at x2, read off level j's cached cuts."""
    cuts, states = _plateau_cuts(field, j)
    return states[np.searchsorted(cuts, x2, side="right")]


@lru_cache(maxsize=4096)
def level_diff_lp_pow(field: AtomicField, j: int, p: float, M: int, h, res: float) -> float:
    """integral over R^2 of |Delta_h^M f_level|^p; h is a pair of floats.

    Row r of the level grid reads w_j at the stencil points x2_r + i h2.  Each
    stencil column is sorted, so cutting it where level_plateau changes from
    cell to cell splits the rows into runs on which every point's weight is
    1, 0 or unknown.  A run of rows whose weights are all 1 or 0 contributes
    its length times T over the points of weight 1.  Only the runs near the
    window's edges read w_j, at their points of unknown weight; their other
    points take 1.0 or 0.0, level_weight's value to within 1 eps.

    h and -h give the same integral up to rounding (module docstring).  On
    the flagship field's steps, levels 2-10 and t = 2^-k for k <= 10, the two
    differ by 1.1e-11 relative at worst (level 2, t = 2^-10, where small steps
    cancel in T) and by at most 1e-14 for t >= 2^-6.
    """
    H, h2 = math.ldexp(h[0], j), h[1]
    half = 2.0 ** (1 - j)
    if abs(H) >= 4.0 or abs(h2) >= 1.0 + 2 * half:
        # translates of the support along h are pairwise disjoint
        return _disjoint_factor(M, p) * level_lp_pow(field, j, p, res)
    du = math.ldexp(res, j)
    x2 = _stencil_axis(1.0 - half, 2.0 + half, M, h2, res)
    cols = x2 + np.arange(M + 1)[:, None] * h2  # cols[i, r] = x2_r + i h2
    cuts, _ = _plateau_cuts(field, j)
    # the distinct row indices, sorted: np.unique would give the same but loads numpy.ma
    edges = np.sort(np.concatenate([[0, x2.size], *(np.searchsorted(c, cuts) for c in cols)]))
    bounds = edges[np.diff(edges, prepend=-1) > 0]
    starts, lengths = bounds[:-1], np.diff(bounds)
    runs = _plateau_state(field, j, cols[:, starts])
    edge = (runs < 0).any(axis=0)
    masks = ((runs == 1) << np.arange(M + 1)[:, None]).sum(axis=0)
    total = math.fsum(
        int(n) * _bump_diff_lp_pow(p, M, H, du, int(mask))
        for mask, n in zip(masks[~edge], lengths[~edge]) if mask
    )
    state = np.repeat(runs[:, edge], lengths[edge], axis=1)  # of each edge-row stencil point
    w = state.astype(float)
    unknown = state < 0
    w[unknown] = level_weight(field, j, cols[:, np.repeat(edge, lengths)][unknown])
    total += float(np.sum(np.abs(w.T @ _stencil_rows(M, H, du)) ** p)) * du
    return abs(field.coef(j)) ** p * math.ldexp(total, -j) * res


def field_lp(field: AtomicField) -> float:
    p = field.params.p
    total = math.fsum(
        level_lp_pow(lf, j, p, default_level_resolution(j))
        for lf, j in _level_fields(field)
    )
    return total ** (1.0 / p)


def _max_over_steps(levels, steps, diff_lp_pow, p: float, M: int) -> float:
    """max over h in steps of (sum over (field, j, weight) in levels of
    weight * diff_lp_pow(field, j, p, M, h, level resolution))^(1/p)."""
    best = 0.0
    for h in steps:
        total = math.fsum(
            wp * diff_lp_pow(lf, j, p, M, h, default_level_resolution(j))
            for lf, j, wp in levels
        )
        best = max(best, total ** (1.0 / p))
    return best


def _estimate(field: AtomicField, omega, desc, q, j_max, h_samples):
    """NormEstimate of the dyadic seminorm of modulus omega, on level grids."""
    s, M = field.params.s, field.params.M
    if not M > s:
        raise ValueError(f"M > s required, got M={M}, s={s}")
    value = _dyadic_seminorm(omega, desc, s, q, j_max)
    finest = default_level_resolution(max(field.active_levels(), default=0))
    return NormEstimate(value=value, resolution=finest, t_levels=j_max + 1, h_samples=h_samples)


def field_modulus(field: AtomicField, t: float) -> float:
    """max over the 16 steps of default_h_set(2, t).  Each radius lists its 8
    directions by angle, so direction k + 4 mirrors k: the directions 0-3 of
    each radius stand for their pairs."""
    levels = [(lf, j, 1.0) for lf, j in _level_fields(field)]
    steps = [(float(h[0]), float(h[1])) for i, h in enumerate(default_h_set(2, t)) if i % 8 < 4]
    return _max_over_steps(levels, steps, level_diff_lp_pow, field.params.p, field.params.M)


def field_seminorm(field: AtomicField, j_max: int) -> NormEstimate:
    """Level-decomposed 2-D classical (Psi = 1) Besov seminorm, in
    field.params' s, p, q, M: the norm of B^s_{p,q}(R^2) that f belongs to."""
    omega = lambda t: field_modulus(field, t)
    return _estimate(field, omega, constant(1.0), field.params.q, j_max, h_samples=16)


def field_besov_norm(field: AtomicField, j_max: int) -> NormEstimate:
    semi = field_seminorm(field, j_max)
    return replace(semi, value=semi.value + field_lp(field))


def pm_modulus(field: AtomicField, y: float):
    """t -> max over the 6 steps of default_h_set(1, t) of the partial map's
    difference norm at y; the steps t, 3t/4 and t/2 stand for their pairs."""
    p, M = field.params.p, field.params.M
    levels = [(field, j, abs(w) ** p) for j, w in level_weights(field, y).items() if w != 0.0]
    return lambda t: _max_over_steps(levels, default_h_set(1, t)[::2], pm_level_diff_lp_pow, p, M)


def pm_seminorm(field: AtomicField, y: float, desc: PsiDescriptor, j_max: int) -> NormEstimate:
    """1-D generalized seminorm of the partial map at y, q = inf, in field.params' s, p, M."""
    omega = pm_modulus(field, y)
    return _estimate(field, omega, desc, math.inf, j_max, h_samples=6)
