"""Fast norm estimation for atomic fields, exploiting their structure.

Per level, the field is a separable product of one-dimensional profiles and
distinct levels have disjoint supports (even after inflating by the stencil
reach M*t, since C_M = 2(M+2) separates the level centers by more than twice
the inflated half-width).  Difference norms therefore decompose exactly into
per-level contributions, each computed on a grid matched to that level's atom
scale.

When the stencil translates of a level's box are pairwise disjoint (step
larger than the box extent along some axis), the difference norm collapses to
a closed form in the level's L^p norm; otherwise a bounding-rectangle midpoint
grid is used.  The two branches are exhaustive.

Each level integral is computed once per (level, step, resolution) and
cached.  It reads only level j, so it is keyed on the field cut at depth j and
shared by every depth J >= j.  A partial map factors per level as
f_level(x1, y) = w_j(y) * level_x1_profile(j, x1), so its integrals are
y-free and pm_modulus weights them by |w_j(y)|^p.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import lru_cache, reduce

import numpy as np

from .atoms import AtomicField, Box, level_box, level_weight, level_x1_profile, partial_map
from .norms import NormEstimate, _box_grid, _dyadic_seminorm, _stencil_coeffs, default_h_set
from .slowly_varying import PsiDescriptor


# level_x1_profile forms 2^j x1 - C_M 2^j j.  A grid point x1 near C_M j
# carries a rounding error of up to one ulp, C_M j 2^-52, which the factor 2^j
# magnifies in the level's local coordinate.  Grid-tier depths stop where that
# error would pass GRID_ABS_TOL.
GRID_ABS_TOL = 1e-9


def grid_depth_cap(M: int) -> int:
    """Deepest level J whose local coordinate keeps GRID_ABS_TOL absolute
    accuracy in double precision, for C_M = 2(M+2): J = 15 for M = 2."""
    C_M = 2 * (M + 2)
    J = 0
    while C_M * (J + 1) * 2.0 ** (J + 1) * sys.float_info.epsilon <= GRID_ABS_TOL:
        J += 1
    return J


def default_level_resolution(j: int, scale: float = 1.0) -> float:
    """Grid spacing for a level-j box: 16 cells per atom half-width."""
    return scale * 2.0 ** (-(j + 4))


def _level_fields(field: AtomicField) -> list[tuple[AtomicField, int]]:
    """(field cut at depth j, j) for each active level j.

    A level's integrals read only blocks.levels[j] and params, so keying the
    caches on the field cut at the level's own depth lets every depth J >= j
    share one entry per (level, step, resolution).
    """
    return [(AtomicField(field.params, field.blocks, j), j) for j in field.active_levels()]


def _disjoint_factor(M: int, p: float) -> float:
    return math.fsum(math.comb(M, i) ** p for i in range(M + 1))


def _stencil_lp_pow(field: AtomicField, j: int, p: float, M: int, h: tuple, res: float) -> float:
    """integral over R^n of |Delta_h^M f_level|^p, n = len(h) in {1, 2}.

    Axis 0 is level_x1_profile, axis 1 level_weight, so n = 1 is the partial
    map's y-free profile.  M = 0 is the plain integral, a product of 1-D sums.
    """
    box = level_box(field, j)
    n = len(h)
    profiles = (level_x1_profile, level_weight)[:n]
    if any(abs(h_i) >= hi - lo for h_i, lo, hi in zip(h, box.lo, box.hi)):
        # translates of the box along h are pairwise disjoint: each stencil
        # point contributes its binomial weight times |f|^p, nothing overlaps
        lp_pow = level_lp_pow if n == 2 else pm_level_lp_pow
        return _disjoint_factor(M, p) * lp_pow(field, j, p, res)
    grids = _box_grid(Box(
        tuple(lo - M * max(h_i, 0.0) for h_i, lo in zip(h, box.lo)),
        tuple(hi - M * min(h_i, 0.0) for h_i, hi in zip(h, box.hi)),
    ), res)
    if M == 0:
        out = 1.0
        for prof, g in zip(profiles, grids):
            out = out * float(np.sum(np.abs(prof(field, j, g)) ** p)) * res
        return out
    acc = np.zeros(tuple(g.size for g in grids))
    for i, coef in enumerate(_stencil_coeffs(M)):
        us = [prof(field, j, g + i * h_i) for prof, g, h_i in zip(profiles, grids, h)]
        acc += coef * reduce(np.multiply.outer, us)
    out = float(np.sum(np.abs(acc) ** p))
    for _ in grids:
        out *= res
    return out


@lru_cache(maxsize=4096)
def level_lp_pow(field: AtomicField, j: int, p: float, res: float) -> float:
    """integral over the level-j box of |f_level|^p."""
    return _stencil_lp_pow(field, j, p, 0, (0.0, 0.0), res)


@lru_cache(maxsize=4096)
def pm_level_lp_pow(field: AtomicField, j: int, p: float, res: float) -> float:
    """integral over R of |level_x1_profile|^p; times |w_j(y)|^p it is the
    level's share of the partial map's integral at y."""
    return _stencil_lp_pow(field, j, p, 0, (0.0,), res)


@lru_cache(maxsize=4096)
def level_diff_lp_pow(field: AtomicField, j: int, p: float, M: int, h, res: float) -> float:
    """integral over R^2 of |Delta_h^M f_level|^p; h is a pair of floats."""
    return _stencil_lp_pow(field, j, p, M, h, res)


@lru_cache(maxsize=4096)
def pm_level_diff_lp_pow(field: AtomicField, j: int, p: float, M: int, h: float, res: float) -> float:
    """integral over R of |Delta_h^M level_x1_profile|^p; times |w_j(y)|^p
    it is level j's share of ||Delta_h^M f(., y)||_p^p."""
    return _stencil_lp_pow(field, j, p, M, (h,), res)


def field_lp(field: AtomicField, p: float, res_scale: float = 1.0) -> float:
    total = math.fsum(
        level_lp_pow(lf, j, p, default_level_resolution(j, res_scale))
        for lf, j in _level_fields(field)
    )
    return total ** (1.0 / p)


def _max_over_steps(levels, steps, diff_lp_pow, p: float, M: int, res_scale: float) -> float:
    """max over h in steps of (sum over (field cut, j, weight) in levels of
    weight * diff_lp_pow(field cut, j, p, M, h, level resolution))^(1/p)."""
    best = 0.0
    for h in steps:
        total = math.fsum(
            wp * diff_lp_pow(lf, j, p, M, h, default_level_resolution(j, res_scale))
            for lf, j, wp in levels
        )
        best = max(best, total ** (1.0 / p))
    return best


def _estimate(field: AtomicField, omega, desc, s, q, M, j_max, res_scale, h_samples):
    """NormEstimate of the dyadic seminorm of modulus omega, on level grids."""
    if not M > s:
        raise ValueError(f"M > s required, got M={M}, s={s}")
    value = _dyadic_seminorm(omega, desc, s, q, j_max)
    finest = default_level_resolution(max(field.active_levels(), default=0), res_scale)
    return NormEstimate(value=value, resolution=finest, t_levels=j_max + 1, h_samples=h_samples)


def field_modulus(field: AtomicField, p: float, M: int, t: float, res_scale: float = 1.0) -> float:
    levels = [(lf, j, 1.0) for lf, j in _level_fields(field)]
    steps = [(float(h[0]), float(h[1])) for h in default_h_set(2, t)]
    return _max_over_steps(levels, steps, level_diff_lp_pow, p, M, res_scale)


def field_seminorm(
    field: AtomicField,
    desc: PsiDescriptor,
    s: float,
    p: float,
    q: float,
    M: int,
    j_max: int,
    res_scale: float = 1.0,
) -> NormEstimate:
    """Level-decomposed estimate of the 2-D generalized Besov seminorm."""
    omega = lambda t: field_modulus(field, p, M, t, res_scale)
    return _estimate(field, omega, desc, s, q, M, j_max, res_scale, h_samples=16)


def field_besov_norm(
    field: AtomicField,
    desc: PsiDescriptor,
    s: float,
    p: float,
    q: float,
    M: int,
    j_max: int,
    res_scale: float = 1.0,
) -> NormEstimate:
    semi = field_seminorm(field, desc, s, p, q, M, j_max, res_scale)
    return replace(semi, value=semi.value + field_lp(field, p, res_scale))


def pm_modulus(
    field: AtomicField, weights: dict[int, float], p: float, M: int, t: float,
    res_scale: float = 1.0,
) -> float:
    """Sampled modulus of the partial map whose level weights at y are
    `weights` (atoms.partial_map(field, y).level_weights)."""
    levels = [
        (lf, j, abs(weights[j]) ** p) for lf, j in _level_fields(field) if weights[j] != 0.0
    ]
    return _max_over_steps(levels, default_h_set(1, t), pm_level_diff_lp_pow, p, M, res_scale)


def pm_seminorm(
    field: AtomicField,
    y: float,
    desc: PsiDescriptor,
    s: float,
    p: float,
    M: int,
    j_max: int,
    q: float = math.inf,
    res_scale: float = 1.0,
) -> NormEstimate:
    """Estimate of the 1-D generalized seminorm of the partial map at y."""
    weights = partial_map(field, y).level_weights
    omega = lambda t: pm_modulus(field, weights, p, M, t, res_scale)
    return _estimate(field, omega, desc, s, q, M, j_max, res_scale, h_samples=6)
