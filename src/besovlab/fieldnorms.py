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
from functools import lru_cache

import numpy as np

from .atoms import AtomicField, level_box, level_weight, level_x1_profile, partial_map
from .norms import LN2, NormEstimate, default_h_set
from .slowly_varying import PsiDescriptor, psi_dyadic


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


def _axis_grid(lo: float, hi: float, res: float) -> np.ndarray:
    ncells = max(1, int(math.ceil((hi - lo) / res - 1e-9)))
    return lo + (np.arange(ncells) + 0.5) * res


def _level_fields(field: AtomicField) -> list[tuple[AtomicField, int]]:
    """(field cut at depth j, j) for each active level j.

    A level's integrals read only blocks.levels[j] and params, so keying the
    caches on the field cut at the level's own depth lets every depth J >= j
    share one entry per (level, step, resolution).
    """
    return [(AtomicField(field.params, field.blocks, j), j) for j in field.active_levels()]


@lru_cache(maxsize=4096)
def level_lp_pow(field: AtomicField, j: int, p: float, res: float) -> float:
    """integral over the level-j box of |f_level|^p, via separable quadrature."""
    box = level_box(field, j)
    g1 = _axis_grid(box.lo[0], box.hi[0], res)
    g2 = _axis_grid(box.lo[1], box.hi[1], res)
    u1 = level_x1_profile(field, j, g1)
    u2 = level_weight(field, j, g2)
    return float(np.sum(np.abs(u1) ** p)) * res * float(np.sum(np.abs(u2) ** p)) * res


@lru_cache(maxsize=4096)
def pm_level_lp_pow(field: AtomicField, j: int, p: float, res: float) -> float:
    """integral over R of |level_x1_profile|^p.

    The level's partial map at y is this profile times level_weight(field, j,
    y), so its integral is |w_j(y)|^p times this y-free one.
    """
    box = level_box(field, j)
    g1 = _axis_grid(box.lo[0], box.hi[0], res)
    vals = level_x1_profile(field, j, g1)
    return float(np.sum(np.abs(vals) ** p)) * res


def _stencil_coeffs(M: int) -> list[float]:
    return [((-1.0) ** (M - i)) * math.comb(M, i) for i in range(M + 1)]


def _disjoint_factor(M: int, p: float) -> float:
    return math.fsum(math.comb(M, i) ** p for i in range(M + 1))


@lru_cache(maxsize=4096)
def level_diff_lp_pow(field: AtomicField, j: int, p: float, M: int, h, res: float) -> float:
    """integral over R^2 of |Delta_h^M f_level|^p; h is a pair of floats."""
    box = level_box(field, j)
    h1, h2 = float(h[0]), float(h[1])
    w1 = box.hi[0] - box.lo[0]
    w2 = box.hi[1] - box.lo[1]
    if abs(h1) >= w1 or abs(h2) >= w2:
        # translates of the box along h are pairwise disjoint: each stencil
        # point contributes its binomial weight times |f|^p, nothing overlaps
        return _disjoint_factor(M, p) * level_lp_pow(field, j, p, res)
    lo1 = box.lo[0] - M * max(h1, 0.0)
    hi1 = box.hi[0] - M * min(h1, 0.0)
    lo2 = box.lo[1] - M * max(h2, 0.0)
    hi2 = box.hi[1] - M * min(h2, 0.0)
    g1 = _axis_grid(lo1, hi1, res)
    g2 = _axis_grid(lo2, hi2, res)
    coeffs = _stencil_coeffs(M)
    acc = np.zeros((g1.size, g2.size))
    for i, coef in enumerate(coeffs):
        u1 = level_x1_profile(field, j, g1 + i * h1)
        u2 = level_weight(field, j, g2 + i * h2)
        acc += coef * np.outer(u1, u2)
    return float(np.sum(np.abs(acc) ** p)) * res * res


@lru_cache(maxsize=4096)
def pm_level_diff_lp_pow(field: AtomicField, j: int, p: float, M: int, h: float, res: float) -> float:
    """integral over R of |Delta_h^M level_x1_profile|^p.

    Times |w_j(y)|^p it is level j's share of ||Delta_h^M f(., y)||_p^p.
    """
    box = level_box(field, j)
    w1 = box.hi[0] - box.lo[0]
    if abs(h) >= w1:
        return _disjoint_factor(M, p) * pm_level_lp_pow(field, j, p, res)
    lo1 = box.lo[0] - M * max(h, 0.0)
    hi1 = box.hi[0] - M * min(h, 0.0)
    g1 = _axis_grid(lo1, hi1, res)
    acc = np.zeros_like(g1)
    for i, coef in enumerate(_stencil_coeffs(M)):
        acc += coef * level_x1_profile(field, j, g1 + i * h)
    return float(np.sum(np.abs(acc) ** p)) * res


def field_lp(field: AtomicField, p: float, res_scale: float = 1.0) -> float:
    total = math.fsum(
        level_lp_pow(lf, j, p, default_level_resolution(j, res_scale))
        for lf, j in _level_fields(field)
    )
    return total ** (1.0 / p)


def field_modulus(field: AtomicField, p: float, M: int, t: float, res_scale: float = 1.0) -> float:
    levels = _level_fields(field)
    best = 0.0
    for h in default_h_set(2, t):
        step = (float(h[0]), float(h[1]))
        total = math.fsum(
            level_diff_lp_pow(lf, j, p, M, step, default_level_resolution(j, res_scale))
            for lf, j in levels
        )
        best = max(best, total ** (1.0 / p))
    return best


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
    if not M > s:
        raise ValueError(f"M > s required, got M={M}, s={s}")
    terms = []
    for jt in range(j_max + 1):
        t = 2.0 ** (-jt)
        omega = field_modulus(field, p, M, t, res_scale)
        terms.append((2.0 ** (jt * s)) * psi_dyadic(desc, jt) * omega)
    if math.isinf(q):
        value = max(terms)
    else:
        value = (math.fsum(term**q for term in terms) * LN2) ** (1.0 / q)
    finest = default_level_resolution(max(field.active_levels(), default=0), res_scale)
    return NormEstimate(value=value, resolution=finest, t_levels=j_max + 1, h_samples=16)


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
    lp = field_lp(field, p, res_scale)
    return NormEstimate(semi.value + lp, semi.resolution, semi.t_levels, semi.h_samples)


def pm_modulus(
    field: AtomicField, weights: dict[int, float], p: float, M: int, t: float,
    res_scale: float = 1.0,
) -> float:
    """Sampled modulus of the partial map whose level weights at y are
    `weights` (atoms.partial_map(field, y).level_weights)."""
    levels = [
        (lf, j, abs(weights[j]) ** p) for lf, j in _level_fields(field) if weights[j] != 0.0
    ]
    best = 0.0
    for h in default_h_set(1, t):
        total = math.fsum(
            wp * pm_level_diff_lp_pow(lf, j, p, M, h, default_level_resolution(j, res_scale))
            for lf, j, wp in levels
        )
        best = max(best, total ** (1.0 / p))
    return best


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
    if not M > s:
        raise ValueError(f"M > s required, got M={M}, s={s}")
    weights = partial_map(field, y).level_weights
    terms = []
    for jt in range(j_max + 1):
        t = 2.0 ** (-jt)
        omega = pm_modulus(field, weights, p, M, t, res_scale)
        terms.append((2.0 ** (jt * s)) * psi_dyadic(desc, jt) * omega)
    if math.isinf(q):
        value = max(terms)
    else:
        value = (math.fsum(term**q for term in terms) * LN2) ** (1.0 / q)
    finest = default_level_resolution(max(field.active_levels(), default=0), res_scale)
    return NormEstimate(value=value, resolution=finest, t_levels=j_max + 1, h_samples=6)
