"""Smooth bump atoms and synthesis of the truncated counterexample field.

Atoms at level j are scaled, translated copies of a compactly supported bump
psi (a product of normalized 1-D bumps psi0); level-j atoms live near
x_1 = C_M * j with C_M = 2(M+2), so distinct levels have disjoint supports in
the first coordinate.

The field lives in the plane (N = 2, d = 1).  Every level is built from one
kernel: the reference factor X(u) = (1/2) psi0(u/2) in the level's local
coordinate u = 2^j x_1 - C_M 2^j j, times the coefficient
c_j = lambda_j 2^(-j(s - N/p)), formed in log space so that deep levels
neither overflow nor underflow, times the level weight w_j(x_2).
level_x1_profile and level_weight take j as an int or as an array, a level
per point, read off per-level arrays the field builds once.  eval_f, the one
evaluator, makes one call of each on all its points; the partial map f(., y)
is eval_f at a fixed y, and level_weights gives its weights w_j(y) from one
level_weight call on every active level.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import N, Params
from .sequences import BlockSequence

# exp(-x) is exactly 0.0 in IEEE double past x ~ 745; clamping at 708 (the
# overflow threshold of exp) keeps supports exact and avoids subnormals
_EXP_CLAMP = 708.0


def bump_u(t):
    """e^(-1/t^2) for t > 0, exactly 0 otherwise (and when it would underflow)."""
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):  # t = 0 or tiny: arg = -inf, masked off
        arg = -1.0 / t_arr**2
    out = np.zeros_like(t_arr)
    np.exp(arg, out=out, where=(arg >= -_EXP_CLAMP) & (t_arr > 0))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def psi0(t):
    """Normalized bump v(t) / (v(t-1) + v(t) + v(t+1)).

    Supported in (-1,1); integer translates sum to 1 wherever the shared
    denominator is positive.  Returns 0 whenever v(t) = 0 (support
    convention), even where the denominator vanishes.

    Evaluated on the support only.  There one of v(t -+ 1) is 0 and the other
    is u(1 - m) u(1 + m) with m = 1 - |t|, the arguments the formula rounds
    to, so the result is bitwise that of the formula.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr)
    on = np.abs(t_arr) < 1.0
    ts = t_arr[on]
    m = 1.0 - np.abs(ts)
    u = bump_u(np.stack([1.0 + ts, 1.0 - ts, 1.0 - m, 1.0 + m]))
    num = u[0] * u[1]
    out[on] = num / (u[2] * u[3] + num)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def psi_nd(x):
    """Product bump prod_i (1/2) psi0(x_i / 2) over the last axis.

    Supported in (-2,2)^N; value 2^-N at the origin.
    """
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    vals = 0.5 * np.asarray(psi0(x_arr / 2.0))
    out = np.prod(vals, axis=-1)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def atom_offset(params: Params, j: int, k: int) -> tuple[int, int]:
    """Lattice offset m_{j,k} = (C_M 2^j j, k)."""
    if j < 0 or k < 0:
        raise ValueError("j and k must be nonnegative")
    return (2 * (params.M + 2) * (1 << j) * j, k)


@dataclass(frozen=True)
class AtomicField:
    """Truncated counterexample function f_J as a sum of bump atoms.

    Atom (j,k) contributes lambda_{j,k} * 2^(-j(s - N/p)) * psi(2^j x - m_{j,k});
    lambda is read from the rearranged block sequence, never densified.
    """

    params: Params
    blocks: BlockSequence
    J: int

    def __post_init__(self):
        if not self.blocks.rearranged:
            raise ValueError("AtomicField requires a rearranged BlockSequence")
        if self.J > self.blocks.J:
            raise ValueError(f"J={self.J} exceeds block depth {self.blocks.J}")

    @property
    def C_M(self) -> int:
        return 2 * (self.params.M + 2)

    def coef(self, j: int) -> float:
        """c_j = lambda_j 2^(-j(s - N/p)), with lambda_j = (theta_j 2^-j)^(1/p)
        the common value of lambda_{j,k} on the on-cells of level j."""
        lvl = self.blocks.levels[j]
        if not lvl.active:
            return 0.0
        p = self.params
        log2_c = (math.log2(lvl.theta) - j) / p.p - j * (p.s - N / p.p)
        return 2.0**log2_c

    def active_levels(self) -> list[int]:
        return [j for j in range(self.J + 1) if self.blocks.levels[j].active]

    @cached_property
    def _coefs(self) -> np.ndarray:
        """coef of levels 0..J, indexed by j, and inf where coef overflows a
        double: level_x1_profile raises its OverflowError only at a level it reads."""
        coefs = np.full(self.J + 1, math.inf)
        for j in range(self.J + 1):
            with suppress(OverflowError):
                coefs[j] = self.coef(j)
        return coefs

    @cached_property
    def _windows(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, n) of levels 0..J as Python integers, indexed by j; n is 0 on an inactive level."""
        levels = self.blocks.levels[:self.J + 1]
        return tuple(np.array([(lvl.start, lvl.n if lvl.active else 0) for lvl in levels], dtype=object).T)

    @cached_property
    def _windows_int64(self) -> tuple[np.ndarray, np.ndarray]:
        """_windows of levels 0..60, where the cells are int64, as int64."""
        return tuple(w[:61].astype(np.int64) for w in self._windows)


def _cells(j, xN: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell floor(2^j xN) and offset 2^j xN - cell of each point at level j
    (an int, or an integer array like xN), exactly.

    Every cell's bump lies in (-1, 4); a point outside is moved to -4, which
    keeps the integer cast finite and lies in no cell of T_j.  Past level 60
    the cells need Python integers; 2^60 xN is already an integer (offset 0)
    for every xN >= 2^-7, and smaller xN lie in no cell of T_j.
    """
    scaled = np.ldexp(np.where(np.abs(xN) < 4.0, xN, -4.0), np.minimum(j, 60))
    base = np.floor(scaled)
    offset = scaled - base
    base = base.astype(np.int64)
    past = np.maximum(np.subtract(j, 60), 0)
    if past.any():
        base = base.astype(object) << past
    return base, offset


def _on_cells(field: AtomicField, j, k: np.ndarray) -> np.ndarray:
    """Whether each cell k is in T_j and in level j's on-window, j an int or an
    integer array like k.  The window offset (k - 2^j - start) mod 2^j is
    (k - start) & (2^j - 1); _cells keeps |k| <= 2^62 + 2, so no int64 wraps."""
    start, n = field._windows if k.dtype == object else field._windows_int64
    size = np.ones_like(k, shape=np.shape(j)) << j
    return (k >= size) & (k < 2 * size) & (((k - start[j]) & (size - 1)) < n[j])


def level_weight(field: AtomicField, j, xN) -> np.ndarray:
    """Sum over on-cells k of (1/2) psi0((2^j xN - k)/2) at last coordinate xN
    and level j, an int or an integer array that broadcasts against xN.

    One psi0 call per stencil row, on its on-cells, added in cell order: an
    off-cell's 0.0 would leave the sum of terms >= 0 bitwise unchanged.  The
    result has the broadcast shape, and for an int j the input's memory layout.
    """
    xN_arr = np.atleast_1d(np.asarray(xN, dtype=float))
    out = np.zeros_like(xN_arr, shape=np.broadcast_shapes(xN_arr.shape, np.shape(j)))
    if np.ndim(j):
        j = np.broadcast_to(j, out.shape).reshape(-1)
    base, offset = _cells(j, np.broadcast_to(xN_arr, out.shape).reshape(-1))
    w = np.zeros(offset.shape)
    for d in range(-1, 3):  # cells floor(2^j xN) - 1 .. + 2
        on = _on_cells(field, j, base + d)
        w[on] += 0.5 * psi0((offset[on] - d) / 2.0)
    out[...] = w.reshape(out.shape)
    return out


def level_plateau(field: AtomicField, j: int, xN) -> np.ndarray:
    """Where level_weight is known from the cells alone, without psi0: 1 where
    all four cells floor(2^j xN) - 1 .. + 2 are on-cells (the bumps are a
    partition of unity), 0 where none is (w_j = 0 exactly), -1 elsewhere."""
    xN_arr = np.atleast_1d(np.asarray(xN, dtype=float))
    cells = _cells(j, xN_arr.reshape(-1))[0] + np.arange(-1, 3)[:, None]  # floor(2^j xN) - 1 .. + 2
    count = _on_cells(field, j, cells).sum(axis=0).reshape(xN_arr.shape)
    return np.where(count == 4, 1, np.where(count == 0, 0, -1)).astype(np.int8)


def _bump_factor(u) -> np.ndarray:
    """Every level's reference factor X(u) = (1/2) psi0(u/2), supported in (-2, 2)."""
    return 0.5 * np.asarray(psi0(np.asarray(u, dtype=float) / 2.0))


def _x1_factor(field: AtomicField, j, x1) -> np.ndarray:
    """X at the local coordinate u = 2^j (x1 - C_M j).  u is exact wherever
    |u| < 2: x1 - C_M j is exact there (Sterbenz) and scaling by 2^j is exact."""
    with np.errstate(over="ignore"):  # |u| = inf far from deep levels: X = 0
        return _bump_factor(np.ldexp(np.asarray(x1, dtype=float) - field.C_M * j, j))


def level_x1_profile(field: AtomicField, j, x1) -> np.ndarray:
    """c_j X(u) at first coordinates x1 and levels j: level j of f(x1, y) over w_j(y)."""
    coef = field._coefs[j]
    if np.isinf(coef).any():  # coef raises its OverflowError at the first such level
        field.coef(int(np.ravel(j)[np.flatnonzero(np.isinf(coef))[0]]))
    return coef * _x1_factor(field, j, np.atleast_1d(x1))


def eval_f(field: AtomicField, x) -> np.ndarray:
    """Pointwise value of f_J at points of shape (n, 2) (or a single point):
    level_x1_profile(x1) * level_weight(x2) at the one level j that can reach
    each point, one call each on all of them, and 0.0 where no level reaches.

    Level-j atoms satisfy |x1 - C_M j| <= 2^(1-j), and C_M >= 6 separates
    levels: a point whose nearest C_M j lies past 0 or J is more than 2 from
    both ends, and fmax/fmin move NaN to level 0, where the test fails.  The
    value equals the dense sum over all (j, k) exactly, since every skipped
    atom vanishes at the point.
    """
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    pts = np.atleast_2d(x_arr)
    if pts.shape[1] != N:
        raise ValueError(f"points must have {N} coordinates")
    x1 = pts[:, 0]
    out = np.zeros(x1.shape)
    j = np.rint(x1 / field.C_M)
    j = np.fmin(np.fmax(j, 0, out=j), field.J, out=j).astype(int)
    on = np.flatnonzero(np.abs(x1 - field.C_M * j) <= np.ldexp(1.0, 1 - j))
    j = j[on]
    out[on] = level_x1_profile(field, j, x1[on]) * level_weight(field, j, pts[on, 1])
    return float(out[0]) if single else out


def eval_f_dense(field: AtomicField, x) -> np.ndarray:
    """Brute-force sum over every atom (j <= J, k in T_j).  Test oracle."""
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    pts = np.atleast_2d(x_arr)
    out = np.zeros(pts.shape[0])
    for j in field.active_levels():
        size = 1 << j
        coef = field.coef(j)
        for k in range(size, 2 * size):
            if not field.blocks.is_on(j, k):
                continue
            m = atom_offset(field.params, j, k)
            arg = (2.0**j) * pts - np.asarray(m, dtype=float)
            out += coef * np.asarray(psi_nd(arg))
    return float(out[0]) if single else out


def level_weights(field: AtomicField, y: float) -> dict[int, float]:
    """{j: w_j(y)} over the active levels, from one level_weight call: the
    partial map f(., y) is the sum over j of level_x1_profile(field, j, .) * w_j(y)."""
    levels = np.array(field.active_levels(), dtype=int)
    return dict(zip(levels.tolist(), level_weight(field, levels, np.full(levels.shape, y)).tolist()))
