"""Smooth bump atoms and synthesis of the truncated counterexample field.

Atoms at level j are scaled, translated copies of a compactly supported bump
psi (a product of normalized 1-D bumps psi0); level-j atoms live near
x_1 = C_M * j with C_M = 2(M+2), so distinct levels have disjoint supports in
the first coordinate.

The field lives in the plane (N = 2, d = 1).  Every level is built from one
kernel: the reference factor X(u) = (1/2) psi0(u/2) in the level's local
coordinate u = 2^j x_1 - C_M 2^j j, times the coefficient
c_j = lambda_j 2^(-j(s - N/p)), formed in log space so that deep levels
neither overflow nor underflow, times the level weight w_j(x_2).  eval_f is
the one evaluator; the partial map f(., y) is eval_f at a fixed y, and
level_weights gives its weights w_j(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import N, Params
from .sequences import BlockLevel, BlockSequence

# exp(-x) is exactly 0.0 in IEEE double past x ~ 745; clamping at 708 (the
# overflow threshold of exp) keeps supports exact and avoids subnormals
_EXP_CLAMP = 708.0


def bump_u(t):
    """e^(-1/t^2) for t > 0, exactly 0 otherwise (and when it would underflow)."""
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr)
    with np.errstate(divide="ignore", over="ignore"):  # t = 0 or tiny: arg = inf, masked off
        arg = 1.0 / t_arr**2
    mask = (arg <= _EXP_CLAMP) & (t_arr > 0)
    out[mask] = np.exp(-arg[mask])
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


def _cells(j: int, xN: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell floor(2^j xN) and offset 2^j xN - cell of each point, exactly.

    Every cell's bump lies in (-1, 4); a point outside is moved to -4, which
    keeps the integer cast finite and lies in no cell of T_j.  Past level 60
    the cells need Python integers; 2^60 xN is already an integer (offset 0)
    for every xN >= 2^-7, and smaller xN lie in no cell of T_j.
    """
    scaled = np.ldexp(np.where(np.abs(xN) < 4.0, xN, -4.0), min(j, 60))
    base = np.floor(scaled)
    offset = scaled - base
    base = base.astype(np.int64)
    if j > 60:
        base = base.astype(object) << (j - 60)
    return base, offset


def _on_cells(lvl: BlockLevel, k: np.ndarray) -> np.ndarray:
    """Whether each cell k is in T_j and in level lvl's on-window.  The window
    offset (k - 2^j - start) mod 2^j is (k - start) & (2^j - 1); _cells keeps
    |k| <= 2^62 + 2, so k - start cannot wrap in int64."""
    size = 1 << lvl.j
    return (k >= size) & (k < 2 * size) & (((k - lvl.start) & (size - 1)) < lvl.n)


_DELTAS = np.arange(-1, 3)[:, None]  # cells floor(2^j xN) - 1 .. + 2


def level_weight(field: AtomicField, j: int, xN) -> np.ndarray:
    """Sum over on-cells k of (1/2) psi0((2^j xN - k)/2) at last coordinate xN.

    One psi0 call on the on-entries of the 4 x n cell stencil; the rows are
    added in cell order, and an off-cell's 0.0 leaves a sum of terms >= 0
    bitwise unchanged.  The result keeps the input's shape and memory layout.
    """
    xN_arr = np.atleast_1d(np.asarray(xN, dtype=float))
    lvl = field.blocks.levels[j]
    out = np.zeros_like(xN_arr)
    if not lvl.active:
        return out
    base, offset = _cells(j, xN_arr.reshape(-1))
    on = _on_cells(lvl, base + _DELTAS)
    rows = np.zeros(on.shape)
    rows[on] = 0.5 * psi0((offset - _DELTAS)[on] / 2.0)
    out[...] = (rows[0] + rows[1] + rows[2] + rows[3]).reshape(xN_arr.shape)
    return out


def level_plateau(field: AtomicField, j: int, xN) -> np.ndarray:
    """Where level_weight is known from the cells alone, without psi0: 1 where
    all four cells floor(2^j xN) - 1 .. + 2 are on-cells (the bumps are a
    partition of unity), 0 where none is (w_j = 0 exactly), -1 elsewhere."""
    xN_arr = np.atleast_1d(np.asarray(xN, dtype=float))
    lvl = field.blocks.levels[j]
    if not lvl.active:
        return np.zeros(xN_arr.shape, dtype=np.int8)
    base, _ = _cells(j, xN_arr.reshape(-1))
    count = _on_cells(lvl, base + _DELTAS).sum(axis=0).reshape(xN_arr.shape)
    return np.where(count == 4, 1, np.where(count == 0, 0, -1)).astype(np.int8)


def _bump_factor(u) -> np.ndarray:
    """Every level's reference factor X(u) = (1/2) psi0(u/2), supported in (-2, 2)."""
    return 0.5 * np.asarray(psi0(np.asarray(u, dtype=float) / 2.0))


def _x1_factor(field: AtomicField, j: int, x1) -> np.ndarray:
    """X at the local coordinate u = 2^j (x1 - C_M j).  u is exact wherever
    |u| < 2: x1 - C_M j is exact there (Sterbenz) and scaling by 2^j is exact."""
    with np.errstate(over="ignore"):  # |u| = inf far from deep levels: X = 0
        return _bump_factor(np.ldexp(np.asarray(x1, dtype=float) - field.C_M * j, j))


def level_x1_profile(field: AtomicField, j: int, x1) -> np.ndarray:
    """c_j X(u) at the first coordinates x1: level j of f(x1, y) over w_j(y)."""
    return field.coef(j) * _x1_factor(field, j, np.atleast_1d(x1))


def eval_f(field: AtomicField, x) -> np.ndarray:
    """Pointwise value of f_J at points of shape (n, 2) (or a single point):
    level_x1_profile(x1) * level_weight(x2) of the one level j that can reach
    the point, 0.0 at a point no level reaches.

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
    cand = np.rint(x1 / field.C_M)
    cand = np.fmin(np.fmax(cand, 0, out=cand), field.J, out=cand).astype(int)
    on = np.flatnonzero(np.abs(x1 - field.C_M * cand) <= np.ldexp(1.0, 1 - np.arange(field.J + 1))[cand])
    cand = cand[on]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(cand, minlength=field.J + 1))])
    on = on[np.argsort(cand, kind="stable")]  # grouped by level, in point order
    del cand  # the level loop below holds only the groups
    for j in field.active_levels():
        idx = on[bounds[j]:bounds[j + 1]]
        if idx.size:
            out[idx] = level_x1_profile(field, j, x1[idx]) * level_weight(field, j, pts[idx, 1])
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


@lru_cache(maxsize=4096)
def _level_weight_at(field: AtomicField, j: int, y: float) -> float:
    """level_weight at the single point y.  It reads only level j, so it is
    keyed on the field cut at depth j and shared by every depth J >= j."""
    return float(level_weight(field, j, np.array([y]))[0])


def level_weights(field: AtomicField, y: float) -> dict[int, float]:
    """{j: w_j(y)} over the active levels: the partial map f(., y) is the sum
    over j of level_x1_profile(field, j, .) * w_j(y)."""
    return {
        j: _level_weight_at(AtomicField(field.params, field.blocks, j), j, y)
        for j in field.active_levels()
    }
