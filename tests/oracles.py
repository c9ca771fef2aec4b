"""Slow reference implementations that the tests compare besovlab's fast paths
against; the program never calls them."""

import functools
import json
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from besovlab import atoms, fieldnorms, norms
from besovlab.atoms import AtomicField, _bump_factor, bump_u, eval_f, level_plateau, level_weight, level_weights, psi0
from besovlab.norms import NormEstimate, _dyadic_seminorm, _stencil_coeffs, default_h_set
from besovlab.reporting import LEVEL_COLUMNS, _blocks_from_json, write_csv
from besovlab.sequences import BlockLevel, BlockSequence, _diagnostic_term, build_S, level_table
from besovlab.slowly_varying import CONSTANT, TABULATED, PsiDescriptor, _log_psi_from_ell, _table_lookup, psi_dyadic, psi_dyadic_log

_DENSE_J_CAP = 22  # dense materialization is a test oracle, never a data path


# The generic grid estimator on unions of boxes: finite differences, midpoint
# L^p quadrature, moduli and the seminorm of any function.  The levelwise
# estimators of fieldnorms are checked against it.


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def ndim(self) -> int:
        return len(self.lo)

    def inflate(self, amount: float) -> "Box":
        return Box(tuple(a - amount for a in self.lo), tuple(b + amount for b in self.hi))


@dataclass(frozen=True)
class BoxDomain:
    """Finite union of axis-aligned boxes with a uniform grid resolution.

    support: whether the function measured on the domain vanishes off the
    boxes.  modulus then evaluates Delta_h^M f only at the grid cells whose
    M + 1 stencil points meet a box: at every other cell it is exactly 0.
    """

    boxes: tuple[Box, ...]
    resolution: float
    support: bool = False

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")

    @property
    def ndim(self) -> int:
        return self.boxes[0].ndim if self.boxes else 0

    def inflate(self, amount: float) -> "BoxDomain":
        # a function that vanishes off the boxes vanishes off larger ones
        return replace(self, boxes=tuple(b.inflate(amount) for b in self.boxes))


def finite_diff(f, M: int, h, x) -> np.ndarray:
    """M-th forward difference with step h at points x.

    x has shape (n, N) for N >= 2 or (n,) in one dimension; f must accept the
    same shape.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    x_arr = np.asarray(x, dtype=float)
    h_arr = np.asarray(h, dtype=float)
    out = None
    for i, coef in enumerate(_stencil_coeffs(M)):
        term = coef * np.asarray(f(x_arr + i * h_arr))
        out = term if out is None else out + term
    return out


def _box_grid(box: Box, resolution: float) -> list[np.ndarray]:
    axes = []
    for lo, hi in zip(box.lo, box.hi):
        ncells = max(1, int(math.ceil((hi - lo) / resolution - 1e-9)))
        axes.append(lo + (np.arange(ncells) + 0.5) * resolution)
    return axes


def _stencil_cells(axes: list[np.ndarray], M: int, h, boxes) -> np.ndarray:
    """The cells of the grid `axes` (a flat boolean mask) with one of the
    M + 1 stencil points x + i h, i = 0..M, in a closed box of `boxes`.  The
    points are formed as finite_diff forms them, and each (shift, box) marks
    one index rectangle, from one np.searchsorted per axis."""
    mask = np.zeros([axis.size for axis in axes], dtype=bool)
    steps = np.broadcast_to(np.asarray(h, dtype=float), (len(axes),))
    for i in range(M + 1):
        shifted = [axis + i * step for axis, step in zip(axes, steps)]
        for box in boxes:
            mask[tuple(
                slice(np.searchsorted(x, lo, side="left"), np.searchsorted(x, hi, side="right"))
                for x, lo, hi in zip(shifted, box.lo, box.hi)
            )] = True
    return mask.ravel()


def _box_lp_pow(f, p: float, box: Box, resolution: float, keep=None) -> float:
    """integral over box of |f|^p by the midpoint rule, as a float.  keep, if
    given, maps the grid's axes to the cells where f may be nonzero: f is
    evaluated there only, and every other cell counts as 0 in the same sum."""
    axes = _box_grid(box, resolution)
    ndim = len(axes)
    if ndim == 1:
        pts = axes[0]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if keep is None:
        vals = np.asarray(f(pts))
    else:
        cells = keep(axes)
        vals = np.zeros(cells.size)
        if cells.any():
            vals[cells] = f(pts[cells])
    cell = resolution**ndim
    return float(np.sum(np.abs(vals) ** p)) * cell


def lp_quasinorm(f, p: float, domain: BoxDomain, keep=None) -> float:
    """(sum over midpoint grid cells |f(center)|^p * cell volume)^(1/p)."""
    if not (0 < p and math.isfinite(p)):
        raise ValueError(f"p must be positive and finite, got {p}")
    if not domain.boxes:
        return 0.0
    total = math.fsum(_box_lp_pow(f, p, b, domain.resolution, keep) for b in domain.boxes)
    return total ** (1.0 / p)


def modulus(f, M: int, p: float, t: float, domain: BoxDomain) -> float:
    """max over h in default_h_set of ||Delta_h^M f||_Lp over the domain
    inflated by M*t.

    A lower bound for the true sup over |h| <= t, converging as the step
    sample refines.
    """
    if not 0 < t <= 1:
        raise ValueError(f"t must lie in (0,1], got {t}")
    inflated = domain.inflate(M * t)
    best = 0.0
    for h in default_h_set(domain.ndim, t):
        keep = (lambda axes: _stencil_cells(axes, M, h, domain.boxes)) if domain.support else None
        val = lp_quasinorm(lambda x: finite_diff(f, M, h, x), p, inflated, keep)
        best = max(best, val)
    return best


def seminorm(
    f,
    desc: PsiDescriptor,
    s: float,
    p: float,
    q: float,
    M: int,
    domain: BoxDomain,
    j_max: int,
) -> NormEstimate:
    """Grid estimate of the generalized Besov seminorm, t_j = 2^-j for
    j = 0..j_max.  With Psi == 1 this is exactly the classical seminorm."""
    if not M > s:
        raise ValueError(f"M > s required, got M={M}, s={s}")
    value = _dyadic_seminorm(lambda t: modulus(f, M, p, t, domain), desc, s, q, j_max)
    h_samples = len(default_h_set(domain.ndim, 1.0))
    return NormEstimate(value, domain.resolution, t_levels=j_max + 1, h_samples=h_samples)


def besov_norm(
    f,
    desc: PsiDescriptor,
    s: float,
    p: float,
    q: float,
    M: int,
    domain: BoxDomain,
    j_max: int,
) -> NormEstimate:
    """L^p quasi-norm plus the generalized seminorm, metadata merged."""
    semi = seminorm(f, desc, s, p, q, M, domain, j_max)
    return replace(semi, value=lp_quasinorm(f, p, domain) + semi.value)


def psi_eval(desc: PsiDescriptor, t: float) -> float:
    """Value of Psi at t in (0,1]."""
    if not 0 < t <= 1:
        raise ValueError(f"t must lie in (0,1], got {t}")
    if desc.family == TABULATED:
        j = round(-math.log2(t))
        if j < 0 or 2.0 ** (-j) != t:
            raise ValueError(f"tabulated family defined only at dyadic t, got {t}")
        return _table_lookup(desc, j)
    if desc.family == CONSTANT:
        return desc.c
    return math.exp(_log_psi_from_ell(desc, -math.log(t)))


def bump_v(t):
    """u(1+t) * u(1-t); even, supported exactly in (-1,1)."""
    t_arr = np.asarray(t, dtype=float)
    out = bump_u(1.0 + t_arr) * bump_u(1.0 - t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def level_box(field: AtomicField, j: int) -> Box:
    """Support box of level j (N = 2): x1 near C_M j, x2 covering [1,2]."""
    half = 2.0 ** (1 - j)
    return Box(
        (field.C_M * j - half, 1.0 - half),
        (field.C_M * j + half, 2.0 + half),
    )


def support_boxes(field: AtomicField, inflate: float = 0.0, resolution: float | None = None) -> BoxDomain:
    """Union of per-level support boxes, optionally inflated for difference
    stencils.  Boxes are pairwise disjoint in x1 for every inflation < C_M - 1."""
    boxes = tuple(level_box(field, j).inflate(inflate) for j in field.active_levels())
    if resolution is None:
        resolution = 2.0 ** (-(field.J + 3))
    return BoxDomain(boxes, resolution, support=True)


def partial_map(field: AtomicField, y: float):
    """x1 -> f(x1, y) on 1-D arrays x1, through eval_f, with the weights
    w_j(y) of atoms.level_weights as .level_weights."""

    def g(x1):
        x1 = np.asarray(x1, dtype=float)
        return eval_f(field, np.column_stack([x1, np.full_like(x1, y)]))

    g.level_weights = level_weights(field, y)
    return g


def per_delta_level_weight(field, j, xN):
    """level_weight one stencil cell at a time, one psi0 call per cell, with
    the cell offset taken mod 2^j.  Test oracle for the fused kernel."""
    xN_arr = np.atleast_1d(np.asarray(xN, dtype=float))
    lvl = field.blocks.levels[j]
    out = np.zeros_like(xN_arr)
    if lvl.n == 0 or lvl.theta <= 0.0:
        return out
    base, offset = atoms._cells(j, xN_arr)
    size = 1 << j
    for delta in (-1, 0, 1, 2):
        k = base + delta
        on = (k >= size) & (k < 2 * size)
        on[on] = ((k[on] - size - lvl.start) % size) < lvl.n
        out[on] += 0.5 * np.asarray(psi0((offset[on] - delta) / 2.0))
    return out


@functools.lru_cache(maxsize=2)
def _full_grid(field, j, M, h, res):
    """Delta_h^M of level j over c_j on the full 2-D level grid: every x2 row
    reads w_j at all its stencil points."""
    H, h2 = math.ldexp(h[0], j), h[1]
    half = 2.0 ** (1 - j)
    u = fieldnorms._stencil_axis(-2.0, 2.0, M, H, math.ldexp(res, j))
    x2 = fieldnorms._stencil_axis(1.0 - half, 2.0 + half, M, h2, res)
    acc = np.zeros((u.size, x2.size))
    for i, coef in enumerate(norms._stencil_coeffs(M)):
        acc += coef * np.multiply.outer(_bump_factor(u + i * H), level_weight(field, j, x2 + i * h2))
    return acc


def full_grid_diff_lp_pow(field, j, p, M, h, res):
    """level_diff_lp_pow on the full 2-D level grid.  Test oracle for the
    plateau reduction."""
    half = 2.0 ** (1 - j)
    if abs(math.ldexp(h[0], j)) >= 4.0 or abs(h[1]) >= 1.0 + 2 * half:
        return fieldnorms._disjoint_factor(M, p) * full_grid_diff_lp_pow(field, j, p, 0, (0.0, 0.0), res)
    acc = _full_grid(field, j, M, h, res)
    return abs(field.coef(j)) ** p * float(np.sum(np.abs(acc) ** p)) * res * res


def plateau_state(field, j, x2):
    """level_plateau at x2, read off level j's cached cuts (searchsorted,
    side="right").  Test oracle for the cuts."""
    cuts, states = fieldnorms._plateau_cuts(field, j)
    return states[np.searchsorted(cuts, x2, side="right")]


def full_scan_plateau_cuts(field, j):
    """fieldnorms._plateau_cuts from level_plateau on every cell 2^j - 3 ..
    2^(j+1) + 2 of level j.  Test oracle for the cuts read near the edges."""
    cell_x = np.ldexp(np.arange((1 << j) - 3, (2 << j) + 3, dtype=float), -j)
    state = level_plateau(field, j, cell_x)
    change = np.flatnonzero(state[1:] != state[:-1]) + 1
    return cell_x[change], np.concatenate([state[:1], state[change]])


def per_step_diff_lp_pow(field, j, p, M, h, res):
    """level_diff_lp_pow one step at a time, on the built x2 axis: its
    stencil columns are cut with np.searchsorted, the run states read with
    plateau_state, and each step makes its own level_weight call.  Test
    oracle for the one-pass level integrals, which must equal it bitwise."""
    H, h2 = math.ldexp(h[0], j), h[1]
    half = 2.0 ** (1 - j)
    if abs(H) >= 4.0 or abs(h2) >= 1.0 + 2 * half:
        return fieldnorms._disjoint_factor(M, p) * per_step_diff_lp_pow(field, j, p, 0, (0.0, 0.0), res)
    du = math.ldexp(res, j)
    x2 = fieldnorms._stencil_axis(1.0 - half, 2.0 + half, M, h2, res)
    cols = x2 + np.arange(M + 1)[:, None] * h2  # cols[i, r] = x2_r + i h2
    cuts, _ = fieldnorms._plateau_cuts(field, j)
    edges = np.sort(np.concatenate([[0, x2.size], *(np.searchsorted(c, cuts) for c in cols)]))
    bounds = edges[np.diff(edges, prepend=-1) > 0]
    starts, lengths = bounds[:-1], np.diff(bounds)
    runs = plateau_state(field, j, cols[:, starts])
    edge = (runs < 0).any(axis=0)
    masks = ((runs == 1) << np.arange(M + 1)[:, None]).sum(axis=0)
    total = math.fsum(
        int(n) * fieldnorms._bump_diff_lp_pow(p, M, H, du, int(mask))
        for mask, n in zip(masks[~edge], lengths[~edge]) if mask
    )
    state = np.repeat(runs[:, edge], lengths[edge], axis=1)  # of each edge-row stencil point
    w = state.astype(float)
    unknown = state < 0
    w[unknown] = level_weight(field, j, cols[:, np.repeat(edge, lengths)][unknown])
    total += float(np.sum(np.abs(w.T @ fieldnorms._stencil_rows(M, H, du)) ** p)) * du
    return abs(field.coef(j)) ** p * math.ldexp(total, -j) * res


def per_row_stencil_rows(M, H, du):
    """fieldnorms._stencil_rows one psi0 call per stencil point.  Test oracle
    for its one call on all of them."""
    u = fieldnorms._stencil_axis(-2.0, 2.0, M, H, du)
    return np.array([coef * _bump_factor(u + i * H) for i, coef in enumerate(_stencil_coeffs(M))])


def all_steps_field_modulus(field, t):
    """field_moduli at t with every one of the 16 steps of default_h_set(2, t)
    computed.  Test oracle for the mirrored steps."""
    levels = [(lf, j, 1.0) for lf, j in fieldnorms._level_fields(field)]
    steps = [(float(h[0]), float(h[1])) for h in norms.default_h_set(2, t)]
    p, M = field.params.p, field.params.M
    return fieldnorms._max_over_steps(levels, steps, fieldnorms.level_diff_lp_pow, p, M)


def all_steps_pm_modulus(field, y, t):
    """pm_modulus(field, y)(t) with every one of the 6 steps of
    default_h_set(1, t) computed.  Test oracle for the mirrored steps."""
    p, M = field.params.p, field.params.M
    levels = [(field, j, abs(w) ** p) for j, w in level_weights(field, y).items() if w != 0.0]
    steps = norms.default_h_set(1, t)
    return fieldnorms._max_over_steps(levels, steps, fieldnorms.pm_level_diff_lp_pow, p, M)


def lemma_le_partial(u, m: float, n: int) -> float:
    """Partial sum over j = 1..n of u_j / (u_1 + ... + u_j)^m.

    `u` is an array-like of at least n positive terms (u_1 first) or a
    callable j -> u_j for 1-based j.  m <= 1 is accepted: the divergent
    regime is exactly what the experiments exhibit.
    """
    return float(lemma_le_partials(u, m, n)[-1])


def lemma_le_partials(u, m: float, n: int) -> np.ndarray:
    """Running partial sums (length n) of the series of lemma_le_partial."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if callable(u):
        terms = np.array([u(j) for j in range(1, n + 1)], dtype=float)
    else:
        terms = np.asarray(u, dtype=float)[:n]
        if terms.size < n:
            raise ValueError(f"need {n} terms, got {terms.size}")
    if not np.all(terms > 0):
        raise ValueError("sequence terms must all be positive")
    U = np.cumsum(terms)
    return np.cumsum(terms / U**m)


def total_window_weight(blocks: BlockSequence, J: int | None = None) -> Fraction:
    """W_J = sum_{j<=J} n_j 2^-j, exact."""
    if J is None:
        J = blocks.J
    return sum((Fraction(lvl.n, 1 << lvl.j) for lvl in blocks.levels[: J + 1]), Fraction(0))


def fraction_cursor_rearrange(blocks):
    """The rearrangement by its rational cursor: start_j = floor(c 2^j), then
    c <- frac((start_j + n_j) / 2^j).  Test oracle for rearrange."""
    c = Fraction(0)
    levels = []
    for lvl in blocks.levels:
        size = 1 << lvl.j
        start = math.floor(c * size)
        levels.append(BlockLevel(lvl.j, lvl.theta, lvl.n, start))
        c = Fraction(start + lvl.n, size) % 1
    return BlockSequence(J=blocks.J, levels=tuple(levels), rearranged=True, cursor=c)


def materialize(blocks: BlockSequence, J: int | None = None) -> np.ndarray:
    """Dense array of values at indices 0 .. 2^(J+1)-1."""
    if J is None:
        J = blocks.J
    if J > _DENSE_J_CAP:
        raise ValueError(f"dense materialization capped at J={_DENSE_J_CAP}")
    out = np.zeros(1 << (J + 1))
    for j in range(J + 1):
        lvl = blocks.levels[j]
        size = 1 << j
        for r in range(lvl.n):
            out[size + (lvl.start + r) % size] = lvl.theta
    return out


def blocks_to_json(blocks: BlockSequence) -> str:
    """blocks.json through the json encoder, without its final newline: each
    level object holds the BlockLevel fields.  Byte oracle for
    reporting.write_blocks."""
    return json.dumps({
        "J": blocks.J,
        "rearranged": blocks.rearranged,
        "cursor": [blocks.cursor.numerator, blocks.cursor.denominator],
        "levels": [lvl._asdict() for lvl in blocks.levels],
    }, indent=2)


def blocks_from_json(text: str) -> BlockSequence:
    """The BlockSequence of a whole blocks.json text, through json.loads and
    read_blocks' checks of each value.  Test oracle for read_blocks, which
    turns each level object into its BlockLevel as the decoder closes it."""
    return _blocks_from_json(json.loads(text))


def level_rows(table) -> list[tuple[float, ...]]:
    """(S_j, Gamma_j1, block_average, mixed_norm_partial) of a LevelTable, level by level."""
    return list(zip(table.S, table.gamma, table.average, table.partial))


def write_level_csv(path, blocks: BlockSequence, desc: PsiDescriptor, params) -> None:
    """seq.csv through reporting.write_csv.  Byte oracle for reporting.write_blocks."""
    derived = ("S_j", "Gamma_j1", "block_average", "mixed_norm_partial")
    write_csv(path, list(LEVEL_COLUMNS), (
        {"j": lvl.j, "n_j": lvl.n, "theta_j": lvl.theta, "start_j": lvl.start, **dict(zip(derived, row))}
        for lvl, row in zip(blocks.levels, level_rows(level_table(blocks, desc, params)))))


def field_eval_text(field: AtomicField, pts: np.ndarray) -> str:
    """field-eval's output from one eval_f call on every point.  Byte oracle
    for the chunked command."""
    values = eval_f(field, pts) if pts.size else np.zeros(0)
    return "x1,x2,f\n" + "".join(
        f"{a!r},{b!r},{v!r}\n" for a, b, v in zip(pts[:, 0].tolist(), pts[:, 1].tolist(), values.tolist()))


# The exact tier with n_j and start_j held as j-bit integers: O(J^2) memory
# and big-integer work.  Oracles for sequences' (mantissa, shift) levels.

JbitLevel = namedtuple("JbitLevel", "j theta n start")


def exact_floor_count(g: float, j: int) -> int:
    """floor(2^j g) clamped to [0, 2^j], exact: g = num / den, den a power of 2."""
    num, den = g.as_integer_ratio()
    return min(max((num << j) // den, 0), 1 << j)


def jbit_blocks(desc: PsiDescriptor, params, J: int) -> list[JbitLevel]:
    """build_lambda_blocks' levels, unrearranged, with j-bit counts."""
    kap = params.kappa
    S = build_S(desc, kap, J)
    levels = [JbitLevel(0, 0.0, 0, 0), JbitLevel(1, 0.0, 0, 0)]
    for j in range(2, J + 1):
        log_psi = psi_dyadic_log(desc, j)
        theta = math.exp(params.L * math.log(S[j - 1]) - params.p * log_psi)
        g = math.exp(kap * log_psi - math.log(S[j - 1]))
        levels.append(JbitLevel(j, theta, exact_floor_count(g, j), 0))
    return levels


def window_prefix(levels) -> list[int]:
    """A_j = W_j 2^j for each level j, exact: A_j = 2 A_{j-1} + n_j, A_{-1} = 0."""
    A, prefix = 0, []
    for lvl in levels:
        A = (A << 1) + lvl.n
        prefix.append(A)
    return prefix


def jbit_rearrange(levels) -> tuple[list[JbitLevel], Fraction]:
    """(levels, cursor) of rearrange: start_j = (2 A_{j-1}) mod 2^j and the
    cursor (A_J mod 2^J) / 2^J, with A the window prefix."""
    moved, prev = [], 0
    for lvl, A in zip(levels, window_prefix(levels)):
        moved.append(lvl._replace(start=(prev << 1) % (1 << lvl.j)))
        prev = A
    size = 1 << levels[-1].j
    return moved, Fraction(prev % size, size)


def jbit_level_table(levels, desc: PsiDescriptor, params) -> list[tuple[float, ...]]:
    """level_table's rows, each Gamma_j1 exp(kappa ln Psi(2^-j) - ln S_j),
    each block average n_j / 2^j * theta_j an int true division and each
    mixed-norm partial a math.fsum over the prefix."""
    kappa, p, q = params.kappa, params.p, params.q
    S = build_S(desc, kappa, len(levels) - 1)
    rows, powers, best = [], [], 0.0
    for lvl in levels:
        j = lvl.j
        average = lvl.n / (1 << j) * lvl.theta
        if math.isinf(q):
            best = max(best, average ** (1.0 / p))
            partial = best
        else:
            powers.append(average ** (q / p))
            partial = math.fsum(powers) ** (1.0 / q)
        S_j = float(S[j - 1]) if j >= 1 else 0.0
        gamma_j = math.exp(kappa * psi_dyadic_log(desc, j) - math.log(S_j)) if j >= 1 else 0.0
        rows.append((S_j, gamma_j, average, partial))
    return rows


def jbit_covering_profile(levels, desc: PsiDescriptor, p: float, probes, depths) -> list[list[tuple[float, int]]]:
    """covering_profile by bisect on the j-bit window prefix A_j, every
    comparison scaled by den(x) 2^J."""
    J = min(max(depths), len(levels) - 1)
    prefix = window_prefix(levels[: J + 1])
    profiles = []
    for x in probes:
        xf = Fraction(x)
        den = xf.denominator
        target, j, terms = (xf.numerator - den) << J, 0, []
        while (j := bisect_right(range(J + 1), target, lo=j, key=lambda i: (prefix[i] * den) << (J - i))) <= J:
            if levels[j].theta > 0.0:
                terms.append((j, _diagnostic_term(levels[j], desc, p)))
            target += den << J
            j += 1
        profiles.append([
            (max((t for j, t in terms if j <= depth), default=0.0), sum(1 for j, _ in terms if j <= depth))
            for depth in depths
        ])
    return profiles
