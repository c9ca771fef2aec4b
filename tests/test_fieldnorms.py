import math
from dataclasses import replace

import numpy as np
import pytest

from besovlab import fieldnorms, norms, sequences
from besovlab.atoms import (
    AtomicField,
    eval_f,
    level_plateau,
    level_weight,
    psi0,
)
from besovlab.fieldnorms import (
    default_level_resolution,
    field_besov_norm,
    field_lp,
    field_moduli,
    field_seminorm,
    grid_depth_cap,
    level_diff_lp_pow,
    level_lp_pow,
    pm_level_diff_lp_pow,
    pm_modulus,
    pm_seminorm,
)
from besovlab.experiments import x_probe_points
from besovlab.slowly_varying import constant, log_power
from oracles import (
    Box,
    BoxDomain,
    all_steps_field_modulus,
    all_steps_pm_modulus,
    full_grid_diff_lp_pow,
    full_scan_plateau_cuts,
    level_box,
    modulus,
    partial_map,
    per_row_stencil_rows,
    per_step_diff_lp_pow,
    plateau_state,
    seminorm,
    support_boxes,
)


@pytest.fixture(scope="module")
def small_field(flagship_params, psi_one):
    blocks = sequences.rearrange(
        sequences.build_lambda_blocks(psi_one, flagship_params, 4)
    )
    return AtomicField(flagship_params, blocks, 4)


@pytest.fixture(scope="module")
def field_j10(flagship_params, psi_one):
    blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, 10))
    return AtomicField(flagship_params, blocks, 10)


class TestLevelQuadrature:
    def test_level_lp_matches_generic_grid(self, small_field):
        res = 2.0**-9
        p = 1.0
        for j in small_field.active_levels():
            fast = level_lp_pow(small_field, j, p, res)
            # generic 2-D midpoint integration of |f| over the same box
            b = level_box(small_field, j)
            g1 = np.arange(b.lo[0] + res / 2, b.hi[0], res)
            g2 = np.arange(b.lo[1] + res / 2, b.hi[1], res)
            X, Y = np.meshgrid(g1, g2, indexing="ij")
            pts = np.column_stack([X.ravel(), Y.ravel()])
            vals = eval_f(small_field, pts)
            generic = np.sum(np.abs(vals) ** p) * res * res
            assert fast == pytest.approx(generic, rel=1e-6)

    def test_disjoint_branch_matches_wide_grid(self, small_field):
        # a step wider than the box makes translates disjoint; the closed
        # form must agree with brute-force integration over the union
        p, M, res = 1.0, 2, 2.0**-9
        j = small_field.active_levels()[0]
        b = level_box(small_field, j)
        w1 = b.hi[0] - b.lo[0]
        h = (2.0 * w1, 0.0)
        closed = level_diff_lp_pow(small_field, j, p, M, h, res)
        lo1, hi1 = b.lo[0] - M * 2.0 * w1, b.hi[0]
        g1 = np.arange(lo1 + res / 2, hi1 + res, res)
        g2 = np.arange(b.lo[1] + res / 2, b.hi[1], res)
        X, Y = np.meshgrid(g1, g2, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        acc = np.zeros(pts.shape[0])
        for i in range(M + 1):
            shifted = pts.copy()
            shifted[:, 0] += i * h[0]
            acc += ((-1.0) ** (M - i)) * math.comb(M, i) * eval_f(small_field, shifted)
        brute = np.sum(np.abs(acc) ** p) * res * res
        assert closed == pytest.approx(brute, rel=1e-6)

    def test_overlapping_branch_matches_finite_diff(self, small_field):
        p, M, res = 1.0, 2, 2.0**-9
        j = small_field.active_levels()[0]
        h = (2.0**-5, 2.0**-6)
        fast = level_diff_lp_pow(small_field, j, p, M, h, res)
        b = level_box(small_field, j)
        lo1, hi1 = b.lo[0] - M * h[0], b.hi[0]
        lo2, hi2 = b.lo[1] - M * h[1], b.hi[1]
        g1 = np.arange(lo1 + res / 2, hi1 + res, res)
        g2 = np.arange(lo2 + res / 2, hi2 + res, res)
        X, Y = np.meshgrid(g1, g2, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        acc = np.zeros(pts.shape[0])
        for i in range(M + 1):
            shifted = pts.copy()
            shifted[:, 0] += i * h[0]
            shifted[:, 1] += i * h[1]
            acc += ((-1.0) ** (M - i)) * math.comb(M, i) * eval_f(small_field, shifted)
        brute = np.sum(np.abs(acc) ** p) * res * res
        assert fast == pytest.approx(brute, rel=1e-6)


class TestAgainstGenericPath:
    def test_seminorm_bridges_to_generic_estimator(self, small_field, flagship_params):
        """The levelwise fast path and the generic grid estimator measure the
        same functional; at matched resolution they must agree closely."""
        params = flagship_params
        res = 2.0**-8
        # force every level to the same resolution as the generic path
        fast_uniform_terms = []
        for jt in range(5):
            t = 2.0 ** (-jt)
            best = 0.0
            for h in norms.default_h_set(2, t):
                total = math.fsum(
                    level_diff_lp_pow(small_field, j, params.p, params.M, tuple(h), res)
                    for j in small_field.active_levels()
                )
                best = max(best, total ** (1.0 / params.p))
            fast_uniform_terms.append((2.0 ** (jt * params.s)) * best)
        fast_uniform = (math.fsum(x**params.q for x in fast_uniform_terms) * norms.LN2) ** (1.0 / params.q)

        domain = support_boxes(small_field, resolution=res)
        generic = seminorm(
            lambda x: eval_f(small_field, x), constant(1.0), params.s, params.p,
            params.q, params.M, domain, j_max=4,
        )
        assert fast_uniform == pytest.approx(generic.value, rel=5e-3)

    def test_pm_seminorm_bridges_to_generic(self, small_field, flagship_params):
        params = flagship_params
        y = 1.51
        res = 2.0**-9
        g = partial_map(small_field, y)
        boxes = tuple(
            Box((level_box(small_field, j).lo[0],), (level_box(small_field, j).hi[0],))
            for j in small_field.active_levels()
        )
        domain = BoxDomain(boxes, res)
        generic = seminorm(
            g, constant(1.0), params.s, params.p, math.inf, params.M, domain, j_max=4
        )
        fast_terms = []
        for jt in range(5):
            t = 2.0 ** (-jt)
            best = 0.0
            for h in norms.default_h_set(1, t):
                total = math.fsum(
                    abs(g.level_weights[j]) ** params.p
                    * pm_level_diff_lp_pow(small_field, j, params.p, params.M, h, res)
                    for j in small_field.active_levels()
                )
                best = max(best, total ** (1.0 / params.p))
            fast_terms.append((2.0 ** (jt * params.s)) * best)
        assert max(fast_terms) == pytest.approx(generic.value, rel=5e-3)


    def test_support_mask_is_bitwise_the_full_grid(self, flagship_params, psi_one):
        """On a support domain the generic estimator evaluates Delta_h^M f
        only at cells whose stencil meets a support box.  Each modulus, of
        the field and of a partial map, equals the full grid's bitwise, from
        fewer evaluated points."""
        J, M, p = 3, flagship_params.M, flagship_params.p
        field = AtomicField(flagship_params, sequences.rearrange(
            sequences.build_lambda_blocks(psi_one, flagship_params, J)), J)
        x1_boxes = tuple(Box((level_box(field, j).lo[0],), (level_box(field, j).hi[0],))
                         for j in field.active_levels())

        def moduli(f, domain):
            """The moduli at t = 2^0..2^-4, and how many points f was given."""
            sizes = []

            def counted(x):
                sizes.append(len(x))
                return f(x)

            return [modulus(counted, M, p, 2.0**-jt, domain) for jt in range(5)], sum(sizes)

        for f, domain in ((lambda x: eval_f(field, x), support_boxes(field, resolution=2.0**-6)),
                          (partial_map(field, 1.51), BoxDomain(x1_boxes, 2.0**-6, support=True))):
            masked, masked_points = moduli(f, domain)
            full, full_points = moduli(f, replace(domain, support=False))
            assert masked == full
            assert 0 < masked_points < full_points


class TestTopLevel:
    def test_field_lp_positive(self, small_field):
        assert field_lp(small_field) > 0.0

    def test_modulus_vanishes_with_t_like_smooth_function(self, small_field):
        # the field is C^inf, so omega_2(t) -> 0 as t -> 0
        big, small = field_moduli(small_field, (2.0**-1, 2.0**-8))
        assert small < big

    def test_besov_norm_exceeds_seminorm(self, small_field):
        semi = field_seminorm(small_field, j_max=4)
        full = field_besov_norm(small_field, j_max=4)
        assert full.value > semi.value

    def test_pm_seminorm_requires_M_above_s(self, small_field):
        params = replace(small_field.params, s=2.5)  # M = 2 <= s
        field = AtomicField(params, small_field.blocks, small_field.J)
        with pytest.raises(ValueError):
            pm_seminorm(field, 1.5, constant(1.0), j_max=3)


# (j, start, n) of a field whose only level is j
PLATEAU_WINDOWS = {
    "wrapped": (4, 13, 6),
    "full": (4, 0, 16),
    "one-cell": (4, 6, 1),
    "two-cells": (4, 6, 2),
    "three-cells": (4, 6, 3),
    "at-first-cell": (4, 0, 5),
    "at-last-cell": (4, 10, 6),
    "level-2-wrapped": (2, 3, 2),
    "level-2-full": (2, 0, 4),
    "level-2-three-cells": (2, 1, 3),
}


def test_cut_states_equal_level_plateau(field_j10, window_field):
    """The state read off the cached cuts is level_plateau's at every cell
    edge, one ulp either side and far away, for levels 2-10 of the flagship
    field and for wrapped windows, on 1-D and 2-D input."""
    cases = [(field_j10, j) for j in field_j10.active_levels()]
    for window in ("wrapped", "level-2-wrapped"):
        j, start, n = PLATEAU_WINDOWS[window]
        cases.append((window_field(j, start, n), j))
    far = np.array([-np.inf, -1e300, -4.0, -1.0, 0.0, 0.5, 3.0, 4.0, 7.5, 1e300, np.inf])
    seen = set()
    for field, j in cases:
        edges = np.ldexp(np.arange((1 << j) - 8, (2 << j) + 9, dtype=float), -j)
        x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), far])
        expected = level_plateau(field, j, x)
        assert np.array_equal(plateau_state(field, j, x), expected)
        rows = x[: 3 * edges.size].reshape(3, -1)  # 2-D, as the per-step oracle passes its columns
        assert np.array_equal(plateau_state(field, j, rows), level_plateau(field, j, rows))
        seen.update(expected.tolist())
    assert seen == {-1, 0, 1}


def test_plateau_cuts_equal_full_scan(flagship_params, psi_one, window_field, monkeypatch):
    """The cuts and states read near the edges of T_j and of the on-window
    equal the scan over every cell, bitwise: each level 0-12 of a J = 12
    field, the hand-made windows and level 20; level_plateau sees at most
    20 cells per level."""
    plateau, sizes = fieldnorms.level_plateau, []

    def counted(field, j, x):
        sizes.append(np.size(x))
        return plateau(field, j, x)

    monkeypatch.setattr(fieldnorms, "level_plateau", counted)
    field12, field20 = (AtomicField(flagship_params, sequences.rearrange(
        sequences.build_lambda_blocks(psi_one, flagship_params, J)), J) for J in (12, 20))
    cases = [(field12, j) for j in range(13)] + [(field20, 20)]
    for window in ("wrapped", "full", "one-cell", "level-2-wrapped"):
        j, start, n = PLATEAU_WINDOWS[window]
        cases.append((window_field(j, start, n), j))
    seen = set()
    for field, j in cases:
        sizes.clear()
        cuts, states = fieldnorms._plateau_cuts(field, j)
        assert sizes and max(sizes) <= 20, (j, sizes)
        expected_cuts, expected_states = full_scan_plateau_cuts(field, j)
        assert np.array_equal(cuts, expected_cuts) and np.array_equal(states, expected_states), j
        seen.update(states.tolist())
    assert seen == {-1, 0, 1}


def test_plateau_cuts_raise_past_level_51(flagship_params, psi_one):
    """Through level 51 every cut is an exact cell edge e + d, d in -3..1, of
    an edge e of T_j or of the on-window; past it a cell index up to 2^(j+1) + 1
    is no double, and the cuts raise."""
    field = AtomicField(flagship_params, sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, 52)), 52)
    for j in (50, 51):
        lvl, size = field.blocks.levels[j], 1 << j
        edges = (size, 2 * size, size + lvl.start, size + (lvl.start + lvl.n) % size)
        cells = [int(c) for c in np.ldexp(fieldnorms._plateau_cuts(field, j)[0], j)]
        assert cells and set(cells) <= {e + d for e in edges for d in range(-3, 2)}, j
    with pytest.raises(ValueError, match="exact through level 51"):
        fieldnorms._plateau_cuts(field, 52)


@pytest.mark.parametrize("window", sorted(PLATEAU_WINDOWS))
def test_plateau_reduction_matches_full_grid(window_field, window):
    """Every step of default_h_set(2, 2^-k), k = 0..j, on windows that wrap,
    fill the level, have no plateau, or touch the first or last cell."""
    j, start, n = PLATEAU_WINDOWS[window]
    field = window_field(j, start, n)
    res = default_level_resolution(j)
    signs = set()
    for k in range(j + 1):
        for step in norms.default_h_set(2, 2.0**-k):
            h = (float(step[0]), float(step[1]))
            signs.add(math.copysign(1.0, h[1]))
            for M in (1, 2, 3):
                for p in (1.0, 2.0):
                    fast = level_diff_lp_pow(field, j, p, M, h, res)
                    assert fast == pytest.approx(full_grid_diff_lp_pow(field, j, p, M, h, res),
                                                 rel=1e-11, abs=0.0), (h, M, p)
    assert signs == {-1.0, 1.0}


def test_row_counts_equal_searchsorted(field_j10, window_field):
    """The rows counted in cell units equal np.searchsorted on the built
    stencil columns: at the plateau cuts, at cuts on a grid point and one ulp
    either side of it, and far outside, for positive, negative and zero h2,
    every step in one call."""
    h2s = [0.0, -0.0, 2.0**-3, -(2.0**-3), 0.7071067811865476 * 2.0**-5, -0.35355339059327373,
           2.0**-11, 1.0, -1.0, 1e-300]
    cases = [(field_j10, j) for j in (2, 5, 10)] + [(window_field(*PLATEAU_WINDOWS["wrapped"]), 4)]
    for field, j in cases:
        res, half = default_level_resolution(j), 2.0 ** (1 - j)
        for M in (1, 2, 3):
            cols = []
            for h2 in h2s:
                x2 = fieldnorms._stencil_axis(1.0 - half, 2.0 + half, M, h2, res)
                cols.append(x2 + np.arange(M + 1)[:, None] * h2)
            on_grid = np.concatenate([c[:, :: max(1, c.shape[1] // 5)].ravel() for c in cols])
            cuts = np.sort(np.concatenate([
                fieldnorms._plateau_cuts(field, j)[0], on_grid, np.nextafter(on_grid, -np.inf),
                np.nextafter(on_grid, np.inf), [-1e300, -2.0, 0.0, 3.5, 1e300]]))
            lo, n = zip(*(fieldnorms._axis_cells(1.0 - half, 2.0 + half, M, h2, res) for h2 in h2s))
            counts = fieldnorms._row_counts(np.array(lo), np.array(h2s), np.array(n), res, M, cuts)
            for s, c in enumerate(cols):
                for i in range(M + 1):
                    assert np.array_equal(counts[s, i], np.searchsorted(c[i], cuts)), (j, M, h2s[s], i)


def _steps_of(ts):
    return [(float(h[0]), float(h[1])) for t in ts for h in norms.default_h_set(2, t)]


@pytest.mark.parametrize("psi", [constant(1.0), log_power(0.25)], ids=["constant", "log-power"])
def test_level_pass_equals_per_step_oracle(flagship_params, psi):
    """Every step integral of the one-pass level integrals equals the
    per-step oracle bitwise: each level of the field at J = 10, t = 2^-k for
    k = 0..10, the 16 steps of default_h_set(2, t) and the 8 of each t's
    row of level_steps_lp_pow."""
    blocks = sequences.rearrange(sequences.build_lambda_blocks(psi, flagship_params, 10))
    field = AtomicField(flagship_params, blocks, 10)
    p, M = flagship_params.p, flagship_params.M
    ts = tuple(2.0**-k for k in range(11))
    for lf, j in fieldnorms._level_fields(field):
        res = default_level_resolution(j)
        steps = _steps_of(ts)
        expected = [per_step_diff_lp_pow(lf, j, p, M, h, res) for h in steps]
        assert fieldnorms._step_integrals(lf, j, p, M, steps, res) == expected, j
        table = fieldnorms.level_steps_lp_pow(lf, j, p, M, ts, res)
        assert [v for row in table for v in row] == [v for k, v in enumerate(expected) if k % 8 < 4], j


def test_level_pass_equals_per_step_oracle_on_random_fields(window_field, rng):
    """The same on random one-level fields, p, M and steps: default_h_set's
    steps down to t = 2^-(j+2) and steps drawn in [-1.5, 1.5]^2."""
    for _ in range(12):
        j = int(rng.integers(2, 7))
        field = window_field(j, int(rng.integers(0, 1 << j)), int(rng.integers(1, (1 << j) + 1)),
                             float(rng.uniform(0.1, 3.0)))
        p, M = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])), int(rng.integers(1, 4))
        res = default_level_resolution(j)
        steps = _steps_of([2.0**-k for k in range(j + 3)]) + [tuple(h) for h in rng.uniform(-1.5, 1.5, (24, 2)).tolist()]
        expected = [per_step_diff_lp_pow(field, j, p, M, h, res) for h in steps]
        assert fieldnorms._step_integrals(field, j, p, M, steps, res) == expected, (j, p, M)


def test_stencil_rows_equal_per_row_oracle():
    """One psi0 call on every stencil point gives the rows bitwise."""
    for M in (0, 1, 2, 3):
        for H in (0.0, -0.0, 2.0**-13, 0.5, -0.75, 3.0, -3.9, 0.7071067811865476 * 2.0**-3):
            fast = fieldnorms._stencil_rows(M, H, 1 / 16)
            assert fast.tobytes() == per_row_stencil_rows(M, H, 1 / 16).tobytes(), (M, H)


def test_one_pass_per_active_level(flagship_params, psi_one, monkeypatch):
    """field_besov_norm makes one pass per active level, with one
    level_weight call, and one single-step integral for the level's L^p
    norm; a shallower depth on the same blocks reuses every pass."""
    calls, weights = [], []
    step_integrals, weight = fieldnorms._step_integrals, fieldnorms.level_weight

    def counted_steps(field, j, p, M, steps, res):
        calls.append((j, len(steps)))
        return step_integrals(field, j, p, M, steps, res)

    def counted_weight(field, j, x):
        weights.append(j)
        return weight(field, j, x)

    monkeypatch.setattr(fieldnorms, "_step_integrals", counted_steps)
    monkeypatch.setattr(fieldnorms, "level_weight", counted_weight)
    blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, 8))
    field = AtomicField(flagship_params, blocks, 8)
    field_besov_norm(field, j_max=8)
    active = field.active_levels()
    assert sorted(j for j, n in calls if n > 1) == active
    assert sorted(j for j, n in calls if n == 1) == active
    assert sorted(weights) == sorted(active * 2)
    calls.clear()
    field_besov_norm(AtomicField(flagship_params, blocks, 6), j_max=8)
    assert calls == []


def test_level_weight_is_its_plateau_state(field_j10, window_field, rng):
    """Where level_plateau reads 1, level_weight is 1 to within 1 eps; where
    it reads 0, level_weight is exactly 0.0: the values level_diff_lp_pow
    takes for edge-row points of known state."""
    cases = [(field_j10, j) for j in field_j10.active_levels()]
    cases += [(window_field(*PLATEAU_WINDOWS[w]), PLATEAU_WINDOWS[w][0]) for w in ("wrapped", "full")]
    seen = set()
    for field, j in cases:
        edges = np.ldexp(np.arange((1 << j) - 4, (2 << j) + 5, dtype=float), -j)
        x = np.concatenate([rng.uniform(0.9, 2.1, 20_000), edges, np.nextafter(edges, -np.inf)])
        state, w = level_plateau(field, j, x), level_weight(field, j, x)
        assert np.all(np.abs(w[state == 1] - 1.0) <= np.finfo(float).eps)
        assert np.all(w[state == 0] == 0.0) and not np.signbit(w[state == 0]).any()
        seen.update(state.tolist())
    assert seen == {-1, 0, 1}


def test_mirrored_steps_give_the_same_integral(field_j10, flagship_params):
    """Difference norms are even in h: at levels 2-10 and t = 2^-k, k = 0..10,
    each step and its exact negation agree up to rounding, which small steps
    magnify in T (README Known defects)."""
    p, M = flagship_params.p, flagship_params.M
    for j in field_j10.active_levels():
        res = default_level_resolution(j)
        for k in range(11):
            for step in norms.default_h_set(2, 2.0**-k):
                h = (float(step[0]), float(step[1]))
                assert level_diff_lp_pow(field_j10, j, p, M, (-h[0], -h[1]), res) == pytest.approx(
                    level_diff_lp_pow(field_j10, j, p, M, h, res), rel=2e-11, abs=0.0), (j, h)
            for h in norms.default_h_set(1, 2.0**-k):
                assert pm_level_diff_lp_pow(field_j10, j, p, M, -h, res) == pytest.approx(
                    pm_level_diff_lp_pow(field_j10, j, p, M, h, res), rel=1e-13, abs=0.0), (j, h)


@pytest.mark.parametrize("J", [6, 8, 10])
def test_moduli_match_all_steps_oracle(field_j10, J):
    """field_moduli and pm_modulus, which compute one step of each +-h pair,
    equal the moduli over every step at the flagship's depths, t-levels and
    16 y-probes."""
    field = AtomicField(field_j10.params, field_j10.blocks, J)
    ts = [2.0**-k for k in range(11)]
    for t, modulus in zip(ts, field_moduli(field, ts)):
        assert modulus == pytest.approx(all_steps_field_modulus(field, t), rel=1e-10, abs=0.0)
    for y in map(float, x_probe_points(16)):
        omega = pm_modulus(field, y)
        for t in ts:
            assert omega(t) == pytest.approx(all_steps_pm_modulus(field, y, t), rel=1e-10, abs=0.0), (y, t)


class TestLevelReuse:
    @pytest.mark.parametrize("y", [1.1, 1.51, 1.77, 1.93])
    def test_factored_partial_map_integral_matches_direct(self, small_field, field_j10, flagship_params, y):
        """|w_j(y)|^p times the y-free profile integral equals the quadrature
        of the M-th difference of the partial map itself at y."""
        p, M = flagship_params.p, flagship_params.M
        checked = 0
        for field in (small_field, field_j10):
            g = partial_map(field, y)
            for j in field.active_levels():
                w = g.level_weights[j]
                res = default_level_resolution(j)
                box = level_box(field, j)
                # overlapping translates, then a step past the box (disjoint branch)
                for h in (2.0**-3, -(2.0**-5), 0.75 * 2.0**-4, 1.0):
                    lo = box.lo[0] - M * max(h, 0.0)
                    hi = box.hi[0] - M * min(h, 0.0)
                    x = lo + (np.arange(math.ceil((hi - lo) / res - 1e-9)) + 0.5) * res
                    acc = sum(((-1.0) ** (M - i)) * math.comb(M, i) * g(x + i * h) for i in range(M + 1))
                    direct = float(np.sum(np.abs(acc) ** p)) * res
                    factored = abs(w) ** p * pm_level_diff_lp_pow(field, j, p, M, h, res)
                    assert factored == pytest.approx(direct, rel=1e-12, abs=0.0)
                    checked += direct > 0.0
        assert checked > 0

    def test_deep_level_matches_local_quadrature(self, flagship_params, psi_one):
        """At level 40 a global x1 grid point near C_M j is only known to
        C_M j 2^-52, which 2^40 turns into up to 0.08 in u.  The kernel's
        integral must match a quadrature set up directly in u."""
        p, M, j = flagship_params.p, flagship_params.M, 40
        blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, j))
        field = AtomicField(flagship_params, blocks, j)
        theta = blocks.levels[j].theta
        # c_j = (theta 2^-j)^(1/p) 2^(-j(s - N/p)) and dx1 = 2^-j du
        scale = (theta * 2.0**-j) ** (1 / p) * 2.0 ** (-j * (flagship_params.s - 2 / p))
        du = 1.0 / 16
        for H in (0.5, -0.75, 3.0):
            lo, hi = -2.0 - M * max(H, 0.0), 2.0 - M * min(H, 0.0)
            u = lo + (np.arange(round((hi - lo) / du)) + 0.5) * du
            acc = sum(((-1.0) ** (M - i)) * math.comb(M, i) * 0.5 * psi0((u + i * H) / 2)
                      for i in range(M + 1))
            local = scale**p * float(np.sum(np.abs(acc) ** p)) * du * 2.0**-j
            kernel = pm_level_diff_lp_pow(field, j, p, M, H * 2.0**-j, default_level_resolution(j))
            assert kernel == pytest.approx(local, rel=1e-12, abs=0.0)

    def test_no_cache_key_hashes_the_sequence(self, flagship_params, psi_one, monkeypatch):
        """Cache keys hash a field in O(1): no BlockLevel is ever hashed."""
        blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, 4096))
        field = AtomicField(flagship_params, blocks, 4)

        def refuse(self):
            raise AssertionError("a cache key hashed a BlockLevel")

        monkeypatch.setattr(sequences.BlockLevel, "__hash__", refuse)
        norm = field_besov_norm(field, j_max=3)
        semi = pm_seminorm(field, 1.51, psi_one, j_max=3)
        assert norm.value > 0.0 and semi.value > 0.0

    def test_depths_share_level_integrals(self, flagship_params, psi_one):
        """A deeper norm computes only the levels a shallower one lacks, and
        gets the value it gets alone."""
        p = flagship_params

        def norm_and_misses(blocks, J):
            before = level_diff_lp_pow.cache_info().misses
            est = field_besov_norm(AtomicField(p, blocks, J), j_max=6)
            return est.value, level_diff_lp_pow.cache_info().misses - before

        def fresh_blocks():
            return sequences.rearrange(sequences.build_lambda_blocks(psi_one, p, 6))

        shared = fresh_blocks()
        _, shallow_misses = norm_and_misses(shared, 4)
        deep_value, deep_misses = norm_and_misses(shared, 6)
        alone_value, alone_misses = norm_and_misses(fresh_blocks(), 6)
        assert 0 < deep_misses == alone_misses - shallow_misses
        assert deep_value == alone_value

    def test_grid_depth_cap(self):
        assert grid_depth_cap(2) == 15  # C_M = 8
        assert grid_depth_cap(4) == 14  # C_M = 12
