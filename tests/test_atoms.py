import math

import numpy as np
import pytest

from besovlab import atoms, sequences
from besovlab.atoms import (
    AtomicField,
    atom_offset,
    bump_u,
    eval_f,
    eval_f_dense,
    level_plateau,
    level_weight,
    level_weights,
    psi0,
    psi_nd,
)
from besovlab.cli import FIELD_EVAL_CHUNK
from besovlab.slowly_varying import constant
from oracles import Box, BoxDomain, bump_v, level_box, per_delta_level_weight, support_boxes


class TestBumps:
    def test_u_support(self):
        assert bump_u(-1.0) == 0.0
        assert bump_u(0.0) == 0.0
        assert bump_u(1.0) == pytest.approx(math.exp(-1.0))
        # tiny positive arguments underflow to an exact 0, keeping the
        # support numerically closed
        assert bump_u(1e-3) == 0.0

    def test_u_vectorized_matches_scalar(self):
        t = np.linspace(-2, 2, 41)
        vec = bump_u(t)
        assert vec.shape == t.shape
        for ti, vi in zip(t, vec):
            assert bump_u(float(ti)) == vi

    def test_v_even_and_supported_in_unit_interval(self):
        t = np.linspace(-1.5, 1.5, 301)
        vals = bump_v(t)
        assert np.array_equal(vals, bump_v(-t))
        assert np.all(vals[np.abs(t) >= 1.0] == 0.0)
        assert bump_v(0.0) == pytest.approx(math.exp(-2.0))

    def test_psi0_partition_of_unity(self, rng):
        t = rng.uniform(-4.0, 4.0, size=1000)
        total = sum(np.asarray(psi0(t - m)) for m in range(-5, 6))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_psi0_support_convention(self):
        assert psi0(1.0) == 0.0
        assert psi0(-1.0) == 0.0
        assert psi0(0.0) > 0.0

    def test_psi0_is_bitwise_the_formula(self):
        """psi0 evaluates on its support only; every value equals the full
        quotient v(t) / (v(t-1) + v(t) + v(t+1)) bit for bit."""

        def formula(t):
            num = bump_v(t)
            with np.errstate(invalid="ignore"):
                quotient = num / (bump_v(t - 1.0) + num + bump_v(t + 1.0))
            return np.where(num > 0, quotient, 0.0)

        edge = 1.0 - 1e-7
        t = np.concatenate([np.linspace(-1.5, 1.5, 300_001), [-1.0, 1.0, 0.0, -edge, edge]])
        assert np.array_equal(psi0(t), formula(t))
        assert psi0(0.3) == float(formula(np.array(0.3))) and isinstance(psi0(0.3), float)

    def test_psi_nd_center_value(self):
        for N in (1, 2, 3):
            x = np.zeros(N)
            assert psi_nd(x) == pytest.approx(2.0**-N, rel=1e-14)

    def test_psi_nd_support(self):
        assert psi_nd(np.array([2.0, 0.0])) == 0.0
        assert psi_nd(np.array([0.0, -2.0])) == 0.0
        assert psi_nd(np.array([1.9, 1.9])) >= 0.0


class TestGeometry:
    def test_atom_offset_layout(self, flagship_params):
        m = atom_offset(flagship_params, 3, 9)
        # C_M = 2(M+2) = 8; first coordinate C_M * 2^j * j
        assert m == (8 * 8 * 3, 9)

    def test_box_inflate(self):
        box = Box((0.0, 1.0), (2.0, 3.0)).inflate(0.5)
        assert box.lo == (-0.5, 0.5)
        assert box.hi == (2.5, 3.5)

    def test_domain_requires_positive_resolution(self):
        with pytest.raises(ValueError):
            BoxDomain((), 0.0)

    def test_level_boxes_disjoint_in_x1(self, field_j6):
        boxes = [level_box(field_j6, j) for j in field_j6.active_levels()]
        for a, b in zip(boxes, boxes[1:]):
            assert a.hi[0] < b.lo[0]

    def test_support_boxes_stay_disjoint_after_stencil_inflation(self, field_j6):
        M = field_j6.params.M
        domain = support_boxes(field_j6, inflate=M * 1.0)
        xs = sorted((b.lo[0], b.hi[0]) for b in domain.boxes)
        for (_, hi), (lo, _) in zip(xs, xs[1:]):
            assert hi <= lo


class TestField:
    def test_requires_rearranged_blocks(self, flagship_params, psi_one):
        raw = sequences.build_lambda_blocks(psi_one, flagship_params, 4)
        with pytest.raises(ValueError):
            AtomicField(flagship_params, raw, 4)

    def test_amplitude(self, field_j6):
        # s - N/p = 1.5 - 2 = -0.5, so the amplitude c_j / lambda_j grows as 2^(j/2)
        lam = (field_j6.blocks.levels[4].theta * 2.0**-4) ** (1.0 / field_j6.params.p)
        assert field_j6.coef(4) / lam == pytest.approx(2.0**2.0)

    def test_coefficient_formed_in_log_space(self, flagship_params, psi_one):
        # at j = 1100, lambda_j = theta 2^-1100 underflows to 0.0 and
        # 2^(j/2) is 3.7e165; c_j = theta 2^-550 is about 1.56e-165
        j = 1100
        blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, j))
        field = AtomicField(flagship_params, blocks, j)
        expected = math.ldexp(blocks.levels[j].theta, -550)
        assert expected == pytest.approx(1.56e-165, rel=1e-2)
        assert field.coef(j) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_level_weight_zero_off_window(self, field_j6):
        # far outside [1,2] no atom of any level contributes
        for j in field_j6.active_levels():
            assert np.all(level_weight(field_j6, j, np.array([-3.0, 5.0])) == 0.0)

    def test_level_plateau_agrees_with_level_weight(self, field_j6):
        """Plateau 0 means w_j is exactly 0, plateau 1 that it is 1 up to the
        rounding of the partition of unity."""
        x = np.linspace(0.5, 2.5, 20_001)
        seen = set()
        for j in field_j6.active_levels():
            state, w = level_plateau(field_j6, j, x), level_weight(field_j6, j, x)
            assert np.all(w[state == 0] == 0.0)
            assert np.all(np.abs(w[state == 1] - 1.0) <= 4e-16)
            seen.update(state.tolist())
        assert seen == {-1, 0, 1}

    def test_pruned_matches_dense(self, flagship_params, psi_one, rng):
        blocks = sequences.rearrange(
            sequences.build_lambda_blocks(psi_one, flagship_params, 6)
        )
        field = AtomicField(flagship_params, blocks, 6)
        pts = np.column_stack(
            [
                rng.uniform(-1.0, 8.0 * 6 + 2.0, size=400),
                rng.uniform(0.5, 2.5, size=400),
            ]
        )
        fast = eval_f(field, pts)
        slow = eval_f_dense(field, pts)
        scale = np.maximum(np.abs(slow), 1e-300)
        mask = slow != 0.0
        assert np.max(np.abs(fast[mask] - slow[mask]) / scale[mask]) < 1e-12
        assert np.all(fast[~mask] == 0.0)

    def test_linearity_in_theta(self, flagship_params, psi_one):
        # scaling every on-value by c^p scales the field by c (lambda = theta^(1/p))
        blocks = sequences.rearrange(
            sequences.build_lambda_blocks(psi_one, flagship_params, 5)
        )
        c = 3.0
        scaled_levels = tuple(
            sequences.BlockLevel(lvl.j, lvl.theta * c**flagship_params.p, lvl.n, lvl.start)
            for lvl in blocks.levels
        )
        scaled = sequences.BlockSequence(
            J=blocks.J, levels=scaled_levels, rearranged=True, cursor=blocks.cursor
        )
        f1 = AtomicField(flagship_params, blocks, 5)
        f2 = AtomicField(flagship_params, scaled, 5)
        pts = np.array([[8.0 * 3, 1.3], [8.0 * 4 + 0.01, 1.7], [8.0 * 5, 1.9]])
        assert np.allclose(eval_f(f2, pts), c * eval_f(f1, pts), rtol=1e-12)

    def test_single_point_returns_scalar(self, field_j6):
        value = eval_f(field_j6, np.array([8.0 * 4, 1.5]))
        assert isinstance(value, float)


class TestPartialMap:
    def test_exposes_level_weights(self, field_j6):
        weights = level_weights(field_j6, 1.5)
        assert set(weights) == set(field_j6.active_levels())

    @pytest.mark.parametrize("J", [6, 8, 10])
    def test_level_weights_make_one_level_weight_call(self, flagship_params, psi_one, monkeypatch, J):
        """level_weights takes every active level's weight from one
        level_weight call, bitwise the weight taken level by level."""
        field = AtomicField(flagship_params, sequences.rearrange(
            sequences.build_lambda_blocks(psi_one, flagship_params, J)), J)
        calls = []

        def counting(field, j, xN):
            calls.append(j)
            return level_weight(field, j, xN)

        monkeypatch.setattr(atoms, "level_weight", counting)
        for y in (1.3, 1.5, 1.0 + 2.0**-J, 1.999):
            calls.clear()
            weights = level_weights(field, y)
            assert len(calls) == 1
            assert list(weights) == field.active_levels()
            assert all(isinstance(w, float) for w in weights.values())
            assert weights == {j: float(level_weight(field, j, np.array([y]))[0]) for j in weights}


def cell_edges(j):
    """Every cell edge k 2^-j near T_j and one ulp either side."""
    edges = np.ldexp(np.arange((1 << j) - 8, (2 << j) + 9, dtype=float), -j)
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


class TestFusedLevelWeight:
    """level_weight against the per-cell oracle, compared bitwise."""

    def assert_equals_oracle(self, field, j, x):
        fast, slow = level_weight(field, j, x), per_delta_level_weight(field, j, x)
        assert fast.shape == slow.shape
        assert fast.flags.f_contiguous == slow.flags.f_contiguous
        assert np.array_equal(fast, slow)
        return fast

    def test_flagship_levels_at_every_cell_edge(self, flagship_params, psi_one, rng):
        blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, 10))
        field = AtomicField(flagship_params, blocks, 10)
        for j in field.active_levels():
            x = np.concatenate([cell_edges(j), rng.uniform(0.5, 2.5, 500)])
            assert self.assert_equals_oracle(field, j, x).any()

    @pytest.mark.parametrize("window", [(4, 13, 6), (4, 0, 16), (4, 6, 1), (2, 3, 2)],
                             ids=["wrapped", "full", "one-cell", "level-2-wrapped"])
    def test_hand_made_windows(self, window_field, window):
        j, start, n = window
        field = window_field(j, start, n)
        assert self.assert_equals_oracle(field, j, cell_edges(j)).any()

    @pytest.mark.parametrize("n, theta", [(0, 1.7), (5, 0.0)], ids=["n=0", "theta=0"])
    def test_empty_level_is_zero(self, window_field, n, theta):
        field = window_field(4, 3, n, theta)
        assert not self.assert_equals_oracle(field, 4, cell_edges(4)).any()

    def test_past_level_60(self, flagship_params, psi_one, rng):
        J = 70
        blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, J))
        field = AtomicField(flagship_params, blocks, J)
        for j in (60, 61, 64, 70):
            lvl = blocks.levels[j]
            ends = np.array([float(lvl.start), float(lvl.start + lvl.n)])
            edges = np.ldexp((1 << j) + ends, -j)
            x = np.concatenate([
                edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                rng.uniform(0.5, 2.5, 2000), [2.0**-8, 1.0, 2.0, 4.0, -1.0],
            ])
            assert self.assert_equals_oracle(field, j, x).any()

    def test_deep_and_shallow_levels_in_one_call(self, flagship_params, psi_one, rng):
        """Points on levels 58-70 and on levels <= 10 in one eval_f call and
        one level_weights call, int64 and Python-int cells together: each
        value equals the per-level formula and level_weight taken level by
        level, bitwise."""
        J = 70
        blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, J))
        field = AtomicField(flagship_params, blocks, J)
        j = np.concatenate([np.arange(58, J + 1).repeat(40), rng.integers(2, 11, 400)])
        x1 = field.C_M * j + rng.uniform(-2.0, 2.0, j.size) * 2.0 ** -j
        x2 = []
        for level in j.tolist():
            lvl = blocks.levels[level]
            edges = np.ldexp(float((1 << level) + lvl.start) + np.array([0.0, float(lvl.n)]), -level)
            x2.append(rng.choice(np.concatenate([edges, np.nextafter(edges, 3.0), [rng.uniform(0.5, 2.5)]])))
        x2 = np.array(x2)
        fast = eval_f(field, np.column_stack([x1, x2]))
        assert np.array_equal(fast, per_level_formula(field, x1, lambda level: level_weight(field, level, x2)))
        assert (fast[j >= 58] > 0).any() and (fast[j <= 10] > 0).any()
        for deep in (58, 61, 64, 70):  # y mid-window of a deep level, where its weight is 1
            lvl = blocks.levels[deep]
            y = math.ldexp(float((1 << deep) + lvl.start + lvl.n // 2), -deep)
            weights = level_weights(field, y)
            assert weights == {level: float(level_weight(field, level, np.array([y]))[0]) for level in weights}
            assert max(weights) == J and weights[deep] > 0.0

    def test_shapes_and_layouts(self, field_j6):
        j = 5
        x = np.linspace(0.9, 2.1, 24)
        cols = x + np.arange(3)[:, None] * 0.01
        f_ordered = cols[:, np.arange(24) % 3 == 0]
        assert f_ordered.flags.f_contiguous and not f_ordered.flags.c_contiguous
        for xN in (1.3, np.float64(1.55), np.array(1.55), np.array([]), np.zeros((3, 0)),
                   np.asfortranarray(x.reshape(4, 6)), f_ordered, cols):
            self.assert_equals_oracle(field_j6, j, xN)
        assert level_weight(field_j6, j, 1.55).shape == (1,)
        levels = np.array([[2], [5], [6]])  # broadcast against x: every level at every point
        assert np.array_equal(level_weight(field_j6, levels, x), [level_weight(field_j6, int(v), x) for v in levels.ravel()])


def per_level_formula(field, x1, weight):
    """sum over the active levels j of c_j X(u_j) weight(j), level by level:
    at most one term is nonzero at a point and every term is >= 0, so the sum
    is that term bit for bit."""
    out = np.zeros(np.shape(x1))
    for j in field.active_levels():
        out += field.coef(j) * atoms._x1_factor(field, j, x1) * weight(j)
    return out


class TestLevelDispatch:
    """eval_f against the per-level formula, compared bitwise, at each
    level's support edges and off every level."""

    @pytest.fixture(scope="class")
    def field(self, flagship_params, psi_one):
        blocks = sequences.rearrange(sequences.build_lambda_blocks(psi_one, flagship_params, 10))
        return AtomicField(flagship_params, blocks, 10)

    @staticmethod
    def x1_points(field):
        C_M, J = field.C_M, field.J
        edges = np.array([C_M * j + s * 2.0 ** (1 - j) for j in range(2, J + 1) for s in (-1, 1)])
        inside = C_M * np.arange(2, J + 1) + np.array([[-0.5], [0.0], [0.5]]) * 2.0 ** (1 - np.arange(2, J + 1))
        gaps = C_M * np.arange(0, J + 2) + C_M / 2
        far = [C_M * (J + 1) + d for d in (-2.0, -1e-3, 0.0, 1e-3, 2.0)]
        odd = [-1e-300, -0.5, -1.0, -2.0, -3.0, -1e300, 1e300, -np.inf, np.inf, np.nan]
        return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                               inside.ravel(), gaps, far, odd])

    def test_eval_f_is_the_per_level_formula(self, field, rng):
        j = rng.integers(2, field.J + 1, 2000)
        inside = field.C_M * j + rng.uniform(-2.0, 2.0, j.size) * 2.0 ** -j
        x1 = np.concatenate([np.repeat(self.x1_points(field), 7), inside])
        x2 = np.concatenate([rng.uniform(0.5, 2.5, x1.size - 6), [1.0, 1.5, 2.0, -1e300, 1e300, np.nan]])
        x2 = rng.permutation(x2)
        fast = eval_f(field, np.column_stack([x1, x2]))
        slow = per_level_formula(field, x1, lambda j: level_weight(field, j, x2))
        assert np.array_equal(fast, slow)
        assert (fast > 0).sum() > 200

    def test_eval_f_on_a_chunk_is_bitwise_the_same_rows_of_one_call(self, field, rng):
        """eval_f is pointwise: field-eval's chunks give every point the value
        of one call on all points, bit for bit, whatever the chunk size."""
        n = 2 * FIELD_EVAL_CHUNK + 1001
        j = rng.integers(2, field.J + 1, n)
        x1 = field.C_M * j + rng.uniform(-2.0, 2.0, n) * 2.0 ** -j
        x1[::5] = np.resize(self.x1_points(field), x1[::5].size)
        pts = np.column_stack([x1, rng.uniform(0.5, 2.5, n)])
        whole = eval_f(field, pts)
        assert (whole > 0).sum() > n // 10
        for size, stop in ((1, 100), (7, 2000), (1000, n), (FIELD_EVAL_CHUNK, n)):
            parts = [eval_f(field, pts[lo:min(lo + size, stop)]) for lo in range(0, stop, size)]
            assert np.concatenate(parts).tobytes() == whole[:stop].tobytes(), size
