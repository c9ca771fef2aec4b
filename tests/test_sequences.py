import io
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import sequences
from besovlab.params import Params
from besovlab.sequences import (
    BlockLevel,
    BlockSequence,
    block_average,
    build_S,
    build_lambda_blocks,
    coverage_count,
    covering_profile,
    gamma,
    level_table,
    lemma_le_unit_partials,
    mixed_norm,
    read_blocks,
    rearrange,
    sup_diagnostic,
    verify_blocks,
    write_blocks,
)
from besovlab.experiments import config_from_dict, x_probe_points
from besovlab.params import load_config
from besovlab.slowly_varying import constant, iterated_log_power, log_power, tabulated
from oracles import (
    blocks_from_json, blocks_to_json, exact_floor_count, fraction_cursor_rearrange, jbit_blocks,
    jbit_covering_profile, jbit_level_table, jbit_rearrange, lemma_le_partial, lemma_le_partials,
    level_rows, materialize, total_window_weight, window_prefix, write_level_csv,
)

# lemma.m of configs/flagship.json
FLAGSHIP_LEMMA_M = (0.5, 1.0, 1.5, 2.0, 3.0)


# ---------------------------------------------------------------------------
# series test


class TestLemmaLE:
    def test_m2_converges_to_known_tail(self):
        # u_j == 1: sum 1/j^2 -> pi^2/6, minus nothing since U_j = j
        value = lemma_le_partial(np.ones(10000), 2.0, 10000)
        assert value == pytest.approx(math.pi**2 / 6.0, abs=1e-3)

    def test_m1_is_harmonic(self):
        n = 1000
        value = lemma_le_partial(np.ones(n), 1.0, n)
        harmonic = sum(1.0 / j for j in range(1, n + 1))
        assert value == pytest.approx(harmonic, rel=1e-12)

    def test_callable_terms(self):
        value = lemma_le_partial(lambda j: 1.0, 2.0, 50)
        direct = lemma_le_partial(np.ones(50), 2.0, 50)
        assert value == direct

    def test_partials_are_running_sums(self):
        partials = lemma_le_partials(np.ones(100), 1.5, 100)
        assert np.all(np.diff(partials) > 0)
        assert partials[-1] == pytest.approx(lemma_le_partial(np.ones(100), 1.5, 100))

    def test_rejects_nonpositive_terms(self):
        with pytest.raises(ValueError):
            lemma_le_partial(np.array([1.0, 0.0, 1.0]), 2.0, 3)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50),
        st.floats(min_value=1.1, max_value=4.0),
    )
    def test_bounded_by_integral_estimate(self, terms, m):
        # sum u_j / U_j^m <= u_1^(1-m) + integral bound; crude but universal:
        # each term u_j/U_j^m <= (U_j - U_{j-1}) / U_{j-1}^m for j >= 2
        u = np.array(terms)
        value = lemma_le_partial(u, m, len(terms))
        U1 = terms[0]
        bound = U1 ** (1.0 - m) + U1 ** (1.0 - m) / (m - 1.0)
        assert value <= bound * (1.0 + 1e-9)

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1, 10**6])
    def test_streamed_unit_partials_are_bitwise_the_oracle(self, n):
        checkpoints = sorted({c for c in (1, 2, 3, 1000, 2**16 - 1, 2**16, 2**16 + 1) if c <= n} | {n})
        for m in FLAGSHIP_LEMMA_M:
            partials = lemma_le_partials(np.ones(n), m, n)
            assert lemma_le_unit_partials(m, checkpoints) == [float(partials[c - 1]) for c in checkpoints]

    def test_streamed_unit_partials_across_many_chunks(self, monkeypatch):
        monkeypatch.setattr(sequences, "_LEMMA_CHUNK", 7)
        n = 1000
        checkpoints = list(range(1, n + 1))
        for m in FLAGSHIP_LEMMA_M:
            expected = lemma_le_partials(np.ones(n), m, n).tolist()
            assert lemma_le_unit_partials(m, checkpoints) == expected

    def test_streamed_unit_partials_reject_empty_prefix(self):
        with pytest.raises(ValueError):
            lemma_le_unit_partials(2.0, [0, 5])


# ---------------------------------------------------------------------------
# construction


class TestBuild:
    def test_S_for_constant_psi(self, psi_one):
        S = build_S(psi_one, 2.0, 8)
        assert np.allclose(S, np.arange(1, 9))

    def test_gamma_values(self, psi_one):
        # Psi == 1: Gamma_{j,1} = 1/j
        assert gamma(psi_one, 2.0, 4, 1.0) == pytest.approx(0.25)
        assert gamma(psi_one, 2.0, 4, 2.0) == pytest.approx(1.0 / 16.0)

    def test_levels_zero_and_one_are_off(self, flagship_params, psi_one):
        blocks = build_lambda_blocks(psi_one, flagship_params, 6)
        assert blocks.levels[0].n == 0
        assert blocks.levels[1].n == 0

    def test_counts_match_exact_floor(self, flagship_params, psi_one):
        blocks = build_lambda_blocks(psi_one, flagship_params, 12)
        for j in range(2, 13):
            expected = math.floor(Fraction(1, j) * (1 << j))
            # Gamma_{j,1} = 1/j passes through a float before flooring
            float_expected = math.floor(Fraction(1.0 / j) * (1 << j))
            assert blocks.levels[j].n == float_expected
            assert abs(blocks.levels[j].n - expected) <= 1

    def test_theta_matches_closed_form(self, flagship_params, psi_one):
        blocks = build_lambda_blocks(psi_one, flagship_params, 10)
        for j in range(2, 11):
            # S_j = j, Psi == 1, so theta_j = j^L
            assert blocks.levels[j].theta == pytest.approx(j**0.25, rel=1e-12)

    def test_deep_build_is_finite(self, flagship_params, psi_one):
        blocks = build_lambda_blocks(psi_one, flagship_params, 2048)
        lvl = blocks.levels[2048]
        assert math.isfinite(lvl.theta)
        assert 0 < lvl.n <= 1 << 2048

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-4.0, max_value=4.0) | st.sampled_from([5e-324, 2.0**-1070, 2.0**-1022]),
           st.integers(0, 5000))
    def test_floor_count_by_shift_equals_fraction_form(self, g, j):
        expected = min(max(math.floor(Fraction(g) * (1 << j)), 0), 1 << j)
        assert exact_floor_count(g, j) == expected
        m, e = sequences._floor_count(g, j)
        assert m << e == expected

    def test_requires_p_below_q(self, psi_one):
        params = Params(p=2.0, q=2.0, s=0.5, M=1, L=0.1)
        with pytest.raises(ValueError):
            build_lambda_blocks(psi_one, params, 4)


# ---------------------------------------------------------------------------
# rearrangement


def _random_blocks(rng, J):
    levels = [BlockLevel(0, 0.0, 0, 0), BlockLevel(1, 0.0, 0, 0)]
    for j in range(2, J + 1):
        n = int(rng.integers(0, (1 << j) + 1))
        theta = float(rng.uniform(0.1, 10.0)) if n else 0.0
        levels.append(BlockLevel(j, theta, n, 0))
    return BlockSequence(J=J, levels=tuple(levels))


def _assert_same_rearrangement(blocks):
    moved, oracle = rearrange(blocks), fraction_cursor_rearrange(blocks)
    assert moved.levels == oracle.levels
    assert moved.cursor == oracle.cursor


@st.composite
def _any_counts(draw):
    """Blocks with any n_j in 0..2^j, j = 0..J, J <= 40."""
    J = draw(st.integers(0, 40))
    counts = [draw(st.integers(0, 1 << j)) for j in range(J + 1)]
    return BlockSequence(J=J, levels=tuple(
        BlockLevel(j, 1.0 if n else 0.0, n, 0) for j, n in enumerate(counts)))


class TestRearrange:
    @settings(max_examples=200, deadline=None)
    @given(_any_counts())
    def test_window_prefix_equals_fraction_cursor(self, blocks):
        _assert_same_rearrangement(blocks)

    @pytest.mark.parametrize("psi", [constant(1.0), log_power(0.25)], ids=["constant", "log-power"])
    def test_window_prefix_equals_fraction_cursor_at_4096(self, flagship_params, psi):
        _assert_same_rearrangement(build_lambda_blocks(psi, flagship_params, 4096))

    def test_preserves_multisets_per_block(self, rng):
        for _ in range(20):
            J = int(rng.integers(2, 11))
            blocks = _random_blocks(rng, J)
            moved = rearrange(blocks)
            before = materialize(blocks)
            after = materialize(moved)
            for j in range(J + 1):
                size = 1 << j
                a = np.sort(before[size : 2 * size])
                b = np.sort(after[size : 2 * size])
                assert np.array_equal(a, b), f"block {j} multiset changed"

    def test_block_averages_bitwise_stable(self, rng):
        blocks = _random_blocks(rng, 10)
        moved = rearrange(blocks)
        for j in range(11):
            assert block_average(blocks, j) == block_average(moved, j)

    def test_cursor_is_exact_window_weight_mod_one(self, flagship_params, psi_one):
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 64))
        assert blocks.cursor == total_window_weight(blocks) % 1

    def test_windows_chain_without_gaps(self, rng):
        # each window starts in the cell containing the previous cursor
        blocks = rearrange(_random_blocks(rng, 12))
        c = Fraction(0)
        for lvl in blocks.levels:
            size = 1 << lvl.j
            assert lvl.start == math.floor(c * size)
            c = Fraction(lvl.start + lvl.n, size) % 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 12))
    def test_property_multiset_preservation(self, seed, J):
        rng = np.random.default_rng(seed)
        blocks = _random_blocks(rng, J)
        moved = rearrange(blocks)
        before = materialize(blocks)
        after = materialize(moved)
        for j in range(J + 1):
            size = 1 << j
            assert sorted(before[size : 2 * size]) == sorted(after[size : 2 * size])


# ---------------------------------------------------------------------------
# (mantissa, shift) levels against the j-bit oracles


def _assert_tier_equals_jbit_oracle(desc, params, J, probes, depths):
    """Every n_j, start_j, the cursor, every level_table row and the
    covering profile, bitwise against the j-bit exact tier."""
    built = build_lambda_blocks(desc, params, J)
    oracle_built = jbit_blocks(desc, params, J)
    assert [(lvl.j, lvl.theta, lvl.n, lvl.start) for lvl in built.levels] == oracle_built
    blocks = rearrange(built)
    oracle, cursor = jbit_rearrange(oracle_built)
    assert [(lvl.j, lvl.theta, lvl.n, lvl.start) for lvl in blocks.levels] == oracle
    assert blocks.cursor == cursor
    table = level_table(blocks, desc, params)
    assert repr(level_rows(table)) == repr(jbit_level_table(oracle, desc, params))
    assert covering_profile(table, desc, params.p, probes, depths) == jbit_covering_profile(
        oracle, desc, params.p, probes, depths)
    return blocks


def _window_edges(levels, count):
    """1 + (W_j mod 1) at `count` levels spread over j = 0..J, exact and as
    doubles one ulp either side."""
    prefix = window_prefix(levels)
    probes = set()
    for j in range(0, len(levels), max(1, len(levels) // count)):
        edge = 1 + Fraction(prefix[j] % (1 << j), 1 << j)
        probes.update((edge, math.nextafter(float(edge), 0.0), math.nextafter(float(edge), 2.0)))
    return sorted(x for x in probes if 1 <= x < 2)


@st.composite
def _weights(draw):
    """A weight of every family; the tabulated one has log2 Psi_j in
    [-511, 0], so Gamma_j reaches down to about 2^-1022 / (J + 1)."""
    kind = draw(st.sampled_from(["constant", "log-power", "iterated-log", "tabulated"]))
    if kind == "constant":
        return constant(draw(st.floats(0.25, 4.0)))
    if kind == "log-power":
        return log_power(draw(st.floats(0.0, 2.0)))
    if kind == "iterated-log":
        return iterated_log_power(draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0)))
    exponents = draw(st.lists(st.floats(-511.0, 0.0), min_size=257, max_size=257))
    return tabulated((j, 2.0**e) for j, e in enumerate(exponents))


class TestAgainstJbitOracle:
    @settings(max_examples=60, deadline=None)
    @given(desc=_weights(), J=st.integers(1, 256), data=st.data())
    def test_property_up_to_256(self, flagship_params, desc, J, data):
        depths = data.draw(st.lists(st.integers(0, J), min_size=1, max_size=4))
        extra = data.draw(st.lists(st.fractions(1, Fraction(2) - Fraction(1, 2**60), max_denominator=2**60),
                                   max_size=8))
        probes = _window_edges(jbit_blocks(desc, flagship_params, J), 32) + extra
        _assert_tier_equals_jbit_oracle(desc, flagship_params, J, probes, depths)

    @pytest.mark.parametrize("desc", [constant(1.0), log_power(0.25), log_power(0.75), iterated_log_power(0.5, 1.0)],
                             ids=["constant", "log-power-0.25", "log-power-0.75", "iterated-log"])
    def test_at_4096(self, flagship_params, desc):
        J = 4096
        probes = x_probe_points(64) + _window_edges(jbit_blocks(desc, flagship_params, J), 64)
        _assert_tier_equals_jbit_oracle(desc, flagship_params, J, probes, [64, 512, J])

    @pytest.mark.parametrize("desc", [constant(1.0), log_power(0.25), log_power(0.75), iterated_log_power(0.5, 1.0)],
                             ids=["constant", "log-power-0.25", "log-power-0.75", "iterated-log"])
    def test_counts_are_the_floors_of_the_table_gamma_at_4096(self, flagship_params, desc):
        """seq.csv's Gamma_j1 is the double the construction floors: n_j =
        min(floor(2^j Gamma_j1), 2^j) at every level j >= 2, exactly."""
        J = 4096
        blocks = build_lambda_blocks(desc, flagship_params, J)
        table = level_table(blocks, desc, flagship_params)
        for lvl in blocks.levels[2:]:
            assert lvl.n == min(math.floor(Fraction(table.gamma[lvl.j]) * (1 << lvl.j)), 1 << lvl.j), lvl.j

    def test_tiny_tabulated_weight_raises_the_prefix_denominator_past_1000_bits(self, flagship_params):
        """Gamma_j = 2^-1022 / S_j rounds to a double over 2^1072, so from
        j = 1072 each term n_j 2^-j is that fine, and so is the prefix."""
        J = 1200
        desc = tabulated([(0, 1.0), (1, 1.0)] + [(j, 2.0**-511) for j in range(2, J + 1)])
        probes = x_probe_points(16) + _window_edges(jbit_blocks(desc, flagship_params, J), 32)
        blocks = _assert_tier_equals_jbit_oracle(desc, flagship_params, J, probes, [1000, 1100, J])
        assert max(lvl.j - lvl.start_e for lvl in blocks.levels if lvl.start_m) > 1000


def test_deep_tier_memory_is_linear():
    """config.blocks(2^15), its level_table and covering_profile (64 probes,
    depths up to 2^15) on that table peak under 16 MB of traced allocations:
    each level holds O(1) words.  With j-bit n_j and start_j it was 147 MB."""
    import tracemalloc
    from pathlib import Path

    config = config_from_dict(load_config(Path(__file__).resolve().parent.parent / "configs" / "flagship.json"))
    tracemalloc.start()
    try:
        table = level_table(config.blocks(2**15), config.psi, config.params)
        covering_profile(table, config.psi, config.params.p, x_probe_points(64), [64, 512, 4096, 2**15])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# coverage


class TestCoverage:
    def test_full_blocks_cover_every_level(self):
        J = 8
        levels = [BlockLevel(j, 1.0, 1 << j, 0) for j in range(J + 1)]
        blocks = BlockSequence(J=J, levels=tuple(levels), rearranged=True)
        assert coverage_count(blocks, Fraction(3, 2)) == J + 1

    def test_zero_levels_do_not_count(self, flagship_params, psi_one):
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 8))
        # levels 0-1 are off, so coverage can never exceed J - 1
        for i in range(16):
            x = 1 + Fraction(i, 16) + Fraction(1, 64)
            assert coverage_count(blocks, x) <= 7

    def test_matches_dense_oracle(self, flagship_params, psi_one):
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 10))
        dense = materialize(blocks)
        for i in range(32):
            x = 1 + Fraction(i, 32) + Fraction(1, 128)
            expected = sum(
                1
                for j in range(11)
                if dense[(x.numerator << j) // x.denominator] > 0.0
            )
            assert coverage_count(blocks, x) == expected

    def test_deep_probe_uses_exact_cells(self, flagship_params, psi_one):
        # beyond 52 bits a float 2^j*x would truncate to the wrong cell
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 80))
        x = 1 + Fraction(1, 3)
        count = coverage_count(blocks, x)
        assert count >= math.floor(total_window_weight(blocks)) - 1

    def test_rejects_x_outside_unit_shift(self, blocks_j8, flagship_params):
        with pytest.raises(ValueError):
            coverage_count(blocks_j8, Fraction(5, 2))
        with pytest.raises(ValueError):
            covering_profile(level_table(blocks_j8, constant(1.0), flagship_params), constant(1.0), 1.0,
                             [Fraction(5, 2)], [8])

    def test_profile_needs_rearranged_blocks(self, flagship_params, psi_one):
        table = level_table(build_lambda_blocks(psi_one, flagship_params, 8), psi_one, flagship_params)
        with pytest.raises(ValueError):
            covering_profile(table, psi_one, 1.0, [Fraction(3, 2)], [8])


def _edge_probes(blocks):
    """x = 1 + (W_j mod 1) at every level j, and one ulp either side."""
    probes = set()
    for j in range(blocks.J + 1):
        edge = 1.0 + float(total_window_weight(blocks, j) % 1)
        probes.update((edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0)))
    return sorted(x for x in probes if 1.0 <= x < 2.0)


def _theta_zero_level(blocks, j):
    """blocks with level j's on-value set to 0 and its on-cells kept."""
    levels = list(blocks.levels)
    levels[j] = BlockLevel(j, 0.0, levels[j].n, levels[j].start)
    return rearrange(BlockSequence(J=blocks.J, levels=tuple(levels)))


class TestCoveringProfile:
    """The bisect on the window prefix against the covering walk and the
    dense sequence, on every window edge and one ulp either side."""

    @pytest.fixture(params=["constant", "log-power", "random", "theta=0"])
    def case(self, request, flagship_params, rng):
        psi = log_power(0.25) if request.param == "log-power" else constant(1.0)
        if request.param == "random":
            return psi, rearrange(_random_blocks(rng, 11))
        blocks = rearrange(build_lambda_blocks(psi, flagship_params, 12))
        if request.param == "theta=0":
            assert blocks.levels[9].n > 0
            blocks = _theta_zero_level(blocks, 9)
        return psi, blocks

    def test_equals_walk_and_dense_on_window_edges(self, case, flagship_params):
        psi, blocks = case
        p = 1.0
        depths = range(blocks.J + 1)
        probes = _edge_probes(blocks)
        dense = materialize(blocks)
        table = level_table(blocks, psi, flagship_params)
        for x, profile in zip(probes, covering_profile(table, psi, p, probes, depths)):
            for J, (diagnostic, count) in zip(depths, profile):
                covered = sum(1 for j in range(J + 1) if dense[math.floor(math.ldexp(x, j))] > 0.0)
                assert count == coverage_count(blocks, x, J) == covered, (x, J)
                assert diagnostic == sup_diagnostic(blocks, psi, p, x, J), (x, J)

    def test_on_level_with_zero_theta_is_skipped(self, flagship_params):
        # W_2 = 1/2, W_3 = 1, W_4 = 3/2: level 3's window is [1/2, 1) and
        # carries 0, level 4's wraps onto [0, 1/2)
        levels = [BlockLevel(0, 0.0, 0, 0), BlockLevel(1, 0.0, 0, 0), BlockLevel(2, 1.0, 2, 0),
                  BlockLevel(3, 0.0, 4, 0), BlockLevel(4, 2.0, 8, 0)]
        blocks = rearrange(BlockSequence(J=4, levels=tuple(levels)))
        probes = [Fraction(5, 4), Fraction(7, 4)]
        profiles = covering_profile(level_table(blocks, constant(1.0), flagship_params), constant(1.0), 1.0,
                                    probes, [3, 4])
        assert profiles == [[(1.0, 1), (2.0, 2)], [(0.0, 0), (0.0, 0)]]
        for x, profile in zip(probes, profiles):
            assert [count for _, count in profile] == [coverage_count(blocks, x, J) for J in (3, 4)]


# ---------------------------------------------------------------------------
# norms and diagnostics


class TestMixedNorm:
    def test_matches_dense_sum(self, flagship_params, psi_one):
        p, q = flagship_params.p, flagship_params.q
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 12))
        dense = materialize(blocks)
        inner = []
        for j in range(13):
            size = 1 << j
            block = dense[size : 2 * size]
            lam_p = np.where(block > 0, block / size, 0.0)
            inner.append(np.sum(lam_p) ** (q / p))
        expected = math.fsum(inner) ** (1.0 / q)
        assert mixed_norm(blocks, p, q) == pytest.approx(expected, rel=1e-12)

    def test_q_inf_takes_sup(self, blocks_j8):
        value = mixed_norm(blocks_j8, 1.0, math.inf)
        expected = max(block_average(blocks_j8, j) for j in range(9))
        assert value == pytest.approx(expected)

    def test_truncation_monotone(self, blocks_j8):
        values = [mixed_norm(blocks_j8, 1.0, 2.0, J) for J in range(2, 9)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


_TABLE_J = 300

# (psi, params): the flagship exponents under three weights, and the sup-norm
# branch q = inf.  The tabulated weight oscillates, and its exponents make
# q/p non-integer.
_TABLE_CASES = {
    "constant": (constant(1.0), Params(p=1.0, q=2.0, s=1.5, M=2, L=0.25)),
    "log-power": (log_power(0.25), Params(p=1.0, q=2.0, s=1.5, M=2, L=0.25)),
    "tabulated": (
        tabulated((j, (1.0 + 0.5 * math.sin(j)) / (1.0 + j) ** 0.2) for j in range(_TABLE_J + 1)),
        Params(p=1.5, q=4.0, s=2.0, M=3, L=0.3),
    ),
    "q=inf": (log_power(0.25), Params(p=1.0, q=math.inf, s=1.5, M=2, L=0.5)),
}


class TestLevelTable:
    """The one-pass table against the per-j oracles, compared with ==."""

    @pytest.fixture(scope="class", params=sorted(_TABLE_CASES))
    def case(self, request):
        psi, params = _TABLE_CASES[request.param]
        blocks = rearrange(build_lambda_blocks(psi, params, _TABLE_J))
        return psi, params, blocks, level_rows(level_table(blocks, psi, params))

    def test_rows_equal_per_level_oracles(self, case):
        psi, params, blocks, table = case
        kappa = params.kappa
        assert len(table) == blocks.J + 1
        assert table[0][:2] == (0.0, 0.0)
        for j in range(1, blocks.J + 1):
            S_j, gamma_j, _, _ = table[j]
            assert S_j == float(build_S(psi, kappa, j)[-1])
            assert gamma_j == gamma(psi, kappa, j, 1.0)
        for j, (_, _, average, partial) in enumerate(table):
            assert average == block_average(blocks, j)
            assert partial == mixed_norm(blocks, params.p, params.q, j)

    def test_prefix_stable(self, case):
        # a shallower build gives the same rows: experiments read every depth
        # from one table built at the deepest
        psi, params, _, table = case
        for J in (2, 17, 64):
            shallow = rearrange(build_lambda_blocks(psi, params, J))
            assert level_rows(level_table(shallow, psi, params)) == table[: J + 1]


@st.composite
def _sparse_levels(draw):
    """Blocks to depth J <= 5000 with a few levels of any n_j in 0..2^j and
    any theta_j, subnormal ones included; every other level is zero."""
    J = draw(st.integers(2, 5000))
    levels = [BlockLevel(j, 0.0, 0, 0) for j in range(J + 1)]
    for j in draw(st.lists(st.integers(2, J), max_size=12, unique=True)):
        n = draw(st.integers(0, 1 << j) | st.sampled_from([1, 1 << j]))
        theta = draw(st.floats(min_value=0.0, max_value=1e100) | st.sampled_from([5e-324, 2.0**-1060]))
        levels[j] = BlockLevel(j, theta, n, 0)
    return BlockSequence(J=J, levels=tuple(levels))


class TestExactWithoutFraction:
    """block_average and level_table's running sum against their Fraction
    forms, compared with ==."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5000).flatmap(lambda j: st.tuples(st.just(j), st.integers(0, 1 << j))),
           st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([5e-324, 2.0**-1060]))
    def test_block_average_equals_fraction_form(self, jn, theta):
        j, n = jn
        blocks = SimpleNamespace(levels={j: BlockLevel(j, theta, n, 0)})  # all block_average reads
        assert block_average(blocks, j) == float(Fraction(n, 1 << j)) * theta

    # q/p near 1 keeps subnormal block averages subnormal in the sum
    SUM_PARAMS = (_TABLE_CASES["constant"][1], _TABLE_CASES["tabulated"][1],
                  Params(p=1.0, q=1.0 + 2**-20, s=1.5, M=2, L=0.25))

    @settings(max_examples=40, deadline=None)
    @given(_sparse_levels(), st.sampled_from(SUM_PARAMS))
    def test_running_sum_equals_fraction_sum(self, blocks, params):
        p, q = params.p, params.q
        total = Fraction(0)
        for (_, _, average, partial), lvl in zip(level_rows(level_table(blocks, constant(1.0), params)), blocks.levels):
            assert average == float(Fraction(lvl.n, 1 << lvl.j)) * lvl.theta
            total += Fraction(average ** (q / p))
            assert partial == float(total) ** (1.0 / q)


class TestSupDiagnostic:
    def test_closed_form_on_covered_level(self, flagship_params, psi_one):
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 64))
        # theta_j = j^0.25, Psi == 1: diagnostic value at a covered level j
        # is theta_j^(1/p) = j^0.25, and the max picks the deepest cover
        x = 1 + Fraction(1, 128)
        value = sup_diagnostic(blocks, psi_one, 1.0, x)
        dense_candidates = [
            blocks.levels[j].theta
            for j in range(65)
            if blocks.levels[j].n > 0
            and blocks.is_on(j, ((x.numerator << j) // x.denominator))
        ]
        assert value == pytest.approx(max(dense_candidates), rel=1e-12)

    def test_grows_with_depth(self, flagship_params, psi_one):
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 512))
        x = 1 + Fraction(1, 128)
        shallow = sup_diagnostic(blocks, psi_one, 1.0, x, 64)
        deep = sup_diagnostic(blocks, psi_one, 1.0, x, 512)
        assert deep > shallow

    def test_zero_when_nothing_covers(self):
        levels = tuple(BlockLevel(j, 0.0, 0, 0) for j in range(5))
        blocks = BlockSequence(J=4, levels=levels, rearranged=True)
        assert sup_diagnostic(blocks, constant(1.0), 1.0, Fraction(3, 2)) == 0.0


# ---------------------------------------------------------------------------
# serialization and verification


def _fields(blocks):
    """Every field of a sequence; sequences themselves compare by identity."""
    return [getattr(blocks, f) for f in ("J", "levels", "rearranged", "cursor")]


def _read(text, chunk=None):
    """read_blocks on text; with chunk, from a file read through a buffer of
    chunk bytes."""
    if chunk is None:
        return read_blocks(io.StringIO(text))
    raw = io.BufferedReader(io.BytesIO(text.encode()), buffer_size=chunk)
    return read_blocks(io.TextIOWrapper(raw, encoding="utf-8", newline=""))


def _doc(blocks, reverse=False):
    """blocks.json's object; reverse puts every key and the levels in reverse order."""
    order = reversed if reverse else list
    levels = [dict(order(list(lvl._asdict().items()))) for lvl in order(blocks.levels)]
    return dict(order([("J", blocks.J), ("rearranged", blocks.rearranged),
                       ("cursor", [blocks.cursor.numerator, blocks.cursor.denominator]), ("levels", levels)]))


@pytest.fixture(scope="module")
def blocks_j64(flagship_params, psi_one):
    """64 levels, whose starts have mantissas of up to 64 bits, with thetas
    in exponent notation such as 1.7782794100389228e-05."""
    blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 64))
    levels = tuple(BlockLevel(lvl.j, lvl.theta * 1e-5, lvl.n, lvl.start) for lvl in blocks.levels)
    return BlockSequence(J=64, levels=levels, rearranged=True, cursor=blocks.cursor)


class TestSerialization:
    def test_json_round_trip(self, blocks_j8):
        again = read_blocks(io.StringIO(blocks_to_json(blocks_j8)))
        assert _fields(again) == _fields(blocks_j8)

    @pytest.mark.parametrize("J", [1, 2, 8, 64])
    def test_write_blocks_streams_the_encoder_bytes_unrearranged(self, flagship_params, psi_one, tmp_path, J):
        """An unrearranged sequence ("rearranged": false, which seq-build no
        longer writes but seq-verify still reads) gives the json encoder's
        document and reporting.write_csv's table, byte for byte."""
        blocks = build_lambda_blocks(psi_one, flagship_params, J)
        assert not blocks.rearranged
        out, table = io.StringIO(), io.StringIO(newline="")
        write_blocks(blocks, out, (table, level_rows(level_table(blocks, psi_one, flagship_params))))
        assert out.getvalue() == blocks_to_json(blocks) + "\n"
        write_level_csv(tmp_path / "oracle.csv", blocks, psi_one, flagship_params)
        assert table.getvalue().encode() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("J", [1, 64, 4096, 8192])
    def test_write_blocks_decimals_are_the_encoder_bytes(self, flagship_params, psi_one, tmp_path, J):
        """seq-build's rearranged sequence, whose n_j and start_j run to
        2,466 digits at J = 8192, spelled as str() of each int spells it."""
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, J))
        out, table = io.StringIO(), io.StringIO(newline="")
        write_blocks(blocks, out, (table, level_rows(level_table(blocks, psi_one, flagship_params))))
        assert out.getvalue() == blocks_to_json(blocks) + "\n"
        write_level_csv(tmp_path / "oracle.csv", blocks, psi_one, flagship_params)
        assert table.getvalue().encode() == (tmp_path / "oracle.csv").read_bytes()

    def test_write_blocks_decimals_of_hand_built_levels(self, flagship_params, psi_one, tmp_path):
        """Zero counts and starts, n_j = 2^j, shifts around multiples of 64
        and far below j - 64, and mantissas of up to j bits."""
        J, rand = 300, random.Random(64)

        def value(j: int, i: int) -> int:  # odd mantissa << shift, below 2^j
            shift = min(max([0, 1, 63, 64, 65, 127, 128, j - 65, j - 64, j - 1][i % 10], 0), j - 1)
            return (rand.getrandbits(rand.randint(1, j - shift)) | 1) << shift

        levels = [BlockLevel(0, 0.0, 0, 0)]
        for j in range(1, J + 1):
            n = 0 if j % 7 == 0 else 1 << j if j % 7 == 1 else value(j, j)
            levels.append(BlockLevel(j, 0.5 if n else 0.0, n, 0 if j % 5 == 0 else value(j, j + 3)))
        blocks = BlockSequence(J=J, levels=tuple(levels), rearranged=True, cursor=Fraction(3, 8))
        assert any(lvl.n_m.bit_length() > 64 and lvl.n_e >= 64 for lvl in blocks.levels)
        assert any(lvl.start_m and lvl.start_e < lvl.j - 64 for lvl in blocks.levels)
        out, table = io.StringIO(), io.StringIO(newline="")
        write_blocks(blocks, out, (table, level_rows(level_table(blocks, psi_one, flagship_params))))
        assert out.getvalue() == blocks_to_json(blocks) + "\n"
        write_level_csv(tmp_path / "oracle.csv", blocks, psi_one, flagship_params)
        assert table.getvalue().encode() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 16])
    def test_read_blocks_matches_whole_text_oracle(self, blocks_j8, blocks_j64, flagship_params, psi_one, chunk):
        """write_blocks' own layout, rearranged or not, compact JSON, keys and
        levels in reverse order, numbers such as J = 0.4e+1 or theta = 3e+300
        in exponent notation, and unknown top-level keys, also ones that hold
        a level or an object with a "j", whatever buffer the file is read
        through."""
        levels = tuple(BlockLevel(lvl.j, theta, lvl.n, lvl.start) for lvl, theta in zip(blocks_j64.levels[:5],
                                                                        (0.0, 2.0, 1.25e-05, 3e+300, 0.5)))
        short = BlockSequence(J=4, levels=levels)
        for blocks in (blocks_j8, blocks_j64, build_lambda_blocks(psi_one, flagship_params, 8), short):
            out = io.StringIO()
            write_blocks(blocks, out)
            texts = [out.getvalue(), json.dumps(_doc(blocks), separators=(",", ":")),
                     json.dumps(_doc(blocks, reverse=True), indent="\t")]
            if blocks is short:
                texts.append(texts[1].replace('"J":4', '"J":0.4e+1'))
                texts.append(json.dumps({**_doc(blocks), "note": {"j": 1}, "first": _doc(blocks)["levels"][0]}))
            for text in texts:
                assert _fields(_read(text, chunk)) == _fields(blocks_from_json(text)) == _fields(blocks)

    def test_read_blocks_at_every_chunk_boundary(self, blocks_j64):
        """A file whose first read stops anywhere, as a pipe's may, also inside
        a top-level number such as J = 0.4e+1 after its ".", "e" or "e+",
        is still read whole."""
        levels = tuple(BlockLevel(lvl.j, theta, lvl.n, lvl.start) for lvl, theta in zip(blocks_j64.levels[:5],
                                                                        (0.0, 2.0, 1.25e-05, 3e+300, 0.5)))
        text = json.dumps(_doc(BlockSequence(J=4, levels=levels))).replace('"J": 4', '"J": 0.4e+1')
        data = text.encode()
        expected = _fields(blocks_from_json(text))
        assert expected[0] == 4

        class CutFile(io.RawIOBase):
            """Reads as a file would, but the first read stops after cut bytes."""

            def __init__(self, cut):
                self.pos, self.cut = 0, cut

            def readable(self):
                return True

            def readinto(self, b):
                start = self.pos
                self.pos = min(start + len(b), self.cut if start < self.cut else len(data))
                b[:self.pos - start] = data[start:self.pos]
                return self.pos - start

        for cut in range(1, len(text)):
            stream = io.TextIOWrapper(io.BufferedReader(CutFile(cut)), encoding="utf-8", newline="")
            assert _fields(read_blocks(stream)) == expected, text[:cut]

    @settings(max_examples=60, deadline=None)
    @given(reverse=st.booleans(), sort_keys=st.booleans(),
           indent=st.one_of(st.none(), st.text(" \t\r\n", max_size=3)),
           comma=st.text(" \t\r\n", max_size=2), colon=st.text(" \t\r\n", max_size=2),
           around=st.text(" \t\r\n", max_size=3))
    def test_read_blocks_takes_any_json_whitespace(self, blocks_j8, reverse, sort_keys,
                                                   indent, comma, colon, around):
        text = around + json.dumps(_doc(blocks_j8, reverse), indent=indent, sort_keys=sort_keys,
                                   separators=("," + comma, ":" + colon)) + around
        assert _fields(_read(text)) == _fields(blocks_from_json(text)) == _fields(blocks_j8)

    def test_read_blocks_rejects_what_the_oracle_rejects(self, flagship_params, psi_one):
        """Every prefix of a document, and malformed ones, raise as json.loads
        does; only the whole document (with or without its newline) parses.
        So does a document in the decimal layout, with n and start in full."""
        blocks = rearrange(build_lambda_blocks(psi_one, flagship_params, 3))
        out = io.StringIO()
        write_blocks(blocks, out)
        text = out.getvalue()
        decimal = json.dumps({**_doc(blocks), "levels": [
            {"j": lvl.j, "theta": lvl.theta, "n": lvl.n, "start": lvl.start} for lvl in blocks.levels]})
        zero = '{"j": 0, "theta": 0.0, "n_m": 0, "n_e": 0, "start_m": 0'
        bad = [text[:cut] for cut in range(len(text) - 1)] + [
            "{not json", "[]", "{}", '{"J": 2}', '{"J": 0, "levels": 5}', '{"J": 0, "levels": [1]}',
            '{"J": 0, "levels": {}}', '{"J": 0, "levels": [' + zero + "}]}", text + "x", text + "{}",
            text.replace('"J"', "J"), text.replace(",", ",,", 1), text.replace("]", ",]", 1), decimal,
        ]
        for doc in bad:
            with pytest.raises((ValueError, KeyError, TypeError)):
                _read(doc)
            with pytest.raises((ValueError, KeyError, TypeError)):
                blocks_from_json(doc)
        for doc in (text, text[:-1], '{"J": 0, "levels": [' + zero + ', "start_e": 0}]}'):
            assert _fields(_read(doc)) == _fields(blocks_from_json(doc))

    def test_read_blocks_normalises_each_pair(self, blocks_j64):
        """A pair need not be canonical: (4, 0) reads as (1, 2), and every
        level spelled as (n, 0) and (start, 0) reads as the same sequence."""
        doc = _doc(blocks_j64)
        for level in doc["levels"]:
            level.update(n_m=level["n_m"] << level["n_e"], n_e=0,
                         start_m=level["start_m"] << level["start_e"], start_e=0)
        assert _fields(_read(json.dumps(doc))) == _fields(blocks_j64)
        doc = _doc(BlockSequence(J=2, levels=tuple(BlockLevel(j, 0.0, 0, 0) for j in range(3))))
        doc["levels"][2].update(n_m=4, n_e=0, start_m=2, start_e=0)
        assert _read(json.dumps(doc)).levels[2] == (2, 0.0, 1, 2, 1, 1)

    def test_read_blocks_rejects_a_shift_without_building_it(self, blocks_j8):
        """A negative shift is rejected, and a shift of 10^12 is reported by
        bit length in a short message, without building m << e."""
        for key, value, named in (("n_e", -1, "n_e of level j=5 must be >= 0, got -1"),
                                  ("start_e", -3, "start_e of level j=5 must be >= 0, got -3"),
                                  ("n_e", 10**12, "n_5 out of range [0, 2^5]: 1000000000001 bits"),
                                  ("start_e", 10**12, "start_5 out of range [0, 2^5): 1000000000001 bits")):
            doc = _doc(blocks_j8)
            doc["levels"][5].update({key: value, key[:-1] + "m": 1})
            with pytest.raises(ValueError) as info:
                _read(json.dumps(doc))
            assert str(info.value) == named

    def test_verify_accepts_fresh_build(self, blocks_j8):
        assert verify_blocks(blocks_j8) == []

    def test_verify_flags_tampered_start(self, blocks_j8):
        levels = list(blocks_j8.levels)
        levels[5] = BlockLevel(5, levels[5].theta, levels[5].n, (levels[5].start + 1) % (1 << 5))
        bad = BlockSequence(
            J=blocks_j8.J,
            levels=tuple(levels),
            rearranged=True,
            cursor=blocks_j8.cursor,
        )
        problems = verify_blocks(bad)
        assert any("start_5" in p for p in problems)

    def test_verify_flags_active_level_zero(self):
        levels = [BlockLevel(0, 1.0, 1, 0)] + [
            BlockLevel(j, 0.0, 0, 0) for j in range(1, 4)
        ]
        problems = verify_blocks(BlockSequence(J=3, levels=tuple(levels)))
        assert any("level 0" in p for p in problems)

    def test_materialize_capped(self, flagship_params, psi_one):
        blocks = build_lambda_blocks(psi_one, flagship_params, 30)
        with pytest.raises(ValueError):
            materialize(blocks)
