import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from besovlab import params
from besovlab.slowly_varying import (
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    classify_condition,
    constant,
    iterated_log_power,
    log_power,
    psi_dyadic,
    psi_dyadic_log,
    psi_from_dict,
    slow_variation_deviation,
    summability_partial,
    table_depth,
    tabulated,
    weight_in_range,
)
from oracles import psi_eval


class TestEvaluation:
    def test_constant(self):
        desc = constant(3.0)
        assert psi_eval(desc, 0.5) == 3.0
        assert psi_dyadic(desc, 100) == 3.0

    def test_log_power_closed_form(self):
        desc = log_power(2.0)
        t = 0.125
        assert psi_eval(desc, t) == pytest.approx((1.0 - math.log(t)) ** -2.0, rel=1e-14)

    def test_iterated_log_power_closed_form(self):
        desc = iterated_log_power(1.0, 2.0)
        t = 2.0**-10
        ell = -math.log(t)
        expected = (1.0 + ell) ** -1.0 * (1.0 + math.log1p(ell)) ** -2.0
        assert psi_eval(desc, t) == pytest.approx(expected, rel=1e-14)

    def test_dyadic_agrees_with_eval_where_both_defined(self):
        desc = log_power(1.5)
        for j in range(0, 40):
            assert psi_dyadic(desc, j) == pytest.approx(psi_eval(desc, 2.0**-j), rel=1e-12)

    def test_dyadic_survives_deep_j(self):
        # t = 2^-5000 underflows but the closed form must not
        desc = log_power(1.0)
        value = psi_dyadic(desc, 5000)
        assert 0.0 < value < 1.0
        assert psi_dyadic_log(desc, 5000) == pytest.approx(math.log(value), rel=1e-12)

    def test_tabulated_lookup(self):
        desc = tabulated([(0, 1.0), (3, 0.25)])
        assert psi_dyadic(desc, 3) == 0.25
        assert psi_eval(desc, 0.125) == 0.25
        with pytest.raises(ValueError):
            psi_dyadic(desc, 7)
        with pytest.raises(ValueError):
            psi_eval(desc, 0.3)

    def test_tabulated_lookup_takes_the_first_entry(self):
        desc = tabulated([(0, 1.0), (1, 2.0), (2, 4.0), (1, 3.0)])
        assert [psi_dyadic(desc, j) for j in range(3)] == [1.0, 2.0, 4.0]
        assert table_depth(desc) == 2
        assert desc == tabulated([(0, 1.0), (1, 2.0), (2, 4.0), (1, 3.0)])

    def test_eval_domain(self):
        with pytest.raises(ValueError):
            psi_eval(constant(), 0.0)
        with pytest.raises(ValueError):
            psi_eval(constant(), 1.5)

    @given(st.floats(min_value=0.0, max_value=5.0), st.integers(0, 200))
    def test_log_power_monotone_nonincreasing(self, b, j):
        desc = log_power(b)
        assert psi_dyadic(desc, j + 1) <= psi_dyadic(desc, j) + 1e-15


class TestSummability:
    def test_partial_sum_constant(self):
        # Psi == 1: partial sum is just the number of terms
        assert summability_partial(constant(1.0), 2.0, 64) == pytest.approx(65.0)

    def test_partial_sum_matches_direct(self):
        desc = log_power(1.0)
        direct = sum(psi_dyadic(desc, j) ** 2.0 for j in range(11))
        assert summability_partial(desc, 2.0, 10) == pytest.approx(direct, rel=1e-12)

    def test_classifier_constant_always_violated(self):
        for kap in (0.5, 1.0, 7.0):
            assert classify_condition(constant(2.0), kap / 2, kap) == VIOLATED

    @pytest.mark.parametrize("bk", [0.5, 0.9, 1.0, 1.1, 2.0])
    @pytest.mark.parametrize("kap", [2.0, 1.0, 1.0])
    def test_classifier_log_power_threshold(self, bk, kap):
        desc = log_power(bk / kap)
        expected = SATISFIED if bk > 1.0 else VIOLATED
        # kappa = p when q = inf, and 1/(kap/2) - 1/kap = 1/kap
        for p, q in ((kap, math.inf), (kap / 2, kap)):
            assert classify_condition(desc, p, q) == expected

    def test_classifier_bertrand_boundary(self):
        # b*kappa == 1: the iterated factor decides
        assert classify_condition(iterated_log_power(0.5, 1.0), 1.0, 2.0) == SATISFIED
        assert classify_condition(iterated_log_power(0.5, 0.5), 1.0, 2.0) == VIOLATED

    def test_classifier_infinite_kappa(self):
        assert classify_condition(constant(1.0), 1.0, 1.0) == SATISFIED

    def test_classifier_tabulated_inconclusive(self):
        assert classify_condition(tabulated([(0, 1.0)]), 1.0, 2.0) == INCONCLUSIVE

    def test_classifier_is_exact_where_the_float_product_rounds_to_1(self):
        """b kappa exceeds 1 by 1.2e-16 on the exact rationals of these
        doubles, while the double product rounds to 1.0."""
        p, q, b = 0.7, 1.9, 0.9022556390977445
        assert b * params.kappa(p, q) == 1.0
        assert Fraction(b) * Fraction(p) * Fraction(q) / (Fraction(q) - Fraction(p)) > 1
        assert classify_condition(log_power(b), p, q) == SATISFIED
        assert classify_condition(iterated_log_power(b, -5.0), p, q) == SATISFIED

    @pytest.mark.parametrize("p, q", [(0.3, math.inf), (0.7, 1.9), (1.0, 2.0)])
    def test_classifier_flips_at_the_exact_kappa(self, p, q):
        """kappa and the classifier read one rational: a log-power b is
        violated up to 1/kappa and satisfied from the next double above it,
        and kappa is that rational rounded."""
        exact = params.exact_kappa(p, q)
        assert params.kappa(p, q) == float(exact)
        b = float(1 / exact)
        below = b if Fraction(b) <= 1 / exact else math.nextafter(b, 0.0)
        above = math.nextafter(below, math.inf)
        assert Fraction(below) <= 1 / exact < Fraction(above)
        assert classify_condition(log_power(below), p, q) == VIOLATED
        assert classify_condition(log_power(above), p, q) == SATISFIED

    def test_classifier_exact_boundary_is_violated(self):
        assert classify_condition(log_power(0.5), 1.0, 2.0) == VIOLATED

    @pytest.mark.parametrize("p, q", [(1.0, 2.0), (1.0, math.inf), (0.5, 1.0)])
    def test_classifier_iterated_log_at_the_boundary(self, p, q):
        """b kappa = 1 exactly; the iterated factor decides on b2 kappa > 1,
        with b2 one ulp on either side of 1/kappa and at it."""
        inv = 1.0 / p - (0.0 if math.isinf(q) else 1.0 / q)
        for b2, expected in ((math.nextafter(inv, 2.0), SATISFIED), (inv, VIOLATED),
                             (math.nextafter(inv, 0.0), VIOLATED)):
            assert classify_condition(iterated_log_power(inv, b2), p, q) == expected


def _weight_in_range_oracle(desc, kappa, J):
    """weight_in_range by evaluating every level j = 0..J."""
    try:
        values = [psi_dyadic(desc, j) for j in range(J + 1)]
        powers = [v**kappa for v in values] if math.isfinite(kappa) else []
    except OverflowError:
        return False
    ok = all(0.0 < v < math.inf for v in values + powers)
    return ok and (not powers or (J + 1) * max(powers) < math.inf)


class TestWeightRange:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["constant", "log-power", "iterated-log-power"]),
        st.floats(0.0, 300.0), st.floats(-2000.0, 2000.0),
        st.floats(1e-300, 1e300) | st.floats(1e-3, 1e3),
        st.floats(0.5, 20.0) | st.just(math.inf),
        st.integers(0, 300),
    )
    @example("iterated-log-power", 100.0, -500.0, 1.0, 2.0, 20000)  # in range at both ends, not at j = 77
    @example("constant", 0.0, 0.0, 1e154, 2.0, 1)  # (J + 1) c^kappa overflows
    def test_extreme_levels_decide_as_every_level_does(self, family, b, b2, c, kappa, J):
        desc = psi_from_dict({"family": family, "b": b, "b2": b2, "c": c})
        assert weight_in_range(desc, kappa, J) == _weight_in_range_oracle(desc, kappa, J)

    def test_tabulated_reads_every_level(self):
        desc = tabulated([(j, 1.0) for j in range(9)] + [(9, 1e200)])
        assert weight_in_range(desc, 2.0, 8) and not weight_in_range(desc, 2.0, 9)


class TestSlowVariation:
    def test_constant_is_exactly_slowly_varying(self):
        assert slow_variation_deviation(constant(5.0), 100) == 0.0

    def test_log_power_deviation_shrinks_with_depth(self):
        desc = log_power(1.0)
        shallow = slow_variation_deviation(desc, 10)
        deep = slow_variation_deviation(desc, 1000)
        assert deep < shallow
        # deviation decays like 1/j for the log family
        assert deep < 5e-3

    def test_power_function_is_not_slowly_varying(self):
        # Psi(t) = t has ratio 1/2 instead of 1; emulate via a table
        desc = tabulated([(j, 2.0**-j) for j in range(0, 22)])
        assert slow_variation_deviation(desc, 20) == pytest.approx(0.5)


def test_psi_from_dict_round_trips():
    assert psi_from_dict({"family": "constant", "c": 2.0}) == constant(2.0)
    assert psi_from_dict({"family": "log-power", "b": 1.0}) == log_power(1.0)
    assert psi_from_dict({"family": "iterated-log-power", "b": 0.5, "b2": 1.0}) == iterated_log_power(0.5, 1.0)
    with pytest.raises(ValueError):
        psi_from_dict({"family": "exponential"})


def test_descriptor_validation():
    with pytest.raises(ValueError):
        constant(-1.0)
    with pytest.raises(ValueError):
        log_power(-0.5)
    with pytest.raises(ValueError):
        tabulated([(0, 0.0)])
