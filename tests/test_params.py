import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from besovlab.params import INF, Params, kappa, params_from_dict, sigma_p, validate


class TestSigmaP:
    def test_zero_for_p_at_least_one(self):
        assert sigma_p(1.0, 2) == 0.0
        assert sigma_p(2.0, 3) == 0.0

    def test_small_p(self):
        # N * (1/p - 1) for p < 1
        assert sigma_p(0.5, 2) == pytest.approx(2.0)
        assert sigma_p(0.25, 3) == pytest.approx(9.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sigma_p(0.0, 2)
        with pytest.raises(ValueError):
            sigma_p(1.0, 0)

    @given(st.floats(min_value=1e-3, max_value=100.0), st.integers(1, 10))
    def test_nonnegative(self, p, N):
        assert sigma_p(p, N) >= 0.0


class TestKappa:
    def test_reciprocal_identity(self):
        k = kappa(1.0, 2.0)
        assert 1.0 / k == pytest.approx(1.0 / 1.0 - 1.0 / 2.0)
        assert k == pytest.approx(2.0)

    def test_p_equals_q_is_infinite(self):
        assert math.isinf(kappa(1.5, 1.5))

    def test_q_infinite_gives_p(self):
        assert kappa(0.5, INF) == 0.5

    def test_rejects_q_below_p(self):
        with pytest.raises(ValueError):
            kappa(2.0, 1.0)

    def test_reciprocals_that_round_equal(self):
        # 1/p == 1/q in doubles although p < q: kappa = pq / (q - p), finite
        p = 1.75
        q = p + 2.220446049250313e-16
        assert 1.0 / p == 1.0 / q
        assert kappa(p, q) == pytest.approx(p * q / (q - p), rel=1e-15)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_identity_holds_generally(self, p, dq):
        # against the exact rational 1/p - 1/q, which the doubles' difference loses when q is near p
        q = p + dq
        k = kappa(p, q)
        if p == q:
            assert math.isinf(k)
        else:
            gap = 1 / Fraction(p) - 1 / Fraction(q)
            assert abs(1 / Fraction(k) - gap) <= Fraction(1e-12) * gap

    @pytest.mark.parametrize("p, q, expected", [
        (1.0, 1.5, 3.0), (1.0, 3.0, 1.5), (2.0, 3.0, 6.0), (1.0, 1.25, 5.0),
        (1.0, math.nextafter(1.0, 2.0), 4503599627370497.0),
    ])
    def test_exact_where_the_quotient_is_a_double(self, p, q, expected):
        assert kappa(p, q) == expected

    def test_past_the_double_range_is_infinite(self):
        assert kappa(1e300, math.nextafter(1e300, INF)) == INF

    @given(st.floats(min_value=0.1, max_value=8.0), st.floats(min_value=0.1, max_value=8.0))
    def test_correctly_rounded(self, a, b):
        """kappa is the double nearest the exact 1 / (1/p - 1/q): neither
        neighbouring double is closer."""
        p, q = min(a, b), max(a, b)
        if p == q:
            return
        exact = 1 / (1 / Fraction(p) - 1 / Fraction(q))
        k = kappa(p, q)
        error = abs(Fraction(k) - exact)
        assert all(error <= abs(Fraction(math.nextafter(k, to)) - exact) for to in (0.0, INF))


class TestParams:
    def test_L_defaulted_to_midpoint(self):
        params = Params(p=1.0, q=2.0, s=1.5, M=2)
        assert params.L == pytest.approx(0.25)

    def test_explicit_L_kept(self):
        params = Params(p=1.0, q=2.0, s=1.5, M=2, L=0.1)
        assert params.L == 0.1

    def test_derived_properties(self, flagship_params):
        assert flagship_params.kappa == pytest.approx(2.0)
        assert flagship_params.sigma_p == 0.0

    def test_flagship_validates_clean(self, flagship_params):
        assert validate(flagship_params) == []

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(p=-1.0), "p must be positive"),
            (dict(s=3.0), "M > s fails"),
            (dict(M=1), "M > s fails"),
            (dict(L=0.9), "L < 1 - p/q"),
            (dict(p=0.5, s=1.5), "s > sigma_p"),
            (dict(q=0.5), "p <= q fails"),
        ],
    )
    def test_violations_reported(self, overrides, fragment):
        base = dict(p=1.0, q=2.0, s=1.5, M=2, L=0.25)
        base.update(overrides)
        messages = validate(Params(**base))
        assert any(fragment in m for m in messages), messages

    def test_p_inf_rejected(self):
        messages = validate(Params(p=INF, q=INF, s=1.5, M=2, L=0.25))
        assert any("p = inf" in m for m in messages)


def test_params_from_dict_parses_inf_strings():
    params = params_from_dict(
        {"N": 2, "d": 1, "p": 1, "q": "inf", "s": 1.5, "M": 2}
    )
    assert math.isinf(params.q)
    assert params.kappa == 1.0


def test_params_from_dict_kappa_never_read():
    # kappa in the input is ignored; only derived values count
    params = params_from_dict(
        {"N": 2, "d": 1, "p": 1, "q": 2, "s": 1.5, "M": 2, "kappa": 99}
    )
    assert params.kappa == pytest.approx(2.0)


def test_params_from_dict_rejects_non_integral_counts():
    base = {"N": 2, "d": 1, "p": 1, "q": 2, "s": 1.5}
    assert type(params_from_dict({**base, "M": 2.0}).M) is int
    for bad in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            params_from_dict({**base, "M": bad})
