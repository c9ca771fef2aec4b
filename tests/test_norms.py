import math

import numpy as np
import pytest

from besovlab.norms import default_h_set
from besovlab.slowly_varying import constant, log_power
from oracles import Box, BoxDomain, besov_norm, finite_diff, lp_quasinorm, modulus, seminorm


def indicator(x):
    x = np.asarray(x, dtype=float)
    return ((x >= 0.0) & (x < 1.0)).astype(float)


UNIT_1D = BoxDomain((Box((0.0,), (1.0,)),), 2.0**-12)


class TestFiniteDiff:
    def test_first_difference(self):
        f = lambda x: np.asarray(x) ** 2
        x = np.array([0.0, 1.0, 2.0])
        h = 0.5
        expected = (x + h) ** 2 - x**2
        assert np.allclose(finite_diff(f, 1, h, x), expected)

    def test_second_difference_of_quadratic_is_constant(self):
        f = lambda x: np.asarray(x) ** 2
        x = np.linspace(-3, 3, 50)
        vals = finite_diff(f, 2, 0.25, x)
        assert np.allclose(vals, 2.0 * 0.25**2)

    def test_affine_annihilation(self):
        f = lambda x: 3.0 * np.asarray(x) - 7.0
        x = np.linspace(-5, 5, 100)
        assert np.max(np.abs(finite_diff(f, 2, 0.3, x))) < 1e-10

    def test_2d_steps(self):
        f = lambda x: np.asarray(x)[..., 0] + 2.0 * np.asarray(x)[..., 1]
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        h = np.array([0.5, 0.25])
        expected = 0.5 + 2.0 * 0.25
        assert np.allclose(finite_diff(f, 1, h, x), expected)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            finite_diff(lambda x: x, 0, 0.1, np.zeros(3))


class TestLpQuasinorm:
    def test_constant_on_unit_box(self):
        f = lambda x: np.ones(np.asarray(x).shape[0] if np.asarray(x).ndim > 1 else np.asarray(x).shape)
        assert lp_quasinorm(f, 1.0, UNIT_1D) == pytest.approx(1.0, rel=1e-9)

    def test_indicator_halves(self):
        f = lambda x: (np.asarray(x) < 0.5).astype(float)
        assert lp_quasinorm(f, 2.0, UNIT_1D) == pytest.approx(0.5**0.5, rel=1e-3)

    def test_2d_box(self):
        domain = BoxDomain((Box((0.0, 0.0), (1.0, 2.0)),), 2.0**-6)
        f = lambda x: np.ones(np.atleast_2d(x).shape[0])
        assert lp_quasinorm(f, 1.0, domain) == pytest.approx(2.0, rel=1e-9)

    def test_empty_domain(self):
        assert lp_quasinorm(indicator, 1.0, BoxDomain((), 0.1)) == 0.0

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError):
            lp_quasinorm(indicator, math.inf, UNIT_1D)


class TestModulus:
    @pytest.mark.parametrize("t", [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6])
    def test_indicator_first_modulus(self, t):
        # omega_1(1_[0,1), t)_1 = 2t: each endpoint jump sweeps measure t
        value = modulus(indicator, 1, 1.0, t, UNIT_1D)
        assert value == pytest.approx(2.0 * t, rel=0.05)

    def test_h_set_defaults(self):
        assert len(default_h_set(1, 0.5)) == 6
        assert len(default_h_set(2, 0.5)) == 16
        with pytest.raises(ValueError):
            default_h_set(3, 0.5)

    def test_affine_annihilated_for_M2(self):
        f = lambda x: 2.0 * np.asarray(x) + 1.0
        assert modulus(f, 2, 1.0, 0.25, UNIT_1D) < 1e-10

    def test_monotone_in_t(self):
        values = [modulus(indicator, 1, 1.0, 2.0**-j, UNIT_1D) for j in range(1, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            modulus(indicator, 1, 1.0, 2.0, UNIT_1D)


class TestSeminorm:
    def test_indicator_classical_value(self):
        # sup_t t^(-1/2) omega_1 = sup_j 2^(j/2) * 2 * 2^-j = 2 at j = 0
        est = seminorm(indicator, constant(1.0), 0.5, 1.0, math.inf, 1, UNIT_1D, j_max=6)
        assert est.value == pytest.approx(2.0, rel=0.10)

    def test_psi_weight_lowers_terms(self):
        a = seminorm(indicator, constant(1.0), 0.5, 1.0, 2.0, 1, UNIT_1D, j_max=5)
        b = seminorm(indicator, log_power(1.0), 0.5, 1.0, 2.0, 1, UNIT_1D, j_max=5)
        assert b.value < a.value

    def test_requires_M_above_s(self):
        with pytest.raises(ValueError):
            seminorm(indicator, constant(1.0), 1.5, 1.0, 2.0, 1, UNIT_1D, j_max=3)

    def test_homogeneity(self):
        est1 = seminorm(indicator, constant(1.0), 0.5, 1.0, 2.0, 1, UNIT_1D, j_max=5)
        est3 = seminorm(
            lambda x: 3.0 * indicator(x), constant(1.0), 0.5, 1.0, 2.0, 1, UNIT_1D, j_max=5
        )
        assert est3.value == pytest.approx(3.0 * est1.value, rel=1e-12)

    def test_besov_norm_adds_lp(self):
        semi = seminorm(indicator, constant(1.0), 0.5, 1.0, 2.0, 1, UNIT_1D, j_max=4)
        full = besov_norm(indicator, constant(1.0), 0.5, 1.0, 2.0, 1, UNIT_1D, j_max=4)
        lp = lp_quasinorm(indicator, 1.0, UNIT_1D)
        assert full.value == pytest.approx(semi.value + lp, rel=1e-12)
