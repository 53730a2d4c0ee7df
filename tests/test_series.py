"""Contract and property tests for truncated power series."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rscount.rings import MultiPoly
from rscount.series import (PowerSeries, cosh_series, sinh_series,
                            sinhc_half_series)

F = Fraction


def rationals(max_numerator=50, max_denominator=20):
    return st.builds(Fraction,
                     st.integers(-max_numerator, max_numerator),
                     st.integers(1, max_denominator))


def series(order=5):
    return st.lists(rationals(), min_size=order + 1, max_size=order + 1).map(
        lambda coeffs: PowerSeries(coeffs))


def unit_series(order=5):
    # invertible: nonzero constant term
    return st.tuples(rationals().filter(bool),
                     st.lists(rationals(), min_size=order, max_size=order)).map(
        lambda parts: PowerSeries([parts[0], *parts[1]]))


class TestStandardSeries:
    def test_cosh_coefficients(self):
        assert cosh_series(4).coeffs == (F(1), F(0), F(1, 2), F(0), F(1, 24))

    def test_sinh_coefficients(self):
        assert sinh_series(5).coeffs == (F(0), F(1), F(0), F(1, 6), F(0), F(1, 120))

    def test_sinhc_half_coefficients(self):
        assert sinhc_half_series(2).coeffs == (F(1), F(0), F(1, 24))
        # k-th coefficient 1/(2^k (k+1)!) for even k
        assert sinhc_half_series(4)[4] == F(1, 1920)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            cosh_series(-1)


class TestArithmetic:
    def test_product_of_linear_factors(self):
        one_plus = PowerSeries([1, 1, 0])
        one_minus = PowerSeries([1, -1, 0])
        assert (one_plus * one_minus).coeffs == (F(1), F(0), F(-1))

    @given(series())
    def test_multiplicative_identity(self, f):
        assert f * 1 == f

    def test_sinh_times_cosh_is_half_sinh_double(self):
        # sinh(2h)/2 = h + 2h^3/3 + 2h^5/15, expanded by hand
        product = sinh_series(5) * cosh_series(5)
        assert product.coeffs == (F(0), F(1), F(0), F(2, 3), F(0), F(2, 15))

    def test_result_order_is_minimum_of_operands(self):
        f = cosh_series(6)
        g = sinh_series(3)
        assert (f + g).order == 3
        assert (f * g).order == 3
        assert (f - g).order == 3

    def test_equality_up_to_common_order(self):
        f = cosh_series(6)
        assert f == cosh_series(3)

    def test_scalar_coercion(self):
        f = cosh_series(2)
        assert (3 * f - 1).coeffs == (F(2), F(0), F(3, 2))
        assert all(type(c) is Fraction for c in PowerSeries([1, 0, -2]).coeffs)

    # coefficients are rationals only: a polynomial is no coefficient either
    @pytest.mark.parametrize("value", [0.5, True, "1", None, MultiPoly(1, {(1,): 1})])
    def test_inexact_coefficients_rejected(self, value):
        with pytest.raises(TypeError):
            PowerSeries([1, value])
        with pytest.raises(TypeError):
            PowerSeries.constant(value, 2)
        with pytest.raises(TypeError):
            cosh_series(2).scale_arg(value)
        with pytest.raises(TypeError):
            cosh_series(2) * value


class TestInversion:
    def test_geometric_series(self):
        one_minus_h = PowerSeries([1, -1] + [0] * 7)
        assert one_minus_h.invert().coeffs == tuple(F(1) for _ in range(9))

    def test_inverse_of_one(self):
        one = PowerSeries.constant(1, 4)
        assert one.invert() == one

    def test_inverse_of_sinhc_half(self):
        # solve S*g = 1 by hand: g = 1 - h^2/24 + 7h^4/5760
        inverse = sinhc_half_series(4).invert()
        assert inverse.coeffs == (F(1), F(0), F(-1, 24), F(0), F(7, 5760))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            sinh_series(3).invert()

    @given(unit_series())
    def test_round_trip(self, f):
        assert f * f.invert() == PowerSeries.constant(1, f.order)


class TestPowers:
    def test_square_of_linear(self):
        f = PowerSeries([1, 1, 0])
        assert (f ** 2).coeffs == (F(1), F(2), F(1))

    @given(series())
    def test_zeroth_power_is_one(self, f):
        assert f ** 0 == PowerSeries.constant(1, f.order)

    def test_negative_power_of_sinhc_half(self):
        # hand value used in the K3 characteristic-number check
        assert (sinhc_half_series(2) ** -4).coeffs == (F(1), F(0), F(-1, 6))

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            cosh_series(2) ** 1.5


class TestArgumentScaling:
    def test_sinh_double_argument(self):
        scaled = sinh_series(3).scale_arg(2)
        assert scaled.coeffs == (F(0), F(2), F(0), F(4, 3))

    @given(series())
    def test_scale_by_one_is_identity(self, f):
        assert f.scale_arg(1) == f

    @given(series(order=4), series(order=4), rationals(9, 9))
    def test_scaling_is_multiplicative(self, f, g, c):
        assert (f * g).scale_arg(c) == f.scale_arg(c) * g.scale_arg(c)


class TestCoefficientAccess:
    def test_basic_extraction(self):
        f = PowerSeries([1, 0, -1])
        assert f[2] == -1

    def test_k3_integrand_coefficient(self):
        # S(h)^-4 * S(4h) * (4 cosh h - 1 - cosh 4h); h^2 coefficient -5
        # feeds the K3 value -40 = 2*4*(-5)
        s = sinhc_half_series(2)
        cosh = cosh_series(2)
        integrand = (s ** -4) * s.scale_arg(4) * (4 * cosh - 1 - cosh.scale_arg(4))
        assert integrand[2] == -5

    def test_out_of_range_is_an_error_not_zero(self):
        f = cosh_series(3)
        with pytest.raises(IndexError):
            f[4]
        with pytest.raises(IndexError):
            f[-1]


class TestHyperbolicIdentities:
    def test_cosh_squared_minus_sinh_squared_at_order_32(self):
        order = 32
        cosh = cosh_series(order)
        sinh = sinh_series(order)
        assert cosh * cosh - sinh * sinh == PowerSeries.constant(1, order)

    def test_sinhc_half_shift_reproduces_sinh_of_half(self):
        # S(h) * (h/2) = sinh(h/2): stored coefficients shift by one degree
        order = 10
        s = sinhc_half_series(order)
        sinh_half = sinh_series(order + 1).scale_arg(F(1, 2))
        for k in range(order + 1):
            assert s[k] * F(1, 2) == sinh_half[k + 1]
