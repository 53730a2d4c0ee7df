"""Contract and property tests for the truncated power series of the
oracle: products, inversion, powers, argument scaling, and the two series
``_pole_free_a_hat`` and ``_integrand`` built from them.  The series that
the identities below use are built here from their Taylor coefficients."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rscount.rings import MultiPoly
from rscount.series import PowerSeries, _integrand, _pole_free_a_hat

F = Fraction


def cosh(order):
    return PowerSeries([0 if k % 2 else F(1, factorial(k)) for k in range(order + 1)])


def sinh(order):
    return PowerSeries([F(1, factorial(k)) if k % 2 else 0 for k in range(order + 1)])


def sinhc_half(order):
    """sinh(h/2)/(h/2): coefficients 1/(2^k (k+1)!) at even k."""
    return PowerSeries([0 if k % 2 else F(1, 2**k * factorial(k + 1)) for k in range(order + 1)])


def one(order):
    return (F(1),) + (F(0),) * order


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
    """The Taylor coefficients built above, by hand."""

    def test_cosh_coefficients(self):
        assert cosh(4).coeffs == (F(1), F(0), F(1, 2), F(0), F(1, 24))

    def test_sinh_coefficients(self):
        assert sinh(5).coeffs == (F(0), F(1), F(0), F(1, 6), F(0), F(1, 120))

    def test_sinhc_half_coefficients(self):
        assert sinhc_half(2).coeffs == (F(1), F(0), F(1, 24))
        assert sinhc_half(4)[4] == F(1, 1920)

    def test_the_oracle_inverts_the_same_sinhc_half(self):
        # with no degrees the pole-free A-hat series is S(h)^{-(m+1)}
        for m in range(1, 9):
            assert _pole_free_a_hat(m, ()).coeffs == (sinhc_half(m) ** -(m + 1)).coeffs


class TestArithmetic:
    def test_product_of_linear_factors(self):
        one_plus = PowerSeries([1, 1, 0])
        one_minus = PowerSeries([1, -1, 0])
        assert (one_plus * one_minus).coeffs == (F(1), F(0), F(-1))

    @given(series())
    def test_multiplicative_identity(self, f):
        assert (f * PowerSeries(one(f.order))).coeffs == f.coeffs

    def test_sinh_times_cosh_is_half_sinh_double(self):
        # sinh(2h)/2 = h + 2h^3/3 + 2h^5/15, expanded by hand
        product = sinh(5) * cosh(5)
        assert product.coeffs == (F(0), F(1), F(0), F(2, 3), F(0), F(2, 15))

    def test_result_order_is_minimum_of_operands(self):
        assert (cosh(6) * sinh(3)).order == 3
        assert (sinh(3) * cosh(6)).order == 3

    @pytest.mark.parametrize("scalar", [2, F(1, 2)])
    def test_only_series_multiply(self, scalar):
        with pytest.raises(TypeError):
            cosh(2) * scalar
        with pytest.raises(TypeError):
            scalar * cosh(2)

    # coefficients are rationals only: a polynomial is no coefficient either
    @pytest.mark.parametrize("value", [0.5, True, "1", None, MultiPoly(1, {(1,): 1})])
    def test_inexact_coefficients_rejected(self, value):
        with pytest.raises(TypeError):
            PowerSeries([1, value])
        with pytest.raises(TypeError):
            cosh(2).scale_arg(value)

    def test_coefficients_are_stored_as_fractions(self):
        assert all(type(c) is Fraction for c in PowerSeries([1, 0, -2]).coeffs)


class TestInversion:
    def test_geometric_series(self):
        one_minus_h = PowerSeries([1, -1] + [0] * 7)
        assert one_minus_h.invert().coeffs == tuple(F(1) for _ in range(9))

    def test_inverse_of_one(self):
        assert PowerSeries(one(4)).invert().coeffs == one(4)

    def test_inverse_of_sinhc_half(self):
        # solve S*g = 1 by hand: g = 1 - h^2/24 + 7h^4/5760
        inverse = sinhc_half(4).invert()
        assert inverse.coeffs == (F(1), F(0), F(-1, 24), F(0), F(7, 5760))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            sinh(3).invert()

    @given(unit_series())
    def test_round_trip(self, f):
        assert (f * f.invert()).coeffs == one(f.order)


class TestPowers:
    def test_square_of_linear(self):
        f = PowerSeries([1, 1, 0])
        assert (f ** 2).coeffs == (F(1), F(2), F(1))

    @given(series())
    def test_zeroth_power_is_one(self, f):
        assert (f ** 0).coeffs == one(f.order)

    def test_negative_power_of_sinhc_half(self):
        # hand value used in the K3 characteristic-number check
        assert (sinhc_half(2) ** -4).coeffs == (F(1), F(0), F(-1, 6))

    def test_non_integer_exponent_rejected(self):
        for exponent in (1.5, F(2), True):
            with pytest.raises(TypeError):
                cosh(2) ** exponent


class TestArgumentScaling:
    def test_sinh_double_argument(self):
        scaled = sinh(3).scale_arg(2)
        assert scaled.coeffs == (F(0), F(2), F(0), F(4, 3))

    @given(series())
    def test_scale_by_one_is_identity(self, f):
        assert f.scale_arg(1).coeffs == f.coeffs

    @given(series(order=4), series(order=4), rationals(9, 9))
    def test_scaling_is_multiplicative(self, f, g, c):
        assert (f * g).scale_arg(c).coeffs == (f.scale_arg(c) * g.scale_arg(c)).coeffs


class TestCoefficientAccess:
    def test_basic_extraction(self):
        f = PowerSeries([1, 0, -1])
        assert f[2] == -1

    def test_k3_integrand_coefficient(self):
        # S(h)^-4 * S(4h) * (4 cosh h - 1 - cosh 4h); h^2 coefficient -5
        # feeds the K3 value -40 = 2*4*(-5).  The last factor is 2 - 6h^2.
        s = sinhc_half(2)
        by_hand = (s ** -4) * s.scale_arg(4) * PowerSeries([2, 0, -6])
        assert by_hand[2] == -5
        assert _integrand(2, (4,)).coeffs == by_hand.coeffs

    def test_out_of_range_is_an_error_not_zero(self):
        f = cosh(3)
        with pytest.raises(IndexError):
            f[4]
        with pytest.raises(IndexError):
            f[-1]


class TestHyperbolicIdentities:
    def test_cosh_squared_minus_sinh_squared_at_order_32(self):
        order = 32
        squares = zip((cosh(order) * cosh(order)).coeffs, (sinh(order) * sinh(order)).coeffs)
        assert tuple(c - s for c, s in squares) == one(order)

    def test_sinhc_half_shift_reproduces_sinh_of_half(self):
        # S(h) * (h/2) = sinh(h/2): stored coefficients shift by one degree
        order = 10
        s = sinhc_half(order)
        sinh_half = sinh(order + 1).scale_arg(F(1, 2))
        for k in range(order + 1):
            assert s[k] * F(1, 2) == sinh_half[k + 1]
