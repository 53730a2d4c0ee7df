"""Tests for characteristic classes and numbers of complete intersections.

Expected values are frozen from independent routes: hand expansions to low
order, the closed-form expression for degree-(m+2) hypersurfaces, classical
K3/CP^2 invariants, and a symbolic expansion of the raw (un-normalized)
integrand.
"""

from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rscount.charclass import (KOSZUL_TERMS_PER_ORDER, CompleteIntersection,
                               CurvatureClass, InvalidInputError,
                               _koszul_coefficients, _power_sum_numbers,
                               _riemann_roch_numbers,
                               a_hat_genus, char_number,
                               char_number_polynomial, curvature_class,
                               first_chern_coefficient, is_spin, rs_index)
from rscount.rings import MultiPoly, binomial
from rscount.series import _integrand, _pole_free_a_hat

F = Fraction

K3 = CompleteIntersection(2, (4,))


class TestCompleteIntersection:
    def test_degrees_stored_sorted(self):
        ci = CompleteIntersection(2, (4, 1, 3))
        assert ci.degrees == (1, 3, 4)
        assert ci.codimension == 3
        assert ci.real_dimension == 4

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            CompleteIntersection(0, (4,))
        with pytest.raises(InvalidInputError):
            CompleteIntersection(2, ())
        with pytest.raises(InvalidInputError):
            CompleteIntersection(2, (0,))
        with pytest.raises(InvalidInputError):
            CompleteIntersection(2, (4, -1))
        # bool is an int subclass, but not a dimension or a degree
        with pytest.raises(InvalidInputError):
            CompleteIntersection(2, (True, 3))
        with pytest.raises(InvalidInputError):
            CompleteIntersection(True, (4,))


class TestFirstChernClass:
    def test_coefficient_values(self):
        assert first_chern_coefficient(K3) == 0
        assert first_chern_coefficient(CompleteIntersection(2, (6,))) == -2
        assert first_chern_coefficient(CompleteIntersection(2, (2, 3))) == 0

    def test_spin_criterion(self):
        assert is_spin(K3)
        assert not is_spin(CompleteIntersection(2, (5,)))
        assert is_spin(CompleteIntersection(4, (8,)))

    def test_curvature_classification(self):
        assert curvature_class(K3) is CurvatureClass.CALABI_YAU
        assert curvature_class(CompleteIntersection(2, (6,))) is CurvatureClass.GENERAL_TYPE
        assert curvature_class(CompleteIntersection(2, (2,))) is CurvatureClass.FANO


class TestCharNumber:
    def test_k3_anchor(self):
        assert char_number(K3) == -40

    def test_odd_complex_dimension_vanishes(self):
        assert char_number(CompleteIntersection(3, (5,))) == 0
        assert char_number(CompleteIntersection(5, (2, 2))) == 0
        assert char_number(CompleteIntersection(1, (4,))) == 0

    def test_sextic_surface(self):
        assert char_number(CompleteIntersection(2, (6,))) == -160

    def test_hyperplane_cut_does_not_change_the_value(self):
        assert char_number(CompleteIntersection(2, (4, 1))) == -40
        assert char_number(CompleteIntersection(2, (4, 1, 1))) == -40

    def test_symmetric_in_degrees(self):
        assert (char_number(CompleteIntersection(3, (2, 5, 3)))
                == char_number(CompleteIntersection(3, (5, 3, 2))))
        assert (char_number(CompleteIntersection(4, (4, 2)))
                == char_number(CompleteIntersection(4, (2, 4))))

    def test_closed_form_for_cy_hypersurfaces(self):
        for m in range(2, 11, 2):
            expected = -2 * (binomial(2 * m + 3, m + 1) + 1 - (m + 2) ** 2)
            assert char_number(CompleteIntersection(m, (m + 2,))) == expected

    def test_values_frozen_from_symbolic_oracle(self):
        assert char_number(CompleteIntersection(4, (6,))) == -854
        assert char_number(CompleteIntersection(4, (8,))) == -3752
        assert char_number(CompleteIntersection(6, (8,))) == -12744

    def test_spin_inputs_give_python_ints(self):
        for ci in (K3, CompleteIntersection(2, (2, 3)), CompleteIntersection(4, (8,)),
                   CompleteIntersection(4, (2, 2, 2)), CompleteIntersection(4, (4, 5)),
                   CompleteIntersection(6, (3, 6))):
            assert is_spin(ci)
            assert isinstance(char_number(ci), int)

    def test_non_spin_inputs_can_be_non_integral(self):
        # CP^2 realized as a degree-1 hypersurface: the pairing is 5/2, so
        # integrality genuinely needs the spin condition
        assert char_number(CompleteIntersection(2, (1,))) == F(5, 2)
        assert char_number(CompleteIntersection(2, (1, 1))) == F(5, 2)
        assert char_number(CompleteIntersection(4, (2, 4))) == F(-459, 2)
        assert char_number(CompleteIntersection(4, (3, 3))) == F(-2527, 16)


class TestRiemannRochRoute:
    """char_number and a_hat_genus go by the Riemann-Roch sum or, past the
    Koszul term limit, by power sums; the series integrand, which shares no
    code with either, is the oracle for both."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 16), st.lists(st.integers(1, 12), min_size=1, max_size=5))
    @example(2, [1, 1])         # non-spin: t0 = -3/2, a genuine fraction
    @example(3, [2, 5])         # odd m, non-spin
    @example(12, [2, 3, 4, 5, 6])
    def test_agrees_with_the_series_route(self, m, degrees):
        ci = CompleteIntersection(m, tuple(degrees))
        charnum = 2 * prod(degrees) * _integrand(m, degrees)[m]
        if charnum.denominator == 1:
            charnum = int(charnum)
        a_hat = prod(degrees) * _pole_free_a_hat(m, degrees)[m]
        assert type(char_number(ci)) is type(charnum)
        assert char_number(ci) == charnum
        assert type(a_hat_genus(ci)) is Fraction
        assert a_hat_genus(ci) == a_hat
        # the Koszul sum itself, whichever route char_number took
        every_sum = _koszul_coefficients(ci.degrees, 2 ** len(degrees))
        assert _riemann_roch_numbers(ci, every_sum) == (charnum, a_hat)

    def test_equal_subset_sums_merge(self):
        # prod (1 - z^2)^19 (1 - z^3): 40 terms where there are 2^20 subsets
        coeffs = _koszul_coefficients((2,) * 19 + (3,), 40)
        assert len(coeffs) == 40
        assert coeffs[0] == 1 and coeffs[41] == 1
        assert 0 not in coeffs.values()
        assert _koszul_coefficients((2,) * 19 + (3,), 39) is None

    @pytest.mark.parametrize("degrees", [
        tuple(2**k for k in range(1, 10)),                  # non-spin
        tuple(2**k for k in range(1, 9)) + (2**9 + 1,),     # spin
    ])
    def test_past_the_term_limit_the_series_route_answers(self, degrees):
        # distinct powers of two have 2^9 distinct signed subset sums
        ci = CompleteIntersection(2, degrees)
        assert _koszul_coefficients(degrees, KOSZUL_TERMS_PER_ORDER * 4) is None
        every_sum = _koszul_coefficients(degrees, 2**9)
        assert (char_number(ci), a_hat_genus(ci)) == _riemann_roch_numbers(ci, every_sum)
        assert char_number(ci) == 2 * prod(degrees) * _integrand(2, degrees)[2]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.lists(st.integers(1, 24), min_size=5, max_size=12))
    @example(20, [2**k for k in range(1, 13)])              # non-spin, 4096 sums
    @example(12, [2, 4, 8, 16, 32, 65])                     # spin
    @example(7, [2, 3, 4, 5, 6])                            # odd m, non-spin
    def test_power_sums_agree_with_the_koszul_sum_and_the_series(self, m, degrees):
        # the route past the term limit, called directly at r = 5..12
        ci = CompleteIntersection(m, tuple(degrees))
        every_sum = _koszul_coefficients(ci.degrees, 2 ** len(degrees))
        series = (2 * prod(degrees) * _integrand(m, degrees)[m],
                  prod(degrees) * _pole_free_a_hat(m, degrees)[m])
        assert _power_sum_numbers(ci) == _riemann_roch_numbers(ci, every_sum) == series


class TestCharNumberPolynomial:
    def test_hypersurface_surface_polynomial(self):
        expected = MultiPoly(1, {(3,): F(-5, 6), (1,): F(10, 3)})
        assert char_number_polynomial(2, 1) == expected

    def test_hypersurface_fourfold_polynomial(self):
        # frozen from the symbolic expansion of the raw integrand
        expected = MultiPoly(1, {(5,): F(-29, 240), (3,): F(5, 12), (1,): F(-11, 15)})
        assert char_number_polynomial(4, 1) == expected

    def test_odd_dimension_gives_zero(self):
        for m in (1, 3, 5, 7):
            assert not char_number_polynomial(m, 1)
        assert not char_number_polynomial(3, 2)

    def test_codimension_two_specializes_to_hypersurface_values(self):
        poly = char_number_polynomial(2, 2)
        assert poly.evaluate([F(4), F(1)]) == -40
        assert poly.evaluate([F(6), F(1)]) == -160

    def test_leading_coefficients(self):
        for m in (2, 4, 6, 8):
            poly = char_number_polynomial(m, 1)
            assert poly.degree == m + 1
            expected = F(2 * m + 3 - 3 ** (m + 1), 2**m * factorial(m + 1))
            assert poly.coefficient((m + 1,)) == expected

    def test_symmetry_and_variable_degree(self):
        poly = char_number_polynomial(2, 2)
        assert poly.is_symmetric()
        assert poly.variable_degree(0) == 3
        assert poly.variable_degree(1) == 3

    def test_matches_pointwise_char_number(self):
        poly = char_number_polynomial(4, 2)
        for degrees in ((2, 4), (3, 3), (6, 1), (5, 2)):
            ci = CompleteIntersection(4, degrees)
            assert poly.evaluate([F(a) for a in degrees]) == char_number(ci)

    @pytest.mark.parametrize("r, max_m", [(1, 21), (2, 21), (3, 19), (4, 15), (5, 11), (6, 9)])
    def test_equals_the_series_oracle(self, r, max_m):
        # every (m, r) of the benchmark's symbolic grid, odd m included
        variables = [MultiPoly.variable(i, r) for i in range(r)]
        for m in range(1, max_m + 1):
            oracle = 2 * prod(variables) * _integrand(m, variables)[m]
            assert char_number_polynomial(m, r) == oracle

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.lists(st.integers(1, 12), min_size=1, max_size=4))
    @example(2, [5])            # non-spin: a genuine fraction
    def test_evaluates_to_the_koszul_sum(self, m, degrees):
        ci = CompleteIntersection(m, tuple(degrees))
        every_sum = _koszul_coefficients(ci.degrees, 2 ** len(degrees))
        value = char_number_polynomial(m, len(degrees)).evaluate([F(a) for a in degrees])
        assert value == _riemann_roch_numbers(ci, every_sum)[0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            char_number_polynomial(0, 1)
        with pytest.raises(InvalidInputError):
            char_number_polynomial(2, 0)


class TestAHatGenus:
    def test_k3(self):
        # classical value: -<p1,[M]>/24 = 48/24 = 2
        assert a_hat_genus(K3) == 2

    def test_odd_dimension_vanishes(self):
        assert a_hat_genus(CompleteIntersection(3, (5,))) == 0
        assert a_hat_genus(CompleteIntersection(1, (3,))) == 0

    def test_projective_plane(self):
        # CP^2 cut out by two hyperplanes in CP^4; A-hat(CP^2) = -1/8
        assert a_hat_genus(CompleteIntersection(2, (1, 1))) == F(-1, 8)

    def test_values_frozen_from_symbolic_oracle(self):
        assert a_hat_genus(CompleteIntersection(2, (6,))) == 8
        assert a_hat_genus(CompleteIntersection(4, (6,))) == 2
        assert a_hat_genus(CompleteIntersection(4, (8,))) == 12
        assert a_hat_genus(CompleteIntersection(4, (2, 4))) == F(7, 16)


class TestRaritaSchwingerIndex:
    def test_k3_both_chiralities(self):
        assert rs_index(K3, "plus") == -38
        assert rs_index(K3, "minus") == 38

    def test_quintic_threefold_vanishes(self):
        assert rs_index(CompleteIntersection(3, (5,)), "plus") == 0

    def test_sextic_surface(self):
        ci = CompleteIntersection(2, (6,))
        assert rs_index(ci, "plus") == -160 + 8

    def test_requires_spin_structure(self):
        with pytest.raises(InvalidInputError):
            rs_index(CompleteIntersection(2, (5,)), "plus")

    def test_rejects_unknown_chirality(self):
        with pytest.raises(InvalidInputError):
            rs_index(K3, "both")
