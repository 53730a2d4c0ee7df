"""Contract and property tests for exact rationals and sparse polynomials."""

from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rscount.rings import MultiPoly


def rationals(max_numerator=1000, max_denominator=60):
    return st.builds(Fraction,
                     st.integers(-max_numerator, max_numerator),
                     st.integers(1, max_denominator))


def multipolys(num_vars=2, max_exponent=3, max_terms=4):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * num_vars)
    return st.dictionaries(exponents, rationals(9, 9), max_size=max_terms).map(
        lambda terms: MultiPoly(num_vars, terms))


def permuted_terms(poly, order):
    """The terms of ``poly`` with variable ``order[i]`` moved to position i."""
    return {tuple(exponents[i] for i in order): c for exponents, c in poly.terms.items()}


@st.composite
def maybe_symmetrized_multipolys(draw):
    """Polynomials in 1..4 variables, half of them summed over every
    permutation of their variables."""
    r = draw(st.integers(1, 4))
    poly = draw(multipolys(num_vars=r, max_exponent=2, max_terms=5))
    if draw(st.booleans()):
        terms = {}
        for order in permutations(range(r)):
            for exponents, c in permuted_terms(poly, order).items():
                terms[exponents] = terms.get(exponents, 0) + c
        poly = MultiPoly(r, terms)
    return poly


class TestRationalArithmetic:
    def test_addition_exact(self):
        assert Fraction(1, 6) + Fraction(2, 3) == Fraction(5, 6)

    def test_inverse_pair(self):
        assert Fraction(-5, 6) * Fraction(-6, 5) == 1

    def test_division_by_zero_is_an_explicit_error(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    @given(rationals())
    def test_multiplicative_identity(self, x):
        assert x * Fraction(1) == x

    @given(rationals(), rationals(), rationals())
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(rationals(), rationals())
    def test_results_always_reduced(self, x, y):
        for value in (x + y, x - y, x * y):
            assert value.denominator > 0
            assert gcd(abs(value.numerator), value.denominator) == 1
        assert (x - x).numerator == 0 and (x - x).denominator == 1


class TestMultiPolyArithmetic:
    def test_difference_of_squares(self):
        a_plus_1 = MultiPoly(1, {(1,): 1, (0,): 1})
        a_minus_1 = MultiPoly(1, {(1,): 1, (0,): -1})
        assert a_plus_1 * a_minus_1 == MultiPoly(1, {(2,): 1, (0,): -1})

    def test_binomial_cube_coefficients(self):
        a1_plus_a2 = MultiPoly(2, {(1, 0): 1, (0, 1): 1})
        cube = a1_plus_a2 * a1_plus_a2 * a1_plus_a2
        assert cube.coefficient((3, 0)) == 1
        assert cube.coefficient((2, 1)) == 3
        assert cube.coefficient((1, 2)) == 3
        assert cube.coefficient((0, 3)) == 1

    @given(multipolys(), multipolys(), multipolys())
    def test_ring_axioms(self, p, q, s):
        # the axioms of the product: polynomials have no sum
        assert (p * q) * s == p * (q * s)
        assert p * q == q * p

    def test_variable_count_mismatch_rejected(self):
        p = MultiPoly(1, {(1,): 1})
        q = MultiPoly(2, {(1, 0): 1})
        with pytest.raises(ValueError):
            p * q

    def test_only_polynomials_multiply(self):
        p = MultiPoly(1, {(1,): 1})
        for other in (2, Fraction(1, 2), 0.5):
            with pytest.raises(TypeError):
                p * other
            with pytest.raises(TypeError):
                other * p
        with pytest.raises(TypeError):
            p + p

    def test_no_zero_coefficients_stored(self):
        p = MultiPoly(2, {(1, 0): Fraction(3), (0, 1): Fraction(0)})
        assert (0, 1) not in p.terms
        # (a1 + a2)(a1 - a2): the a1*a2 terms cancel
        product = MultiPoly(2, {(1, 0): 1, (0, 1): 1}) * MultiPoly(2, {(1, 0): 1, (0, 1): -1})
        assert product.terms == {(2, 0): 1, (0, 2): -1}
        zero = p * MultiPoly(2)
        assert not zero.terms and zero.degree == -1

    def test_int_coefficient_stored_as_fraction(self):
        p = MultiPoly(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})
        assert p.terms == {(1, 0): Fraction(3), (0, 1): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in p.terms.values())

    def test_list_exponent_vector_stored_as_tuple_of_ints(self):
        class ListKeyed:
            """Terms as (exponent list, coefficient) pairs, which a dict
            cannot hold: the constructor only reads items()."""

            def items(self):
                return [([2, 1], 5)]

        p = MultiPoly(2, ListKeyed())
        assert p.terms == {(2, 1): Fraction(5)}
        (key,) = p.terms
        assert type(key) is tuple and [type(e) for e in key] == [int, int]

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): Fraction(1)})
        with pytest.raises(ValueError):
            MultiPoly(1, {(-1,): Fraction(1)})

    def test_degrees(self):
        p = MultiPoly(2, {(3, 1): Fraction(1), (0, 2): Fraction(5)})
        assert p.degree == 4
        assert p.variable_degree(0) == 3
        assert p.variable_degree(1) == 2
        assert MultiPoly(2).degree == -1
        assert MultiPoly(2).variable_degree(0) == -1

    @pytest.mark.parametrize("exponents", [
        (1,), (1, 0, 0),          # one entry per variable
        (False, 3), (2.5, 0),     # ints only
        (-1, 0)])
    def test_coefficient_checks_its_exponents_as_the_constructor_does(self, exponents):
        p = MultiPoly(2, {(0, 3): 7})
        with pytest.raises(ValueError):
            MultiPoly(2, {exponents: 1})
        with pytest.raises(ValueError):
            p.coefficient(exponents)
        assert p.coefficient([0, 3]) == 7 and p.coefficient((1, 0)) == 0

    @pytest.mark.parametrize("index", [True, False, 1.0, -1, 2])
    def test_variable_degree_takes_an_int_index_of_a_variable(self, index):
        # bool is an int subclass, but True is not a variable index
        with pytest.raises(ValueError):
            MultiPoly(2, {(3, 1): 1}).variable_degree(index)

    @pytest.mark.parametrize("terms", [
        {(2.5,): 1}, {(True,): 1},                  # exponents are ints only
        {(1,): 0.1}, {(1,): "1/3"}, {(1,): True}])  # coefficients ints or Fractions
    def test_inexact_and_bool_inputs_rejected(self, terms):
        with pytest.raises(ValueError):
            MultiPoly(1, terms)

    @pytest.mark.parametrize("num_vars", [True, 2.0, 0])
    def test_variable_count_is_an_int_of_at_least_one(self, num_vars):
        # bool is an int subclass, but True is not a variable count
        with pytest.raises(ValueError):
            MultiPoly(num_vars)

    @pytest.mark.parametrize("terms, shown", [
        ({}, "0"),
        ({(2, 1): 1, (0, 0): 3}, "a1^2*a2 + 3"),
        ({(1, 0): -1}, "-a1"),
        ({(0, 0): -7, (0, 2): 2, (1, 1): Fraction(-1, 2)}, "-1/2*a1*a2 + 2*a2^2 - 7")])
    def test_str(self, terms, shown):
        # by total degree, then lexicographically; unit coefficients drop their 1
        assert str(MultiPoly(2, terms)) == shown

    def test_bool_is_not_a_constant(self):
        a = MultiPoly(1, {(1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(1, {(0,): True})
        with pytest.raises(TypeError):
            a * True
        assert a != True  # noqa: E712
        assert MultiPoly(1, {(0,): 1}) != True  # noqa: E712


class TestMultiPolyEvaluation:
    def test_square_minus_one(self):
        assert MultiPoly(1, {(2,): 1, (0,): -1}).evaluate([Fraction(3)]) == 8

    def test_charnum_polynomial_value(self):
        # -5/6 a^3 + 10/3 a at a = 4
        p = MultiPoly(1, {(3,): Fraction(-5, 6), (1,): Fraction(10, 3)})
        assert p.evaluate([Fraction(4)]) == -40

    @given(multipolys())
    def test_all_ones_gives_coefficient_sum(self, p):
        assert p.evaluate([Fraction(1), Fraction(1)]) == sum(p.terms.values())

    @given(multipolys(), multipolys(), rationals(9, 9), rationals(9, 9))
    def test_evaluation_is_a_ring_homomorphism(self, p, q, x, y):
        point = [x, y]
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1, 0): 1}).evaluate([Fraction(1)])

    # values are exact: no float enters a result, and True is not a value
    @pytest.mark.parametrize("value", [0.5, True, "1", None])
    def test_inexact_values_rejected(self, value):
        with pytest.raises(ValueError):
            MultiPoly(2, {(2, 0): 1, (0, 1): Fraction(1, 4)}).evaluate([Fraction(1), value])


class TestSymmetry:
    def test_symmetric_examples(self):
        assert MultiPoly(2, {(1, 1): 1, (1, 0): 1, (0, 1): 1}).is_symmetric()
        assert not MultiPoly(2, {(2, 1): 1}).is_symmetric()

    def test_univariate_always_symmetric(self):
        assert MultiPoly(1, {(5,): Fraction(7)}).is_symmetric()

    def test_three_variable_cycle_detection(self):
        elementary = MultiPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
        assert elementary.is_symmetric()
        assert not MultiPoly(3, {(1, 1, 0): 1, (0, 1, 1): 1}).is_symmetric()

    def test_an_orbit_with_a_member_missing_is_not_symmetric(self):
        # a1^2*a2 + a1^2*a3 + a2^2*a1 + a2^2*a3 + a3^2*a1, without a3^2*a2
        orbit = [(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2)]
        assert not MultiPoly(3, dict.fromkeys(orbit, 1)).is_symmetric()
        assert MultiPoly(3, dict.fromkeys(orbit + [(0, 1, 2)], 1)).is_symmetric()

    @pytest.mark.parametrize("terms", [
        [(2, 1, 0), (0, 2, 1), (1, 0, 2)],  # invariant under the 3-cycle
        [(1, 0, 1, 0), (0, 1, 0, 1)],       # invariant under the 4-cycle
        [(1, 1, 0)]])                       # invariant under swapping a1 and a2
    def test_invariance_under_one_generator_is_not_symmetry(self, terms):
        assert not MultiPoly(len(terms[0]), dict.fromkeys(terms, 1)).is_symmetric()

    def test_an_orbit_with_two_coefficients_is_not_symmetric(self):
        assert not MultiPoly(2, {(2, 0): 1, (0, 2): 2, (1, 1): 5}).is_symmetric()
        assert not MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}).is_symmetric()

    @given(maybe_symmetrized_multipolys())
    @example(MultiPoly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}))
    def test_agrees_with_applying_every_permutation(self, poly):
        expected = all(permuted_terms(poly, order) == poly.terms
                       for order in permutations(range(poly.num_vars)))
        assert poly.is_symmetric() == expected
