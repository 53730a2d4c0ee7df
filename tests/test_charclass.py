"""Tests for characteristic classes and numbers of complete intersections.

Expected values are frozen from independent routes: hand expansions to low
order, the closed-form expression for degree-(m+2) hypersurfaces, classical
K3/CP^2 invariants, and a symbolic expansion of the raw (un-normalized)
integrand.
"""

import pickle
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb, factorial, inf, isfinite, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_admission import POLYNOMIAL_ROWS, test_library as check_library

from rscount import charclass, verify
from rscount.charclass import (MAX_COMPLEX_DIM, MAX_ESTIMATED_SECONDS, CompleteIntersection,
                               CurvatureClass, InvalidInputError,
                               _bernoulli_ratios, _koszul_coefficients,
                               _koszul_seconds_per_sum, _number_bits,
                               _orderings, _partition_count,
                               _polynomial_seconds,
                               _tree_product,
                               a_hat_genus, char_number,
                               char_number_polynomial, curvature_class,
                               first_chern_coefficient, is_spin, rs_index)
from rscount.rings import MultiPoly
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
        # the degrees come as a list or a tuple, checked before each degree
        for degrees in (4, None, b"\x04", {4}, (a for a in (4,))):
            with pytest.raises(InvalidInputError):
                CompleteIntersection(2, degrees)
        assert CompleteIntersection(2, [4]) == K3

    @pytest.mark.parametrize("fields", [{"m": 0}, {"degrees": ()}, {"degrees": 4}])
    def test_replace_validates(self, fields):
        with pytest.raises(InvalidInputError):
            K3._replace(**fields)

    def test_replace_sorts(self):
        assert K3._replace(degrees=(6, 4)).degrees == (4, 6)

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            K3.m = 3

    def test_repr(self):
        assert repr(K3) == "CompleteIntersection(m=2, degrees=(4,))"

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(K3)) == K3

    def test_is_the_tuple_of_its_fields(self):
        m, degrees = K3
        assert K3 == (m, degrees) == (2, (4,))


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
            expected = -2 * (comb(2 * m + 3, m + 1) + 1 - (m + 2) ** 2)
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


def koszul_numbers(ci):
    """The folded Koszul sum over every signed subset sum, without the budget."""
    return charclass._folded_koszul_sum(ci.m, ci.degrees, _koszul_coefficients(ci.degrees, inf))


def two_sided_koszul_sum(ci, coeffs):
    """The Koszul sum without Serre duality, as the reference for its fold:
    (n+1)(chi(t0+1) + chi(t0-1)) - 2 chi(t0) - sum_j (chi(t0+a_j) + chi(t0-a_j))
    and chi(t0), n = m + r, t0 = -c_1/2, with each binomial C(x, n) the
    falling product x(x-1)...(x-n+1)/n!, taken at 2x over 2^n n!."""
    n = ci.m + ci.codimension
    twice_t0 = -first_chern_coefficient(ci)

    def chi(shift):
        return Fraction(sum(c * prod(twice_t0 + 2 * (shift - s + n - i) for i in range(n))
                            for s, c in coeffs.items()), 2**n * factorial(n))

    charnum = ((n + 1) * (chi(1) + chi(-1)) - 2 * chi(0)
               - sum(chi(a) + chi(-a) for a in ci.degrees))
    return charnum, chi(0)


class TestRiemannRochRoute:
    """char_number and a_hat_genus go by the Riemann-Roch sum; the series
    integrand, which shares no code with it, is the oracle for both."""

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
        # the Koszul sum itself, without the budget
        assert koszul_numbers(ci) == (charnum, a_hat)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30), st.lists(st.integers(1, 12), min_size=1, max_size=6))
    @example(2, [1, 1])         # non-spin
    @example(3, [2, 5])         # odd m
    @example(30, [2, 3, 5, 7, 11, 12])
    @example(2000, [3])         # non-spin, every top below n = 2001
    @example(2000, [2, 2, 3])   # non-spin, a product divided once per number
    @example(2000, [4, 5])      # spin at the same n
    def test_serre_fold_equals_the_two_sided_sum(self, m, degrees):
        ci = CompleteIntersection(m, tuple(degrees))
        every_sum = _koszul_coefficients(ci.degrees, 2 ** len(degrees))
        assert koszul_numbers(ci) == two_sided_koszul_sum(ci, every_sum)

    def test_a_product_the_odd_part_does_not_divide_raises(self, monkeypatch):
        # a cubic surface is non-spin, n = 3: a wrong product would floor to
        # a wrong exact number under the odd part of 3!, so it surfaces instead
        monkeypatch.setattr(charclass, "_tree_product", lambda factors: prod(factors) + 1)
        with pytest.raises(ArithmeticError, match="odd part of n!"):
            char_number(CompleteIntersection(2, (3,)))

    def test_tree_product_equals_prod(self):
        for n in range(41):
            for top in (2 * n + 1, 2 * n - 1, 3, -7, 10**50 + 1):
                factors = range(top, top - 2 * n, -2)
                assert _tree_product(factors) == prod(factors), (n, top)
            assert _tree_product(list(range(1, n + 1))) == factorial(n)

    def test_equal_subset_sums_merge(self):
        # prod (1 - z^2)^19 (1 - z^3): 40 terms where there are 2^20 subsets
        coeffs = _koszul_coefficients((2,) * 19 + (3,), 40)
        assert len(coeffs) == 40
        assert coeffs[0] == 1 and coeffs[41] == 1
        assert 0 not in coeffs.values()
        assert _koszul_coefficients((2,) * 19 + (3,), 39) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.lists(st.integers(1, 24), min_size=5, max_size=12))
    @example(20, [2**k for k in range(1, 13)])              # non-spin, 4096 sums
    @example(12, [2, 4, 8, 16, 32, 65])                     # spin
    @example(7, [2, 3, 4, 5, 6])                            # odd m, non-spin
    def test_the_koszul_sum_agrees_with_the_series_at_r_5_to_12(self, m, degrees):
        # up to 2^12 signed subset sums, called without the budget
        ci = CompleteIntersection(m, tuple(degrees))
        series = (2 * prod(degrees) * _integrand(m, degrees)[m],
                  prod(degrees) * _pole_free_a_hat(m, degrees)[m])
        assert koszul_numbers(ci) == series


class TestBudgets:
    """The cost model's parts, and odd m, which is zero before the Koszul sum runs.
    Which inputs the budget admits, and where it refuses, is tests/test_admission.py's."""

    def test_odd_m_runs_neither_route(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the Koszul sum ran at odd m")
        for name in ("_koszul_coefficients", "_folded_koszul_sum"):
            monkeypatch.setattr(charclass, name, fail)
        ci = CompleteIntersection(801, tuple(2**k for k in range(1, 15)))
        assert (char_number(ci), a_hat_genus(ci)) == (0, 0)

    @pytest.mark.parametrize("m, degrees", [
        (7, (9,)),                                      # spin
        (3, (2, 5)),                                    # non-spin
        (21, tuple(2**k for k in range(1, 9)) + (513,)),  # spin, 512 sums
        (21, tuple(2**k for k in range(1, 10))),        # non-spin, 512 sums
    ])
    def test_odd_m_evaluates_no_binomial(self, m, degrees, monkeypatch):
        calls = []

        def counted(function):
            def wrapper(*args):
                calls.append(function.__name__)
                return function(*args)
            return wrapper
        for name in ("comb", "_tree_product"):
            monkeypatch.setattr(charclass, name, counted(getattr(charclass, name)))
        ci = CompleteIntersection(m, degrees)
        assert (char_number(ci), a_hat_genus(ci)) == (0, 0)
        if is_spin(ci):
            assert rs_index(ci, "plus") == rs_index(ci, "minus") == 0
        assert calls == []
        # the counters see what the even-m neighbour evaluates
        char_number(CompleteIntersection(m - 1, degrees))
        assert calls

    @pytest.mark.parametrize("m, degrees", [
        (2, (4,)), (400, (402,)), (100, (10**6,)), (20, (10**30,)),
        (6, (2, 4, 6)), (8, (3, 5, 7, 10)), (10, (2,) * 19 + (3,))])
    def test_number_bits_estimates_the_largest_binomial(self, m, degrees):
        # spin inputs, where each binomial of the Koszul sum is a math.comb
        ci = CompleteIntersection(m, degrees)
        n, t0 = m + len(degrees), -first_chern_coefficient(ci) // 2
        largest = 0
        for s in _koszul_coefficients(ci.degrees, 2 ** len(degrees)):
            for shift in (0, 1, -1, *degrees, *(-a for a in degrees)):
                x = t0 + shift - s + n
                largest = max(largest, comb(x, n) if x >= 0 else comb(n - x - 1, n))
        assert largest.bit_length() - 1.01 < _number_bits(ci)[0] < largest.bit_length() + 0.01

    @pytest.mark.parametrize("m, degrees", [
        (2, (5,)), (40, (43,)), (6, (2, 4, 7)), (8, (3, 5, 7, 11)), (10, (2,) * 18 + (3,)),
        # every top below n, where a spin sum's binomials are zero
        (2000, (3,)), (400, (2, 2, 3)), (200, (2,) * 10), (300, (1, 1, 1, 3)),
        (100, (2, 4, 6, 8, 10, 12, 14, 16))])
    def test_number_bits_counts_the_non_spin_denominator(self, m, degrees):
        # each term of a non-spin sum is 2^n n! C(x, n), x a half-integer: a
        # product of n odd factors, priced with k = n whatever the top
        ci = CompleteIntersection(m, degrees)
        assert not is_spin(ci)
        n, twice_t0 = m + len(degrees), -first_chern_coefficient(ci)
        largest = 0
        for s in _koszul_coefficients(ci.degrees, 2 ** len(degrees)):
            for shift in (0, 1, -1, *degrees, *(-a for a in degrees)):
                twice_x = twice_t0 + 2 * (shift - s + n)
                largest = max(largest, abs(prod(range(twice_x, twice_x - 2 * n, -2))))
        bits, k = _number_bits(ci)
        assert k == n
        assert largest.bit_length() - 1 <= bits
        if (sum(degrees) + n) // 2 + max(degrees) >= n:
            assert bits < largest.bit_length() + 2

    @pytest.mark.parametrize("m, degrees", [(6000, (2,) * 10), (12000, (2, 2, 3))])
    def test_non_spin_products_within_the_budget_run(self, m, degrees):
        # 1.16 and 1.13 s estimated, 0.05 and 0.1 s in process: r+2 products
        # of n odd factors per sum, and each number divided once
        n = m + len(degrees)
        value = char_number(CompleteIntersection(m, degrees))
        assert 2 ** (2 * n - n.bit_count()) % Fraction(value).denominator == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200).map(lambda h: 2 * h),
           st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    @example(400, [10**6] * 8)              # non-spin: 0.21 s, the largest
    @example(400, [10**6] * 7 + [999999])   # spin: 0.14 s
    def test_every_input_up_to_r_8_is_admitted(self, m, degrees):
        # 2^r signed subset sums at most, so no sum reaches the term limit
        ci = CompleteIntersection(m, degrees)
        assert _koszul_seconds_per_sum(ci) * 2 ** len(degrees) <= MAX_ESTIMATED_SECONDS

    def test_many_binomials_with_small_k_are_admitted(self):
        # 40 signed subset sums of 22 binomials of about 28000 bits, but
        # k = n = 2020: 0.05 to 0.08 s in process, which bits^2 priced past the budget
        ci = CompleteIntersection(2000, (10**6,) * 19 + (10**6 + 1,))
        assert char_number(ci) == koszul_numbers(ci)[0]

    # The polynomial's ADMISSION rows (see tests/test_admission.py), as m-r
    @pytest.mark.parametrize("row", [row for row in POLYNOMIAL_ROWS if not row.refused],
                             ids=lambda row: row.id.removeprefix("polynomial-"))
    def test_polynomials_within_the_budget_run(self, row, monkeypatch):
        check_library(row, monkeypatch)

    @pytest.mark.parametrize("row", [row for row in POLYNOMIAL_ROWS if row.refused],
                             ids=lambda row: row.id.removeprefix("polynomial-"))
    def test_polynomials_past_the_budget_are_refused(self, row, monkeypatch):
        check_library(row, monkeypatch)

    @pytest.mark.parametrize("m", [1, 2, 3, 138, 139, 212, MAX_COMPLEX_DIM])
    def test_estimates_at_the_corners_of_the_domain(self, m):
        # pins the early returns of _polynomial_seconds and of verify's
        # estimate, which keep every estimate inside a float
        for r in (1, 2, 3, 138, 139, 212, MAX_COMPLEX_DIM):
            for seconds in (_polynomial_seconds(m, r), verify._symmetric_poly_seconds(m, r)):
                assert isinstance(seconds, float) and isfinite(seconds) and seconds >= 0, (m, r)

    def test_partition_count_counts_the_keys(self):
        # one key of the recurrence per symmetric orbit of the polynomial's terms
        for m in range(2, 21, 2):
            for r in range(1, 6):
                orbits = {tuple(sorted(e)) for e in char_number_polynomial(m, r).terms}
                assert _partition_count(m // 2, r) == len(orbits), (m, r)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200).map(lambda h: 2 * h),
           st.lists(st.integers(1, 10**6), min_size=1, max_size=12),
           st.integers(0, 11), st.integers(1, 100), st.integers(0, 3))
    def test_estimates_never_fall_as_the_input_grows(self, m, degrees, j, growth, more):
        # Growth by an even amount keeps the parity of c_1, hence spin.  The
        # Koszul sum's estimate is checked in the degrees only: as m grows its
        # binomials near c_1 = 0 shrink, down to zero on Fano inputs, and so
        # does their time.
        ci = CompleteIntersection(m, tuple(degrees))
        grown = list(degrees)
        grown[j % len(grown)] += 2 * growth
        wider = CompleteIntersection(m, tuple(grown))
        assert _koszul_seconds_per_sum(wider) >= _koszul_seconds_per_sum(ci)
        r = len(degrees)
        # the polynomial's estimate stops early past the budget, but only there
        larger = _polynomial_seconds(m + 2 * growth, r + more)
        assert larger >= _polynomial_seconds(m, r) or larger > MAX_ESTIMATED_SECONDS
        # and so does that of verify's symmetric-poly suite, which adds to it
        for grown_m, grown_r in ((m + 2 * growth, r), (m, r + more)):
            larger = verify._symmetric_poly_seconds(grown_m, grown_r)
            assert (larger >= verify._symmetric_poly_seconds(m, r)
                    or larger > MAX_ESTIMATED_SECONDS)


def series_bernoulli_ratios(order):
    """B_{2k}/(2k)! for k = 0..order//2 as the h^{2k} coefficients of
    (h/2) coth(h/2) = cosh(h/2) / (sinh(h/2)/(h/2)), by series division: the
    reference for the tangent-number recurrence."""
    ratios = []
    for n in range(order // 2 + 1):
        ratios.append(F(1, 4**n * factorial(2 * n)) - sum(
            F(1, 4**j * factorial(2 * j + 1)) * ratios[n - j] for j in range(1, n + 1)))
    return ratios


class TestPowerSumPieces:
    def test_bernoulli_ratios_equal_series_division(self):
        # the series at each order is a prefix of the one at order 240
        reference = series_bernoulli_ratios(240)
        for order in range(241):
            assert _bernoulli_ratios(order) == reference[:order // 2 + 1]

    def test_bernoulli_ratios_known_values(self):
        ratios = _bernoulli_ratios(12)
        assert ratios[:3] == [1, F(1, 12), F(-1, 720)]
        assert ratios[6] == F(-691, 2730 * factorial(12))

    def test_orderings_yield_each_permutation_once(self):
        for size in range(1, 9):
            for parts in combinations_with_replacement(range(1, 5), size):
                orderings = list(_orderings(list(parts)))
                assert len(orderings) == len(set(orderings))
                assert set(orderings) == set(permutations(parts))


def solved(rows, values):
    """The solution c of the square system sum_j rows[i][j] c_j = values[i],
    by Gaussian elimination over Fraction."""
    n = len(rows)
    system = [[F(x) for x in row] + [value] for row, value in zip(rows, values)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if system[i][col])
        system[col], system[pivot] = system[pivot], system[col]
        for row in system[col + 1:]:
            factor = row[col] / system[col][col]
            if factor:
                row[col:] = [x - factor * y for x, y in zip(row[col:], system[col][col:])]
    solution = [F(0)] * n
    for i in reversed(range(n)):
        known = sum(system[i][j] * solution[j] for j in range(i + 1, n))
        solution[i] = (system[i][n] - known) / system[i][i]
    return solution


def koszul_polynomial(m, r):
    """The characteristic number as a polynomial in a_1..a_r, interpolated
    from values of the Koszul sum, which shares no code with the power sums.

    For even m it is P(a) = 2 a_1...a_r sum_mu c_mu m_mu(a_1^2, ..., a_r^2),
    over the partitions mu of 0..m/2 into at most r parts.  Each mu gives
    one point: its ascending part vector v, padded with zeros to r entries,
    sets a_i = v_i + 1 + i.  Dividing the values by 2 a_1...a_r leaves a
    square system in the c_mu; each c_mu, doubled, is the coefficient of the
    exponent vectors 2 mu + 1.  Odd m gives the zero polynomial."""
    if m % 2:
        return MultiPoly(r)
    half = m // 2
    vectors = [(0,) * (r - size) + parts for size in range(r + 1)
               for parts in combinations_with_replacement(range(1, half + 1), size)
               if sum(parts) <= half]
    orbits = [set(permutations(v)) for v in vectors]
    rows, values = [], []
    for v in vectors:
        a = [v_i + 1 + i for i, v_i in enumerate(v, 1)]
        rows.append([sum(prod(a_i ** (2 * e) for a_i, e in zip(a, exponents))
                         for exponents in orbit) for orbit in orbits])
        values.append(F(koszul_numbers(CompleteIntersection(m, a))[0]) / (2 * prod(a)))
    return MultiPoly(r, {tuple(2 * e + 1 for e in exponents): 2 * c
                         for c, orbit in zip(solved(rows, values), orbits)
                         for exponents in orbit})


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

    @pytest.mark.parametrize("m", [3, 35])
    def test_odd_dimension_gives_zero_at_the_largest_r(self, m):
        # (35, MAX_COMPLEX_DIM) is estimated at 0.87 s; the zero polynomial's
        # repr shows its variable count
        poly = char_number_polynomial(m, MAX_COMPLEX_DIM)
        assert poly == MultiPoly(MAX_COMPLEX_DIM)
        assert repr(poly) == "MultiPoly(80000, {})"

    def test_codimension_two_specializes_to_hypersurface_values(self):
        poly = char_number_polynomial(2, 2)
        assert poly.evaluate([F(4), F(1)]) == -40
        assert poly.evaluate([F(6), F(1)]) == -160

    def test_leading_coefficients(self):
        for m in (2, 4, 6, 8):
            poly = char_number_polynomial(m, 1)
            assert poly.variable_degree(0) == m + 1
            expected = F(2 * m + 3 - 3 ** (m + 1), 2**m * factorial(m + 1))
            assert poly.terms[(m + 1,)] == expected

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

    @pytest.mark.parametrize("r, max_m", [(1, 21), (2, 21), (3, 19), (4, 15), (5, 11), (6, 9),
                                          (7, 8), (8, 6)])
    def test_equals_the_koszul_oracle(self, r, max_m):
        # every (m, r) of the benchmark's symbolic grid, odd m included, and r = 7, 8
        for m in range(1, max_m + 1):
            assert char_number_polynomial(m, r) == koszul_polynomial(m, r)

    @pytest.mark.parametrize("drop", [False, True], ids=["recoefficient", "drop"])
    def test_the_koszul_oracle_comparison_can_fail(self, drop):
        # one member of the orbit of (7, 1, 1), re-coefficiented or dropped
        terms = dict(char_number_polynomial(6, 3).terms)
        if drop:
            del terms[(7, 1, 1)]
        else:
            terms[(7, 1, 1)] += 1
        assert MultiPoly(3, terms) != koszul_polynomial(6, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.lists(st.integers(1, 12), min_size=1, max_size=8))
    @example(2, [5])            # non-spin: a genuine fraction
    @example(6, [2, 2, 3, 3, 4, 4, 5])
    @example(10, [1, 2, 3, 4, 5, 6, 7, 8])
    def test_evaluates_to_the_koszul_sum(self, m, degrees):
        ci = CompleteIntersection(m, tuple(degrees))
        value = char_number_polynomial(m, len(degrees)).evaluate([F(a) for a in degrees])
        assert value == koszul_numbers(ci)[0]

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

    @pytest.mark.parametrize("chirality", ["both", True, None, "PLUS"])
    def test_rejects_unknown_chirality(self, chirality):
        with pytest.raises(InvalidInputError):
            rs_index(K3, chirality)
