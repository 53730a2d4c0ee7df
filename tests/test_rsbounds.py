"""Tests for the Rarita-Schwinger bound machinery and the reference tables."""

import json
import random
from functools import cache
from math import comb, lgamma, log

import pytest
from conftest import golden
from hypothesis import given, settings
from hypothesis import strategies as st

from rscount import charclass, rsbounds, verify
from rscount.charclass import (CompleteIntersection, CurvatureClass, InvalidInputError,
                               char_number, char_number_polynomial)
from rscount.rsbounds import (MAX_TORUS_DIM, THRESHOLD_DIGITS,
                              TheoremInapplicableError,
                              cy_hypersurface_bound_closed_form,
                              degree_search_report, exceeds_torus,
                              find_degree_exceeding,
                              hypersurface_char_number_closed_form,
                              max_parallel_spinors, product_bound,
                              rs_lower_bound, torus_parallel_spinors,
                              torus_rs_dimension)

# maximal parallel-spinor counts for n = 1..28
PARALLEL_SPINOR_TABLE = [0, 0, 0, 2, 0, 0, 1, 4, 0, 0, 2, 8, 0, 2,
                         4, 16, 0, 4, 8, 32, 2, 8, 16, 64, 4, 16, 32, 128]

# (m, hypersurface bound, torus count) for even m = 2..30
CALABI_YAU_TABLE = [
    (2, 38, 12),
    (4, 850, 112),
    (6, 12736, 704),
    (8, 184542, 3840),
    (10, 2703838, 19456),
    (12, 40116146, 94208),
    (14, 601079752, 442368),
    (16, 9075134398, 2031616),
    (18, 137846527510, 9175040),
    (20, 2104098961730, 40894464),
    (22, 32247603679902, 180355072),
    (24, 495918532942658, 788529152),
    (26, 7648690600750682, 3422552064),
    (28, 118264581564843242, 14763950080),
    (30, 1832624140942555720, 63350767616),
]


class TestMaxParallelSpinors:
    def test_reference_table(self):
        assert [max_parallel_spinors(n) for n in range(1, 29)] == PARALLEL_SPINOR_TABLE

    def test_residue_classes_beyond_the_table(self):
        assert max_parallel_spinors(100) == 2**25
        assert max_parallel_spinors(35) == 2**7      # 4*7 + 7
        assert max_parallel_spinors(30) == 2**5      # 4*4 + 14
        assert max_parallel_spinors(29) == 2**3      # 4*2 + 21
        assert max_parallel_spinors(MAX_TORUS_DIM) == 2 ** (MAX_TORUS_DIM // 4)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(InvalidInputError):
            max_parallel_spinors(0)
        with pytest.raises(InvalidInputError):
            max_parallel_spinors(-4)


class TestTorusCounts:
    def test_rs_dimension_values(self):
        assert torus_rs_dimension(4) == 12
        assert torus_rs_dimension(8) == 112
        assert torus_rs_dimension(1) == 0
        assert torus_rs_dimension(MAX_TORUS_DIM) == (MAX_TORUS_DIM - 1) * 2 ** (MAX_TORUS_DIM // 2)

    def test_rs_dimension_matches_reference_table(self):
        for m, _, torus in CALABI_YAU_TABLE:
            assert torus_rs_dimension(2 * m) == torus

    def test_parallel_spinor_counts(self):
        assert torus_parallel_spinors(2) == 2
        assert torus_parallel_spinors(3) == 2
        assert torus_parallel_spinors(0) == 1
        assert torus_parallel_spinors(MAX_TORUS_DIM) == 2 ** (MAX_TORUS_DIM // 2)

    def test_rejections(self):
        with pytest.raises(InvalidInputError):
            torus_rs_dimension(0)
        with pytest.raises(InvalidInputError):
            torus_parallel_spinors(-1)


class TestRSLowerBound:
    def test_k3_report(self):
        report = rs_lower_bound(CompleteIntersection(2, (4,)))
        assert report.n == 4
        assert report.spin is True
        assert report.curvature is CurvatureClass.CALABI_YAU
        assert report.charnum == -40
        assert report.a_hat_genus == 2
        assert report.rs_index_plus == -38
        assert report.parallel_spinor_deduction == 2
        assert report.bound_plus == 0
        assert report.bound_minus == 38
        assert report.bound_total == 38

    def test_sextic_surface_has_no_deduction(self):
        report = rs_lower_bound(CompleteIntersection(2, (6,)))
        assert report.curvature is CurvatureClass.GENERAL_TYPE
        assert report.parallel_spinor_deduction == 0
        assert report.bound_total == 160

    def test_fourfold_hypersurfaces(self):
        # degree 6 is the Calabi-Yau case of the reference table; degree 8
        # is general type (charnum -3752 from the symbolic oracle)
        assert rs_lower_bound(CompleteIntersection(4, (6,))).bound_total == 850
        report = rs_lower_bound(CompleteIntersection(4, (8,)))
        assert report.curvature is CurvatureClass.GENERAL_TYPE
        assert report.bound_total == 3752

    def test_vacuous_bound_clamps_to_zero(self):
        # odd m Calabi-Yau: charnum 0 but N(14) = 2, so the raw bound is
        # negative and must clamp
        report = rs_lower_bound(CompleteIntersection(7, (9,)))
        assert report.charnum == 0
        assert report.parallel_spinor_deduction == 2
        assert report.bound_total == 0
        assert report.bound_plus == 0 and report.bound_minus == 0

    def test_non_spin_rejected(self):
        with pytest.raises(TheoremInapplicableError, match="spin"):
            rs_lower_bound(CompleteIntersection(2, (5,)))

    def test_fano_rejected(self):
        with pytest.raises(TheoremInapplicableError, match="fano"):
            rs_lower_bound(CompleteIntersection(2, (2,)))

    def test_low_dimension_rejected(self):
        # m = 1, degree 5: spin (k = -2) and general type, but n = 2 < 4
        with pytest.raises(TheoremInapplicableError, match="dimension"):
            rs_lower_bound(CompleteIntersection(1, (5,)))

    @given(st.integers(-500, 500), st.integers(0, 64))
    def test_bound_arithmetic(self, charnum, deduction):
        plus = max(charnum - deduction, 0)
        minus = max(-charnum - deduction, 0)
        total = max(abs(charnum) - deduction, 0)
        assert plus + minus >= total
        if deduction == 0:
            assert plus + minus == total


class TestClosedForms:
    def test_char_number_closed_form(self):
        assert hypersurface_char_number_closed_form(2) == -40
        assert hypersurface_char_number_closed_form(4) == -854

    def test_bound_values(self):
        assert cy_hypersurface_bound_closed_form(2) == 38
        assert cy_hypersurface_bound_closed_form(12) == 40116146
        assert cy_hypersurface_bound_closed_form(30) == 1832624140942555720

    def test_reference_table(self):
        for m, bound, _ in CALABI_YAU_TABLE:
            assert cy_hypersurface_bound_closed_form(m) == bound

    def test_bound_equals_report_for_cy_hypersurfaces(self):
        for m in range(2, 15, 2):
            report = rs_lower_bound(CompleteIntersection(m, (m + 2,)))
            assert report.charnum < 0
            assert report.bound_total == cy_hypersurface_bound_closed_form(m)

    def test_reach_at_m_400(self):
        # far past the order the series route reaches in a test's time
        ci = CompleteIntersection(400, (402,))
        assert char_number(ci) == hypersurface_char_number_closed_form(400)
        assert rs_lower_bound(ci).bound_total == cy_hypersurface_bound_closed_form(400)

    def test_closed_forms_share_no_code_with_the_koszul_sum(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the Koszul sum ran")
        monkeypatch.setattr(charclass, "_folded_koszul_sum", fail)
        monkeypatch.setattr(rsbounds, "_folded_koszul_sum", fail)
        for m, bound, _ in CALABI_YAU_TABLE:
            assert hypersurface_char_number_closed_form(m) == -bound - 2 ** (m // 2)
            assert cy_hypersurface_bound_closed_form(m) == bound
        # while the degree search runs on it
        with pytest.raises(AssertionError, match="the Koszul sum ran"):
            find_degree_exceeding(2, 1000)

    def test_odd_m_rejected(self):
        for fn in (hypersurface_char_number_closed_form,
                   cy_hypersurface_bound_closed_form, exceeds_torus):
            with pytest.raises(ValueError):
                fn(3)


class TestProductBound:
    def test_values(self):
        assert product_bound(38, 2) == 76
        assert product_bound(160, 1) == 160
        assert product_bound(123, 0) == 123

    def test_negative_base_rejected(self):
        with pytest.raises(InvalidInputError):
            product_bound(-1, 2)


# bool is an int subclass, but True is not a dimension, degree, bound or
# threshold, nor is n past MAX_TORUS_DIM; each call maps to the argument its rejection names
BOOL_INPUTS = {
    lambda: find_degree_exceeding(2, True): "threshold",
    lambda: find_degree_exceeding(True, 10): "m",
    lambda: char_number_polynomial(2, True): "codimension r",
    lambda: char_number_polynomial(True, 1): "dimension m",
    lambda: torus_parallel_spinors(True): "torus dimension",
    lambda: torus_rs_dimension(True): "dimension n",
    lambda: max_parallel_spinors(True): "dimension n",
    lambda: torus_rs_dimension(MAX_TORUS_DIM + 1): "dimension n",
    lambda: max_parallel_spinors(MAX_TORUS_DIM + 1): "dimension n",
    lambda: product_bound(True, 2): "base bound",
    lambda: product_bound(38, True): "torus dimension",
    lambda: verify.closed_form(True): "max_m",
    lambda: verify.torus_inequality(True): "max_m",
    lambda: verify.hypersurface_poly(True): "m",
    lambda: verify.symmetric_poly(True, 2): "m",
    lambda: verify.symmetric_poly(2, True): "r",
    lambda: exceeds_torus(True): "m",
    lambda: hypersurface_char_number_closed_form(True): "m",
    lambda: cy_hypersurface_bound_closed_form(True): "m",
}


@pytest.mark.parametrize("call", BOOL_INPUTS)
def test_bool_is_not_an_integer_input(call):
    with pytest.raises(InvalidInputError, match=f"^{BOOL_INPUTS[call]} must be "):
        call()


def hypersurface_number(m, a):
    return char_number(CompleteIntersection(m, (a,)))


def search_number(m, a):
    """P(a) as find_degree_exceeding evaluates it: charclass's Serre-folded
    Koszul sum at degrees (a,), whose signed subset sums are {0: 1, a: -1}."""
    return charclass._folded_koszul_sum(m, (a,), {0: 1, a: -1})[0]


def four_binomial_number(m, a):
    """The search's oracle, which shares no code with it: P(a) for even m and
    even a >= m+2 in four binomials,
    2*[(m+2)*(C(k+1, n) + C(k-1, n)) - C(k, n) - C(k+a, n)], n = m+1,
    k = (a+m)/2.  This is the folded sum 2*[(n+1) chi(t0+1) - chi(t0)
    - chi(t0+a)] with chi(t) = C(t+n, n) - C(t-a+n, n) and t0 = k-n, after
    each binomial of negative top is reflected as C(x, n) = -C(n-x-1, n)
    (n is odd)."""
    n, k = m + 1, (a + m) // 2
    return 2 * ((m + 2) * (comb(k + 1, n) + comb(k - 1, n)) - comb(k, n) - comb(k + a, n))


def linear_scan(m, threshold, value):
    """The reference search: every even degree from m+4, in order."""
    a = m + 4
    while abs(value(a)) <= threshold:
        a += 2
    return a


def galloping_search(m, threshold):
    """The reference search for answers the linear scan cannot reach:
    (a, fold at a), galloping with doubling steps from a = m+2 whatever the
    threshold, then bisecting, on search_number's fold."""
    def fold(a):
        return charclass._folded_koszul_sum(m, (a,), {0: 1, a: -1})
    lo, step = m + 2, 2
    while abs((found := fold(lo + step))[0]) <= threshold:
        lo += step
        step *= 2
    hi = lo + step
    while hi - lo > 2:
        mid = lo + (hi - lo) // 4 * 2
        if abs((numbers := fold(mid))[0]) > threshold:
            hi, found = mid, numbers
        else:
            lo = mid
    return hi, found


@st.composite
def boundary_thresholds(draw):
    """(m, [|P(a)| - 1, |P(a)|, |P(a)| + 1] below 10^THRESHOLD_DIGITS) for
    even m <= 1000 and an even degree a of log-uniform size, up to about
    10^330, where |P(a)| ~ 2*3^n (a/2)^n/n! nears 10^1000."""
    m = 2 * draw(st.integers(1, 500))
    n = m + 1
    digits = draw(st.integers(1, max(1, int((1000 + lgamma(n + 1) / log(10)) / n))))
    a = 2 * draw(st.integers(max(10 ** (digits - 1), m + 4) // 2, 10**digits // 2 + m))
    value = abs(four_binomial_number(m, a))
    return m, [t for t in (value - 1, value, value + 1) if 1 <= t < 10**THRESHOLD_DIGITS]


class TestDegreeSearch:
    def test_first_admissible_degree(self):
        assert find_degree_exceeding(2, 100) == 6
        assert find_degree_exceeding(2, 1) == 6

    def test_larger_thresholds(self):
        # |charnum| along even degrees 6, 8, 10, 12 is 160, 400, 800, 1400
        assert find_degree_exceeding(2, 1000) == 12
        assert find_degree_exceeding(2, 799) == 10
        assert find_degree_exceeding(4, 1) == 8

    def test_found_degree_is_minimal(self):
        threshold = 1000
        found = find_degree_exceeding(2, threshold)
        assert abs(char_number(CompleteIntersection(2, (found,)))) > threshold
        for a in range(6, found, 2):
            assert abs(char_number(CompleteIntersection(2, (a,)))) <= threshold

    @pytest.mark.parametrize("m", range(2, 13, 2))
    def test_matches_the_linear_scan(self, m):
        value = cache(lambda a: hypersurface_number(m, a))
        thresholds = {1}
        for a in range(m + 4, m + 601, 2):
            thresholds |= {abs(value(a)), abs(value(a)) - 1}
        for threshold in sorted(thresholds - {0}):
            assert find_degree_exceeding(m, threshold) == linear_scan(m, threshold, value)

    @pytest.mark.parametrize("m", range(2, 61, 2))
    def test_newton_form_equals_char_number(self, m):
        # the number the search evaluates, against the four-binomial oracle
        # and char_number
        rng = random.Random(m)
        degrees = list(range(m + 2, m + 301, 2))
        degrees += [2 * rng.randrange(10**(digits - 1) // 2, 10**digits // 2)
                    for digits in (3, 10, 30, 100, 300) for _ in range(4)]
        for a in degrees:
            assert search_number(m, a) == four_binomial_number(m, a) == hypersurface_number(m, a), a

    @pytest.mark.parametrize("m, threshold", [
        (2, 10**30), (2, 10**1000), (40, 10**1000), (1000, 10**1000)])
    def test_char_number_runs_only_at_scanned_degrees(self, m, threshold,
                                                       monkeypatch):
        # the search folds the Koszul sum itself, so the budgeted
        # _characteristic_numbers runs at no degree, nor for the report at the answer
        evaluated = []

        def counted(ci):
            evaluated.append(ci.degrees[0])
            return charclass._characteristic_numbers(ci)
        monkeypatch.setattr(rsbounds, "_characteristic_numbers", counted)
        found = find_degree_exceeding(m, threshold)
        assert degree_search_report(m, threshold).ci.degrees == (found,)
        assert evaluated == []
        assert abs(hypersurface_number(m, found)) > threshold
        assert abs(hypersurface_number(m, found - 2)) <= threshold

    @settings(max_examples=80, deadline=None)
    @given(boundary_thresholds())
    def test_matches_the_galloping_search(self, case):
        m, thresholds = case
        for threshold in thresholds:
            assert rsbounds._hypersurface_search(m, threshold) == galloping_search(m, threshold)

    @pytest.mark.parametrize("m, threshold, most", [
        (2, 10**1000, 8), (8, 10**300, 8), (40, 10**1000, 16), (1000, 10**1000, 19)],
        ids=["2-10^1000", "8-10^300", "40-10^1000", "1000-10^1000"])
    def test_evaluations_start_near_the_answer(self, m, threshold, most, monkeypatch):
        # the galloping search makes 2213, 223, 167 and 19 evaluations of the fold
        evaluated = []

        def counted(m, degrees, coeffs):
            evaluated.append(degrees[0])
            return charclass._folded_koszul_sum(m, degrees, coeffs)
        monkeypatch.setattr(rsbounds, "_folded_koszul_sum", counted)
        assert find_degree_exceeding(m, threshold) == galloping_search(m, threshold)[0]
        assert 0 < len(evaluated) <= most
        assert all(a % 2 == 0 and a >= m + 4 for a in evaluated)

    def test_threshold_1_takes_one_evaluation(self, monkeypatch):
        # |P(a)| = 2Q(k) >= 2 at every even a >= m+4, so the fold is replaced
        # by that least value, which threshold 1 is below
        evaluated = []

        def least(m, degrees, coeffs):
            evaluated.append(degrees[0])
            return -2, 1
        monkeypatch.setattr(rsbounds, "_folded_koszul_sum", least)
        for m in range(2, 8001, 2):
            evaluated.clear()
            assert find_degree_exceeding(m, 1) == m + 4
            assert evaluated == [m + 4], m

    def test_golden_at_10_to_300_is_the_four_binomial_answer(self):
        result = json.loads(golden("search_m8_t1e300.json"))["result"]
        a, charnum = result["degree"], int(result["charnum"])
        assert (result["m"], result["threshold"]) == (8, str(10**300))
        assert charnum == four_binomial_number(8, a) < 0
        assert abs(four_binomial_number(8, a - 2)) <= 10**300 < -charnum
        assert result["report"]["boundTotal"] == str(-charnum)

    def test_monotonicity_proof_inequalities(self):
        # the steps of find_degree_exceeding's proof, in integers, with
        # Q(k) = -P(2k - m)/2 on the four-binomial oracle
        for m in range(2, 201, 2):
            def q(k):
                return -four_binomial_number(m, 2 * k - m) // 2
            cubic = (m + 2) ** 2 * (m + 3)
            assert 2 * q(m + 2) == 2 * comb(2 * m + 6, m + 1) - cubic > 0
            assert comb(2 * m + 6, m + 1) >= comb(2 * m + 6, 3)
            assert 2 * comb(2 * m + 6, 3) > cubic
            for k in range(m + 2, m + 201):
                subtracted = (m + 2) * (comb(k + 1, m) + comb(k - 1, m))
                step = sum(comb(3 * k - m + j, m) for j in range(3)) + comb(k, m) - subtracted
                assert q(k + 1) - q(k) == step > 0
                assert comb(3 * k - m, m) >= 2**m * comb(k + 1, m)
                assert 3 * 2**m * comb(k + 1, m) > 2 * (m + 2) * comb(k + 1, m) >= subtracted

    @pytest.mark.parametrize("m, threshold", [(2, 10**100), (40, 10**1000)])
    def test_reach(self, m, threshold):
        found = find_degree_exceeding(m, threshold)
        assert abs(hypersurface_number(m, found)) > threshold
        assert abs(hypersurface_number(m, found - 2)) <= threshold

    @pytest.mark.parametrize("m, threshold", [(2, 1), (2, 10**30), (40, 10**100), (200, 10**1000)])
    def test_report_equals_rs_lower_bound_at_the_answer(self, m, threshold):
        ci = CompleteIntersection(m, (find_degree_exceeding(m, threshold),))
        assert degree_search_report(m, threshold) == rs_lower_bound(ci)

    def test_rejections(self):
        with pytest.raises(InvalidInputError):
            degree_search_report(2, 0)
        with pytest.raises(InvalidInputError):
            find_degree_exceeding(3, 10)
        with pytest.raises(InvalidInputError):
            find_degree_exceeding(2, 0)


class TestTorusComparison:
    def test_small_cases(self):
        assert exceeds_torus(2)      # 38 > 12
        assert exceeds_torus(8)      # 184542 > 3840

    def test_full_range(self):
        assert all(exceeds_torus(m) for m in range(2, 61, 2))

    def test_proof_inequalities(self):
        # the steps of exceeds_torus's proof, in integers
        def sides(m):
            """(smaller, larger) sides of steps (ii) and (iii)"""
            return ((2 * (m + 2) ** 2 + 2 ** (m // 2), (m + 1) * 2**m),
                    (3 * m * (m + 1), 4 * 2**m))
        assert (cy_hypersurface_bound_closed_form(2), torus_rs_dimension(4)) == (38, 12)
        for k in range(1, 402):
            assert 2 * k * comb(2 * k, k) >= 4**k
            assert (k + 1) * comb(2 * k + 2, k + 1) == 2 * (2 * k + 1) * comb(2 * k, k)
        for m in range(4, 401, 2):
            assert comb(2 * m + 3, m + 1) >= comb(2 * m + 2, m + 1)
            assert (m + 1) * 2 * comb(2 * m + 3, m + 1) >= 4 ** (m + 1)
            (ii, ii_larger), (iii, iii_larger) = sides(m)
            assert ii <= ii_larger and iii < iii_larger
            (ii_next, ii_larger_next), (iii_next, iii_larger_next) = sides(m + 2)
            assert ii_next <= 2 * ii and ii_larger_next >= 4 * ii_larger
            assert 10 * iii_next <= 21 * iii and iii_larger_next >= 4 * iii_larger
            bound = cy_hypersurface_bound_closed_form(m)
            assert (m + 1) * (bound - 2 + (m + 1) * 2**m) >= 4 ** (m + 1)
            assert 4 ** (m + 1) > (m + 1) * 3 * m * 2**m
            assert bound > (2 * m - 1) * 2**m + 2 > torus_rs_dimension(2 * m)
