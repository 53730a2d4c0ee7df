"""Dimension bounds for spaces of Rarita-Schwinger fields.

On a compact Einstein spin manifold of even real dimension n >= 4 the space
of Rarita-Schwinger fields has dimension at least |<A-hat ch(T^C M), [M]>|,
minus the maximal parallel-spinor count N(n) in the Ricci-flat case.
Applied to spin complete intersections with c_1 <= 0 (where Kaehler-Einstein
metrics exist) this turns exact characteristic numbers into explicit bounds;
flat tori supply comparison counts and product constructions for the
remaining dimensions.

``find_degree_exceeding`` turns the unbounded growth of these numbers along
hypersurfaces into a concrete degree.  The degree-a hypersurface's number
P(a), which charclass's Koszul sum gives, provably increases in absolute value
with a from m+4 on, so the search starts at an estimate of the answer from
P's leading term, then brackets and bisects on that sum in exact integers.
Thresholds are limited to THRESHOLD_DIGITS decimal digits.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, exp, factorial, lgamma, log, log1p

from .charclass import (MAX_COMPLEX_DIM, CompleteIntersection, CurvatureClass,
                        InvalidInputError, _characteristic_numbers, _folded_koszul_sum,
                        _require_int, curvature_class, is_spin)

# Decimal digits a threshold of find_degree_exceeding may have; 10^1000 is
# the largest power of ten accepted.  It bounds the search's work and keeps
# the answer printable: past a = m+4, the answer's number is a few times
# one not above the threshold, far inside the 4300 digits Python converts to
# a string by default.
THRESHOLD_DIGITS = 1001
_THRESHOLD_LIMIT = 10 ** THRESHOLD_DIGITS

# Largest flat-torus dimension k accepted: 2^[k/2] has about 0.15k digits, and
# printing takes time quadratic in that (10^6 takes under 1 s, 4*10^6 10 s).
# It bounds n in torus_rs_dimension and max_parallel_spinors too: 2^[n/2], 2^[n/4].
MAX_TORUS_DIM = 10**6


class TheoremInapplicableError(ValueError):
    """The requested manifold is outside the scope of the bound."""


class RSBoundReport(namedtuple(
        "RSBoundReport", "ci n spin curvature charnum a_hat_genus rs_index_plus "
        "parallel_spinor_deduction bound_plus bound_minus bound_total")):
    """Lower bounds for Rarita-Schwinger fields, per chirality and total.

    ``charnum`` keeps the raw signed characteristic number; the bounds are
    clamped at zero, a negative dimension bound carrying no information.
    The A-hat genus (a Fraction) and the plus-chirality Rarita-Schwinger
    index come along, so that each number is computed once per report.
    Reports exist only for spin inputs with c_1 <= 0.
    """

    __slots__ = ()


def max_parallel_spinors(n: int) -> int:
    """Maximal dimension N(n) of the parallel-spinor space on a complete
    simply connected n-manifold without flat factor.

    Realized by products of K3 surfaces and up to three G2-factors:
    2^k for n = 4k or n = 4k+7, 2^{k+1} for n = 4k+14 or n = 4k+21,
    and 0 for all other n; 1 <= n <= MAX_TORUS_DIM.
    """
    _require_int(n, "dimension n", 1, MAX_TORUS_DIM, "MAX_TORUS_DIM")
    remainder = n % 4
    if remainder == 0:
        return 2 ** (n // 4)
    if remainder == 3 and n >= 7:
        return 2 ** ((n - 7) // 4)
    if remainder == 2 and n >= 14:
        return 2 ** ((n - 14) // 4 + 1)
    if remainder == 1 and n >= 21:
        return 2 ** ((n - 21) // 4 + 1)
    return 0


def torus_rs_dimension(n: int) -> int:
    """Rarita-Schwinger fields on a flat n-torus with parallel spinors.

    For flat metrics all such fields are parallel, so the count is the rank
    of the 3/2-spinor bundle: (n-1) * 2^[n/2]; 1 <= n <= MAX_TORUS_DIM.
    """
    _require_int(n, "dimension n", 1, MAX_TORUS_DIM, "MAX_TORUS_DIM")
    return (n - 1) * 2 ** (n // 2)


def torus_parallel_spinors(k: int) -> int:
    """Parallel spinors on a flat k-torus with its trivial spin structure:
    the full spinor rank 2^[k/2] (1 for k = 0); 0 <= k <= MAX_TORUS_DIM."""
    _require_int(k, "torus dimension", 0, MAX_TORUS_DIM, "MAX_TORUS_DIM")
    return 2 ** (k // 2)


def rs_lower_bound(ci: CompleteIntersection) -> RSBoundReport:
    """Bound report for a spin complete intersection with c_1 <= 0.

    Requires real dimension 2m >= 4.  Fano inputs are rejected: no Einstein
    metric is guaranteed there, so no bound would be justified.  The
    parallel-spinor deduction N(2m) applies exactly in the Ricci-flat
    (Calabi-Yau) branch; negative-Einstein manifolds carry no parallel
    spinors, so nothing is deducted.
    """
    if not is_spin(ci):
        raise TheoremInapplicableError("no spin structure")
    curvature = curvature_class(ci)
    if curvature is CurvatureClass.FANO:
        raise TheoremInapplicableError(
            "fano: Kaehler-Einstein existence not guaranteed, theorem inapplicable")
    if ci.real_dimension < 4:
        raise TheoremInapplicableError("theorem requires real dimension at least 4")
    return _report(ci, *_characteristic_numbers(ci))


def _report(ci: CompleteIntersection, charnum: int, a_hat: Fraction) -> RSBoundReport:
    """The report of spin ``ci`` with c_1 <= 0 from its numbers in hand."""
    curvature = curvature_class(ci)
    deduction = (max_parallel_spinors(ci.real_dimension)
                 if curvature is CurvatureClass.CALABI_YAU else 0)
    return RSBoundReport(
        ci=ci,
        n=ci.real_dimension,
        spin=True,
        curvature=curvature,
        charnum=charnum,
        a_hat_genus=a_hat,
        rs_index_plus=int(charnum + a_hat),
        parallel_spinor_deduction=deduction,
        bound_plus=max(charnum - deduction, 0),
        bound_minus=max(-charnum - deduction, 0),
        bound_total=max(abs(charnum) - deduction, 0),
    )


def hypersurface_char_number_closed_form(m: int) -> int:
    """Characteristic number of the degree-(m+2) hypersurface in CP^{m+1}
    for even m, -2*[C(2m+3, m+1) + 1 - (m+2)^2]: a route that shares no code
    with ``char_number``, whose value it must equal.  m is at most
    MAX_COMPLEX_DIM, as for ``char_number``."""
    _require_int(m, "m", 2, MAX_COMPLEX_DIM, "MAX_COMPLEX_DIM", even=True)
    return -2 * (comb(2 * m + 3, m + 1) + 1 - (m + 2) ** 2)


def cy_hypersurface_bound_closed_form(m: int) -> int:
    """Closed-form Rarita-Schwinger bound for the Calabi-Yau hypersurface of
    degree m+2 in CP^{m+1}: 2*[C(2m+3, m+1) + 1 - (m+2)^2] - 2^{m/2}."""
    return -hypersurface_char_number_closed_form(m) - 2 ** (m // 2)


def product_bound(rs_x: int, k: int) -> int:
    """Bound for X x T^k from a bound for X: Rarita-Schwinger fields on X
    tensored with parallel spinors on the flat torus survive."""
    _require_int(rs_x, "base bound", 0)
    return rs_x * torus_parallel_spinors(k)


def find_degree_exceeding(m: int, threshold: int) -> int:
    """Smallest even degree a > m+2 whose hypersurface in CP^{m+1} has
    |characteristic number| > threshold.

    Even a gives a spin hypersurface; a > m+2 makes c_1 negative.  The
    search starts at an estimate of the answer from P's leading term, steps
    up or down from it with doubling steps until the answer is bracketed,
    then bisects, on the hypersurface's number P(a), charclass's
    Serre-folded Koszul sum at degrees (a,) and signed subset sums
    {0: 1, a: -1}.  Its answer is the first degree past the threshold, as
    |P| strictly increases on even a >= m+4:

    With n = m+1 (odd), k = (a+m)/2 and C(x, n) = -C(n-x-1, n) for x < 0, the
    fold is P = -2Q, Q(k) = C(k, n) + C(3k-m, n) - (m+2)*(C(k+1, n) + C(k-1, n)),
    and Pascal's rule gives Q(k+1) - Q(k) = sum_{j<3} C(3k-m+j, m) + C(k, m)
    - (m+2)*(C(k+1, m) + C(k-1, m)).  For k >= m+2 every factor
    (3k-m-i)/(k+1-i), i < m, of C(3k-m, m)/C(k+1, m) is at least 2, so
    3*C(3k-m, m) >= 3*2^m*C(k+1, m) > 2(m+2)*C(k+1, m), which is at least
    (m+2)*(C(k+1, m) + C(k-1, m)), and each step is positive.  At the start,
    k = m+2, Q = C(2m+6, m+1) - (m+2)^2 (m+3)/2 > 0, since
    C(2m+6, m+1) >= C(2m+6, 3) = 2(m+2)(m+3)(2m+5)/3 for m >= 2.  So
    |P| = 2Q strictly increases, through integers, without bound: such an a
    exists.

    m must be even and at most MAX_COMPLEX_DIM, and thresholds positive with
    at most THRESHOLD_DIGITS decimal digits; others raise InvalidInputError.
    """
    return _hypersurface_search(m, threshold)[0]


def degree_search_report(m: int, threshold: int) -> RSBoundReport:
    """rs_lower_bound of the hypersurface of degree
    find_degree_exceeding(m, threshold), from the numbers the search computed
    at that degree; the same inputs are refused."""
    degree, numbers = _hypersurface_search(m, threshold)
    return _report(CompleteIntersection(m, (degree,)), *numbers)


def _hypersurface_search(m: int, threshold: int) -> tuple[int, tuple[int, Fraction]]:
    """(a, _folded_koszul_sum at a) for find_degree_exceeding's answer a, as
    |P(a)| increases on the even a > m+2: from _first_guess, gallop up or
    down with doubling steps until lo < a <= hi, then bisect.  hi is
    evaluated and past the threshold; lo is evaluated and not past it, or is
    the unevaluated m+2."""
    _require_int(m, "m", 2, MAX_COMPLEX_DIM, "MAX_COMPLEX_DIM", even=True)
    _require_int(threshold, "threshold")
    if threshold >= _THRESHOLD_LIMIT:
        raise InvalidInputError(
            f"threshold has more than THRESHOLD_DIGITS = {THRESHOLD_DIGITS} decimal digits")

    def fold(a: int) -> tuple[int, Fraction]:
        return _folded_koszul_sum(m, (a,), {0: 1, a: -1})
    lo, hi, step, a = m + 2, None, 2, _first_guess(m, threshold)
    while True:
        if abs((numbers := fold(a))[0]) > threshold:
            hi, found = a, numbers
        else:
            lo = a
        if hi is not None and hi - lo <= 2:
            return hi, found
        # up from lo while nothing is past the threshold, else down from hi
        # while that stays above the midpoint, which is bisection's probe
        a = lo + step if hi is None else max(hi - step, lo + (hi - lo) // 4 * 2)
        step *= 2


def _first_guess(m: int, threshold: int) -> int:
    """An even degree from m+4 near find_degree_exceeding's answer.

    Centred at a/2 or 3a/2, P(a)'s binomials give |P(a)| ~
    2(3^n - 2m - 3)(a/2)^n/n!, n = m+1, with no error term of first order in
    n/a.  Solved for a/2 in logs; past 2^50, beyond a float's precision, by
    integer Newton steps on (a/2)^n, where thresholds below
    10^THRESHOLD_DIGITS keep n at most 71."""
    n = m + 1
    log_half = (log(threshold) + lgamma(n + 1) - log(2) - n * log(3)
                - log1p(-(2 * m + 3) * 3.0 ** -n)) / n
    if log_half < 50 * log(2):
        half = int(exp(log_half))
    else:
        shift = int(log_half / log(2)) - 49
        half = int(exp(log_half - shift * log(2))) << shift
        target = threshold * factorial(n) // (2 * 3**n - 4 * m - 6)
        while abs(step := (target // half ** (n - 1) - half) // n) > 1:
            half += step
    return max(m + 4, 2 * half + 2)


def exceeds_torus(m: int) -> bool:
    """Whether the Calabi-Yau hypersurface bound beats the flat-torus count
    in the same real dimension 2m, for even m up to MAX_COMPLEX_DIM.  Both
    sides are computed, as a check, though it holds for every even m >= 2:

    The bound is 2 C(2m+3, m+1) + 2 - 2(m+2)^2 - 2^{m/2}, the count
    (2m-1) 2^m, and at m = 2 they are 38 > 12.  For even m >= 4:
    (i) C(2k, k) >= 4^k/(2k) for k >= 1, by induction on k, as
        C(2k+2, k+1) = C(2k, k) 2(2k+1)/(k+1) and 2k+1 >= 2k; and
        C(2m+3, m+1) >= C(2m+2, m+1), so 2 C(2m+3, m+1) >= 4^{m+1}/(m+1).
    (ii) 2(m+2)^2 + 2^{m/2} <= (m+1) 2^m.
    (iii) 4 * 2^m > 3m(m+1).
    (ii) and (iii) hold at m = 4 (76 <= 80, 64 > 60).  From m to m+2 their
    smaller sides grow at most 2x and 2.1x, as (m+4)^2 <= 2(m+2)^2 and
    (m+2)(m+3) <= 2.1 m(m+1), and their larger sides at least 4x, so both
    hold for every even m >= 4.  By (i) and (ii), the bound is at least
    4^{m+1}/(m+1) + 2 - (m+1) 2^m, and by (iii) 4^{m+1}/(m+1) > 3m 2^m,
    so the bound is more than (2m-1) 2^m + 2, which exceeds the count.
    """
    return cy_hypersurface_bound_closed_form(m) > torus_rs_dimension(2 * m)
