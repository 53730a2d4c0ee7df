"""Dimension bounds for spaces of Rarita-Schwinger fields.

On a compact Einstein spin manifold of even real dimension n >= 4 the space
of Rarita-Schwinger fields has dimension at least |<A-hat ch(T^C M), [M]>|,
minus the maximal parallel-spinor count N(n) in the Ricci-flat case.
Applied to spin complete intersections with c_1 <= 0 (where Kaehler-Einstein
metrics exist) this turns exact characteristic numbers into explicit bounds;
flat tori supply comparison counts and product constructions for the
remaining dimensions.

``find_degree_exceeding`` turns the unbounded growth of these numbers along
hypersurfaces into a concrete degree.  It takes m+2 values of
``char_number`` at even degrees, which fix the polynomial P, slides P's
forward differences along until they prove that |P(a)| increases from there
on, then gallops and bisects on P's Newton form in exact integers.
Thresholds are limited to THRESHOLD_DIGITS decimal digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .charclass import (MAX_COMPLEX_DIM, CompleteIntersection, CurvatureClass,
                        InvalidInputError, _require_int, a_hat_genus,
                        char_number, curvature_class, is_spin, rs_index_from)

# Decimal digits a threshold of find_degree_exceeding may have; 10^1000 is
# the largest power of ten accepted.  It bounds the search's work and keeps
# the answer printable: past the first degree tried, the answer's number is a
# few times one not above the threshold, far inside the 4300 digits Python
# converts to a string by default.
THRESHOLD_DIGITS = 1001
_THRESHOLD_LIMIT = 10 ** THRESHOLD_DIGITS

# Largest flat-torus dimension k accepted: 2^[k/2] has about 0.15k digits, and
# printing takes time quadratic in that (10^6 takes under 1 s, 4*10^6 10 s).
MAX_TORUS_DIM = 10**6


class TheoremInapplicableError(ValueError):
    """The requested manifold is outside the scope of the bound."""


@dataclass(frozen=True)
class RSBoundReport:
    """Lower bounds for Rarita-Schwinger fields, per chirality and total.

    ``charnum`` keeps the raw signed characteristic number; the bounds are
    clamped at zero, a negative dimension bound carrying no information.
    The A-hat genus and the plus-chirality Rarita-Schwinger index come along,
    so that each number is computed once per report.  Reports exist only for
    spin inputs with c_1 <= 0.
    """

    ci: CompleteIntersection
    n: int
    spin: bool
    curvature: CurvatureClass
    charnum: int
    a_hat_genus: Fraction
    rs_index_plus: int
    parallel_spinor_deduction: int
    bound_plus: int
    bound_minus: int
    bound_total: int


def max_parallel_spinors(n: int) -> int:
    """Maximal dimension N(n) of the parallel-spinor space on a complete
    simply connected n-manifold without flat factor.

    Realized by products of K3 surfaces and up to three G2-factors:
    2^k for n = 4k or n = 4k+7, 2^{k+1} for n = 4k+14 or n = 4k+21,
    and 0 for all other n.
    """
    _require_int(n, "dimension n")
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
    of the 3/2-spinor bundle: (n-1) * 2^[n/2].
    """
    _require_int(n, "dimension n")
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
    charnum = char_number(ci)
    a_hat = a_hat_genus(ci)
    deduction = (max_parallel_spinors(ci.real_dimension)
                 if curvature is CurvatureClass.CALABI_YAU else 0)
    return RSBoundReport(
        ci=ci,
        n=ci.real_dimension,
        spin=True,
        curvature=curvature,
        charnum=charnum,
        a_hat_genus=a_hat,
        rs_index_plus=rs_index_from(ci, charnum, a_hat),
        parallel_spinor_deduction=deduction,
        bound_plus=max(charnum - deduction, 0),
        bound_minus=max(-charnum - deduction, 0),
        bound_total=max(abs(charnum) - deduction, 0),
    )


def hypersurface_char_number_closed_form(m: int) -> int:
    """Characteristic number of the degree-(m+2) hypersurface in CP^{m+1},
    in closed form: -2*[C(2m+3, m+1) + 1 - (m+2)^2], for even m.

    An independent route to the value of ``char_number``; the two must agree.
    """
    _require_int(m, "m", 2, even=True)
    return -2 * (comb(2 * m + 3, m + 1) + 1 - (m + 2) ** 2)


def cy_hypersurface_bound_closed_form(m: int) -> int:
    """Closed-form Rarita-Schwinger bound for the Calabi-Yau hypersurface of
    degree m+2 in CP^{m+1}: 2*[C(2m+3, m+1) + 1 - (m+2)^2] - 2^{m/2}."""
    _require_int(m, "m", 2, even=True)
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
    characteristic number P(a) is a polynomial of degree m+1 in a with
    nonzero leading coefficient, so such an a always exists.

    The search scans the even degrees a0 = m+4, ..., m+4+2(m+1), as a plain
    scan would, with ``char_number``.  Those m+2 values fix P: their step-2
    forward differences D^0..D^{m+1} at a0 give P on every even a >= a0
    (see ``_newton_form``).  Until the differences prove that |P| strictly
    increases from a0 on (see ``_increasing``), the row slides one degree,
    D^k <- D^k + D^{k+1}, and the scan checks each new D^0 = P(a0).  Then it
    gallops with doubling steps from the last degree known not to exceed the
    threshold, and bisects to the smallest even degree beyond it, in exact
    integers.  The answer is the plain scan's; ``char_number`` runs at most
    m+2 times.  The first window certifies for every even m <= 60 tested.
    m must be even and at most MAX_COMPLEX_DIM, and thresholds positive with
    at most THRESHOLD_DIGITS decimal digits; others raise InvalidInputError.
    """
    _require_int(m, "m", 2, MAX_COMPLEX_DIM, "MAX_COMPLEX_DIM", even=True)
    _require_int(threshold, "threshold")
    if threshold >= _THRESHOLD_LIMIT:
        raise InvalidInputError(
            f"threshold has more than THRESHOLD_DIGITS = {THRESHOLD_DIGITS} decimal digits")
    a0 = m + 4
    values = []
    for a in range(a0, a0 + 2 * (m + 2), 2):
        values.append(char_number(CompleteIntersection(m, (a,))))
        if abs(values[-1]) > threshold:
            return a
    differences = _differences(values)
    while not _increasing(differences):
        for k in range(m + 1):
            differences[k] += differences[k + 1]
        a0 += 2
        if abs(differences[0]) > threshold:
            return a0
    return _first_beyond(_newton_form(a0, differences), max(a0, a), threshold)


def _first_beyond(value, lo: int, threshold: int) -> int:
    """Smallest even a > lo with |value(a)| > threshold, given that
    |value(lo)| <= threshold and |value| increases on even a >= lo:
    gallop with doubling steps, then bisect."""
    step = 2
    while abs(value(lo + step)) <= threshold:
        lo += step
        step *= 2
    hi = lo + step
    while hi - lo > 2:
        mid = lo + (hi - lo) // 4 * 2
        if abs(value(mid)) > threshold:
            hi = mid
        else:
            lo = mid
    return hi


def _differences(values: list[int]) -> list[int]:
    """The forward differences D^0..D^d at the first of d+1 values."""
    differences = []
    while values:
        differences.append(values[0])
        values = [after - before for before, after in zip(values, values[1:])]
    return differences


def _increasing(differences: list[int]) -> bool:
    """Whether the step-2 forward differences D^0..D^d of a polynomial P of
    degree <= d at a0 prove that |P| strictly increases on a0, a0+2, a0+4, ...

    The differences give P(a0 + 2j) = sum_k C(j, k) D^k, and D^k = 0 for
    k > d.  If D^0 != 0 and every D^k has the sign s of D^0, then
    s*P(a0) > 0 and each step
    s*(P(a0 + 2j + 2) - P(a0 + 2j)) = s * sum_k C(j, k) D^{k+1} >= s*D^1 > 0,
    so |P| = s*P strictly increases.
    """
    sign = (differences[0] > 0) - (differences[0] < 0)
    return all(sign * d > 0 for d in differences)


def _newton_form(a0: int, differences: list[int]):
    """P on even a >= a0, from its step-2 forward differences D^k at a0:
    P(a0 + 2j) = sum_k C(j, k) D^k, exactly, for P of degree < len(D)."""
    def value(a: int) -> int:
        j = (a - a0) // 2
        total, binom = 0, 1
        for k, d in enumerate(differences):
            total += binom * d
            binom = binom * (j - k) // (k + 1)
        return total
    return value


def exceeds_torus(m: int) -> bool:
    """Whether the Calabi-Yau hypersurface bound beats the flat-torus count
    in the same real dimension 2m.  True for every even m >= 2."""
    _require_int(m, "m", 2, even=True)
    return cy_hypersurface_bound_closed_form(m) > torus_rs_dimension(2 * m)
