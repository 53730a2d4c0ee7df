"""Verification suites for the paper's identities and inequalities.  Each
returns its checks as (name, passed) pairs, with any values it reports, and
raises InvalidInputError for arguments outside its domain."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .charclass import CompleteIntersection, char_number, char_number_polynomial
from .rings import MultiPoly
from .rsbounds import (_require_even, cy_hypersurface_bound_closed_form,
                       exceeds_torus, hypersurface_char_number_closed_form,
                       rs_lower_bound)


def closed_form(max_m: int) -> list[tuple[str, bool]]:
    """Number and bound of the degree-(m+2) Calabi-Yau hypersurface against
    their closed forms, for even m = 2..max_m."""
    _require_even(max_m, "max_m")
    checks = []
    for m in range(2, max_m + 1, 2):
        ci = CompleteIntersection(m, (m + 2,))
        checks.append((f"char-number matches closed form (m={m})",
                       char_number(ci) == hypersurface_char_number_closed_form(m)))
        checks.append((f"bound matches closed form (m={m})",
                       rs_lower_bound(ci).bound_total == cy_hypersurface_bound_closed_form(m)))
    return checks


def torus_inequality(max_m: int) -> list[tuple[str, bool]]:
    """Calabi-Yau hypersurface bound above the flat-torus count in real
    dimension 2m, for even m = 2..max_m."""
    _require_even(max_m, "max_m")
    return [(f"calabi-yau bound exceeds torus count (m={m})", exceeds_torus(m))
            for m in range(2, max_m + 1, 2)]


def hypersurface_poly(m: int) -> tuple[int, Fraction, list[tuple[str, bool]]]:
    """Degree and a^{m+1} coefficient of the r = 1 polynomial, and checks:
    zero for odd m, else degree m+1 and that coefficient in closed form."""
    poly = char_number_polynomial(m, 1)
    leading = poly.coefficient((m + 1,))
    if m % 2:
        return poly.degree, leading, [("identically zero (odd m)", not poly)]
    expected = Fraction(2 * m + 3 - 3 ** (m + 1), 2**m * factorial(m + 1))
    return poly.degree, leading, [
        ("degree equals m+1", poly.degree == m + 1),
        ("leading coefficient matches closed form", leading == expected)]


def symmetric_poly(m: int, r: int) -> list[tuple[str, bool]]:
    """Checks on the polynomial in a_1..a_r: zero for odd m, else symmetric,
    of degree m+1 in each a_i, and the r = 1 polynomial at (a, 1, ..., 1)."""
    poly = char_number_polynomial(m, r)
    if m % 2:
        return [("identically zero (odd m)", not poly)]
    specialized = poly.evaluate([MultiPoly.variable(0, 1)] + [1] * (r - 1))
    return [("symmetric in the degrees", poly.is_symmetric()),
            ("degree in each variable equals m+1",
             all(poly.variable_degree(i) == m + 1 for i in range(r))),
            ("specialization at (a,1,...,1) matches r=1",
             specialized == char_number_polynomial(m, 1))]
