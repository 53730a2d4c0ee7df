"""Verification suites for the paper's identities and inequalities.  Each
returns its checks as (name, passed) pairs, with any values it reports, and
raises InvalidInputError for arguments outside its domain or past its input
budget."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .charclass import (CompleteIntersection, InvalidInputError,
                        _is_positive_int, _koszul_coefficients,
                        _riemann_roch_numbers, char_number,
                        char_number_polynomial)
from .rings import MultiPoly
from .rsbounds import (cy_hypersurface_bound_closed_form, exceeds_torus,
                       hypersurface_char_number_closed_form, rs_lower_bound)

# Input budgets: at each limit the suite takes under about 1 s in a cold run
# on a 2-vCPU Xeon (closed-form at MAX_M 0.8 s, torus-inequality 0.3 s;
# hypersurface-poly at HYPERSURFACE_MAX_M 0.6-0.9 s; symmetric-poly at
# m = 10, r = 8 0.5 s).  symmetric-poly's time grows with the C(m/2 + r, r)
# terms of the polynomial it evaluates: m = 12, r = 8 takes 0.7-1.4 s.
MAX_M = 1600
HYPERSURFACE_MAX_M = 100
SYMMETRIC_MAX_M = 10
SYMMETRIC_MAX_R = 8


def _require_at_most(value, name: str, budget: str, limit: int, even: bool = False) -> None:
    """Rejects all but the integers from 1 (even ones from 2) to ``limit``,
    naming the budget."""
    if not _is_positive_int(value) or value > limit or (even and value % 2):
        kind = "an even integer from 2" if even else "an integer from 1"
        raise InvalidInputError(f"{name} must be {kind} to {budget} = {limit}")


def closed_form(max_m: int) -> list[tuple[str, bool]]:
    """Number and bound of the degree-(m+2) Calabi-Yau hypersurface against
    their closed forms, for even m = 2..max_m."""
    _require_at_most(max_m, "max_m", "MAX_M", MAX_M, even=True)
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
    _require_at_most(max_m, "max_m", "MAX_M", MAX_M, even=True)
    return [(f"calabi-yau bound exceeds torus count (m={m})", exceeds_torus(m))
            for m in range(2, max_m + 1, 2)]


def hypersurface_poly(m: int) -> tuple[int, Fraction, list[tuple[str, bool]]]:
    """Degree and a^{m+1} coefficient of the r = 1 polynomial, and checks:
    zero for odd m, else degree m+1 and that coefficient in closed form."""
    _require_at_most(m, "m", "HYPERSURFACE_MAX_M", HYPERSURFACE_MAX_M)
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
    of degree m+1 in each a_i, the r = 1 polynomial at (a, 1, ..., 1), and
    the Koszul sum, over every signed subset sum whatever the term limit, at
    integer degrees."""
    _require_at_most(m, "m", "SYMMETRIC_MAX_M", SYMMETRIC_MAX_M)
    _require_at_most(r, "r", "SYMMETRIC_MAX_R", SYMMETRIC_MAX_R)
    poly = char_number_polynomial(m, r)
    if m % 2:
        return [("identically zero (odd m)", not poly)]
    specialized = poly.evaluate([MultiPoly.variable(0, 1)] + [1] * (r - 1))
    points = [CompleteIntersection(m, degrees) for degrees in
              ((2,) * r, tuple(range(1, r + 1)), tuple(range(2 * r + 1, 2, -2)))]
    return [("symmetric in the degrees", poly.is_symmetric()),
            ("degree in each variable equals m+1",
             all(poly.variable_degree(i) == m + 1 for i in range(r))),
            ("specialization at (a,1,...,1) matches r=1",
             specialized == char_number_polynomial(m, 1)),
            ("matches char_number at integer degrees",
             all(poly.evaluate([Fraction(a) for a in ci.degrees]) == _riemann_roch_numbers(
                 ci, _koszul_coefficients(ci.degrees, 2**r))[0] for ci in points))]
