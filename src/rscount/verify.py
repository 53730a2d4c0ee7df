"""Verification suites for the paper's identities and inequalities.  Each
returns its checks as (name, passed) pairs, with any values it reports, and
raises InvalidInputError for arguments outside its domain or past its input
budget."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .charclass import (CompleteIntersection, _koszul_coefficients,
                        _require_int, _riemann_roch_numbers, char_number_polynomial)
from .rings import MultiPoly
from .rsbounds import (cy_hypersurface_bound_closed_form, exceeds_torus,
                       hypersurface_char_number_closed_form, rs_lower_bound)

# Input budgets, with cold times (medians of 5) on a 2-vCPU Xeon, whose speed
# swings by up to 2x: closed-form and torus-inequality at MAX_M 0.72 s and
# 0.32 s; hypersurface-poly at HYPERSURFACE_MAX_M 1.4-1.6 s (1.05-1.2 s in
# process); symmetric-poly at m = 20, r = 8 1.6-1.8 s.  symmetric-poly's time
# grows with the C(m/2 + r, r) terms of the polynomial it checks, in process
# at r = 8: m = 10 takes 0.035 s, m = 16 0.36-0.47 s, m = 20 1.2-1.8 s and
# m = 22 2.9-3.2 s.
MAX_M = 1600
HYPERSURFACE_MAX_M = 130
SYMMETRIC_MAX_M = 20
SYMMETRIC_MAX_R = 8


def closed_form(max_m: int) -> list[tuple[str, bool]]:
    """Number and bound of the degree-(m+2) Calabi-Yau hypersurface against
    their closed forms, for even m = 2..max_m."""
    _require_int(max_m, "max_m", 2, MAX_M, "MAX_M", even=True)
    checks = []
    for m in range(2, max_m + 1, 2):
        report = rs_lower_bound(CompleteIntersection(m, (m + 2,)))
        checks.append((f"char-number matches closed form (m={m})",
                       report.charnum == hypersurface_char_number_closed_form(m)))
        checks.append((f"bound matches closed form (m={m})",
                       report.bound_total == cy_hypersurface_bound_closed_form(m)))
    return checks


def torus_inequality(max_m: int) -> list[tuple[str, bool]]:
    """Calabi-Yau hypersurface bound above the flat-torus count in real
    dimension 2m, for even m = 2..max_m."""
    _require_int(max_m, "max_m", 2, MAX_M, "MAX_M", even=True)
    return [(f"calabi-yau bound exceeds torus count (m={m})", exceeds_torus(m))
            for m in range(2, max_m + 1, 2)]


def hypersurface_poly(m: int) -> tuple[int, Fraction, list[tuple[str, bool]]]:
    """Degree and a^{m+1} coefficient of the r = 1 polynomial, and checks:
    zero for odd m, else degree m+1 and that coefficient in closed form."""
    _require_int(m, "m", 1, HYPERSURFACE_MAX_M, "HYPERSURFACE_MAX_M")
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
    _require_int(m, "m", 1, SYMMETRIC_MAX_M, "SYMMETRIC_MAX_M")
    _require_int(r, "r", 1, SYMMETRIC_MAX_R, "SYMMETRIC_MAX_R")
    poly = char_number_polynomial(m, r)
    if m % 2:
        return [("identically zero (odd m)", not poly)]
    # at (a, 1, ..., 1) the term of exponents (e_1, ...) becomes one of a^{e_1}
    specialized = {}
    for exponents, c in poly.terms.items():
        specialized[exponents[:1]] = specialized.get(exponents[:1], 0) + c
    points = [CompleteIntersection(m, degrees) for degrees in
              ((2,) * r, tuple(range(1, r + 1)), tuple(range(2 * r + 1, 2, -2)))]
    return [("symmetric in the degrees", poly.is_symmetric()),
            ("degree in each variable equals m+1",
             all(poly.variable_degree(i) == m + 1 for i in range(r))),
            ("specialization at (a,1,...,1) matches r=1",
             MultiPoly(1, specialized) == char_number_polynomial(m, 1)),
            ("matches char_number at integer degrees",
             all(poly.evaluate(list(ci.degrees)) == _riemann_roch_numbers(
                 ci, _koszul_coefficients(ci.degrees, 2**r))[0] for ci in points))]
