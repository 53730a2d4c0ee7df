"""Verification suites for the paper's identities and inequalities.  Each
returns its checks as (name, passed) pairs, with any values it reports, and
raises InvalidInputError for arguments outside its domain or past its input
budget: MAX_M, or for the polynomial suites MAX_ESTIMATED_SECONDS."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .charclass import (MAX_ESTIMATED_SECONDS, CompleteIntersection, _koszul_seconds_per_sum,
                        _polynomial_seconds, _require_budget, _require_int,
                        _riemann_roch_numbers, _term_length, char_number_polynomial)
from .rings import MultiPoly
from .rsbounds import (cy_hypersurface_bound_closed_form, exceeds_torus,
                       hypersurface_char_number_closed_form, rs_lower_bound)

MAX_M = 1600  # closed-form and torus-inequality there: 0.72 s and 0.32 s cold
# symmetric-poly's passes over its expanded terms (is_symmetric, variable_degree, the
# specialization, three evaluate calls) took 18 to 28 us a term at m = 10..20, r = 6..8
_SUITE_TERM_S = 30e-6


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
    _require_int(m, "m")
    poly = char_number_polynomial(m, 1)
    leading = poly.coefficient((m + 1,))
    if m % 2:
        return poly.degree, leading, [("identically zero (odd m)", not poly)]
    expected = Fraction(2 * m + 3 - 3 ** (m + 1), 2**m * factorial(m + 1))
    return poly.degree, leading, [
        ("degree equals m+1", poly.degree == m + 1),
        ("leading coefficient matches closed form", leading == expected)]


def _integer_points(m: int, r: int) -> list[CompleteIntersection]:
    """symmetric_poly's Koszul points: (2, ..., 2), (1, ..., r), (2r+1, ..., 5, 3)."""
    return [CompleteIntersection(m, degrees) for degrees in
            ((2,) * r, tuple(range(1, r + 1)), tuple(range(2 * r + 1, 2, -2)))]


def _symmetric_poly_seconds(m: int, r: int) -> float:
    """symmetric_poly's estimate: its polynomial, then for even m the r = 1 one if
    r > 1, _SUITE_TERM_S for each of the C(m/2 + r, r) expanded terms by their
    length, and the Koszul sum at each point, whose signed subset sums lie in
    0..a_1 + ... + a_r."""
    seconds = _polynomial_seconds(m, r)
    # a huge m's or r's term count passes a float, and its points would be r-tuples
    if m % 2 or seconds > MAX_ESTIMATED_SECONDS:
        return seconds
    return (seconds + (r > 1) * _polynomial_seconds(m, 1)
            + _SUITE_TERM_S * _term_length(r) * comb(m // 2 + r, r)
            + sum(_koszul_seconds_per_sum(ci) * (sum(ci.degrees) + 1)
                  for ci in _integer_points(m, r)))


def symmetric_poly(m: int, r: int) -> list[tuple[str, bool]]:
    """Checks on the polynomial in a_1..a_r: zero for odd m, else symmetric,
    of degree m+1 in each a_i, the r = 1 polynomial at (a, 1, ..., 1), and
    the Koszul sum, over every signed subset sum whatever the term limit, at
    three integer points.  Refused past MAX_ESTIMATED_SECONDS before any work."""
    _require_int(m, "m")
    _require_int(r, "r")
    _require_budget(_symmetric_poly_seconds(m, r), "symmetric_poly at this m and r")
    poly = char_number_polynomial(m, r)
    if m % 2:
        return [("identically zero (odd m)", not poly)]
    # at (a, 1, ..., 1) the term of exponents (e_1, ...) becomes one of a^{e_1}
    specialized = {}
    for exponents, c in poly.terms.items():
        specialized[exponents[:1]] = specialized.get(exponents[:1], 0) + c
    return [("symmetric in the degrees", poly.is_symmetric()),
            ("degree in each variable equals m+1",
             all(poly.variable_degree(i) == m + 1 for i in range(r))),
            ("specialization at (a,1,...,1) matches r=1", MultiPoly(1, specialized) == (
                poly if r == 1 else char_number_polynomial(m, 1))),
            ("matches char_number at integer degrees",
             all(poly.evaluate(list(ci.degrees)) == _riemann_roch_numbers(ci)[0]
                 for ci in _integer_points(m, r)))]
