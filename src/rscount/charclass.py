"""Characteristic data of complete intersections in complex projective space.

A smooth complete intersection M in CP^{m+r}, cut out by hypersurfaces of
degrees a_1..a_r, has complex dimension m, and its characteristic classes
restrict from the ambient space::

    c(TM)      = (1+h)^{m+r+1} * prod_j (1 + a_j h)^{-1}
    ch(T^C M)  = 2*((m+r+1) cosh(h) - 1 - sum_j cosh(a_j h))
    A-hat(TM)  = ((h/2)/sinh(h/2))^{m+r+1} * prod_j sinh(a_j h/2)/(a_j h/2)

with h the restricted hyperplane class.  Two routes pair these classes with
the fundamental class [M].

The numbers ``char_number`` and ``a_hat_genus`` go by Riemann-Roch, in
integer arithmetic, whenever that is the cheaper route.
A-hat = Todd * e^{-c_1/2}, and in K-theory
T^C M = (m+r+1)(O(1) + O(-1)) - 2 O - sum_j (O(a_j) + O(-a_j)), so with
t0 = -c_1/2 both numbers are signed sums of the Hilbert polynomial, which
the Koszul resolution gives as

    chi(M, O(t)) = sum_s c_s C(t - s + m + r, m + r),
    prod_j (1 - z^{a_j}) = sum_s c_s z^s,

    <A-hat(TM) ch(T^C M), [M]> = (m+r+1)(chi(t0+1) + chi(t0-1)) - 2 chi(t0)
                                 - sum_j (chi(t0+a_j) + chi(t0-a_j)),
    <A-hat(TM), [M]>           = chi(t0)

(Hirzebruch, Topological Methods in Algebraic Geometry).  t0 is an integer
on spin inputs and a half-integer otherwise.  The sum has one term per
distinct signed subset sum s, up to 2^r of them; past
KOSZUL_TERMS_PER_ORDER * (m+2) terms the numbers go by power series instead.

The polynomial ``char_number_polynomial`` always goes by power series.
Pairing picks out the h^m coefficient times <h^m, [M]> = a_1...a_r, and that
product of degrees cancels the sinh poles exactly, so the computation runs on
unit power series truncated at order m: with S(h) = sinh(h/2)/(h/2),

    <A-hat(TM) ch(T^C M), [M]>
        = 2 a_1...a_r * coeff(h^m, S(h)^{-(m+r+1)} * prod_j S(a_j h)
                                   * ((m+r+1) cosh(h) - 1 - sum_j cosh(a_j h))).

Running it with polynomial coefficients in a_1..a_r yields the
characteristic number as an exact symmetric polynomial in the degrees; run
with rational coefficients, it gives the numbers past the Koszul term limit
and is the tests' oracle for the Riemann-Roch route.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Literal, Sequence

from .rings import MultiPoly
from .series import PowerSeries, cosh_series, sinhc_half_series

Chirality = Literal["plus", "minus"]

# The Koszul sum costs 2r+3 binomials per signed subset sum of the
# degrees; the series route about r+4 products of order-m series.  Measured
# over m = 2..120 and r = 4..12, the sum is the faster one up to about
# 8(m+2) sums on non-spin inputs and further on spin ones, so it serves
# inputs with at most KOSZUL_TERMS_PER_ORDER * (m+2) sums and series the rest.
KOSZUL_TERMS_PER_ORDER = 8


class InvalidInputError(ValueError):
    """An argument outside the domain of a library function: the caller's
    input is at fault, not the computation."""


class CurvatureClass(enum.Enum):
    """Sign of the first Chern class; selects the Einstein-metric regime."""

    FANO = "fano"
    CALABI_YAU = "calabi_yau"
    GENERAL_TYPE = "general_type"


def _is_nonnegative_int(value) -> bool:
    # bool is an int subclass, but True is not a dimension or a degree
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_positive_int(value) -> bool:
    return _is_nonnegative_int(value) and value >= 1


def _require_positive(value, name: str) -> None:
    if not _is_positive_int(value):
        raise InvalidInputError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class CompleteIntersection:
    """Smooth complete intersection of hypersurfaces of the given degrees.

    ``m`` is the complex dimension; with r degrees the variety sits in
    CP^{m+r}.  Degrees are stored sorted ascending: every characteristic
    quantity computed here is symmetric in them.  Degree-1 entries are
    allowed (a hyperplane cut re-embeds the same manifold in lower
    codimension).
    """

    m: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        _require_positive(self.m, "complex dimension")
        degrees = tuple(self.degrees)
        if not degrees:
            raise InvalidInputError("at least one degree is required")
        if not all(_is_positive_int(a) for a in degrees):
            raise InvalidInputError("degrees must be positive integers")
        object.__setattr__(self, "degrees", tuple(sorted(degrees)))

    @property
    def codimension(self) -> int:
        return len(self.degrees)

    @property
    def real_dimension(self) -> int:
        return 2 * self.m


def first_chern_coefficient(ci: CompleteIntersection) -> int:
    """k with c_1(TM) = k*h, namely m + r + 1 - (a_1 + ... + a_r)."""
    return ci.m + ci.codimension + 1 - sum(ci.degrees)


def is_spin(ci: CompleteIntersection) -> bool:
    """The second Stiefel-Whitney class is c_1 mod 2, so M is spin iff the
    coefficient of h in c_1 is even."""
    return first_chern_coefficient(ci) % 2 == 0


def curvature_class(ci: CompleteIntersection) -> CurvatureClass:
    k = first_chern_coefficient(ci)
    if k > 0:
        return CurvatureClass.FANO
    if k == 0:
        return CurvatureClass.CALABI_YAU
    return CurvatureClass.GENERAL_TYPE


def _koszul_coefficients(degrees: Sequence[int], limit: int) -> dict[int, int] | None:
    """{s: c_s} with prod_j (1 - z^{a_j}) = sum_s c_s z^s, zeros dropped, or
    None as soon as more than ``limit`` sums are live.

    Built one factor at a time, so equal subset sums merge as they appear.
    """
    coeffs = {0: 1}
    for a in degrees:
        product = dict(coeffs)
        for s, c in coeffs.items():
            value = product.get(s + a, 0) - c
            if value:
                product[s + a] = value
            else:
                del product[s + a]
        coeffs = product
        if len(coeffs) > limit:
            return None
    return coeffs


def _riemann_roch_numbers(ci: CompleteIntersection,
                          coeffs: dict[int, int]) -> tuple[Fraction, Fraction]:
    """(<A-hat(TM) ch(T^C M), [M]>, <A-hat(TM), [M]>) by the Koszul sum.

    chi(M, O(t)) = sum_s c_s C(t - s + n, n) with n = m + r.  On spin inputs
    t0 is an integer and each binomial is a math.comb, reflected as
    C(x, n) = (-1)^n C(n - x - 1, n) for x < 0.  Otherwise t0 is a
    half-integer, and 2^n n! C(x, n) = prod_{i<n} (2x - 2i) is an integer, so
    the sums stay in integers over that one denominator.
    """
    n = ci.m + ci.codimension
    twice_t0 = -first_chern_coefficient(ci)
    spin = twice_t0 % 2 == 0
    denominator = 1 if spin else 2**n * factorial(n)

    def chi(shift: int) -> int:
        """denominator * chi(M, O(t0 + shift))"""
        total = 0
        for s, c in coeffs.items():
            if spin:
                x = twice_t0 // 2 + shift - s + n
                term = comb(x, n) if x >= 0 else (-1) ** n * comb(n - x - 1, n)
            else:
                twice_x = twice_t0 + 2 * (shift - s + n)
                term = prod(range(twice_x, twice_x - 2 * n, -2))
            total += c * term
        return total

    a_hat = chi(0)
    charnum = ((n + 1) * (chi(1) + chi(-1)) - 2 * a_hat
               - sum(chi(a) + chi(-a) for a in ci.degrees))
    return Fraction(charnum, denominator), Fraction(a_hat, denominator)


def _pole_free_a_hat(m: int, scalars: Sequence) -> PowerSeries:
    """S(h)^{-(m+r+1)} * prod_j S(a_j h) at order m, S(h) = sinh(h/2)/(h/2).

    Equals a_1...a_r times the A-hat class with its h-poles cancelled; the
    degrees enter only through argument scaling, so they may be rationals or
    polynomial variables, while the power of S stays a rational series.
    """
    s = sinhc_half_series(m)
    series = s ** -(m + len(scalars) + 1)
    for a in scalars:
        series = series * s.scale_arg(a)
    return series


def _half_tangent_character(m: int, scalars: Sequence) -> PowerSeries:
    """(m+r+1) cosh(h) - 1 - sum_j cosh(a_j h); ch(T^C M) is twice this."""
    cosh = cosh_series(m)
    series = (m + len(scalars) + 1) * cosh - 1
    for a in scalars:
        series = series - cosh.scale_arg(a)
    return series


def _integrand(m: int, scalars: Sequence) -> PowerSeries:
    """The series whose h^m coefficient, times 2*a_1...a_r, is the
    characteristic number: the polynomial route, and the tests' oracle for
    the Riemann-Roch route."""
    return _pole_free_a_hat(m, scalars) * _half_tangent_character(m, scalars)


def _series_numbers(ci: CompleteIntersection) -> tuple[Fraction, Fraction]:
    """The same pair as _riemann_roch_numbers, by coefficient extraction at
    order m, sharing one pole-free A-hat series."""
    m, degrees = ci.m, ci.degrees
    a_hat = _pole_free_a_hat(m, degrees)
    charnum = (a_hat * _half_tangent_character(m, degrees))[m]
    return 2 * prod(degrees) * charnum, prod(degrees) * a_hat[m]


@lru_cache(maxsize=1)
def _characteristic_numbers(ci: CompleteIntersection) -> tuple[Fraction, Fraction]:
    """(<A-hat(TM) ch(T^C M), [M]>, <A-hat(TM), [M]>), by the Koszul sum
    while it carries at most KOSZUL_TERMS_PER_ORDER * (m+2) signed subset
    sums, else by series.  Holds the last input: a bound report needs both."""
    limit = KOSZUL_TERMS_PER_ORDER * (ci.m + 2)
    coeffs = _koszul_coefficients(ci.degrees, limit)
    if coeffs is None:
        return _series_numbers(ci)
    return _riemann_roch_numbers(ci, coeffs)


def char_number(ci: CompleteIntersection) -> int | Fraction:
    """<A-hat(TM) ch(T^C M), [M]>, exactly.

    The value is an index (hence an integer) whenever M is spin, and is
    returned as int in that case and whenever it happens to be integral.
    Non-spin inputs can produce genuine non-integers -- CP^2 as a degree-1
    hypersurface gives 5/2 -- which are returned as exact fractions.
    Vanishes for odd m.
    """
    value = _characteristic_numbers(ci)[0]
    if value.denominator == 1:
        return int(value)
    if is_spin(ci):
        raise ArithmeticError(
            f"characteristic number of spin {ci} came out non-integral ({value}); "
            "this signals a bug in the Riemann-Roch sum or the series engine")
    return value


def char_number_polynomial(m: int, r: int) -> MultiPoly:
    """The characteristic number as an exact polynomial in the degrees a_1..a_r.

    Runs the coefficient extraction with polynomial coefficients and applies
    the 2*a_1...a_r prefactor.  For even m this is symmetric of degree m+1;
    for odd m it is identically zero.
    """
    _require_positive(m, "dimension m")
    _require_positive(r, "codimension r")
    variables = [MultiPoly.variable(i, r) for i in range(r)]
    return 2 * prod(variables) * _integrand(m, variables)[m]


def a_hat_genus(ci: CompleteIntersection) -> Fraction:
    """<A-hat(TM), [M]> = chi(M, O(-c_1/2)), exact; an integer on spin
    manifolds."""
    return _characteristic_numbers(ci)[1]


def rs_index(ci: CompleteIntersection, chirality: Chirality) -> int:
    """Index of the chiral Rarita-Schwinger operator on M.

    Equals +-(<A-hat(TM) ch(T^C M), [M]> + <A-hat(TM), [M]>) and needs a spin
    structure to be defined.
    """
    if chirality not in ("plus", "minus"):
        raise InvalidInputError("chirality must be 'plus' or 'minus'")
    if not is_spin(ci):
        raise InvalidInputError(f"{ci} admits no spin structure; the index is undefined")
    value = rs_index_from(ci, char_number(ci), a_hat_genus(ci))
    return value if chirality == "plus" else -value


def rs_index_from(ci: CompleteIntersection, charnum: int, a_hat: Fraction) -> int:
    """Plus-chirality index of spin ``ci`` from its characteristic number and
    A-hat genus already in hand: their sum, which must be an integer."""
    total = charnum + a_hat
    if total.denominator != 1:
        raise ArithmeticError(
            f"index of spin {ci} came out non-integral ({total}); "
            "this signals a bug in the Riemann-Roch sum or the series engine")
    return int(total)
