"""Characteristic data of complete intersections in complex projective space.

A smooth complete intersection M in CP^{m+r}, cut out by hypersurfaces of
degrees a_1..a_r, has complex dimension m, and its characteristic classes
restrict from the ambient space::

    c(TM)      = (1+h)^{m+r+1} * prod_j (1 + a_j h)^{-1}
    ch(T^C M)  = 2*((m+r+1) cosh(h) - 1 - sum_j cosh(a_j h))
    A-hat(TM)  = ((h/2)/sinh(h/2))^{m+r+1} * prod_j sinh(a_j h/2)/(a_j h/2)

with h the restricted hyperplane class.  Pairing a class against the
fundamental class picks out its h^m coefficient times <h^m, [M]> = a_1...a_r.
That product of degrees cancels the sinh poles exactly, so every computation
below runs on unit power series truncated at order m: with
S(h) = sinh(h/2)/(h/2),

    <A-hat(TM) ch(T^C M), [M]>
        = 2 a_1...a_r * coeff(h^m, S(h)^{-(m+r+1)} * prod_j S(a_j h)
                                   * ((m+r+1) cosh(h) - 1 - sum_j cosh(a_j h))).

Running the same pipeline with polynomial coefficients in a_1..a_r yields the
characteristic number as an exact symmetric polynomial in the degrees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Literal, Sequence

from .rings import MultiPoly
from .series import PowerSeries, cosh_series, sinhc_half_series

Chirality = Literal["plus", "minus"]


class CurvatureClass(enum.Enum):
    """Sign of the first Chern class; selects the Einstein-metric regime."""

    FANO = "fano"
    CALABI_YAU = "calabi_yau"
    GENERAL_TYPE = "general_type"


def _is_positive_int(value) -> bool:
    # bool is an int subclass, but True is not a dimension or a degree
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


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
        if not _is_positive_int(self.m):
            raise ValueError("complex dimension must be a positive integer")
        degrees = tuple(self.degrees)
        if not degrees:
            raise ValueError("at least one degree is required")
        if not all(_is_positive_int(a) for a in degrees):
            raise ValueError("degrees must be positive integers")
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
    characteristic number; shared by the numeric and polynomial routes."""
    return _pole_free_a_hat(m, scalars) * _half_tangent_character(m, scalars)


def char_number(ci: CompleteIntersection) -> int | Fraction:
    """<A-hat(TM) ch(T^C M), [M]>, by exact coefficient extraction at order m.

    The value is an index (hence an integer) whenever M is spin, and is
    returned as int in that case and whenever it happens to be integral.
    Non-spin inputs can produce genuine non-integers -- CP^2 as a degree-1
    hypersurface gives 5/2 -- which are returned as exact fractions.
    Vanishes for odd m, where the integrand is an even series.
    """
    value = 2 * prod(ci.degrees) * _integrand(ci.m, ci.degrees)[ci.m]
    if value.denominator == 1:
        return int(value)
    if is_spin(ci):
        raise ArithmeticError(
            f"characteristic number of spin {ci} came out non-integral ({value}); "
            "this signals a bug in the series engine")
    return value


def char_number_polynomial(m: int, r: int) -> MultiPoly:
    """The characteristic number as an exact polynomial in the degrees a_1..a_r.

    Runs the coefficient extraction with polynomial coefficients and applies
    the 2*a_1...a_r prefactor.  For even m this is symmetric of degree m+1;
    for odd m it is identically zero.
    """
    if m < 1 or r < 1:
        raise ValueError("dimension and codimension must be positive")
    variables = [MultiPoly.variable(i, r) for i in range(r)]
    return 2 * prod(variables) * _integrand(m, variables)[m]


def a_hat_genus(ci: CompleteIntersection) -> Fraction:
    """<A-hat(TM), [M]>, exact; an integer on spin manifolds."""
    return prod(ci.degrees) * _pole_free_a_hat(ci.m, ci.degrees)[ci.m]


def rs_index(ci: CompleteIntersection, chirality: Chirality) -> int:
    """Index of the chiral Rarita-Schwinger operator on M.

    Equals +-(<A-hat(TM) ch(T^C M), [M]> + <A-hat(TM), [M]>) and needs a spin
    structure to be defined.
    """
    if chirality not in ("plus", "minus"):
        raise ValueError("chirality must be 'plus' or 'minus'")
    if not is_spin(ci):
        raise ValueError(f"{ci} admits no spin structure; the index is undefined")
    value = rs_index_from(ci, char_number(ci), a_hat_genus(ci))
    return value if chirality == "plus" else -value


def rs_index_from(ci: CompleteIntersection, charnum: int, a_hat: Fraction) -> int:
    """Plus-chirality index of spin ``ci`` from its characteristic number and
    A-hat genus already in hand: their sum, which must be an integer."""
    total = charnum + a_hat
    if total.denominator != 1:
        raise ArithmeticError(
            f"index of spin {ci} came out non-integral ({total}); "
            "this signals a bug in the series engine")
    return int(total)
