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
KOSZUL_TERMS_PER_ORDER * (m+2) terms the numbers go by power sums instead.

The power-sum route serves those numbers and the polynomial
``char_number_polynomial``.  Pairing picks out the h^m coefficient times
<h^m, [M]> = a_1...a_r, and that product of degrees cancels the sinh poles.
With log(sinh(x/2)/(x/2)) = sum_k beta_k x^{2k}, beta_k = B_{2k}/(2k (2k)!)
(Hirzebruch's multiplicative sequences), the degrees enter only through
y_k = p_{2k} - (m+r+1), p_{2k} = sum_j a_j^{2k}:

    <A-hat(TM) ch(T^C M), [M]>
        = 2 a_1...a_r * coeff(h^m, E * (m - sum_k y_k h^{2k}/(2k)!)),
    <A-hat(TM), [M]> = a_1...a_r * coeff(h^m, E),
    E = exp(sum_k beta_k y_k h^{2k}).

For the numbers each y_k is an integer.  For the polynomial the
coefficients are combinations of monomial symmetric polynomials m_lambda in
a_1..a_r, on which only multiplication by a power sum is needed.  Both
vanish for odd m, where every coefficient of odd order is zero.
``rscount.series`` computes the same pairing from truncated power series;
it has no caller here and stays as the tests' oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Callable, Literal, Sequence

from .rings import MultiPoly

Chirality = Literal["plus", "minus"]

# The Koszul sum costs 2r+3 binomials per signed subset sum of the
# degrees; the power-sum route about m^2/4 rational products, whatever r is.
# Timed over m = 2..120 and r = 4..12 on distinct powers of two (2^r sums),
# spin and non-spin, the sum is the faster one up to a median of 1.5(m+2)
# sums on non-spin inputs and 3(m+2) on spin ones (0.3 to 5 and 0.5 to 150
# times m+2).  Summed over that grid, a limit of 3(m+2) sums takes 2% longer
# than always taking the faster route, and no input takes over 2x longer.
KOSZUL_TERMS_PER_ORDER = 3


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


def _bernoulli_ratios(order: int) -> list[Fraction]:
    """B_{2k}/(2k)! for k = 0..order//2: the h^{2k} coefficients of
    (h/2) coth(h/2) = cosh(h/2) / (sinh(h/2)/(h/2)), by series division."""
    ratios = []
    for n in range(order // 2 + 1):
        ratios.append(Fraction(1, 4**n * factorial(2 * n)) - sum(
            Fraction(1, 4**j * factorial(2 * j + 1)) * ratios[n - j] for j in range(1, n + 1)))
    return ratios


def _add_scaled(total: dict, scale: Fraction, combination: dict) -> None:
    for key, c in combination.items():
        total[key] = total.get(key, 0) + scale * c


def _power_sum_pairings(m: int, times_y: Callable[[int, dict], dict]) -> tuple[dict, dict]:
    """([h^m] E*(m - sum_k y_k h^{2k}/(2k)!), [h^m] E) with
    E = exp(sum_k beta_k y_k h^{2k}), as linear combinations {key: c}.

    The key () stands for 1, and times_y(k, c) multiplies c by y_k; that
    step alone knows what the y_k are.  E runs by n*E_n = sum_k
    (B_{2k}/(2k)!) y_k E_{n-2k}, from E' = (log E)' E, since
    2k beta_k = B_{2k}/(2k)!.  For odd m every odd E_n is empty, so the
    h^m coefficients come out zero.
    """
    ratios = _bernoulli_ratios(m)
    e = [{(): Fraction(1)}]
    for n in range(1, m + 1):
        products = [times_y(k, e[n - 2 * k]) for k in range(1, n // 2 + 1)]
        total = {}
        for k, product in enumerate(products, 1):
            _add_scaled(total, ratios[k], product)
        e.append({key: c / n for key, c in total.items() if c})
    # products now holds y_k E_{m-2k}, k = 1..m//2
    charnum = {key: m * c for key, c in e[m].items()}
    for k, product in enumerate(products, 1):
        _add_scaled(charnum, Fraction(-1, factorial(2 * k)), product)
    return charnum, e[m]


def _power_sum_numbers(ci: CompleteIntersection) -> tuple[Fraction, Fraction]:
    """The same pair as _riemann_roch_numbers, from the power sums of the
    degrees: each y_k is an integer, so the combinations hold one key."""
    m, degrees = ci.m, ci.degrees
    y = [sum(a ** (2 * k) for a in degrees) - (m + len(degrees) + 1)
         for k in range(m // 2 + 1)]
    charnum, a_hat = _power_sum_pairings(
        m, lambda k, combination: {key: y[k] * c for key, c in combination.items()})
    zero = Fraction(0)
    return 2 * prod(degrees) * charnum.get((), zero), prod(degrees) * a_hat.get((), zero)


@lru_cache(maxsize=1)
def _characteristic_numbers(ci: CompleteIntersection) -> tuple[Fraction, Fraction]:
    """(<A-hat(TM) ch(T^C M), [M]>, <A-hat(TM), [M]>), by the Koszul sum
    while it carries at most KOSZUL_TERMS_PER_ORDER * (m+2) signed subset
    sums, else by power sums.  Holds the last input: a bound report needs both."""
    limit = KOSZUL_TERMS_PER_ORDER * (ci.m + 2)
    coeffs = _koszul_coefficients(ci.degrees, limit)
    if coeffs is None:
        return _power_sum_numbers(ci)
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
            "this signals a bug in the Riemann-Roch sum or the power-sum route")
    return value


def _times_power_sum(power: int, combination: dict, r: int) -> dict:
    """p_power * sum_lambda c_lambda m_lambda in the monomial symmetric basis
    of r variables: p_k m_lambda = sum_v mult_mu(v+k) m_mu, over the distinct
    part values v of lambda (0 too while lambda has fewer than r parts), with
    mu = lambda with one v raised to v+k.  Partitions are descending tuples
    of their nonzero parts."""
    product = {}
    for partition, c in combination.items():
        values = set(partition)
        if len(partition) < r:
            values.add(0)
        for v in values:
            parts = list(partition)
            if v:
                parts.remove(v)
            raised = tuple(sorted(parts + [v + power], reverse=True))
            product[raised] = product.get(raised, 0) + raised.count(v + power) * c
    return product


def _orderings(parts: list[int]):
    """Each distinct ordering of the multiset ``parts``, lexicographically."""
    parts = sorted(parts)
    while True:
        yield tuple(parts)
        i = len(parts) - 2
        while i >= 0 and parts[i] >= parts[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(parts) - 1
        while parts[j] <= parts[i]:
            j -= 1
        parts[i], parts[j] = parts[j], parts[i]
        parts[i + 1:] = reversed(parts[i + 1:])


def char_number_polynomial(m: int, r: int) -> MultiPoly:
    """The characteristic number as an exact polynomial in the degrees a_1..a_r.

    Runs the power-sum recurrence with coefficients in the monomial
    symmetric basis, where y_k = p_{2k} - (m+r+1), then applies the
    2*a_1...a_r prefactor as e_r m_lambda = m_{lambda + 1^r} and expands
    each m_lambda over its distinct exponent vectors.  For even m this is
    symmetric of degree m+1 in each a_i; for odd m it is identically zero.
    """
    _require_positive(m, "dimension m")
    _require_positive(r, "codimension r")

    def times_y(k: int, combination: dict) -> dict:
        product = _times_power_sum(2 * k, combination, r)
        _add_scaled(product, Fraction(-(m + r + 1)), combination)
        return product

    charnum, _ = _power_sum_pairings(m, times_y)
    terms = {}
    for partition, c in charnum.items():
        for exponents in _orderings([v + 1 for v in partition] + [1] * (r - len(partition))):
            terms[exponents] = 2 * c
    return MultiPoly(r, terms)


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
            "this signals a bug in the Riemann-Roch sum or the power-sum route")
    return int(total)
