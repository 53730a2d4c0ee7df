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

(Hirzebruch, Topological Methods in Algebraic Geometry).  Serre duality,
chi(t0 + s) = (-1)^m chi(t0 - s), folds the first sum onto its positive
shifts.  t0 is an integer on spin inputs and a half-integer otherwise.
The sum has one term per distinct signed subset sum s, up to 2^r of them;
past KOSZUL_TERMS_PER_ORDER * (m+2) terms the numbers go by power sums
instead.

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

The Bernoulli numbers come from the tangent numbers T_k, by Brent and
Harvey's recurrence in integers (Fast computation of Bernoulli, Tangent and
Secant numbers, arXiv:1108.0286): B_{2k} = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)).
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
from itertools import combinations
from math import comb, factorial, lgamma, log, prod
from operator import itemgetter
from typing import Callable, Literal, Sequence

from .rings import MultiPoly

Chirality = Literal["plus", "minus"]

# The Koszul sum costs r+2 binomials per signed subset sum of the
# degrees; the power-sum route about m^2/4 rational products, whatever r is.
# Timed over m = 2..120 and r = 4..12 on distinct powers of two (2^r sums),
# spin and non-spin, the sum is the faster one up to a median of 1.5(m+2)
# sums on non-spin inputs and 3(m+2) on spin ones (0.3 to 5 and 0.5 to 150
# times m+2).  Summed over that grid, a limit of 3(m+2) sums takes 2% longer
# than always taking the faster route, and no input takes over 2x longer.
KOSZUL_TERMS_PER_ORDER = 3

# Largest complex dimension a CompleteIntersection accepts.  At the limit a
# cold `compute --complex-dim M --degrees M+4` takes about 0.5 s on a 2-vCPU
# Xeon, most of it in the Koszul sum's math.comb calls, and prints numbers
# of about 48000 digits.  Larger degrees make larger numbers, and more
# degrees more of them, which MAX_KOSZUL_WORK holds.
MAX_COMPLEX_DIM = 80000

# Largest estimated work of the Koszul sum: r+2 binomials per signed subset
# sum, up to the term limit, each costing the square of the estimated bits
# (see _number_bits) of the largest integer the sum forms.  math.comb(x, k)
# divides numbers of that size by numbers of about k bits, and division is
# quadratic on CPython 3.11.  Timed in process on a 2-vCPU Xeon over 76 spin
# inputs (m = 2..80000, r = 1..20, degrees up to 10^20000), bits^2 tracked
# the time best: the largest work whose inputs all take under 1 s is
# 4.3*10^11 on bits^2, 3.2*10^10 on bits^1.8 and 2.7*10^9 on bits^1.6, and
# that refuses 7, 11 and 14 inputs that take under 1 s.  Below the limit,
# m = 80000 at degree 2m+4 (6 binomials of 241669 bits, 3.5*10^11) takes
# 0.78 s, 1.1 s cold; above it, m = 2000 with nineteen degrees 10^6 and one
# 10^6+1 (880 binomials of 27977 bits, 6.9*10^11) took 0.77 s.  On non-spin
# inputs the estimate adds the bits of their denominator 2^n n!, n = m + r,
# which overcounts their time 2 to 5 times.  Each binomial also counts 400^2,
# for its call and the arithmetic around it: with 2001 degrees 2 at m = 80000
# (vanishing binomials) each took as long as 1.2 to 1.8*10^5 bits^2, on two hosts.
MAX_KOSZUL_WORK = 4 * 10**11

# Largest even m the power-sum route takes: it makes about m^2/4 rational
# products, of numbers that grow with m.  At the limit a cold `compute
# --complex-dim M --degrees 2 2 4 8 ... 16384` (2^15 signed subset sums)
# takes about 1 s on a 2-vCPU Xeon; m = 400 takes 2.3 s.
MAX_POWER_SUM_DIM = 300


class InvalidInputError(ValueError):
    """An argument outside the domain of a library function, or a command
    argument the CLI refuses: the caller's input is at fault, not the
    computation."""


class CurvatureClass(enum.Enum):
    """Sign of the first Chern class; selects the Einstein-metric regime."""

    FANO = "fano"
    CALABI_YAU = "calabi_yau"
    GENERAL_TYPE = "general_type"


def _require_int(value, name: str, low: int = 1, high: int | None = None,
                 budget: str = "", even: bool = False) -> None:
    """Rejects all but the integers (even ones only, if ``even``) from
    ``low`` to ``high`` (or up), naming ``budget``, the constant that sets
    ``high``."""
    # bool is an int subclass, but True is not a dimension or a degree
    if (not isinstance(value, int) or isinstance(value, bool) or value < low
            or (high is not None and value > high) or (even and value % 2)):
        kind = "an even integer" if even else "an integer"
        if high is None:
            raise InvalidInputError(f"{name} must be {kind} >= {low}")
        raise InvalidInputError(f"{name} must be {kind} from {low} to {budget} = {high}")


@dataclass(frozen=True)
class CompleteIntersection:
    """Smooth complete intersection of hypersurfaces of the given degrees.

    ``m`` is the complex dimension, at most MAX_COMPLEX_DIM; with r degrees
    the variety sits in CP^{m+r}.  Degrees are stored sorted ascending:
    every characteristic quantity computed here is symmetric in them.
    Degree-1 entries are allowed (a hyperplane cut re-embeds the same
    manifold in lower codimension).
    """

    m: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        _require_int(self.m, "complex dimension", 1, MAX_COMPLEX_DIM, "MAX_COMPLEX_DIM")
        degrees = tuple(self.degrees)
        if not degrees:
            raise InvalidInputError("at least one degree is required")
        for a in degrees:
            _require_int(a, "each degree")
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
    """(<A-hat(TM) ch(T^C M), [M]>, <A-hat(TM), [M]>) by the Koszul sum."""
    charnum, a_hat, denominator = _folded_koszul_sum(ci.m, ci.degrees, coeffs)
    return Fraction(charnum, denominator), Fraction(a_hat, denominator)


def _folded_koszul_sum(m: int, degrees: Sequence[int],
                       coeffs: dict[int, int]) -> tuple[int, int, int]:
    """(D <A-hat(TM) ch(T^C M), [M]>, D <A-hat(TM), [M]>, D), in integers,
    for dimension m, the degrees and their signed subset sums {s: c_s}.

    chi(M, O(t)) = sum_s c_s C(t - s + n, n) with n = m + r.  Serre duality
    gives chi(t0 + s) = (-1)^m chi(t0 - s), so for even m the sum folds to
    2*[(n+1) chi(t0+1) - chi(t0) - sum_j chi(t0+a_j)], and for odd m both
    numbers are zero.  Each binomial is computed once, reflected as
    C(x, n) = (-1)^n C(n-1-x, n) for 2x < n-1.  On spin inputs t0 is an
    integer, D = 1 and each binomial is a math.comb.  Otherwise t0 is a
    half-integer, and D = 2^n n! makes D C(x, n) = prod_{i<n} (2x - 2i) an integer.
    """
    if m % 2:
        return 0, 0, 1
    n = m + len(degrees)
    twice_t0 = sum(degrees) - n - 1
    spin = twice_t0 % 2 == 0
    denominator = 1 if spin else 2**n * factorial(n)
    sign, binomials = (-1) ** n, {}

    def chi(shift: int) -> int:
        """D * chi(M, O(t0 + shift))"""
        total = 0
        for s, c in coeffs.items():
            twice_x = twice_t0 + 2 * (shift - s + n)
            if twice_x < n - 1:
                twice_x, c = 2 * n - 2 - twice_x, sign * c
            if twice_x not in binomials:
                binomials[twice_x] = (comb(twice_x // 2, n) if spin
                                      else _tree_product(range(twice_x, twice_x - 2 * n, -2)))
            total += c * binomials[twice_x]
        return total

    a_hat = chi(0)
    charnum = 2 * ((n + 1) * chi(1) - a_hat - sum(chi(a) for a in degrees))
    return charnum, a_hat, denominator


def _tree_product(factors: Sequence[int]) -> int:
    """prod(factors), as a balanced tree of products: operands of like size
    let large-integer multiplication beat the schoolbook cost of a running
    product."""
    if len(factors) <= 16:
        return prod(factors)
    middle = len(factors) // 2
    return _tree_product(factors[:middle]) * _tree_product(factors[middle:])


def _bernoulli_ratios(order: int) -> list[Fraction]:
    """B_{2k}/(2k)! for k = 0..order//2, from the tangent numbers T_k:
    B_{2k} = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)).  Brent and Harvey's
    recurrence (arXiv:1108.0286) gives T_1..T_{order//2} in O(order^2)
    integer products; only the ratios themselves are rational."""
    n = order // 2
    tangent = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return [Fraction(1)] + [
        Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4**k * (4**k - 1) * factorial(2 * k))
        for k in range(1, n + 1)]


def _add_scaled(total: dict, scale: int | Fraction, combination: dict) -> None:
    # a new key takes the product as it is: 0 + Fraction is a Fraction addition
    for key, c in combination.items():
        if key in total:
            total[key] += scale * c
        else:
            total[key] = scale * c


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
            # divided by n once per ratio rather than once per coefficient
            _add_scaled(total, ratios[k] / n, product)
        e.append({key: c for key, c in total.items() if c})
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


def _number_bits(ci: CompleteIntersection) -> float:
    """Estimated bits of the largest integer the Koszul sum forms, from
    math.lgamma, before any is computed: the largest binomial C(x, n),
    n = m + r, with |x| at most about (a_1 + ... + a_r + n)/2 + max_j a_j,
    times 2^n n! on non-spin inputs."""
    n = ci.m + ci.codimension
    x = (sum(ci.degrees) + n) // 2 + max(ci.degrees)
    k = max(0, min(n, x - n))
    if x < 2**52:
        nats = lgamma(x + 1) - lgamma(k + 1) - lgamma(x - k + 1)
    else:  # past float precision: log C(x, k) = k log x - log k! + O(k^2/x)
        nats = k * log(x) - lgamma(k + 1)
    if not is_spin(ci):
        nats += n * log(2) + lgamma(n + 1)
    return nats / log(2)


def _require_koszul_work(ci: CompleteIntersection, sums: int) -> None:
    """Refuses the Koszul sum over ``sums`` signed subset sums past MAX_KOSZUL_WORK."""
    binomials, bits = sums * (ci.codimension + 2), _number_bits(ci)
    work = binomials * (bits**2 + 400**2)
    if work > MAX_KOSZUL_WORK:
        raise InvalidInputError(
            f"complex dimension {ci.m} with these degrees needs at least {binomials} "
            f"binomials of about {bits:.0f} bits in the Koszul sum, {work:.2g} at "
            f"bits^2 + 400^2 each, past MAX_KOSZUL_WORK = {MAX_KOSZUL_WORK}")


@lru_cache(maxsize=1)
def _characteristic_numbers(ci: CompleteIntersection) -> tuple[Fraction, Fraction]:
    """(<A-hat(TM) ch(T^C M), [M]>, <A-hat(TM), [M]>), by the Koszul sum
    while it carries at most KOSZUL_TERMS_PER_ORDER * (m+2) signed subset
    sums, else by power sums.  Both are zero for odd m, where every series
    in the pairing is even in h.  Holds the last input: a bound report
    needs both.

    Raises InvalidInputError on the power-sum route past MAX_POWER_SUM_DIM,
    and on either route past MAX_KOSZUL_WORK, before any binomial or power
    sum is computed.  Past the term limit the work counts the limit's worth
    of sums: the power sums' numbers grow with the degrees as the
    binomials' do.
    """
    if ci.m % 2:
        return Fraction(0), Fraction(0)
    limit = KOSZUL_TERMS_PER_ORDER * (ci.m + 2)
    # prod_j (1 - z^{a_j}) has a root of order r at z = 1, so by Descartes' rule
    # of signs at least r+1 terms, whose work is checked before any is formed
    _require_koszul_work(ci, min(ci.codimension + 1, limit))
    coeffs = _koszul_coefficients(ci.degrees, limit)
    if coeffs is None and ci.m > MAX_POWER_SUM_DIM:
        raise InvalidInputError(
            f"the degrees have over {limit} signed subset sums, which takes the "
            f"power-sum route, and complex dimension {ci.m} is past "
            f"MAX_POWER_SUM_DIM = {MAX_POWER_SUM_DIM}")
    _require_koszul_work(ci, limit if coeffs is None else len(coeffs))
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
            count = raised.count(v + power)  # mostly 1: skip that product
            term = c if count == 1 else count * c
            product[raised] = product[raised] + term if raised in product else term
    return product


def _orderings(parts: list[int]):
    """Each distinct ordering of the multiset ``parts``, once.  The parts
    other than one most frequent value take each combination of positions,
    in each of their own distinct orderings, and that value fills the rest;
    one itemgetter per combination picks the vectors out of those orderings."""
    fill = max(parts, key=parts.count)
    rest = [v for v in parts if v != fill]
    if not rest:
        yield tuple(parts)
        return
    arrangements = [arrangement + (fill,) for arrangement in _orderings(rest)]
    for positions in combinations(range(len(parts)), len(rest)):
        index = [len(rest)] * len(parts)
        for j, p in enumerate(positions):
            index[p] = j
        yield from map(itemgetter(*index), arrangements)


def char_number_polynomial(m: int, r: int) -> MultiPoly:
    """The characteristic number as an exact polynomial in the degrees a_1..a_r.

    Runs the power-sum recurrence with coefficients in the monomial
    symmetric basis, where y_k = p_{2k} - (m+r+1), then applies the
    2*a_1...a_r prefactor as e_r m_lambda = m_{lambda + 1^r} and expands
    each m_lambda over its distinct exponent vectors, which share one
    coefficient.  For even m this is
    symmetric of degree m+1 in each a_i; for odd m it is identically zero.
    """
    _require_int(m, "dimension m")
    _require_int(r, "codimension r")

    def times_y(k: int, combination: dict) -> dict:
        product = _times_power_sum(2 * k, combination, r)
        _add_scaled(product, -(m + r + 1), combination)
        return product

    charnum, _ = _power_sum_pairings(m, times_y)
    terms = {}
    for partition, c in charnum.items():
        orbit = _orderings([v + 1 for v in partition] + [1] * (r - len(partition)))
        terms.update(dict.fromkeys(orbit, 2 * c))
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
