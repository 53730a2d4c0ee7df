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
shifts.  t0 is an integer on spin inputs and a half-integer otherwise, where
the sum runs over 2^n n! times each binomial, n = m + r, and divides each
number once, at the end.  The sum has one term per distinct signed subset
sum s, up to 2^r of them.  A cost model prices it, at r+2 binomials per
term, against the power sums below before either runs; the cheaper route
runs, and an input whose cheaper estimate is past MAX_ESTIMATED_SECONDS is
refused.

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
``rscount.series``, with no caller here, is the tests' oracle for the
numbers by truncated power series; the tests check the polynomial against
values of the Koszul sum.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, inf, lgamma, log, prod
from operator import itemgetter

from .rings import MultiPoly

# Largest complex dimension a CompleteIntersection accepts, and largest m and
# r of char_number_polynomial.  At the limit a cold `compute --complex-dim M
# --degrees M+4` takes about 0.5 s on a 2-vCPU Xeon, most of it in the Koszul
# sum's math.comb calls, and prints numbers of about 48000 digits.  Larger
# degrees make larger numbers, and more degrees more of them, which
# MAX_ESTIMATED_SECONDS holds.
MAX_COMPLEX_DIM = 80000

# The cost model: each route's time in seconds in process, estimated from its
# inputs before it runs; fitted on a 2-vCPU Xeon, CPython 3.11.7.
# - The Koszul sum: r+2 binomials per signed subset sum, each priced as the
#   largest, C(x, k), k = min(n, x-n), or on non-spin inputs as the largest
#   product of k = n odd factors (_number_bits), at _BINOMIAL_S plus
#   _BINOMIAL_BIT_S * bits * k.  math.comb's time per bit*k measured 14 to
#   47 ps from 5*10^4 bits on, where per bit^2 it spread from 0.3 to 20 ps;
#   the low end serves, as most binomials of a sum are smaller than its largest.
# - Power sums: (m/2)^2 steps, each _POWER_STEP_S plus _POWER_STEP_BIT_S * m
#   * the bits of the largest degree, as their rationals grow with both.
# - The polynomial: the same steps on each of its keys (_partition_count), at
#   _KEY_STEP_S + _KEY_STEP_ORDER_S * m, and _TERM_S per expanded term
#   (_expanded_terms).
# Over even m = 2..120 and r = 4..12 distinct powers of two, spin and
# non-spin, the cheaper estimate's route took 3.8% longer in all than the
# faster route, where 3(m+2) sums, the earlier rule, took 28.5% longer.
_BINOMIAL_S, _BINOMIAL_BIT_S = 0.75e-6, 20e-12
_POWER_STEP_S, _POWER_STEP_BIT_S = 20e-6, 7e-9
_KEY_STEP_S, _KEY_STEP_ORDER_S, _TERM_S = 1.5e-6, 28e-9, 4e-6

# Largest estimate of the cheaper route, for the numbers and the polynomial;
# past it the input is refused before any binomial or power sum is computed.
# Admitted: `compute` at MAX_COMPLEX_DIM with degree m+4 (1.54 s estimated,
# 0.5 s in process: six binomials priced as the one that takes 0.5 s) and
# the (138, 1) polynomial (1.79 s, 1.3 to 1.6 s).  Refused: the (30, 8)
# polynomial (2.28 s, 1.4 to 2.0 s) and m = 300 with degrees 2, 2, 4, ...,
# 2^13, 10^12 (2.34 s, 1.2 to 1.6 s).
MAX_ESTIMATED_SECONDS = 1.8


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


class CompleteIntersection(namedtuple("CompleteIntersection", "m degrees")):
    """Smooth complete intersection of hypersurfaces of the given degrees.

    ``m`` is the complex dimension, at most MAX_COMPLEX_DIM; with r degrees
    the variety sits in CP^{m+r}.  The degrees come as a list or a tuple of
    ints and are stored as a tuple sorted ascending: every characteristic
    quantity computed here is symmetric in them.  Degree-1 entries are
    allowed (a hyperplane cut re-embeds the same manifold in lower
    codimension).  As a tuple it unpacks, indexes and orders, and equals
    ``(m, degrees)``; ``_replace`` validates and sorts.
    """

    __slots__ = ()

    def __new__(cls, m: int, degrees: tuple[int, ...] | list[int]):
        _require_int(m, "complex dimension", 1, MAX_COMPLEX_DIM, "MAX_COMPLEX_DIM")
        if not isinstance(degrees, (list, tuple)):
            raise InvalidInputError(
                f"degrees must be a list or a tuple, not {type(degrees).__name__}")
        if not degrees:
            raise InvalidInputError("at least one degree is required")
        for a in degrees:
            _require_int(a, "each degree")
        return super().__new__(cls, m, tuple(sorted(degrees)))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

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


def _koszul_coefficients(degrees: Sequence[int], limit: float) -> dict[int, int] | None:
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
                          limit: float = inf) -> tuple[int | Fraction, int | Fraction] | None:
    """(<A-hat(TM) ch(T^C M), [M]>, <A-hat(TM), [M]>) by the Koszul sum, or
    None as soon as more than ``limit`` signed subset sums are live."""
    coeffs = _koszul_coefficients(ci.degrees, limit)
    return None if coeffs is None else _folded_koszul_sum(ci.m, ci.degrees, coeffs)


def _folded_koszul_sum(m: int, degrees: Sequence[int],
                       coeffs: dict[int, int]) -> tuple[int | Fraction, int | Fraction]:
    """(<A-hat(TM) ch(T^C M), [M]>, <A-hat(TM), [M]>), exactly: ints on spin
    inputs and Fractions otherwise, for dimension m, the degrees and their
    signed subset sums {s: c_s}.

    chi(M, O(t)) = sum_s c_s C(t - s + n, n) with n = m + r.  Serre duality
    gives chi(t0 + s) = (-1)^m chi(t0 - s), so for even m the sum folds to
    2*[(n+1) chi(t0+1) - chi(t0) - sum_j chi(t0+a_j)], and for odd m both
    numbers are zero.  Each binomial is computed once, reflected as
    C(x, n) = (-1)^n C(n-1-x, n) for 2x < n-1.  On spin inputs t0 is an
    integer and each binomial is a math.comb.  Otherwise t0 is a
    half-integer, and 2^n n! C(x, n) = prod_{i<n} (2x - 2i) is a product of n
    consecutive odd integers, which the odd part of n! divides.  The sums run
    over those products, and each number is divided once, at the end: exactly
    by the odd part, then by 2^(n + v2(n!)), v2(n!) = n - popcount(n).  A
    remainder from the odd part signals a wrong product: ArithmeticError.
    """
    if m % 2:
        return 0, 0
    n = m + len(degrees)
    twice_t0 = sum(degrees) - n - 1
    spin = twice_t0 % 2 == 0
    sign, binomials = (-1) ** n, {}

    def chi(shift: int) -> int:
        """chi(M, O(t0 + shift)), times 2^n n! on non-spin inputs"""
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
    if spin:
        return charnum, a_hat
    twos = n - n.bit_count()
    odd, denominator = factorial(n) >> twos, 2 ** (n + twos)
    numbers = []
    for total in (charnum, a_hat):
        quotient, remainder = divmod(total, odd)
        if remainder:
            raise ArithmeticError(f"a Koszul sum at n = {n} is not divisible by the odd "
                                  f"part of n!; this signals a bug in its products")
        numbers.append(Fraction(quotient, denominator))
    return tuple(numbers)


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


def _number_bits(ci: CompleteIntersection) -> tuple[float, int]:
    """(estimated bits, k) of the largest integer the Koszul sum forms, from
    math.lgamma, before any is computed, with n = m + r and the top x at most
    about (a_1 + ... + a_r + n)/2 + max_j a_j.  On spin inputs that is the
    largest binomial C(x, n) = C(x, k), k = min(n, x - n).  Otherwise it is a
    product of k = n odd factors, whatever the top, at most
    2^n y!/(y - n)! = 2^n n! C(y, n) with y = max(x, n)."""
    n = ci.m + ci.codimension
    x = (sum(ci.degrees) + n) // 2 + max(ci.degrees)
    spin = is_spin(ci)
    x, k = (x, max(0, min(n, x - n))) if spin else (max(x, n), n)
    if x < 2**52:
        nats = lgamma(x + 1) - lgamma(k + 1) - lgamma(x - k + 1)
    else:  # past float precision: log C(x, k) = k log x - log k! + O(k^2/x)
        nats = k * log(x) - lgamma(k + 1)
    if not spin:
        nats += n * log(2) + lgamma(n + 1)
    return nats / log(2), k


def _koszul_seconds_per_sum(ci: CompleteIntersection) -> float:
    """Estimated time of the Koszul sum per signed subset sum: r+2 binomials,
    or products on non-spin inputs, each priced as the largest."""
    bits, k = _number_bits(ci)
    return (ci.codimension + 2) * (_BINOMIAL_S + _BINOMIAL_BIT_S * bits * k)


def _power_sum_seconds(ci: CompleteIntersection) -> float:
    """Estimated time of the power-sum recurrence: (m/2)^2 steps."""
    bits = max(ci.degrees).bit_length()
    return (ci.m / 2) ** 2 * (_POWER_STEP_S + _POWER_STEP_BIT_S * ci.m * bits)


def _require_budget(seconds: float, work: str) -> None:
    """Refuses ``work`` estimated to take ``seconds`` or more, past MAX_ESTIMATED_SECONDS."""
    if seconds > MAX_ESTIMATED_SECONDS:
        raise InvalidInputError(f"{work}: an estimated {seconds:.3g} s or more, "
                                f"past MAX_ESTIMATED_SECONDS = {MAX_ESTIMATED_SECONDS}")


def _characteristic_numbers(ci: CompleteIntersection) -> tuple[int | Fraction, Fraction]:
    """(char_number(ci), a_hat_genus(ci)) from one computation, by the Koszul
    sum or by power sums, whichever the cost model prices lower.  Both are
    zero for odd m, where every series in the pairing is even in h, and
    integers on spin inputs, else ArithmeticError signals a bug.

    Raises InvalidInputError when the cheaper estimate is past
    MAX_ESTIMATED_SECONDS, before any binomial or power sum is computed.
    """
    if ci.m % 2:
        return 0, Fraction(0)
    power_sums, per_sum = _power_sum_seconds(ci), _koszul_seconds_per_sum(ci)
    work = f"complex dimension {ci.m} with these degrees"
    # prod_j (1 - z^{a_j}) has a root of order r at z = 1, so by Descartes' rule
    # of signs at least r+1 terms, whose time is checked before any is formed
    _require_budget(min(per_sum * (ci.codimension + 1), power_sums),
                    f"{work}, by the cheaper route")
    # past this many sums the Koszul sum is the dearer route, or past the budget
    limit = min(power_sums, MAX_ESTIMATED_SECONDS) / per_sum
    numbers = _riemann_roch_numbers(ci, limit)
    if numbers is None:
        _require_budget(power_sums, f"{work}, by power sums, the Koszul sum passing the "
                                    f"budget at {int(limit) + 1} terms")
        numbers = _power_sum_numbers(ci)
    charnum, a_hat = numbers
    # on spin M both are indices, hence integers
    if is_spin(ci) and (charnum.denominator, a_hat.denominator) != (1, 1):
        raise ArithmeticError(
            f"characteristic numbers of spin {ci} came out non-integral ({charnum}, "
            f"{a_hat}); this signals a bug in the Riemann-Roch sum or the power-sum route")
    return (int(charnum) if charnum.denominator == 1 else charnum), Fraction(a_hat)


def char_number(ci: CompleteIntersection) -> int | Fraction:
    """<A-hat(TM) ch(T^C M), [M]>, exactly.

    The value is an index (hence an integer) whenever M is spin, and is
    returned as int in that case and whenever it happens to be integral.
    Non-spin inputs can produce genuine non-integers -- CP^2 as a degree-1
    hypersurface gives 5/2 -- which are returned as exact fractions.
    Vanishes for odd m.
    """
    return _characteristic_numbers(ci)[0]


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


def _polynomial_seconds(m: int, r: int) -> float:
    """Estimated time of char_number_polynomial(m, r), m and r at most
    MAX_COMPLEX_DIM.  Past the budget on its m/2 + 1 one-part keys alone, it
    stops there, before counting the keys takes long."""
    half = m // 2
    steps = half**2 * (_KEY_STEP_S + _KEY_STEP_ORDER_S * m)
    if steps * (half + 1) > MAX_ESTIMATED_SECONDS:
        return steps * (half + 1)
    return steps * _partition_count(half, r) + _TERM_S * _expanded_terms(m, r)


def _expanded_terms(m: int, r: int) -> float:
    """The polynomial's expanded terms, C(m/2 + r, r) for even m and none for
    odd m, each an r-tuple priced as r/8 terms of the fit at r <= 8 past it."""
    return 0 if m % 2 else max(1, r / 8) * comb(m // 2 + r, m // 2)


def _partition_count(total: int, parts: int) -> int:
    """Partitions of 0..total into at most ``parts`` parts, counted by their
    conjugates, whose parts are at most ``parts``: the keys of the
    polynomial's coefficients at order 2*total."""
    counts = [1] + [0] * total
    for size in range(1, min(parts, total) + 1):
        for j in range(size, total + 1):
            counts[j] += counts[j - size]
    return sum(counts)


def char_number_polynomial(m: int, r: int) -> MultiPoly:
    """The characteristic number as an exact polynomial in the degrees a_1..a_r.

    Runs the power-sum recurrence with coefficients in the monomial
    symmetric basis, where y_k = p_{2k} - (m+r+1), then applies the
    2*a_1...a_r prefactor as e_r m_lambda = m_{lambda + 1^r} and expands
    each m_lambda over its distinct exponent vectors, which share one
    coefficient.  For even m this is
    symmetric of degree m+1 in each a_i; for odd m it is identically zero.

    m and r run from 1 to MAX_COMPLEX_DIM.  Raises InvalidInputError when the
    cost model's estimate is past MAX_ESTIMATED_SECONDS, before the
    recurrence runs.
    """
    _require_int(m, "dimension m", 1, MAX_COMPLEX_DIM, "MAX_COMPLEX_DIM")
    _require_int(r, "codimension r", 1, MAX_COMPLEX_DIM, "MAX_COMPLEX_DIM")
    _require_budget(_polynomial_seconds(m, r), "char_number_polynomial at this m and r")

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


def rs_index(ci: CompleteIntersection, chirality: str) -> int:
    """Index of the chiral Rarita-Schwinger operator on M, for ``chirality``
    "plus" or "minus".

    Equals +-(<A-hat(TM) ch(T^C M), [M]> + <A-hat(TM), [M]>) and needs a spin
    structure to be defined.
    """
    if chirality not in ("plus", "minus"):
        raise InvalidInputError("chirality must be 'plus' or 'minus'")
    if not is_spin(ci):
        raise InvalidInputError(f"{ci} admits no spin structure; the index is undefined")
    value = int(sum(_characteristic_numbers(ci)))
    return value if chirality == "plus" else -value
