"""Riemann-Roch route to the characteristic numbers, sharing no code with rscount.

For a complete intersection M in CP^{m+r} of degrees a_1..a_r, the Koszul
resolution gives the Hilbert polynomial

    chi(M, O(t)) = sum over S of [r]  (-1)^|S| C(t - a_S + m + r, m + r),

with C(x, k) = x(x-1)...(x-k+1)/k! for rational x.  Since A-hat = Todd *
e^{-c_1/2} and T^C M = (m+r+1)(O(1) + O(-1)) - 2 O - sum_j (O(a_j) + O(-a_j))
in K-theory, both numbers are signed sums of chi at t0 = -c_1/2 + s:

    <A-hat ch(T^C M), [M]> = (m+r+1)(chi(t0+1) + chi(t0-1)) - 2 chi(t0)
                             - sum_j (chi(t0+a_j) + chi(t0-a_j)),
    <A-hat, [M]>           = chi(t0).

See Hirzebruch, Topological Methods in Algebraic Geometry.  t0 is a
half-integer on non-spin inputs, where the values may be genuine fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

# N(n), the maximal number of parallel spinors on a simply connected
# n-manifold without flat factor, for even n, as tabulated in the paper.
PARALLEL_SPINORS = {2: 0, 4: 2, 6: 0, 8: 4, 10: 0, 12: 8, 14: 2, 16: 16,
                    18: 4, 20: 32, 22: 8, 24: 64, 26: 16, 28: 128}


def _binomial(x: Fraction, k: int) -> Fraction:
    p, q = x.numerator, x.denominator
    numerator = 1
    for i in range(k):
        numerator *= p - i * q
    return Fraction(numerator, q**k * factorial(k))


def hilbert_polynomial(m: int, degrees, t: Fraction) -> Fraction:
    """chi(M, O(t)) for the complete intersection of the given degrees."""
    n = m + len(degrees)
    total = Fraction(0)
    for size in range(len(degrees) + 1):
        for subset in combinations(degrees, size):
            term = _binomial(t - sum(subset) + n, n)
            total += -term if size % 2 else term
    return total


def _t0(m: int, degrees) -> Fraction:
    return Fraction(sum(degrees) - m - len(degrees) - 1, 2)


def char_number(m: int, degrees) -> Fraction:
    """<A-hat(TM) ch(T^C M), [M]>."""
    t0 = _t0(m, degrees)
    chi = lambda t: hilbert_polynomial(m, degrees, t)
    value = (m + len(degrees) + 1) * (chi(t0 + 1) + chi(t0 - 1)) - 2 * chi(t0)
    for a in degrees:
        value -= chi(t0 + a) + chi(t0 - a)
    return value


def a_hat_genus(m: int, degrees) -> Fraction:
    """<A-hat(TM), [M]>."""
    return hilbert_polynomial(m, degrees, _t0(m, degrees))
