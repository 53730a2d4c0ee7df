"""Truncated power series with exact rational coefficients: the tests'
oracle for the characteristic numbers at given degrees.  A series stores
the coefficients of h^0 .. h^N, N being its truncation order.  No
production code calls this module and it imports none of the package, so
``_integrand`` shares no code with the routes of ``charclass``.  It stays
in the package while the benchmark's traced run names its methods.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial


def _exact(value) -> Fraction:
    """An int (not a bool) or a Fraction, as a Fraction."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as a series coefficient or scalar")


class PowerSeries:
    """Formal power series in one variable, truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a series stores at least its constant coefficient")
        self.coeffs = tuple(map(_exact, coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        """Coefficient of h^k; past the truncation order it is an error, not 0."""
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient of h^{k} not stored at truncation order {self.order}")
        return self.coeffs[k]

    def __mul__(self, other):
        """Cauchy product of two series, truncated at the smaller order."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if a:
                for j, b in enumerate(other.coeffs[:n + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return PowerSeries(out)

    def invert(self) -> PowerSeries:
        """Series g with self*g = 1 up to the truncation order, by the
        recurrence g_k = -(1/f_0) * sum_{j=1..k} f_j g_{k-j}."""
        f = self.coeffs
        if not f[0]:
            raise ZeroDivisionError("constant term is zero; series is not invertible")
        out = [1 / f[0]]
        for k in range(1, len(f)):
            out.append(-out[0] * sum(f[j] * out[k - j] for j in range(1, k + 1) if f[j]))
        return PowerSeries(out)

    def __pow__(self, exponent: int) -> PowerSeries:
        """Square-and-multiply over the exponent's bits; negative powers invert."""
        # bool is an int subclass, but True is not an exponent
        if type(exponent) is not int:
            raise TypeError(f"series powers must be ints, not {exponent!r}")
        if exponent < 0:
            return self.invert() ** -exponent
        result = PowerSeries([1] + [0] * self.order)
        for bit in bin(exponent)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def scale_arg(self, scalar) -> PowerSeries:
        """Substitute h -> c*h: the k-th coefficient picks up a factor c^k."""
        c = _exact(scalar)
        return PowerSeries([coeff * c**k if coeff else coeff
                            for k, coeff in enumerate(self.coeffs)])


def _pole_free_a_hat(m: int, scalars: Sequence) -> PowerSeries:
    """S(h)^{-(m+r+1)} * prod_j S(a_j h) at order m, S(h) = sinh(h/2)/(h/2)
    having the coefficients 1/(2^k (k+1)!) at even k.  This is a_1...a_r
    times the A-hat class with its h-poles cancelled."""
    s = PowerSeries([0 if k % 2 else Fraction(1, 2**k * factorial(k + 1)) for k in range(m + 1)])
    series = s ** -(m + len(scalars) + 1)
    for a in scalars:
        series = series * s.scale_arg(a)
    return series


def _integrand(m: int, scalars: Sequence) -> PowerSeries:
    """The series whose h^m coefficient, times 2*a_1...a_r, is the
    characteristic number of the complete intersection of degrees
    ``scalars``: the pole-free A-hat series times half of ch(T^C M), that is
    (m+r+1) cosh h - 1 - sum_j cosh(a_j h), whose h^k coefficient is
    (m+r+1 - sum_j a_j^k)/k! at even k > 0, and m at k = 0."""
    half_tangent = [m] + [0 if k % 2 else
                          Fraction(m + len(scalars) + 1 - sum(a**k for a in scalars), factorial(k))
                          for k in range(1, m + 1)]
    return _pole_free_a_hat(m, scalars) * PowerSeries(half_tangent)
