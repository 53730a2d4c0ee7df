"""Truncated formal power series with exact coefficients.

A series stores coefficients for h^0 .. h^N inclusive, N being the
truncation order.  A coefficient is a ``Fraction``; ``int`` input is read as
one.  Arithmetic truncates to the smaller operand order; inversion requires
a nonzero constant term (every series inverted here is a unit, poles having
been cancelled analytically upstream).

No production code calls this module: ``charclass`` computes the same
pairings by a Koszul sum or by power sums.  It stays as the tests' oracle
for the numbers at given degrees, since ``_integrand`` reaches them by
truncated series arithmetic that shares no code with either route, and
because the benchmark's traced run names ``PowerSeries`` methods, which must
keep resolving until the benchmark stops tracing them.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial


def _coefficient(value) -> Fraction:
    """Check an exact coefficient; ints become Fractions.  ``bool`` is
    rejected although it is an int subclass."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as a series coefficient")


class PowerSeries:
    """Formal power series in one variable, truncated at a fixed order.

    Equality compares coefficients up to the common truncation order, so a
    series agrees with any of its further truncations.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a series stores at least its constant coefficient")
        self.coeffs = tuple(_coefficient(c) for c in coeffs)

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        return cls([value] + [Fraction(0)] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        """Coefficient of h^k; indices beyond the truncation order are an
        error, never a silent zero."""
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient of h^{k} not stored at truncation order {self.order}")
        return self.coeffs[k]

    def _resolved(self, other) -> "PowerSeries | None":
        if isinstance(other, PowerSeries):
            return other
        try:
            return PowerSeries.constant(other, self.order)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._resolved(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._resolved(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other):
        """Cauchy product, truncated at the common order."""
        other = self._resolved(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(out)

    __rmul__ = __mul__

    def invert(self) -> "PowerSeries":
        """Series g with self*g = 1 up to the truncation order.

        Term-by-term recurrence g_k = -(1/f_0) * sum_{j=1..k} f_j g_{k-j};
        only the constant term is ever divided by, and it must be nonzero.
        """
        f0 = self.coeffs[0]
        if not f0:
            raise ZeroDivisionError("constant term is zero; series is not invertible")
        inv0 = 1 / f0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                fj = self.coeffs[j]
                if fj:
                    acc = acc + fj * out[k - j]
            out.append(-(inv0 * acc))
        return PowerSeries(out)

    def __pow__(self, exponent: int) -> "PowerSeries":
        if not isinstance(exponent, int):
            raise TypeError("series powers must be integers")
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = PowerSeries.constant(1, self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def scale_arg(self, scalar) -> "PowerSeries":
        """Substitute h -> c*h: the k-th coefficient picks up a factor c^k."""
        c = _coefficient(scalar)
        out = []
        power = Fraction(1)
        for k, coeff in enumerate(self.coeffs):
            if k:
                power = power * c
            out.append(coeff * power if coeff else coeff)
        return PowerSeries(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None  # equality ignores coefficients beyond the common order

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r})"


def _taylor(order: int, coefficient) -> PowerSeries:
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return PowerSeries([coefficient(k) for k in range(order + 1)])


def sinh_series(order: int) -> PowerSeries:
    """sinh(h): coefficients 1/k! for odd k."""
    return _taylor(order, lambda k: Fraction(1, factorial(k)) if k % 2 else Fraction(0))


def cosh_series(order: int) -> PowerSeries:
    """cosh(h): coefficients 1/k! for even k."""
    return _taylor(order, lambda k: Fraction(0) if k % 2 else Fraction(1, factorial(k)))


def sinhc_half_series(order: int) -> PowerSeries:
    """sinh(h/2)/(h/2), the unit series 1 + h^2/24 + h^4/1920 + ...

    Coefficients 1/(2^k (k+1)!) for even k.  This is the reciprocal factor
    of the A-hat class once its h-pole has been cancelled.
    """
    return _taylor(order,
                   lambda k: Fraction(0) if k % 2 else Fraction(1, 2**k * factorial(k + 1)))


def _pole_free_a_hat(m: int, scalars: Sequence) -> PowerSeries:
    """S(h)^{-(m+r+1)} * prod_j S(a_j h) at order m, S(h) = sinh(h/2)/(h/2).

    Equals a_1...a_r times the A-hat class with its h-poles cancelled; the
    degrees enter only through argument scaling.
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
    characteristic number of the complete intersection of degrees
    ``scalars``: the tests' oracle for both routes of ``charclass`` at
    given degrees.  The polynomial in the degrees is checked instead
    against values of the Koszul sum."""
    return _pole_free_a_hat(m, scalars) * _half_tangent_character(m, scalars)
