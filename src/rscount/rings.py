"""Exact coefficient arithmetic: rationals and sparse multivariate polynomials.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always
stored reduced with positive denominator, zero uniquely as 0/1.  Polynomials
are sparse maps from exponent vectors to nonzero rational coefficients.  All
arithmetic is exact; all values are immutable.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import factorial, prod

Exponents = tuple[int, ...]


class MultiPoly:
    """Sparse polynomial over the rationals in a fixed number of variables.

    ``terms`` maps exponent vectors (one nonnegative int entry per variable)
    to coefficients, ints or Fractions, stored as nonzero Fractions; the zero
    polynomial stores no terms.  Instances are treated as immutable: every
    operation returns a new polynomial.

    Example (2 variables)::

        a1^2*a2 + 3  ->  MultiPoly(2, {(2, 1): 1, (0, 0): 3})
    """

    __slots__ = ("num_vars", "terms")

    num_vars: int
    terms: dict[Exponents, Fraction]

    def __init__(self, num_vars: int, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        if num_vars < 1:
            raise ValueError("a polynomial needs at least one variable")
        clean: dict[Exponents, Fraction] = {}
        for exponents, coeff in (terms or {}).items():
            key = tuple(exponents)
            if len(key) != num_vars:
                raise ValueError(f"exponent vector {key} does not have {num_vars} entries")
            # bool is an int subclass, but True is not an exponent or a coefficient
            if not all(type(e) is int for e in key):
                raise ValueError(f"exponent vector {key} has an entry that is not an int")
            if min(key) < 0:
                raise ValueError(f"exponent vector {key} has a negative entry")
            if type(coeff) is int:
                coeff = Fraction(coeff)
            elif not isinstance(coeff, Fraction):
                raise ValueError(f"coefficient {coeff!r} is not an int or a Fraction")
            if coeff:
                clean[key] = coeff
        self.num_vars = num_vars
        self.terms = clean

    @classmethod
    def constant(cls, value: Fraction | int, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: value})

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exponents) for exponents in self.terms)

    def variable_degree(self, index: int) -> int:
        """Degree in the single variable ``index``; -1 for the zero polynomial."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range for {self.num_vars} variables")
        if not self.terms:
            return -1
        return max(exponents[index] for exponents in self.terms)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        """Coefficient of the given monomial (0 if absent)."""
        return self.terms.get(tuple(exponents), Fraction(0))

    def evaluate(self, values: Sequence):
        """Evaluate at a point of numbers, such as ints and Fractions.
        Exact, and a ring homomorphism.  Each monomial is formed first, in
        ints at an integer point, and meets its coefficient once."""
        if len(values) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} values, got {len(values)}")
        total = Fraction(0)
        for exponents, coeff in self.terms.items():
            monomial = 1
            for value, exponent in zip(values, exponents):
                if exponent:
                    monomial *= value**exponent
            total += coeff * monomial
        return total

    def is_symmetric(self) -> bool:
        """True iff invariant under every permutation of the variables: the
        terms, grouped by their sorted exponent vector, make whole orbits,
        each holding all r!/prod_v mult(v)! orderings under one coefficient."""
        orbits: dict[Exponents, list[Fraction]] = {}
        for exponents, coeff in self.terms.items():
            orbits.setdefault(tuple(sorted(exponents)), []).append(coeff)
        orderings = factorial(self.num_vars)
        return all(len(set(coeffs)) == 1
                   and len(coeffs) == orderings // prod(map(factorial, Counter(key).values()))
                   for key, coeffs in orbits.items())

    def _coerced(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.num_vars != self.num_vars:
                raise ValueError(
                    f"mixed polynomials in {self.num_vars} and {other.num_vars} variables")
            return other
        if type(other) is int or isinstance(other, Fraction):
            return MultiPoly.constant(other, self.num_vars)
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exponents, coeff in other.terms.items():
            terms[exponents] = terms.get(exponents, Fraction(0)) + coeff
        return MultiPoly(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.num_vars, terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is int or isinstance(other, Fraction):
            other = MultiPoly.constant(other, self.num_vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.num_vars}, {self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(),
                         key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])))
        parts = []
        for exponents, coeff in ordered:
            factors = [f"a{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(exponents) if e]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")
