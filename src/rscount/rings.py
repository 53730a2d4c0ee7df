"""Sparse multivariate polynomials with exact rational coefficients.

Coefficients are ``fractions.Fraction`` values: arbitrary precision, always
stored reduced with positive denominator.  A polynomial is a sparse map from
exponent vectors to nonzero coefficients, built once from its terms, as
``char_number_polynomial`` builds its result, and then evaluated exactly,
tested for symmetry, compared or printed.  Polynomials have no sum, and
their product stays only for the benchmark's traced run.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import prod

Exponents = tuple[int, ...]


class MultiPoly:
    """Sparse polynomial over the rationals in a fixed number of variables.

    ``terms`` maps exponent vectors (one nonnegative int entry per variable)
    to coefficients, ints or Fractions, stored as nonzero Fractions; the zero
    polynomial stores no terms.  Instances are treated as immutable.

    Example (2 variables)::

        a1^2*a2 + 3  ->  MultiPoly(2, {(2, 1): 1, (0, 0): 3})
    """

    __slots__ = ("num_vars", "terms")

    num_vars: int
    terms: dict[Exponents, Fraction]

    def __init__(self, num_vars: int, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        # bool is an int subclass, but True is not a variable count
        if type(num_vars) is not int or num_vars < 1:
            raise ValueError(f"variable count {num_vars!r} is not an int >= 1")
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

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exponents) for exponents in self.terms)

    def variable_degree(self, index: int) -> int:
        """Degree in the single variable ``index``; -1 for the zero polynomial."""
        # bool is an int subclass, but True is not a variable index
        if type(index) is not int or not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index!r} is not an int in 0..{self.num_vars - 1}")
        if not self.terms:
            return -1
        return max(exponents[index] for exponents in self.terms)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        """Coefficient of the given monomial (0 if absent).  The exponent
        vector is checked as the constructor checks it, on a one-term
        polynomial."""
        (key,) = MultiPoly(self.num_vars, {tuple(exponents): 1}).terms
        return self.terms.get(key, Fraction(0))

    def evaluate(self, values: Sequence) -> Fraction:
        """Evaluate at a point of ints and Fractions.  Exact, and
        multiplicative.  Each monomial is formed first, in ints at an
        integer point, and meets its coefficient once."""
        if len(values) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} values, got {len(values)}")
        # bool is an int subclass, but True is not a value
        for value in values:
            if type(value) is not int and not isinstance(value, Fraction):
                raise ValueError(f"value {value!r} is not an int or a Fraction")
        return sum((coeff * prod(map(pow, values, exponents))
                    for exponents, coeff in self.terms.items()), Fraction(0))

    def is_symmetric(self) -> bool:
        """True iff invariant under every permutation of the variables, that
        is under the two that generate them: the cycle of all r variables
        and the swap of a1 and a2.  Each maps every term to a term with the
        same coefficient."""
        terms = self.terms
        return all(terms.get(e[1:] + e[:1]) == c and terms.get(e[1::-1] + e[2:]) == c
                   for e, c in terms.items())

    # No production code multiplies polynomials.  The product stays because the
    # benchmark's traced run names it, and it must resolve until that run stops
    # tracing it.
    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.num_vars != self.num_vars:
            raise ValueError(f"mixed polynomials in {self.num_vars} and {other.num_vars} variables")
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.num_vars, terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is int or isinstance(other, Fraction):
            other = MultiPoly(self.num_vars, {(0,) * self.num_vars: other})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

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
