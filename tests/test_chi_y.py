"""A third route to the numbers of Calabi-Yau complete intersections:
Hirzebruch's chi_y genus (*Topological Methods in Algebraic Geometry*),

    sum_m chi_y(V_m(a)) z^(m+r) = 1/((1+zy)(1-z))
        * prod_j ((1+zy)^a_j - (1-z)^a_j) / ((1+zy)^a_j + y(1-z)^a_j),

where chi_y = sum_p chi(M, Omega^p) y^p = chi^0 + chi^1 y + ... .  Only
chi^0 and chi^1 are needed, so the series run over Z[y]/(y^2): there
(1+zy)^a = 1 + a·zy, and every denominator starts with the unit 1 + y,
whose inverse is 1 - y, so every step is an integer step.

On a Calabi-Yau m-fold (sum of a_j - 1 = m + 1), T_C M = T + T*, the
Todd class is the A-hat class, T = Omega^(m-1) and Serre duality gives
chi^(m-1) = (-1)^m chi^1, so

    char_number = chi(T) + chi(Omega^1) = (1 + (-1)^m) chi^1,
    a_hat_genus = chi^0.

The route shares no code with the package: it imports only the input type
and the two numbers it checks."""

from math import comb

import pytest

from rscount import CompleteIntersection, a_hat_genus, char_number

# An element c0 + c1·y of Z[y]/(y^2) is the pair (c0, c1); a series in z
# truncated at z^order is the list of its order + 1 coefficients.


def _times(f, g):
    """f·g, truncated at the length of f."""
    product = [(0, 0)] * len(f)
    for i, (f0, f1) in enumerate(f):
        if f0 or f1:
            for k, (g0, g1) in enumerate(g[:len(f) - i]):
                p0, p1 = product[i + k]
                product[i + k] = (p0 + f0 * g0, p1 + f0 * g1 + f1 * g0)
    return product


def _divided(f, g):
    """f/g for g starting with the unit 1 + y, by long division."""
    quotient = []
    for k, (n0, n1) in enumerate(f):
        for i in range(1, k + 1):
            q0, q1 = quotient[k - i]
            g0, g1 = g[i]
            n0, n1 = n0 - g0 * q0, n1 - g0 * q1 - g1 * q0
        quotient.append((n0, n1 - n0))  # times 1/(1 + y) = 1 - y
    return quotient


def chi_y(m, degrees):
    """(chi^0, chi^1) of the complete intersection V_m(degrees), m >= 1."""
    order = m + len(degrees)
    series = [(1, 0)] + [(0, 0)] * order
    for a in degrees:
        # (1 - z)^a, and (1 + zy)^a = 1 + a·zy
        falling = [(-1) ** k * comb(a, k) for k in range(order + 1)]
        numerator = [(0, 0)] + [(-c, 0) for c in falling[1:]]
        numerator[1] = (numerator[1][0], a)
        denominator = [(1, 1)] + [(0, c) for c in falling[1:]]
        denominator[1] = (0, denominator[1][1] + a)
        series = _times(series, _divided(numerator, denominator))
    # 1/(1 - z) sums the coefficients up to z^order, and 1/(1 + zy) = 1 - zy
    # takes away y times the sum up to z^(order - 1)
    chi0 = sum(s0 for s0, _ in series)
    return chi0, sum(s1 for _, s1 in series) - (chi0 - series[order][0])


def partitions(n, largest=None):
    """The partitions of n, each as a tuple of parts in decreasing order."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


# every Calabi-Yau complete intersection of dimension m = 1..12, without
# degrees 1: the degrees minus 1 are a partition of m + 1
CALABI_YAU = [(m, tuple(part + 1 for part in reversed(parts)))
              for m in range(1, 13) for parts in partitions(m + 1)]


def check(m, degrees):
    chi0, chi1 = chi_y(m, degrees)
    ci = CompleteIntersection(m, degrees)
    assert char_number(ci) == (1 + (-1) ** m) * chi1
    assert a_hat_genus(ci) == chi0
    return chi0, chi1


def test_every_calabi_yau_of_dimension_up_to_12():
    assert len(CALABI_YAU) == 371
    for m, degrees in CALABI_YAU:
        check(m, degrees)


def test_calabi_yau_hypersurfaces_of_even_dimension_up_to_200():
    for m in range(2, 201, 2):
        check(m, (m + 2,))


@pytest.mark.parametrize("m, degrees, chi0, chi1", [
    (2, (4,), 2, -20),     # K3
    (3, (5,), 0, 100),     # the quintic threefold
    (4, (6,), 2, -427),    # the sextic fourfold
])
def test_known_values(m, degrees, chi0, chi1):
    assert check(m, degrees) == (chi0, chi1)


def test_the_sextic_fourfold_char_number():
    assert char_number(CompleteIntersection(4, (6,))) == -854


def test_hodge_reading_at_even_m_from_4():
    """chi^1 = sum_q (-1)^q h^{1,q}, and for even m >= 4 Lefschetz leaves
    h^{1,q} = delta_{1q} except at q = m-1: so h^{m-1,1} = -chi^1 - 1 >= 0 and
    char_number = -2(1 + h^{m-1,1}).  On K3, q = 1 = m-1 and h^{1,1} = -chi^1."""
    even = [(m, degrees) for m, degrees in CALABI_YAU if m % 2 == 0 and m >= 4]
    assert len(even) == 209
    for m, degrees in even:
        h = -chi_y(m, degrees)[1] - 1
        assert h >= 0 and char_number(CompleteIntersection(m, degrees)) == -2 * (1 + h)
    assert (-chi_y(4, (6,))[1] - 1, -chi_y(2, (4,))[1]) == (426, 20)  # sextic fourfold, K3
