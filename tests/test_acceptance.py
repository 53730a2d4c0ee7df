"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every criterion prints a single pass/fail line (run ``pytest -s`` to see
them on success).  All comparisons are exact integer/rational equalities;
expected values are frozen from the reference tables, closed forms, and
independent oracles.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial, gcd

from conftest import RESULT_GOLDENS, golden, run_cli

from rscount.charclass import (CompleteIntersection, a_hat_genus,
                               char_number, char_number_polynomial, rs_index)
from rscount.rings import MultiPoly
from rscount.rsbounds import (cy_hypersurface_bound_closed_form, exceeds_torus,
                              max_parallel_spinors, rs_lower_bound,
                              torus_rs_dimension)
from rscount.series import PowerSeries, _integrand

F = Fraction

PARALLEL_SPINOR_TABLE = [0, 0, 0, 2, 0, 0, 1, 4, 0, 0, 2, 8, 0, 2,
                         4, 16, 0, 4, 8, 32, 2, 8, 16, 64, 4, 16, 32, 128]

CALABI_YAU_TABLE = [
    (2, 38, 12),
    (4, 850, 112),
    (6, 12736, 704),
    (8, 184542, 3840),
    (10, 2703838, 19456),
    (12, 40116146, 94208),
    (14, 601079752, 442368),
    (16, 9075134398, 2031616),
    (18, 137846527510, 9175040),
    (20, 2104098961730, 40894464),
    (22, 32247603679902, 180355072),
    (24, 495918532942658, 788529152),
    (26, 7648690600750682, 3422552064),
    (28, 118264581564843242, 14763950080),
    (30, 1832624140942555720, 63350767616),
]


def _verdict(number: int, name: str, ok: bool, started: float) -> None:
    elapsed_ms = (time.perf_counter() - started) * 1000
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}] {name} ({elapsed_ms:.1f} ms)")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_1_parallel_spinor_table():
    started = time.perf_counter()
    ok = [max_parallel_spinors(n) for n in range(1, 29)] == PARALLEL_SPINOR_TABLE
    _verdict(1, "parallel-spinor table reproduction (n = 1..28)", ok, started)


def test_criterion_2_calabi_yau_table():
    started = time.perf_counter()
    ok = all(cy_hypersurface_bound_closed_form(m) == bound
             and torus_rs_dimension(2 * m) == torus
             for m, bound, torus in CALABI_YAU_TABLE)
    _verdict(2, "Calabi-Yau table reproduction (even m = 2..30, both columns)",
             ok, started)


def test_criterion_3_series_vs_closed_form():
    started = time.perf_counter()
    ok = True
    for m, bound, _ in CALABI_YAU_TABLE:
        ci = CompleteIntersection(m, (m + 2,))
        closed = -2 * (comb(2 * m + 3, m + 1) + 1 - (m + 2) ** 2)
        ok = ok and char_number(ci) == closed
        ok = ok and rs_lower_bound(ci).bound_total == bound
        ok = ok and 2 * (m + 2) * _integrand(m, (m + 2,))[m] == closed
    _verdict(3, "Riemann-Roch sum and series equal closed form (even m = 2..30)", ok, started)


def test_criterion_4_hypersurface_polynomial():
    started = time.perf_counter()
    ok = True
    for m in (2, 4, 6, 8):
        poly = char_number_polynomial(m, 1)
        leading = F(2 * m + 3 - 3 ** (m + 1), 2**m * factorial(m + 1))
        ok = ok and poly.degree == m + 1
        ok = ok and poly.coefficient((m + 1,)) == leading
    hand_expansion = MultiPoly(1, {(3,): F(-5, 6), (1,): F(10, 3)})
    ok = ok and char_number_polynomial(2, 1) == hand_expansion
    _verdict(4, "hypersurface polynomial degree and leading coefficient", ok, started)


def test_criterion_5_symmetric_polynomial():
    started = time.perf_counter()
    ok = True
    for m, r in ((2, 2), (2, 3), (4, 2)):
        poly = char_number_polynomial(m, r)
        ok = ok and poly.is_symmetric()
        # degree m+1 in each single variable (the prefactor 2*a_1..a_r makes
        # the total degree m+r)
        ok = ok and all(poly.variable_degree(i) == m + 1 for i in range(r))
        # at (a, 1, ..., 1) it is the r = 1 polynomial, of degree m+1 in a,
        # so m+2 values of a decide
        hypersurface = char_number_polynomial(m, 1)
        ok = ok and all(poly.evaluate([a] + [1] * (r - 1)) == hypersurface.evaluate([a])
                        for a in range(m + 2))
    for m in (3, 5, 7):
        for r in (1, 2):
            ok = ok and not char_number_polynomial(m, r)
    _verdict(5, "symmetric polynomial: symmetry, degree, specialization, odd-m vanishing",
             ok, started)


def test_criterion_6_k3_anchor():
    started = time.perf_counter()
    k3 = CompleteIntersection(2, (4,))
    report = rs_lower_bound(k3)
    ok = (char_number(k3) == -40
          and a_hat_genus(k3) == 2
          and rs_index(k3, "plus") == -38
          and report.bound_total == 38)
    _verdict(6, "K3 anchor: charnum -40, A-hat 2, index -38, bound 38", ok, started)


def test_criterion_7_torus_dominance():
    started = time.perf_counter()
    ok = all(exceeds_torus(m) for m in range(2, 61, 2))
    _verdict(7, "Calabi-Yau bound exceeds torus count (even m = 2..60)", ok, started)


def test_criterion_8_property_suites():
    started = time.perf_counter()
    rng = random.Random(20260809)
    cases = 1000
    ok = True

    def rational():
        return F(rng.randint(-99, 99), rng.randint(1, 30))

    def poly():
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): rational()
                 for _ in range(rng.randint(0, 3))}
        return MultiPoly(2, terms)

    def unit():
        coeffs = [rational() for _ in range(6)]
        while not coeffs[0]:
            coeffs[0] = rational()
        return PowerSeries(coeffs)

    # rational ring axioms and reduced-form invariant
    for _ in range(cases):
        x, y, z = rational(), rational(), rational()
        ok = ok and (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
        ok = ok and x + y == y + x and x * y == y * x
        ok = ok and x * (y + z) == x * y + x * z
        total = x + y
        ok = ok and total.denominator > 0
        ok = ok and gcd(abs(total.numerator), total.denominator) == 1

    # polynomial product axioms and multiplicative evaluation (polynomials have no sum)
    for _ in range(cases):
        p, q, s = poly(), poly(), poly()
        ok = ok and (p * q) * s == p * (q * s) and p * q == q * p
        point = [rational(), rational()]
        ok = ok and (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)

    # binomial recurrence, exhaustive for 1 <= k <= n <= 64
    for n in range(1, 65):
        for k in range(1, n + 1):
            ok = ok and comb(n, k) == comb(n - 1, k - 1) + comb(n - 1, k)

    # series: inversion round-trip and argument-scaling multiplicativity
    for _ in range(cases):
        f = unit()
        ok = ok and (f * f.invert()).coeffs == (1, 0, 0, 0, 0, 0)
    for _ in range(cases):
        f, g, c = unit(), unit(), rational()
        ok = ok and (f * g).scale_arg(c).coeffs == (f.scale_arg(c) * g.scale_arg(c)).coeffs

    # cosh^2 - sinh^2 = 1 at order 32, coefficient by coefficient
    order = 32
    cosh = PowerSeries([0 if k % 2 else F(1, factorial(k)) for k in range(order + 1)])
    sinh = PowerSeries([F(1, factorial(k)) if k % 2 else 0 for k in range(order + 1)])
    squares = zip((cosh * cosh).coeffs, (sinh * sinh).coeffs)
    ok = ok and tuple(c - s for c, s in squares) == (1,) + (0,) * order

    _verdict(8, "property suites: rational, polynomial-product and series axioms on 1000 "
                "randomized cases each",
             ok, started)


def test_criterion_9_cli_goldens():
    started = time.perf_counter()
    ok = True

    for args, stem in RESULT_GOLDENS:
        proc = run_cli(*args)
        ok = ok and proc.returncode == 0 and proc.stdout == golden(f"{stem}.json")

    # exit-code contract: 0 success, 1 usage, 2 theorem-inapplicable
    ok = ok and run_cli("compute", "--complex-dim", "2", "--degrees", "5").returncode == 2
    ok = ok and run_cli("compute", "--complex-dim", "2", "--degrees", "2").returncode == 2
    ok = ok and run_cli("search", "--complex-dim", "3", "--threshold", "1").returncode == 1
    ok = ok and run_cli("compute", "--complex-dim", "oops", "--degrees", "4").returncode == 1

    _verdict(9, "CLI golden outputs byte-identical, exit codes 0/1/2", ok, started)
