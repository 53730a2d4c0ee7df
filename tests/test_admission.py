"""Admission: each input that a limit or the cost model decides is one row of
``ADMISSION``: its library call, its CLI line where the CLI reaches the same
check, the limit that decides it, and whether it is admitted or else the
stage by which it must be refused.  One rule per route checks every row.  A
refused row, with its stage's functions patched to fail, raises
InvalidInputError naming ``NAME = value``; through ``cli.main`` it exits 1
with empty stdout and that text on stderr.  An admitted row that the budget
decides reaches its route's work function, patched to raise LookupError; one
at a fixed cap's edge runs."""

import random
import re
from collections import namedtuple
from itertools import chain

import pytest
from conftest import readme_section

from rscount import charclass, cli, rsbounds, verify
from rscount.charclass import CompleteIntersection, InvalidInputError, char_number
from rscount.charclass import char_number_polynomial as POLYNOMIAL
from rscount.rsbounds import (cy_hypersurface_bound_closed_form, degree_search_report,
                              exceeds_torus, hypersurface_char_number_closed_form,
                              product_bound, rs_lower_bound, torus_parallel_spinors)

# Each limit as README's CLI section quotes it, and as a refusal names it
LIMITS = (BUDGET, DOMAIN, TORUS, DIGITS, TABLE_N, TABLE_M, MAX_M) = (
    "charclass.MAX_ESTIMATED_SECONDS = 1.8", "charclass.MAX_COMPLEX_DIM = 80000",
    "rsbounds.MAX_TORUS_DIM = 1000000", "rsbounds.THRESHOLD_DIGITS = 1001",
    "cli.TABLE_MAX_N = 20000", "cli.TABLE_MAX_M = 2500", "verify.MAX_M = 1600")

# The stages by which a refusal must come, and the functions that must not run
# before it; each stage's include every later one's.  The Koszul sum forms
# every binomial and product in _folded_koszul_sum, and the polynomial, which
# has no signed subset sums, runs its recurrence in _power_sum_pairings.
PRICE, SUMS, BINOMIALS = ("before any price", "before any signed subset sum",
                          "before any binomial or product")
WORK = ("_folded_koszul_sum", "_tree_product", "_power_sum_pairings")
FORBIDDEN = {BINOMIALS: WORK, SUMS: ("_koszul_coefficients", *WORK),
             PRICE: ("_number_bits", "_polynomial_seconds", "_symmetric_poly_seconds",
                     "_koszul_coefficients", *WORK)}

# A row is refused by its stage, or ADMITTED; each route below is (library call, CLI line).
Row = namedtuple("Row", "id limit refused call argv")
ADMITTED = None


def library(function, *args):
    return lambda: function(*args), None


def compute(m, *degrees, cli_line=True):
    line = ("compute", "--complex-dim", str(m), "--degrees", *map(str, degrees))
    return lambda: char_number(CompleteIntersection(m, degrees)), line if cli_line else None


def product(m, a, k):
    def call():  # in the order the CLI makes them
        torus_parallel_spinors(k)
        return product_bound(rs_lower_bound(CompleteIntersection(m, (a,))).bound_total, k)
    return call, ("product", *map(str, ("--complex-dim", m, "--degrees", a, "--torus-dim", k)))


def search(m, threshold):
    line = ("search", "--complex-dim", str(m), "--threshold", str(threshold))
    return lambda: degree_search_report(m, threshold), line


def suite(name, **flags):
    line = ("verify", name, *chain.from_iterable(
        (f"--{flag.replace('_', '-')}", str(value)) for flag, value in flags.items()))
    return lambda: getattr(verify, name.replace("-", "_"))(**flags), line


POWERS = [2**k for k in range(1, 15)]   # 2, 4, ..., 2^14

ADMISSION = [
    # The Koszul sum: char_number, and compute on spin inputs that are not Fano.
    # 10926 signed subset sums of binomials of about 10^5 bits: the Koszul
    # sum passes the budget at 163 of them
    Row("degree-10^100", BUDGET, BINOMIALS, *compute(300, 2, *POWERS[:13], 10**100)),
    # the Koszul sum passes the budget at 1510 of its 10926 sums
    Row("term-limit", BUDGET, BINOMIALS, *compute(300, 2, *POWERS[:13], 10**12)),
    # non-spin: 2^n n! makes each term about 1.4 million bits, 3.4 s if
    # computed; past the budget already at r+1 = 2 sums
    Row("non-spin-80003", BUDGET, SUMS, *compute(80000, 80003, cli_line=False)),
    # non-spin, admitted at microseconds to a millisecond estimated before each
    # product was priced at k = n, and ran 2.0 to 28.7 s in process
    *(Row(f"non-spin-{m}-{id}", BUDGET, SUMS, *compute(m, *degrees, cli_line=False))
      for m, id, degrees in [(80000, "3", [3]), (80000, "2x2", [2, 2]), (80000, "2x10", [2] * 10),
                             (80000, "2x40", [2] * 40), (80000, "4x40", [4] * 40),
                             (80000, "2..16", range(2, 17, 2)), (40000, "2x40", [2] * 40)]),
    # non-spin, estimated at 0.67, 1.21 and 1.77 s; 0.1 to 0.5 s in process
    Row("non-spin-20000-3", BUDGET, ADMITTED, *compute(20000, 3, cli_line=False)),
    Row("non-spin-7060", BUDGET, ADMITTED, *compute(7060, 2237, 548, 556, 37, cli_line=False)),
    Row("non-spin-30000-30003", BUDGET, ADMITTED, *compute(30000, 30003, cli_line=False)),
    # 16 distinct degrees below 10^6 at m = 8: 48816 to 65528 live sums,
    # 1.5 to 3.9 s by the Koszul sum.  Each is refused at about 26.5k live
    # sums, before any binomial or product is formed.  Seeds 0 and 1 are non-spin.
    *(Row(f"small-k-seed-{seed}", BUDGET, BINOMIALS,
          *compute(8, *random.Random(seed).sample(range(2, 10**6), 16), cli_line=seed == 2))
      for seed in range(3)),
    # Fano, so every binomial is zero: 2002 signed subset sums, 2 s if
    # computed.  r+1 = 2002 sums of 2003 binomials are past the budget at
    # the cost of a call each, so none is formed.
    Row("fano-80000-2x2001", BUDGET, SUMS, *compute(80000, *[2] * 2001, cli_line=False)),
    # numbers of about 10^6 bits: 2.6 s estimated at r+1 = 2 sums
    Row("compute-20000-10^20", BUDGET, SUMS, *compute(20000, 10**20)),
    # 2, 2, 4, ..., 2^14 is spin at even m, with 10924 live sums of its 2^15;
    # the Koszul sum passes the budget at 5395, 5344 and 1135 of them
    *(Row(f"live-sums-{m}", BUDGET, BINOMIALS, *compute(m, 2, *POWERS))
      for m in (300, 302, 800)),
    # spin, 2^15 signed subset sums of about 85000 bits: hours of binomials
    Row("koszul-work-40000", BUDGET, SUMS, *compute(40000, *POWERS, 2**15)),
    # 10^6 + 1 and 10^6 + 2^k, k = 1..11: 2^12 sums of about 26600 bits, 40 s
    Row("koszul-work-2000", BUDGET, BINOMIALS,
        *compute(2000, 10**6 + 1, *(10**6 + a for a in POWERS[:11]))),
    # general type and spin at the limit, which is even, so search takes it
    Row("compute-80000", DOMAIN, ADMITTED, *compute(80000, 80004)),
    Row("compute-80001", DOMAIN, PRICE, *compute(80001, 80005)),
    Row("product-80000", DOMAIN, ADMITTED, *product(80000, 80004, 1)),
    Row("product-80001", DOMAIN, PRICE, *product(80001, 80005, 1)),
    Row("search-80000", DOMAIN, ADMITTED, *search(80000, 1)),
    Row("search-80001", DOMAIN, PRICE, *search(80001, 1)),
    # The polynomial, which has no CLI line: the benchmark's largest, then
    # those of verify's polynomial suites, and others
    *(Row(f"polynomial-{m}-{r}", BUDGET, ADMITTED, *library(POLYNOMIAL, m, r))
      for m, r in [(21, 2), (19, 3), (15, 4), (11, 5), (9, 6),
                   (130, 1), (20, 8), (24, 8), (40, 4), (100, 1)]),
    *(Row(f"polynomial-{m}-{r}", BUDGET, BINOMIALS, *library(POLYNOMIAL, m, r))
      for m, r in [(200, 1),    # 7.5 s in process
                   (30, 8),     # 2.0 s, 490314 terms
                   (4, 600), (2, 3000)]),   # r-tuples: ran 13 s and 1.2 s
    # past MAX_COMPLEX_DIM: the domain refuses them before they are priced
    *(Row(f"polynomial-{id}", DOMAIN, PRICE, *library(POLYNOMIAL, m, r))
      for id, m, r in [("80001-1", 80001, 1), ("35-80001", 35, 80001),
                       ("1000000000-1", 10**9, 1), ("2-1000000000", 2, 10**9),
                       ("100-1000000000", 100, 10**9), ("40-10^40", 40, 10**40),
                       ("10^400-1", 10**400, 1), ("2-10^400", 2, 10**400),
                       ("35-10^4000", 35, 10**4000),
                       # past the digits str() converts, which the refusal must not show
                       ("35-10^10000", 35, 10**10000), ("10^5000-1", 10**5000, 1)]),
    # verify's polynomial suites, refused before the recurrence runs or any
    # binomial is computed
    Row("hypersurface-poly-140", BUDGET, BINOMIALS, *suite("hypersurface-poly", m=140)),
    Row("symmetric-poly-22-8", BUDGET, BINOMIALS, *suite("symmetric-poly", m=22, r=8)),
    Row("symmetric-poly-72-2", BUDGET, BINOMIALS, *suite("symmetric-poly", m=72, r=2)),
    # past MAX_COMPLEX_DIM: the domain refuses them before they are priced
    *(Row(f"hypersurface-poly-{id}", DOMAIN, PRICE, *suite("hypersurface-poly", m=m))
      for id, m in [("80001", 80001), ("10^400", 10**400)]),
    *(Row(f"symmetric-poly-{id}", DOMAIN, PRICE, *suite("symmetric-poly", m=m, r=r))
      for id, m, r in [("80001-1", 80001, 1), ("3-80001", 3, 80001), ("10^400-2", 10**400, 2),
                       ("2-10^400", 2, 10**400), ("35-10^4000", 35, 10**4000)]),
    # and past the digits the interpreter converts to text, so no line carries them
    Row("symmetric-poly-35-10^10000", DOMAIN, PRICE,
        *library(verify.symmetric_poly, 35, 10**10000)),
    Row("hypersurface-poly-10^5000", DOMAIN, PRICE, *library(verify.hypersurface_poly, 10**5000)),
    # the closed forms: past the limit C(2m+3, m+1) takes seconds, about 1.7 s
    # at m = 160000 on a 2-vCPU Xeon
    *(Row(f"{function.__name__}-80002", DOMAIN, PRICE, *library(function, 80002))
      for function in (hypersurface_char_number_closed_form, cy_hypersurface_bound_closed_form,
                       exceeds_torus)),
    # The fixed caps: the largest input each admits runs, and the next is refused.
    Row("torus-10^6", TORUS, ADMITTED, *product(2, 4, 10**6)),
    Row("torus-10^6+1", TORUS, PRICE, *product(2, 4, 10**6 + 1)),
    Row("product-bound-10^6+1", TORUS, PRICE, *library(product_bound, 1, 10**6 + 1)),
    Row("threshold-1001-digits", DIGITS, ADMITTED, *search(2, 10**1001 - 1)),
    Row("threshold-1002-digits", DIGITS, PRICE, *search(2, 10**1001)),
    Row("parallel-spinors-20000", TABLE_N, ADMITTED, None,
        ("table", "parallel-spinors", "--max-n", "20000")),
    Row("parallel-spinors-20001", TABLE_N, PRICE, None,
        ("table", "parallel-spinors", "--max-n", "20001")),
    Row("calabi-yau-2500", TABLE_M, ADMITTED, None, ("table", "calabi-yau", "--max-m", "2500")),
    Row("calabi-yau-2502", TABLE_M, PRICE, None, ("table", "calabi-yau", "--max-m", "2502")),
    Row("closed-form-1600", MAX_M, ADMITTED, *suite("closed-form", max_m=1600)),
    Row("closed-form-1601", MAX_M, PRICE, *suite("closed-form", max_m=1601)),
    Row("torus-inequality-1600", MAX_M, ADMITTED, *suite("torus-inequality", max_m=1600)),
    Row("torus-inequality-1602", MAX_M, PRICE, *suite("torus-inequality", max_m=1602)),
]


def guard(row, monkeypatch):
    """Patches what the row must not run to fail, or what it must reach to raise LookupError."""
    if row.refused is ADMITTED and row.limit != BUDGET:
        return
    names, error = (FORBIDDEN[row.refused], AssertionError) if row.refused else (WORK, LookupError)
    for name in names:
        def raising(*args, _name=name):
            raise error(f"{_name} ran")
        for module in (charclass, rsbounds, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, raising)


def refusal(row) -> str:
    """The library's refusal, which names the row's limit at its value."""
    with pytest.raises(InvalidInputError, match=re.escape(row.limit.split(".", 1)[1])) as e:
        row.call()
    return str(e.value)


# The polynomial's rows, which have no CLI line, are checked by this rule in
# tests/test_charclass.py's TestBudgets, under the names they have there.
POLYNOMIAL_ROWS = [row for row in ADMISSION if row.id.startswith("polynomial-")]


@pytest.mark.parametrize("row", [row for row in ADMISSION
                                 if row.call and row not in POLYNOMIAL_ROWS],
                         ids=lambda row: row.id)
def test_library(row, monkeypatch):
    guard(row, monkeypatch)
    if row.refused:
        refusal(row)
    elif row.limit == BUDGET:
        with pytest.raises(LookupError):
            row.call()
    else:
        row.call()


@pytest.mark.parametrize("row", [row for row in ADMISSION if row.argv], ids=lambda row: row.id)
def test_cli(row, monkeypatch, capsys):
    guard(row, monkeypatch)
    if row.refused:
        assert cli.main(list(row.argv)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and row.limit.split(".", 1)[1] in err
        assert not row.call or err == f"error: {refusal(row)}\n"
    elif row.limit == BUDGET:
        with pytest.raises(LookupError):
            cli.main(list(row.argv))
    else:
        assert cli.main([*row.argv, "--quiet"]) == 0


def test_every_limit_readme_quotes_has_its_rows():
    """Each `module.NAME` that README's CLI section quotes has rows on both sides."""
    quoted = set(re.findall(r"`(\w+\.[A-Z][A-Z_]*)`", readme_section("CLI")))
    assert quoted == {limit.split(" = ")[0] for limit in LIMITS}
    for side in (True, False):
        assert {row.limit for row in ADMISSION if (row.refused is ADMITTED) is side} == set(LIMITS)
    assert len({row.id for row in ADMISSION}) == len(ADMISSION)
