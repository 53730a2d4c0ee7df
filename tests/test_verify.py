"""Tests for the verification suites, at the library level."""

import json
from fractions import Fraction

import pytest
from conftest import golden

from rscount import cli, verify
from rscount.charclass import MAX_COMPLEX_DIM, InvalidInputError, char_number_polynomial
from rscount.rings import MultiPoly


def golden_checks(name):
    result = json.loads(golden(name))["result"]
    return result, [(row["check"], row["pass"]) for row in result["checks"]]


@pytest.mark.parametrize("suite, args, name", [
    (verify.closed_form, (30,), "verify_closed_form_30.json"),
    (verify.torus_inequality, (10,), "verify_torus_inequality_10.json"),
    (verify.symmetric_poly, (3, 2), "verify_symmetric_poly_3_2.json"),
    # odd m is zero at any r: the polynomial is priced and built with no term
    (verify.symmetric_poly, (3, MAX_COMPLEX_DIM), "verify_symmetric_poly_3_2.json"),
])
def test_suites_return_the_golden_checks(suite, args, name):
    assert suite(*args) == golden_checks(name)[1]


def test_hypersurface_poly_returns_the_golden_values():
    result, checks = golden_checks("verify_hypersurface_poly_4.json")
    assert verify.hypersurface_poly(4) == (
        result["degree"], Fraction(result["leadingCoefficient"]), checks)


def test_hypersurface_poly_is_zero_for_odd_m():
    assert verify.hypersurface_poly(3) == (-1, 0, [("identically zero (odd m)", True)])


# each call maps to the argument its rejection names
OUTSIDE_THE_DOMAIN = {
    lambda: verify.closed_form(5): "max_m",
    lambda: verify.closed_form(0): "max_m",
    lambda: verify.torus_inequality(True): "max_m",
    lambda: verify.hypersurface_poly(0): "m",
    lambda: verify.symmetric_poly(2, 0): "r",
    lambda: verify.symmetric_poly(0, 2): "m",
}


@pytest.mark.parametrize("call", OUTSIDE_THE_DOMAIN)
def test_arguments_outside_the_domain_are_rejected(call):
    with pytest.raises(InvalidInputError, match=f"^{OUTSIDE_THE_DOMAIN[call]} must be "):
        call()


def corrupted(change):
    """char_number_polynomial with ``change(terms, m)`` applied to its terms
    for r >= 2, so that the r = 1 specialization still sees the true one."""
    def polynomial(m, r):
        poly = char_number_polynomial(m, r)
        if r == 1:
            return poly
        terms = dict(poly.terms)
        change(terms, m)
        return MultiPoly(r, terms)
    return polynomial


def _recoefficient(terms, m):
    terms[(m + 1, 1, 1)] += 1


def _drop_one(terms, m):
    del terms[(m + 1, 1, 1)]


def _drop_top_degree_in_a1(terms, m):
    for exponents in [e for e in terms if e[0] == m + 1]:
        del terms[exponents]


@pytest.mark.parametrize("change, failing", [
    (_recoefficient, "symmetric in the degrees"),
    (_drop_one, "symmetric in the degrees"),
    (_drop_top_degree_in_a1, "degree in each variable equals m+1"),
], ids=["orbit member recoefficiented", "orbit member removed", "a1^(m+1) removed"])
def test_symmetric_poly_checks_can_fail(change, failing, monkeypatch):
    # (m+1, 1, 1) heads the three-member orbit of the partition (m)
    assert dict(verify.symmetric_poly(4, 3))[failing]
    monkeypatch.setattr(verify, "char_number_polynomial", corrupted(change))
    assert not dict(verify.symmetric_poly(4, 3))[failing]


def test_hypersurface_poly_closed_form_check_can_fail(monkeypatch):
    def wrong_leading(m, r):
        poly = char_number_polynomial(m, r)
        terms = dict(poly.terms)
        terms[(m + 1,)] += 1
        return MultiPoly(r, terms)
    monkeypatch.setattr(verify, "char_number_polynomial", wrong_leading)
    checks = dict(verify.hypersurface_poly(4)[2])
    assert checks == {"degree equals m+1": True,
                      "leading coefficient matches closed form": False}


def test_failed_symmetric_poly_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(verify, "char_number_polynomial", corrupted(_drop_one))
    assert cli.main(["verify", "symmetric-poly", "--m", "4", "--r", "3"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["allPass"] is False
    assert {"check": "symmetric in the degrees", "pass": False} in result["checks"]
