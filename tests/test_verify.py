"""Tests for the verification suites, at the library level."""

import json
from fractions import Fraction

import pytest
from conftest import golden

from rscount import verify
from rscount.charclass import InvalidInputError


def golden_checks(name):
    result = json.loads(golden(name))["result"]
    return result, [(row["check"], row["pass"]) for row in result["checks"]]


@pytest.mark.parametrize("suite, args, name", [
    (verify.closed_form, (30,), "verify_closed_form_30.json"),
    (verify.torus_inequality, (10,), "verify_torus_inequality_10.json"),
    (verify.symmetric_poly, (3, 2), "verify_symmetric_poly_3_2.json"),
])
def test_suites_return_the_golden_checks(suite, args, name):
    assert suite(*args) == golden_checks(name)[1]


def test_hypersurface_poly_returns_the_golden_values():
    result, checks = golden_checks("verify_hypersurface_poly_4.json")
    assert verify.hypersurface_poly(4) == (
        result["degree"], Fraction(result["leadingCoefficient"]), checks)


def test_hypersurface_poly_is_zero_for_odd_m():
    assert verify.hypersurface_poly(3) == (-1, 0, [("identically zero (odd m)", True)])


@pytest.mark.parametrize("call", [
    lambda: verify.closed_form(5),
    lambda: verify.closed_form(0),
    lambda: verify.torus_inequality(True),
    lambda: verify.hypersurface_poly(0),
    lambda: verify.symmetric_poly(2, 0),
    lambda: verify.symmetric_poly(0, 2),
])
def test_arguments_outside_the_domain_are_rejected(call):
    with pytest.raises(InvalidInputError):
        call()
