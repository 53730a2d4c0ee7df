"""The claims of the paper's abstract (Bär–Mazzeo, arXiv:2003.11255), one
test per claim that rscount computes.

The claim of compact manifolds in every dimension >= 4 whose
Rarita-Schwinger dimension tends to infinity needs sequences in the real
dimensions that are not multiples of 4, which rscount does not build yet;
its test is still to come.  The bound's own statement is the one in
``rscount.rsbounds``' module docstring.
"""

from rscount import verify
from rscount.charclass import (CompleteIntersection, CurvatureClass, char_number,
                               curvature_class, is_spin)
from rscount.rsbounds import (exceeds_torus, find_degree_exceeding, rs_lower_bound,
                              torus_rs_dimension)

THRESHOLDS = (10, 10**10, 10**100)


def test_unbounded_sequences_are_kaehler_einstein_spin_with_negative_constant():
    """"Simply connected Kähler-Einstein spin manifolds with negative Einstein
    constant": along each even m in 2..40, the hypersurfaces the degree
    search picks at growing thresholds are spin, have c_1 < 0 (so Aubin-Yau
    gives the metric) and m >= 2 (so Lefschetz makes them simply connected),
    and their bounds pass each threshold without falling as it grows."""
    repeated = 0
    for m in range(2, 41, 2):
        steps = []
        for threshold in THRESHOLDS:
            ci = CompleteIntersection(m, (find_degree_exceeding(m, threshold),))
            assert is_spin(ci) and ci.m >= 2
            assert curvature_class(ci) is CurvatureClass.GENERAL_TYPE
            report = rs_lower_bound(ci)
            assert report.bound_total > threshold
            steps.append((ci.degrees[0], report.bound_total))
        for (degree, bound), (next_degree, next_bound) in zip(steps, steps[1:]):
            assert degree <= next_degree and bound <= next_bound
            repeated += degree == next_degree
    # not strictly increasing: from m = 16 on, the first degree of the
    # search, m+4, already passes both 10 and 10^10
    assert repeated == 13


def test_calabi_yau_manifolds_have_more_fields_than_flat_tori():
    """"Calabi-Yau manifolds of even complex dimension with more linearly
    independent Rarita-Schwinger fields than flat tori of the same
    dimension": the degree-(m+2) hypersurface's bound beats the torus count
    for every even m the torus-inequality suite takes, and its smallest
    cases give the values below, fixed by hand and not by rscount."""
    assert all(exceeds_torus(m) for m in range(2, verify.MAX_M + 1, 2))
    k3 = CompleteIntersection(2, (4,))
    assert char_number(k3) == -40
    assert rs_lower_bound(k3).bound_total == 38
    assert torus_rs_dimension(4) == 12
    sextic_fourfold = CompleteIntersection(4, (6,))
    assert char_number(sextic_fourfold) == -854
    assert rs_lower_bound(sextic_fourfold).bound_total == 850
    assert torus_rs_dimension(8) == 112
