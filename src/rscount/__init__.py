"""Exact characteristic numbers of complete intersections in complex
projective space, and the Rarita-Schwinger dimension bounds they imply.

Everything is computed in exact arithmetic, with no numerical integration:
the numbers by a Riemann-Roch sum of binomials, and the characteristic
polynomial by coefficient extraction from truncated power series over
sparse polynomials in the degrees.
"""

__version__ = "0.1.0"

from .charclass import (CompleteIntersection, CurvatureClass,
                        InvalidInputError, a_hat_genus, char_number,
                        char_number_polynomial, curvature_class,
                        first_chern_coefficient, is_spin, rs_index)
from .rings import MultiPoly, binomial
from .rsbounds import (RSBoundReport, TheoremInapplicableError,
                       cy_hypersurface_bound_closed_form, exceeds_torus,
                       find_degree_exceeding,
                       hypersurface_char_number_closed_form,
                       max_parallel_spinors, product_bound, rs_lower_bound,
                       torus_parallel_spinors, torus_rs_dimension)
from .series import (PowerSeries, cosh_series, sinh_series,
                     sinhc_half_series)

__all__ = [
    "CompleteIntersection",
    "CurvatureClass",
    "InvalidInputError",
    "MultiPoly",
    "PowerSeries",
    "RSBoundReport",
    "TheoremInapplicableError",
    "a_hat_genus",
    "binomial",
    "char_number",
    "char_number_polynomial",
    "cosh_series",
    "curvature_class",
    "cy_hypersurface_bound_closed_form",
    "exceeds_torus",
    "find_degree_exceeding",
    "first_chern_coefficient",
    "hypersurface_char_number_closed_form",
    "is_spin",
    "max_parallel_spinors",
    "product_bound",
    "rs_index",
    "rs_lower_bound",
    "sinh_series",
    "sinhc_half_series",
    "torus_parallel_spinors",
    "torus_rs_dimension",
]
