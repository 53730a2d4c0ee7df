"""Exact characteristic numbers of complete intersections in complex
projective space, and the Rarita-Schwinger dimension bounds they imply.

Everything is exact: the numbers come from a Riemann-Roch sum of binomials,
and the characteristic polynomial from a recurrence in the power sums of the
degrees (``charclass``).  The truncated power series of ``rscount.series``
have no production caller and share no code with the package; they stay as
the tests' independent oracle for the numbers, with a product, inversion,
powers and argument scaling only.
``MultiPoly`` holds the polynomial: it is built from its terms and evaluated
at exact points, and has no sum and no hash.
"""

__version__ = "0.1.0"

from .charclass import (CompleteIntersection, CurvatureClass,
                        InvalidInputError, a_hat_genus, char_number,
                        char_number_polynomial, curvature_class,
                        first_chern_coefficient, is_spin, rs_index)
from .rings import MultiPoly
from .rsbounds import (RSBoundReport, TheoremInapplicableError,
                       cy_hypersurface_bound_closed_form, degree_search_report,
                       exceeds_torus, find_degree_exceeding,
                       hypersurface_char_number_closed_form,
                       max_parallel_spinors, product_bound, rs_lower_bound,
                       torus_parallel_spinors, torus_rs_dimension)

__all__ = [
    "CompleteIntersection",
    "CurvatureClass",
    "InvalidInputError",
    "MultiPoly",
    "RSBoundReport",
    "TheoremInapplicableError",
    "a_hat_genus",
    "char_number",
    "char_number_polynomial",
    "curvature_class",
    "cy_hypersurface_bound_closed_form",
    "degree_search_report",
    "exceeds_torus",
    "find_degree_exceeding",
    "first_chern_coefficient",
    "hypersurface_char_number_closed_form",
    "is_spin",
    "max_parallel_spinors",
    "product_bound",
    "rs_index",
    "rs_lower_bound",
    "torus_parallel_spinors",
    "torus_rs_dimension",
]
