"""Exact computer algebra for the transpose duals of the weighted homogeneous
bimodal singularity classes: weight systems, curve configurations, K-group
lattices, Coxeter elements and Poincare-series identities, all over the
integers."""

from .exactalg import (
    CyclotomicFactorization,
    IntMatrix,
    IntPolynomial,
    RationalFunction,
    char_poly,
    det_bareiss,
    factor_cyclotomic,
    square_root_spectrum,
)
from .fixtures import FixtureRow, all_names, load_rows, row_by_name
from .polyparse import InvertiblePolynomial, parse_polynomial, render, transpose
from .weights import canonical_weights, gorenstein_parameter, reduce

__version__ = "0.1.0"

__all__ = [
    "CyclotomicFactorization",
    "FixtureRow",
    "IntMatrix",
    "IntPolynomial",
    "InvertiblePolynomial",
    "RationalFunction",
    "all_names",
    "canonical_weights",
    "char_poly",
    "det_bareiss",
    "factor_cyclotomic",
    "gorenstein_parameter",
    "load_rows",
    "parse_polynomial",
    "reduce",
    "render",
    "row_by_name",
    "square_root_spectrum",
    "transpose",
]
