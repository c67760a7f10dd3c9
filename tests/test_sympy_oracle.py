"""Cross-check the exact kernels against sympy on the 20 fixture rows.

sympy computes characteristic polynomials by Berkowitz' algorithm and
factors over Z with its own machinery, so agreement here is independent of
the Faddeev-LeVerrier, Bareiss and trial-division code in ``exactalg``.
"""
import pytest

sympy = pytest.importorskip("sympy")

from bhdual.coxeter import coxeter_element
from bhdual.exactalg import char_poly, det_bareiss, factor_cyclotomic
from bhdual.fixtures import load_rows
from bhdual.klattice import row_gram

t = sympy.Symbol("t")
ROWS = load_rows()


def sympy_matrix(m):
    return sympy.Matrix([list(row) for row in m.entries])


def charpoly_coefficients(m):
    """Low-to-high integer coefficients of sympy's det(t*I - m)."""
    return tuple(int(c) for c in reversed(m.charpoly(t).all_coeffs()))


def cyclotomic_index(factor):
    """The n with factor == Phi_n, or None when factor is not cyclotomic."""
    degree = sympy.degree(factor, t)
    for n in range(1, 2 * degree * degree + 3):
        if sympy.totient(n) == degree and sympy.expand(sympy.cyclotomic_poly(n, t) - factor) == 0:
            return n
    return None


@pytest.fixture(scope="module", params=ROWS, ids=lambda row: row.name)
def matrices(request):
    gram, _, _ = row_gram(request.param)
    return gram, coxeter_element(gram)


def test_gram_char_poly_and_det(matrices):
    gram, _ = matrices
    m = sympy_matrix(gram)
    assert char_poly(gram).coefficients == charpoly_coefficients(m)
    assert det_bareiss(gram) == m.det(method="berkowitz")


def test_coxeter_char_poly_and_det(matrices):
    _, cox = matrices
    m = sympy_matrix(cox.matrix)
    assert cox.char.coefficients == charpoly_coefficients(m)
    assert det_bareiss(cox.matrix) == m.det(method="berkowitz")


def test_cyclotomic_factorization(matrices):
    _, cox = matrices
    expr = sum(c * t**k for k, c in enumerate(cox.char.coefficients))
    unit, factors = sympy.factor_list(expr, t)
    expected = {}
    for factor, multiplicity in factors:
        n = cyclotomic_index(factor)
        assert n is not None, factor
        expected[n] = expected.get(n, 0) + multiplicity
    fac = factor_cyclotomic(cox.char)
    assert fac.is_cyclotomic
    assert fac.unit == unit
    assert fac.factors == expected
