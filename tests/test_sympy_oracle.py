"""Cross-check the exact kernels against sympy on the 20 fixture rows and
on random inputs.

sympy computes characteristic polynomials by Berkowitz' algorithm, builds
cyclotomic polynomials and factors over Z with its own machinery, so
agreement here is independent of the power-sum (Newton), Bareiss and
binomial-peeling code in ``exactalg``.  Its polynomial gcd counts the
distinct roots of a unit restricted to an exceptional component, deg p -
deg gcd(p, p'), which ``quotres`` reads off the binomial's exponents.
"""
import random

import pytest

sympy = pytest.importorskip("sympy")

from bhdual.coxeter import coxeter_element
from bhdual.exactalg import (
    IntMatrix,
    IntPolynomial,
    annihilates,
    char_poly,
    det_bareiss,
    factor_cyclotomic,
)
from bhdual.fixtures import load_rows
from bhdual.klattice import row_gram
from bhdual.quotres import SparsePoly, branch_count_at_attachment, proper_transform

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
    gram = row_gram(request.param)
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


def sympy_cyclotomic_exponents(expr):
    """(unit, n -> e) with expr = unit * prod Phi_n^e by sympy.factor_list,
    or None when expr is no such product."""
    unit, factors = sympy.factor_list(expr, t)
    if unit not in (1, -1):
        return None
    exponents = {}
    for factor, multiplicity in factors:
        n = cyclotomic_index(factor)
        if n is None:
            return None
        exponents[n] = exponents.get(n, 0) + multiplicity
    return unit, exponents


def test_cyclotomic_factorization(matrices):
    _, cox = matrices
    found = sympy_cyclotomic_exponents(sum(c * t**k for k, c in enumerate(cox.char.coefficients)))
    assert found is not None
    fac = factor_cyclotomic(cox.char)
    assert fac.is_cyclotomic
    assert (fac.unit, fac.factors) == found


@pytest.mark.parametrize("seed", range(12))
def test_random_cyclotomic_products(seed):
    # sympy.factor_list needs up to seconds for a single Phi_n with n near
    # 300, so it factors only the small cofactor, whose constant term +-1
    # sends the product down the peeling path; by unique factorization in
    # Z[t] the product is cyclotomic iff the cofactor is
    rng = random.Random(seed)
    exponents = {rng.randint(1, 300): rng.randint(1, 2) for _ in range(rng.randint(1, 3))}
    if seed % 2:
        middle = [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
        cofactor = sympy.Poly([rng.choice((1, -1)), *middle, rng.choice((1, -1))], t)
    else:
        cofactor = sympy.Poly(rng.choice((1, -1)), t)
    product = cofactor
    for n, m in exponents.items():
        product *= sympy.Poly(sympy.cyclotomic_poly(n, t), t) ** m
    p = IntPolynomial(int(c) for c in reversed(product.all_coeffs()))
    found = sympy_cyclotomic_exponents(cofactor.as_expr())
    fac = factor_cyclotomic(p)
    assert fac.reconstruct() == p
    assert fac.unit == sympy.sign(product.LC())
    if found is None:
        assert not fac.is_cyclotomic and fac.factors == {}
    else:
        for n, m in found[1].items():
            exponents[n] = exponents.get(n, 0) + m
        assert fac.is_cyclotomic
        assert fac.factors == exponents


@pytest.mark.parametrize("seed", range(12))
def test_random_two_term_branch_counts(seed):
    # two-term curves X^a Y^b Z^c with exponents 0..6, coefficients +-1..+-3
    # and distinct lines (a - b, k*b + c), k in 2..20: on each component
    # whose chart factors, the count is the number of distinct roots of the
    # unit restricted to it, deg p - deg gcd(p, p')
    rng = random.Random(seed)
    checked = 0
    while checked < 25:
        k = rng.randint(2, 20)
        (a1, b1, c1), (a2, b2, c2) = exps = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(2)]
        if (a1 - b1, k * b1 + c1) == (a2 - b2, k * b2 + c2):
            continue
        checked += 1
        curve = SparsePoly((e, rng.choice((1, 2, 3)) * rng.choice((1, -1))) for e in exps)
        for i in range(1, k):
            try:
                _, unit = proper_transform(curve, i, k)
            except ValueError:
                continue
            p = sympy.Poly(sum(c * t**e for e, c in unit.on_line(0).items()), t)
            distinct = p.degree() - sympy.gcd(p, p.diff(t)).degree()
            assert branch_count_at_attachment(curve, k, i) == distinct, (str(curve), k, i)


@pytest.mark.parametrize("seed", range(12))
def test_random_matrix_char_poly_and_det(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    entries = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    m = sympy.Matrix(entries)
    assert char_poly(IntMatrix(entries)).coefficients == charpoly_coefficients(m)
    assert det_bareiss(IntMatrix(entries)) == m.det(method="berkowitz")


@pytest.mark.parametrize("seed", range(12))
def test_wide_entries_char_poly_and_cayley_hamilton(seed):
    # entries up to 10^6 and n up to 9 reach the widest slots the packed
    # power-sum char_poly and Horner kernels size from the matrix; some rows
    # are zero
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    entries = [[rng.randint(-(10**6), 10**6) for _ in range(n)] for _ in range(n)]
    for i in rng.sample(range(n), rng.randint(0, n // 2)):
        entries[i] = [0] * n
    m = IntMatrix(entries)
    p = char_poly(m)
    assert p.coefficients == charpoly_coefficients(sympy.Matrix(entries))
    assert annihilates(p, m)
    # p(M) + I = I
    assert not annihilates(IntPolynomial((p.coefficients[0] + 1, *p.coefficients[1:])), m)


@pytest.mark.parametrize(
    "entries",
    [
        [[0]],
        [[7]],
        [[-(10**6)]],
        [[0] * 4 for _ in range(4)],
        [[0, 0, 0], [1, 2, 3], [0, 0, 0]],
        # (M W_(n-1))_ii = (-10^6)^9: the entries reach 2^(-n) of the bound
        [[-(10**6) * (i == j) for j in range(9)] for i in range(9)],
        [[10**6 * (i == j) + (j == i + 1) for j in range(9)] for i in range(9)],
    ],
    ids=["zero1", "one1", "wide1", "zero4", "zero_rows3", "scalar9", "jordan9"],
)
def test_small_and_zero_matrices(entries):
    m = IntMatrix(entries)
    p = char_poly(m)
    assert p.coefficients == charpoly_coefficients(sympy.Matrix(entries))
    assert det_bareiss(m) == sympy.Matrix(entries).det(method="berkowitz")
    assert annihilates(p, m)
