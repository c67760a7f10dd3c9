"""Frozen per-row invariants of the K-lattices.

Every value below was computed by the library itself (monodromy oracle,
Bareiss determinant, congruence diagonalization) and is pinned here so that
refactors cannot silently change the arithmetic.  The factor dictionaries map
cyclotomic index to multiplicity.
"""
from bhdual.coxeter import coxeter_element, lattice_invariants
from bhdual.fixtures import load_rows
from bhdual.klattice import row_gram

EXPECTED = {
    "J_3,0": ({2: 2, 6: 1, 18: 2}, 18, 4, (2, 0, 14)),
    "Z_1,0": ({2: 3, 14: 2}, 14, -8, (2, 0, 13)),
    "Q_2,0": ({3: 1, 4: 2, 12: 2}, 12, 12, (2, 0, 12)),
    "W_1,0": ({2: 1, 3: 1, 4: 1, 6: 1, 12: 2}, 12, -12, (2, 0, 13)),
    "S_1,0": ({2: 2, 5: 1, 10: 2}, 10, 20, (2, 0, 12)),
    "U_1,0": ({3: 1, 9: 2}, 9, 27, (2, 0, 12)),
    "E_18": ({3: 1, 15: 1, 30: 1}, 30, 3, (2, 0, 16)),
    "E_19": ({2: 1, 14: 1, 42: 1}, 42, -2, (2, 0, 17)),
    "E_20": ({66: 1}, 66, 1, (2, 0, 18)),
    "Z_17": ({2: 1, 3: 1, 6: 1, 12: 1, 24: 1}, 24, -6, (2, 0, 15)),
    "Z_18": ({2: 2, 34: 1}, 34, 4, (2, 0, 16)),
    "Z_19": ({2: 1, 54: 1}, 54, -2, (2, 0, 17)),
    "Q_16": ({3: 2, 21: 1}, 21, 9, (2, 0, 14)),
    "Q_17": ({2: 1, 3: 1, 6: 1, 10: 1, 30: 1}, 30, -6, (2, 0, 15)),
    "Q_18": ({3: 1, 48: 1}, 48, 3, (2, 0, 16)),
    "W_17": ({2: 1, 5: 1, 10: 1, 20: 1}, 20, -10, (2, 0, 15)),
    "W_18": ({7: 1, 28: 1}, 28, 7, (2, 0, 16)),
    "S_16": ({17: 1}, 17, 17, (2, 0, 14)),
    "S_17": ({2: 1, 3: 1, 6: 1, 8: 1, 24: 1}, 24, -12, (2, 0, 15)),
    "U_16": ({5: 2, 15: 1}, 15, 25, (2, 0, 14)),
}


def test_k_lattice_regression_table():
    assert set(EXPECTED) == {row.name for row in load_rows()}
    for row in load_rows():
        factors, order, det_gram, signature = EXPECTED[row.name]
        gram = row_gram(row)
        cox = coxeter_element(gram)
        det, inertia = lattice_invariants(gram)
        assert cox.factorization.factors == factors, row.name
        assert cox.order == order, row.name
        assert det == det_gram, row.name
        assert inertia == signature, row.name


def test_coxeter_order_equals_reduced_transpose_degree():
    """The Coxeter order coincides with the reduced degree of the transpose
    weight system on every row (observed and pinned)."""
    from bhdual.series import transpose_reduced_weights

    for row in load_rows():
        gram = row_gram(row)
        assert coxeter_element(gram).order == transpose_reduced_weights(row).d, row.name
