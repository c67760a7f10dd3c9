"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison is integer or polynomial
equality (up to overall sign where stated); the only tolerances are the
wall-clock bounds on criteria 1, 4 and 5.
"""
import json
import time
from functools import cache

from bhdual import dynkin, klattice, series
from bhdual.cli import build_report
from bhdual.coxeter import coxeter_element, lattice_invariants, seifert_identity
from bhdual.curveconf import build_configuration
from bhdual.exactalg import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    det_bareiss,
)
from bhdual.fixtures import VARIABLES, load_rows, row_by_name
from bhdual.polyparse import parse_polynomial
from bhdual.quotres import (
    attachment_double,
    branch_count_at_attachment,
    exceptional_components_met,
    invariant_image,
    invariant_image_double,
)
from bhdual.weights import (
    ambient_weights,
    beta_congruence_check,
    canonical_weights,
    gorenstein_parameter,
    reduce,
)
from conftest import cyclotomic, mukai_pairing, one_minus_t

ROWS = load_rows()


def poly(text):
    return parse_polynomial(text, VARIABLES)


@cache
def lattice(name):
    """The row's K-lattice Gram matrix, generators and Coxeter element, built
    once per module: C5 builds them first and its time bound includes that."""
    row = row_by_name(name)
    gram = klattice.row_gram(row)
    return gram, klattice.generator_list(row), coxeter_element(gram)


def reference_preserves_form(tau, gram):
    """tau^T G tau == G by dense products, independent of the packed-row kernels."""
    def matmul(a, b):
        return [[sum(map(int.__mul__, row, col)) for col in zip(*b)] for row in a]

    t = tau.entries
    return matmul(matmul(list(zip(*t)), gram.entries), t) == [list(r) for r in gram.entries]


def report(criterion, description, ok):
    print(f"ACCEPTANCE {criterion} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"{criterion} {description}"


def test_c1_table_reproduction():
    started = time.monotonic()
    ok = True
    for row in ROWS:
        reduced = reduce(canonical_weights(poly(row.f)))
        ok &= reduced.c_f == row.c_f
        ok &= gorenstein_parameter(canonical_weights(poly(row.f_T))) == row.a
        ambient = ambient_weights(reduced, row.compactifier)
        ok &= ambient.weights == row.ambient
        ok &= ambient.compactifier == row.compactifier
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    report("C1", f"table reproduction in {elapsed:.3f}s", ok)


def test_c2_beta_congruence():
    ok = True
    for row in ROWS:
        verdict = beta_congruence_check(row.alpha_beta, row.a, row.c_f)
        ok &= (verdict is True) if row.c_f == 1 else (verdict is None)
    report("C2", "beta congruence on reduced rows", ok)


def test_c3_poincare_series_vs_bruteforce():
    ok = True
    for row in ROWS:
        w = canonical_weights(poly(row.f))
        bound = 2 * w.d_prime
        closed = series.poincare_series(w).series_coefficients(bound)
        ok &= closed == series.poincare_bruteforce(w, bound)
    report("C3", "Poincare series vs enumeration through 2d'", ok)


def test_c4_phi_identity_uniform_shift():
    started = time.monotonic()
    exceptional = [row for row in ROWS if row.case_tag.startswith("Exceptional")]
    assert len(exceptional) == 14
    exponents = set()
    ok = True
    for row in exceptional:
        rw_T = series.transpose_reduced_weights(row)
        phi = series.characteristic_function(canonical_weights(poly(row.f)), row.dolgachev)
        holds, shift_exponent = series.verify_phi_identity(phi, rw_T, series.milnor_orlik(rw_T))
        ok &= holds
        exponents.add(shift_exponent)
    ok &= exponents == {1}
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    report("C4", f"phi identity with uniform shift e=1 in {elapsed:.3f}s", ok)


def test_c5_coxeter_equals_monodromy():
    started = time.monotonic()
    ok = True
    for row in ROWS:
        gram, gens, cox = lattice(row.name)
        oracle = series.transpose_monodromy(row)
        ok &= cox.factorization.is_cyclotomic
        ok &= cox.factorization.factors == oracle.factors
        ok &= reference_preserves_form(cox.matrix, gram)
        ok &= det_bareiss(cox.matrix) == (-1) ** row.mu
        ok &= seifert_identity(cox.matrix, gram)
        ok &= len(gens.items) == row.mu == oracle.degree
    elapsed = time.monotonic() - started
    ok &= elapsed < 10.0
    report("C5", f"Coxeter element vs monodromy oracle in {elapsed:.3f}s", ok)


def test_c6_square_relation_verdicts():
    ok = True
    for name, expected in series.SQUARE_RELATION_EXPECTED.items():
        row = next(r for r in ROWS if r.name == name)
        gram, _, cox = lattice(name)
        phi = series.characteristic_function(canonical_weights(poly(row.f)), row.dolgachev)
        holds, _ = series.verify_square_relation(phi, cox.factorization, gram.dim)
        ok &= holds == expected
    report("C6", "squared-spectrum relation incl. negative controls", ok)


def test_c7_diagram_coincidence():
    ok = True
    for row in ROWS:
        diagram = dynkin.diagram_for_row(row)
        gram, _, _ = lattice(row.name)
        ok &= diagram.rank == gram.dim == row.mu
        # rule vertex i stands for K-lattice generator sigma[i]
        sigma = dynkin.correspondence(row)
        twisted = row.case_tag in ("Quadrilateral_r1", "Exceptional_a5")
        ok &= sorted(sigma) == list(range(row.mu))
        ok &= twisted or sigma == list(range(row.mu))
        ok &= all(
            diagram.gram[i, j] == gram[p, q]
            for i, p in enumerate(sigma)
            for j, q in enumerate(sigma)
        )
    report("C7", "rule diagram equal to K-lattice diagram under the vertex correspondence", ok)


def test_c8_local_lemmas():
    ok = True
    for k in range(2, 13):
        for m in range(1, k):
            ok &= exceptional_components_met(invariant_image(m, k), k) == [k - m]
        double = invariant_image_double(k)
        component, branches = attachment_double(k)
        ok &= exceptional_components_met(double, k) == [component] == [k - 1]
        ok &= branch_count_at_attachment(double, k, component) == branches == 2
    # worked-example attachments
    ok &= exceptional_components_met(invariant_image(3, 5), 5) == [2]
    ok &= exceptional_components_met(invariant_image(2, 7), 7) == [5]
    ok &= attachment_double(8) == (7, 2)
    report("C8", "local resolution lemmas for 1<=m<k<=12", ok)


def test_c9_property_suites(reflect):
    ok = True
    # reflection involutivity and isometry on a fixture lattice
    row = next(r for r in ROWS if r.name == "S_16")
    conf = build_configuration(row)
    gens = klattice.generator_list(row)
    root = gens.classes[0]
    for v in gens.classes:
        ok &= reflect(reflect(v, root, conf), root, conf) == v
    for v in gens.classes:
        for w in gens.classes:
            ok &= mukai_pairing(
                reflect(v, root, conf), reflect(w, root, conf), conf
            ) == mukai_pairing(v, w, conf)
    # cyclotomic reconstruction
    for n in range(1, 101):
        product = IntPolynomial.one()
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        ok &= product == one_minus_t(n) * -1
    # Cayley-Hamilton spot checks for dim <= 6
    samples = [
        IntMatrix([[2]]),
        IntMatrix([[0, -1], [1, -1]]),
        IntMatrix([[1, 2, 0], [0, 1, 3], [4, 0, 1]]),
        IntMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0]]),
        IntMatrix([[1 if (i + j) % 3 == 0 else -1 for j in range(6)] for i in range(6)]),
    ]
    for m in samples:
        p = char_poly(m)
        n = m.dim
        acc = IntMatrix([[0] * n for _ in range(n)])
        power = IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])
        for c in p.coefficients:
            acc = IntMatrix(
                [[acc[i, j] + c * power[i, j] for j in range(n)] for i in range(n)]
            )
            power = IntMatrix(
                [[sum(power[i, k] * m[k, j] for k in range(n)) for j in range(n)] for i in range(n)]
            )
        ok &= acc == IntMatrix([[0] * n for _ in range(n)])
        ok &= det_bareiss(m) == (-1) ** n * p.coefficients[0]
    # deterministic verify output
    first = json.dumps(build_report(ROWS))
    second = json.dumps(build_report(ROWS))
    ok &= first == second
    report("C9", "property suites", ok)


def test_c10_lattice_invariants_from_spectrum(spectral_invariants):
    # the K-lattice is the Milnor lattice of the transpose: its signature and
    # determinant are those the transpose's spectrum predicts
    ok = True
    for row in ROWS:
        det, signature = lattice_invariants(lattice(row.name)[0])
        expected = spectral_invariants(series.transpose_reduced_weights(row))
        ok &= (signature, det) == expected
    report("C10", "K-lattice signature and determinant from the spectrum", ok)
