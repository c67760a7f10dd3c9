import re
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bhdual.coxeter import coxeter_element
from bhdual.curveconf import arms
from bhdual.exactalg import (
    CyclotomicFactorization,
    IntMatrix,
    IntPolynomial,
    RationalFunction,
    det_bareiss,
    euler_totient,
    factor_cyclotomic,
    square_root_spectrum,
)
from bhdual.fixtures import VARIABLES, load_rows, row_by_name
from bhdual.klattice import row_gram
from bhdual.polyparse import InvertiblePolynomial, parse_polynomial, transpose
from bhdual.series import (
    SQUARE_RELATION_EXPECTED,
    characteristic_function,
    milnor_orlik,
    poincare_bruteforce,
    poincare_series,
    transpose_monodromy,
    transpose_reduced_weights,
    verify_phi_identity,
    verify_square_relation,
)
from bhdual.weights import (
    CanonicalWeights,
    ReducedWeights,
    canonical_weights,
    gorenstein_parameter,
    reduce,
)
from conftest import KREUZER_SKARKE, cyclotomic, one_minus_t, spectrum, spectrum_factors


def poly(text):
    return parse_polynomial(text, VARIABLES)


def phi_of(row):
    return characteristic_function(canonical_weights(poly(row.f)), row.dolgachev)


def phi_report(row):
    rw_T = transpose_reduced_weights(row)
    return verify_phi_identity(phi_of(row), rw_T, milnor_orlik(rw_T))


def square_report(row):
    gram = row_gram(row)
    return verify_square_relation(phi_of(row), coxeter_element(gram).factorization, gram.dim)


class TestPoincareSeries:
    def test_fermat_weights(self):
        p = poincare_series(CanonicalWeights((6, 22, 33), 66))
        # the quotient is kept exactly as given, as its binomial exponents
        assert p == RationalFunction((66,), (6, 22, 33))

    def test_unit_weights_degree_two(self):
        p = poincare_series(CanonicalWeights((1, 1, 1), 2))
        assert p.series_coefficients(3) == [1, 3, 5, 7]

    def test_unit_weights_degree_three(self):
        p = poincare_series(CanonicalWeights((1, 1, 1), 3))
        # (1 - t^3) / (1 - t)^3 = (1 + t + t^2) / (1 - t)^2
        assert p.series_coefficients(2) == [1, 3, 6]


class TestPoincareBruteforce:
    def test_binomial_oracle(self):
        # dim in degree k is C(k+2,2) - C(k,2) for weights (1,1,1;2)
        expected = [comb(k + 2, 2) - comb(k, 2) for k in range(4)]
        assert poincare_bruteforce(CanonicalWeights((1, 1, 1), 2), 3) == expected == [1, 3, 5, 7]

    def test_degree_zero(self):
        assert poincare_bruteforce(CanonicalWeights((7, 11, 13), 77), 0) == [1]

    def test_sparse_low_degrees(self):
        out = poincare_bruteforce(CanonicalWeights((6, 22, 33), 66), 12)
        assert out == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]

    def test_matches_closed_form_on_all_rows(self):
        for row in load_rows():
            w = canonical_weights(poly(row.f))
            bound = 2 * w.d_prime
            closed = poincare_series(w).series_coefficients(bound)
            assert closed == poincare_bruteforce(w, bound), row.name


def _binomial_product(ns):
    product = IntPolynomial.one()
    for n in ns:
        product = product * one_minus_t(n)
    return product


def _cyclotomic_product(exponents):
    product = IntPolynomial.one()
    for n, e in exponents.items():
        for _ in range(e):
            product = product * cyclotomic(n)
    return product


class TestCharacteristicFunction:
    def test_fermat_row(self):
        phi = characteristic_function(canonical_weights(poly("x^11 + y^3 + z^2")), (2, 3, 11))
        assert phi == {1: -1, 66: 1}

    def test_a5_row_with_chain(self):
        phi = characteristic_function(canonical_weights(poly("x^8*z + y^3 + z^2")), (3, 3, 8))
        assert phi == {1: -1, 3: 1, 48: 1}

    def test_degree_with_shift_equals_rank(self):
        row = row_by_name("J_3,0")
        phi = phi_of(row)
        assert sum(euler_totient(n) * e for n, e in phi.items()) + 1 == row.mu == 16

    def test_alpha_below_two_rejected(self):
        # phi_f takes the triple as given; curveconf.arms, the dolgachev
        # stage of bh verify, is the one place that rejects an alpha_i below 2
        with pytest.raises(ValueError, match="^Dolgachev number alpha_1 = 1 is below 2: arm 1 has no curve$"):
            arms((1, 3, 11))

    @given(
        st.tuples(*[st.integers(1, 24)] * 3),
        st.integers(1, 48),
        st.tuples(*[st.integers(2, 24)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_exponents_reproduce_the_binomial_quotient(self, w, d_prime, alpha):
        # prod_{e>0} Phi_n^e * (1-t)^2 prod(1-t^w_i)
        #   = +-(1-t^d') prod(1-t^alpha_i) * prod_{e<0} Phi_n^(-e)
        phi = characteristic_function(CanonicalWeights(w, d_prime), alpha)
        assert all(phi.values())
        positive = _cyclotomic_product({n: e for n, e in phi.items() if e > 0})
        negative = _cyclotomic_product({n: -e for n, e in phi.items() if e < 0})
        left = positive * _binomial_product((1, 1, *w))
        right = _binomial_product((d_prime, *alpha)) * negative
        assert left in (right, right * -1)


class TestMilnorOrlik:
    def test_fermat_20(self):
        fac = milnor_orlik(ReducedWeights((6, 22, 33), 66, 1))
        assert fac.factors == {66: 1}
        assert fac.degree == 20

    def test_cubic_cone_by_enumeration(self):
        # independent oracle: the eight basis monomials x^a y^b z^c with
        # 0 <= a,b,c <= 1 have degrees k; eigenvalue exponents are (k+3) mod 3
        from collections import Counter

        degrees = Counter(a + b + c for a in (0, 1) for b in (0, 1) for c in (0, 1))
        exponents = Counter()
        for k, mult in degrees.items():
            exponents[(k + 3) % 3] += mult
        assert exponents == {0: 2, 1: 3, 2: 3}
        fac = milnor_orlik(ReducedWeights((1, 1, 1), 3, 1))
        assert fac.factors == {1: 2, 3: 3}
        assert fac.degree == 8

    def test_node(self):
        fac = milnor_orlik(ReducedWeights((1, 1, 1), 2, 1))
        assert fac.factors == {2: 1}

    def test_spectrum_anchors(self):
        # node: the single spectral number 3/2; cubic cone: Milnor algebra
        # dimensions 1, 3, 3, 1 shifted by q_1 + q_2 + q_3 = 3; the Fermat
        # x^11 + y^3 + z^2: the numbers i/11 + j/3 + 1/2 with 0 < i < 11, 0 < j < 3
        assert spectrum(ReducedWeights((1, 1, 1), 2, 1)) == {3: 1}
        assert spectrum(ReducedWeights((1, 1, 1), 3, 1)) == {3: 1, 4: 3, 5: 3, 6: 1}
        fermat = {6 * i + 22 * j + 33: 1 for i in range(1, 11) for j in (1, 2)}
        assert spectrum(ReducedWeights((6, 22, 33), 66, 1)) == fermat

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
            "Milnor algebra series not polynomial for ReducedWeights(q=(2, 3, 4), d=5, c_f=1)"
        )):
            milnor_orlik(ReducedWeights((2, 3, 4), 5, 1))
        with pytest.raises(ValueError, match=re.escape(
            "degenerate weights ReducedWeights(q=(3, 3, 3), d=3, c_f=1)"
        )):
            milnor_orlik(ReducedWeights((3, 3, 3), 3, 1))
        # mu = 6*6*3/4 = 27 is integral, and the series through degree
        # sum(d - 2 q_i) = 9 is nonnegative and sums to 27, but
        # (1 - t^6)^2 (1 - t^3) / ((1 - t)^2 (1 - t^4)) is no polynomial
        with pytest.raises(ValueError, match=re.escape(
            "Milnor algebra series not polynomial for ReducedWeights(q=(1, 1, 4), d=7, c_f=1)"
        )):
            milnor_orlik(ReducedWeights((1, 1, 4), 7, 1))

    @pytest.mark.parametrize("divisor", [({3: 1}, 2), ({3: 1, 1: -2}, 1)])
    def test_exponent_guard(self, monkeypatch, divisor):
        # Phi_1 Phi_3 halved, and Phi_3 / Phi_1: an exponent that is no
        # integer, and one below zero, raise rather than truncate
        from bhdual import series

        monkeypatch.setattr(series, "_scaled_divisor", lambda q, d: divisor)
        with pytest.raises(ValueError, match=re.escape(
            "eigenvalue multiplicities not nonnegative integers for ReducedWeights(q=(1, 1, 1), d=3, c_f=1)"
        )):
            milnor_orlik(ReducedWeights((1, 1, 1), 3, 1))

    def test_every_small_weight_system_matches_the_spectrum(self):
        # every q_1 <= q_2 <= q_3 <= d + 1 with d <= 24 (both routes are
        # symmetric in q): the divisor formula and the grouped spectrum give
        # the same exponents, or raise the same text
        def outcome(route, rw):
            try:
                return route(rw)
            except ValueError as error:
                return str(error)

        seen = set()
        for d in range(1, 25):
            for q in combinations_with_replacement(range(1, d + 2), 3):
                rw = ReducedWeights(q, d, 1)
                expected = outcome(spectrum_factors, rw)
                assert outcome(lambda w: milnor_orlik(w).factors, rw) == expected, rw
                seen.add(type(expected))
        assert seen == {dict, str}

    def test_degree_and_cyclotomic_on_all_rows(self):
        for row in load_rows():
            rw = transpose_reduced_weights(row)
            fac = milnor_orlik(rw)
            numerator = (rw.d - rw.q[0]) * (rw.d - rw.q[1]) * (rw.d - rw.q[2])
            denominator = rw.q[0] * rw.q[1] * rw.q[2]
            assert numerator % denominator == 0
            assert fac.degree == numerator // denominator == row.mu, row.name
            assert fac.is_cyclotomic


class TestPhiIdentity:
    def test_fermat_shift_one(self):
        row = row_by_name("E_20")
        assert phi_report(row) == (True, 1)
        assert milnor_orlik(transpose_reduced_weights(row)).factors == {66: 1}

    def test_a5_row(self):
        assert phi_report(row_by_name("Q_18")) == (True, 1)

    def test_a3_row_hypothesis_decided_from_transpose(self):
        # the transpose's own canonical system is reduced here even though the
        # row's c_f is 3, so the identity applies
        row = row_by_name("E_19")
        assert row.c_f == 3
        assert transpose_reduced_weights(row).c_f == 1
        assert phi_report(row) == (True, 1)

    def test_nonreduced_transpose_rejected(self):
        assert phi_report(row_by_name("J_3,0")) is None

    def test_too_many_t_minus_one_factors(self):
        # phi_f * (t-1)^e would need e = -1 to reach the oracle Phi_66
        rw_T = transpose_reduced_weights(row_by_name("E_20"))
        holds, shift_exponent = verify_phi_identity({1: 1, 66: 1}, rw_T, milnor_orlik(rw_T))
        assert not holds
        assert shift_exponent == -1

    def test_oracle_factor_missing_from_phi(self):
        # the oracle's Phi_2 has no counterpart in phi: a gap of 1, not 0
        oracle = CyclotomicFactorization({1: 1, 2: 1}, 1, IntPolynomial.one())
        assert verify_phi_identity({1: -1}, ReducedWeights((1, 1, 1), 3, 1), oracle) == (False, -1)

    def test_no_t_minus_one_factor_on_either_side(self):
        # a phi equal to the oracle, neither with Phi_1, needs e = 0; the phi
        # of characteristic_function always holds Phi_1^-1, so only a direct
        # caller reaches this
        oracle = CyclotomicFactorization({2: 1, 66: 1}, 1, IntPolynomial.one())
        assert verify_phi_identity({2: 1, 66: 1}, ReducedWeights((1, 1, 1), 3, 1), oracle) == (True, 0)

    def test_uniform_shift_across_exceptional_rows(self):
        exponents = set()
        for row in load_rows():
            if row.case_tag.startswith("Quadrilateral"):
                continue
            holds, shift_exponent = phi_report(row)
            assert holds, row.name
            exponents.add(shift_exponent)
        assert exponents == {1}


class TestSquareRelation:
    def test_expected_verdicts(self):
        for name, expected in SQUARE_RELATION_EXPECTED.items():
            holds, reason = square_report(row_by_name(name))
            assert holds == expected, (name, reason)

    def test_positive_case_detail(self):
        assert square_report(row_by_name("Q_2,0")) == (True, "squared spectrum matches")

    def test_negative_control_reason(self):
        holds, reason = square_report(row_by_name("J_3,0"))
        assert not holds
        assert "denominator" in reason

    def test_pad_fills_phi_1_beside_phi_2(self):
        # Phi_1 and Phi_2 both square to Phi_1; the pad of 2 goes to Phi_1
        # and leaves phi's Phi_2 in place: {1: 2, 2: 1, 3: 1} squares to
        # {1: 3, 3: 1}
        squared = CyclotomicFactorization({1: 3, 3: 1}, 1, IntPolynomial.one())
        assert verify_square_relation({1: -1, 2: 1, 3: 1}, squared, 5) == (True, "squared spectrum matches")

    def test_zero_exponent_is_no_factor(self):
        # Phi_5^0 = 1 is neither a denominator factor nor part of the spectrum
        squared = CyclotomicFactorization({1: 3, 3: 1}, 1, IntPolynomial.one())
        assert verify_square_relation({1: -1, 2: 1, 3: 1, 5: 0}, squared, 5) == (True, "squared spectrum matches")

    def test_degree_one_past_the_rank(self):
        # phi_f's positive part has degree 3, one more than the rank
        squared = CyclotomicFactorization({1: 1, 3: 1}, 1, IntPolynomial.one())
        assert verify_square_relation({1: -1, 2: 1, 3: 1}, squared, 2) == (False, "degree exceeds the lattice rank")


class TestIndexBeyond132:
    # x^23 + y^3 + z^2 with alpha = (2, 3, 23): d' = 138, phi = Phi_138 / Phi_1,
    # the Phi_66 twin of E_20 with a cyclotomic index past 132

    def test_phi_exponents(self):
        wsys = canonical_weights(poly("x^23 + y^3 + z^2"))
        assert characteristic_function(wsys, (2, 3, 23)) == {1: -1, 138: 1}

    def test_square_relation_holds(self):
        wsys = canonical_weights(poly("x^23 + y^3 + z^2"))
        phi = characteristic_function(wsys, (2, 3, 23))
        squared = CyclotomicFactorization(square_root_spectrum({1: 1, 138: 1}), 1, IntPolynomial.one())
        holds, reason = verify_square_relation(phi, squared, 45)
        assert holds, reason


class TestInvertiblePolynomials:
    @given(st.sampled_from(sorted(KREUZER_SKARKE)), st.tuples(*[st.integers(2, 8)] * 3))
    @settings(max_examples=30, deadline=None)
    def test_pipeline(self, kind, exponents):
        matrix = KREUZER_SKARKE[kind](*exponents)
        f = InvertiblePolynomial(IntMatrix(matrix), VARIABLES)
        w, w_t = canonical_weights(f), canonical_weights(transpose(f))
        assert w.d_prime == abs(det_bareiss(f.matrix))
        assert all(sum(e * x for e, x in zip(row, w.w)) == w.d_prime for row in matrix)
        assert gorenstein_parameter(w) == gorenstein_parameter(w_t)
        k_max = 2 * w.d_prime
        assert poincare_series(w).series_coefficients(k_max) == poincare_bruteforce(w, k_max)
        rw = reduce(w_t)
        oracle = milnor_orlik(rw)
        numerator = (rw.d - rw.q[0]) * (rw.d - rw.q[1]) * (rw.d - rw.q[2])
        assert numerator % (rw.q[0] * rw.q[1] * rw.q[2]) == 0
        assert oracle.degree == numerator // (rw.q[0] * rw.q[1] * rw.q[2])
        found = factor_cyclotomic(oracle.reconstruct())
        assert found.is_cyclotomic and found.unit == 1
        assert found.factors == oracle.factors

    def test_index_1001(self):
        # x^7 y + y^11 z + z^13: the transpose has reduced weights
        # (143, 78, 71; 1001), and its monodromy reaches Phi_143 and Phi_1001
        rw = reduce(canonical_weights(transpose(poly("x^7*y + y^11*z + z^13"))))
        oracle = milnor_orlik(rw)
        assert oracle.factors == {7: 1, 13: 1, 91: 1, 143: 1, 1001: 1}
        found = factor_cyclotomic(oracle.reconstruct())
        assert found.is_cyclotomic and found.factors == oracle.factors


class TestTransposeMonodromy:
    def test_self_dual_loop(self):
        fac = transpose_monodromy(row_by_name("S_16"))
        assert fac.factors == {17: 1}


# ---------------------------------------------------------------------------
# the divisor calculus in Fractions, a cross-check of the integer scaling
# ---------------------------------------------------------------------------

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _divisor_product(q, d):
    """prod_i ((1/v_i) * L_{u_i} - L_1) in the ring with L_a * L_b =
    gcd(a,b) * L_lcm(a,b), where u_i/v_i = d/q_i in lowest terms.

    L_m stands for the root divisor of t^m - 1; the product is the divisor of
    the monodromy characteristic polynomial, computed in Fractions where
    milnor_orlik scales by prod v_i and divides back.
    """
    from fractions import Fraction
    from math import gcd, lcm

    total = {1: Fraction(1)}
    for qi in q:
        g = gcd(d, qi)
        u, v = d // g, qi // g
        factor = {u: Fraction(1, v)}
        factor[1] = factor.get(1, Fraction(0)) - 1
        convolved: dict[int, Fraction] = {}
        for a, ca in total.items():
            for b, cb in factor.items():
                m = lcm(a, b)
                convolved[m] = convolved.get(m, Fraction(0)) + ca * cb * gcd(a, b)
        total = {m: c for m, c in convolved.items() if c}
    return total


def _divisor_of_factorization(fac):
    """Divisor of prod Phi_n^mult in the same L_m basis, via Moebius
    inversion of Phi_n = prod_{e | n} (t^e - 1)^mu(n/e)."""
    out: dict[int, int] = {}
    for n, mult in fac.factors.items():
        for e in _divisors(n):
            coeff = mult * _moebius(n // e)
            if coeff:
                out[e] = out.get(e, 0) + coeff
    return {m: c for m, c in out.items() if c}


class TestMonodromyDivisorCalculus:
    def test_matches_enumeration_oracle_on_all_fixture_polynomials(self):
        # both the transpose and the dual polynomial of every row; the
        # Fraction product cross-checks the integer scaling of the divisor
        for row in load_rows():
            for text in (row.f_T, row.f):
                rw = reduce(canonical_weights(poly(text)))
                fac = milnor_orlik(rw)
                assert fac.factors == spectrum_factors(rw), (row.name, text)
                assert _divisor_of_factorization(fac) == _divisor_product(rw.q, rw.d), (
                    row.name,
                    text,
                )

    @given(st.sampled_from(sorted(KREUZER_SKARKE)), st.tuples(*[st.integers(2, 8)] * 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_divisor_formula_on_invertible_polynomials(self, kind, exponents):
        # the grouped spectrum against milnor_orlik, Milnor-Orlik's divisor;
        # the spectrum is symmetric under k <-> 3d - k and has
        # mu = prod (d - q_i)/q_i numbers
        f = InvertiblePolynomial(IntMatrix(KREUZER_SKARKE[kind](*exponents)), VARIABLES)
        for g in (f, transpose(f)):
            rw = reduce(canonical_weights(g))
            fac = milnor_orlik(rw)
            assert fac.factors == spectrum_factors(rw)
            sp = spectrum(rw)
            assert sp == {3 * rw.d - k: m for k, m in sp.items()}
            q1, q2, q3 = rw.q
            mu = (rw.d - q1) * (rw.d - q2) * (rw.d - q3) // (q1 * q2 * q3)
            assert sum(sp.values()) == mu == fac.degree

    def test_classical_anchors(self):
        # textbook monodromy characteristic polynomials of simple singularities
        anchors = [
            ("x^2 + y^2 + z^2", {2: 1}),
            ("x^3 + y^2 + z^2", {3: 1}),
            ("x^3 + x*y^2 + z^2", {2: 2, 6: 1}),
            ("x^5 + y^3 + z^2", {30: 1}),
        ]
        for text, expected in anchors:
            rw = reduce(canonical_weights(poly(text)))
            assert milnor_orlik(rw).factors == expected, text
