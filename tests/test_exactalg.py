import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bhdual.exactalg import (
    CyclotomicFactorization,
    IntMatrix,
    IntPolynomial,
    RationalFunction,
    annihilates,
    char_poly,
    cyclotomic_exponents,
    cyclotomic_index_bound,
    det_bareiss,
    divide_by_binomial,
    euler_totient,
    factor_cyclotomic,
    square_root_spectrum,
)
from conftest import (
    cyclotomic,
    dense_series,
    full_peel_factor_cyclotomic,
    int_polynomial_text,
    long_division,
    one_minus_t,
)
from bhdual import exactalg
from bhdual.fixtures import VARIABLES, load_rows
from bhdual.klattice import GeneratorList, MukaiClass, Sheaf, class_of
from bhdual.polyparse import InvertiblePolynomial, parse_polynomial, transpose
from bhdual.quotres import SparsePoly
from bhdual.series import milnor_orlik
from bhdual.weights import canonical_weights, reduce

P = IntPolynomial


def poly(*coeffs):
    return P(coeffs)


def power(p, e):
    """p^e by repeated dense multiplication."""
    out = P.one()
    for _ in range(e):
        out = out * p
    return out


def identity(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a, b):
    """Dense reference product, independent of the packed-row kernels."""
    columns = list(zip(*b.entries))
    return IntMatrix([[sum(map(int.__mul__, row, col)) for col in columns] for row in a.entries])


def dense_char_poly(m):
    """det(t I - M) by the Leibniz expansion over permutations, each term a
    product of the polynomial entries t [i == j] - M[i][j]."""
    n = m.dim
    total = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = poly(sign)
        for i, j in enumerate(perm):
            term = term * poly(-m[i, j], int(i == j))
        for k, c in enumerate(term.coefficients):
            total[k] += c
    return P(total)


small_polys = st.builds(P, st.lists(st.integers(-9, 9), max_size=6))


class TestPolyArith:
    def test_geometric_quotient(self):
        # (1 - t^6) / (1 - t^2) = 1 + t^2 + t^4
        q = long_division(one_minus_t(6), one_minus_t(2))
        assert q == poly(1, 0, 1, 0, 1)

    def test_product_coefficients(self):
        p = one_minus_t(66) * one_minus_t(1)
        coeffs = dict(enumerate(p.coefficients))
        assert {k: v for k, v in coeffs.items() if v} == {0: 1, 1: -1, 66: -1, 67: 1}

    def test_inexact_division_raises(self):
        # an inexact division is a program fault, outside ValueError
        with pytest.raises(ArithmeticError, match=r"^t \+ 1 not divisible by t$") as info:
            long_division(poly(1, 1), poly(0, 1))
        assert not isinstance(info.value, ValueError)

    @given(small_polys, small_polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(small_polys, small_polys)
    def test_exact_div_roundtrip(self, a, b):
        if b.is_zero():
            return
        assert long_division(a * b, b) == a

    def test_str(self):
        assert str(poly(-1, 0, 1)) == "t^2 - 1"
        assert str(P.zero()) == "0"

    @given(st.lists(st.integers(-3, 3), max_size=10))
    @example([])
    @example([0, 0])
    @example([1])
    @example([-1, 0, 0])
    def test_str_matches_the_reference(self, coefficients):
        # the zero polynomial, trailing zeros and +-1 constants included
        p = P(coefficients)
        assert str(p) == int_polynomial_text(p)


class TestRationalFunction:
    def test_series_expansion(self):
        # 1/(1-t) = 1 + t + t^2 + ...
        assert RationalFunction((), (1,)).series_coefficients(4) == [1, 1, 1, 1, 1]
        # (1 - t^3)/(1 - t) = 1 + t + t^2, and 1 - t^2 alone
        assert RationalFunction((3,), (1,)).series_coefficients(5) == [1, 1, 1, 0, 0, 0]
        assert RationalFunction((2,), ()).series_coefficients(3) == [1, 0, -1, 0]
        # 1/(1-t)^2 = sum (k+1) t^k, the repeated exponent kept twice
        assert RationalFunction((), (1, 1)).series_coefficients(3) == [1, 2, 3, 4]
        assert RationalFunction((3,), (1,)).series_coefficients(0) == [1]
        assert RationalFunction((3,), (1,)).series_coefficients(-1) == []

    @given(
        st.lists(st.integers(1, 30), max_size=4).map(tuple),
        st.lists(st.integers(1, 30), max_size=4).map(tuple),
        st.integers(-1, 120),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dense_reference(self, numerator, denominator, k_max):
        # one stride step per binomial against both products multiplied out
        # and divided term by term
        r = RationalFunction(numerator, denominator)
        assert r.series_coefficients(k_max) == dense_series(numerator, denominator, k_max)


class TestCyclotomic:
    def test_first_values(self):
        assert cyclotomic(1) == poly(-1, 1)
        assert cyclotomic(2) == poly(1, 1)
        assert cyclotomic(6) == poly(1, -1, 1)

    def test_degree_66(self):
        assert cyclotomic(66).degree == euler_totient(66) == 20

    def test_reconstruction_up_to_100(self):
        # prod of cyclotomic(d) over d | n rebuilds t^n - 1 exactly
        for n in range(1, 101):
            product = P.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * cyclotomic(d)
            assert product == one_minus_t(n) * -1, n


class TestFactorCyclotomic:
    def test_simple(self):
        fac = factor_cyclotomic(poly(1, 1, 1))
        assert fac.factors == {3: 1}
        assert fac.is_cyclotomic

    def test_mixed_powers(self):
        # expand (t-1)^2 (t^2+t+1)^3 independently, then factor
        p = power(poly(-1, 1), 2) * power(poly(1, 1, 1), 3)
        fac = factor_cyclotomic(p)
        assert fac.factors == {1: 2, 3: 3}
        assert fac.is_cyclotomic

    def test_non_cyclotomic_remainder(self):
        fac = factor_cyclotomic(poly(-2, 0, 1))
        assert fac.factors == {}
        assert fac.remainder == poly(-2, 0, 1)

    def test_unit_extraction(self):
        fac = factor_cyclotomic(cyclotomic(5) * -1)
        assert fac.unit == -1 and fac.factors == {5: 1} and fac.is_cyclotomic

    @given(st.dictionaries(st.integers(1, 20), st.integers(1, 2), max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_factor_reconstruct_roundtrip(self, factors):
        p = P.one()
        for n, m in factors.items():
            p = p * power(cyclotomic(n), m)
        fac = factor_cyclotomic(p)
        assert fac.reconstruct() == p
        assert fac.factors == factors

    @given(st.dictionaries(st.integers(1, 12), st.integers(1, 2), max_size=2), small_polys)
    @settings(max_examples=25, deadline=None)
    def test_reconstruct_identity_with_remainder(self, factors, extra):
        # reconstruction must be the identity even when a non-cyclotomic
        # remainder (and a sign) is left over
        if extra.is_zero():
            return
        p = extra
        for n, m in factors.items():
            p = p * power(cyclotomic(n), m)
        fac = factor_cyclotomic(p)
        assert fac.reconstruct() == p

    def test_index_past_132(self):
        fac = factor_cyclotomic(cyclotomic(133) * cyclotomic(1))
        assert fac.is_cyclotomic and fac.unit == 1
        assert fac.factors == {1: 1, 133: 1}

    @given(
        st.dictionaries(st.integers(1, 300), st.integers(1, 2), min_size=1, max_size=3),
        st.sampled_from((1, -1)),
    )
    @settings(max_examples=25, deadline=None)
    def test_large_indices_roundtrip(self, factors, unit):
        p = poly(unit)
        for n, m in factors.items():
            p = p * power(cyclotomic(n), m)
        fac = factor_cyclotomic(p)
        assert fac.is_cyclotomic and fac.unit == unit
        assert fac.factors == factors

    def test_unit_constant_term_exhaustive(self):
        # a constant term +-1 sends p down the peel; every accepted
        # factorization must rebuild p exactly, and every rejected one keeps it
        for degree in range(1, 6):
            for c0, *middle, lead in itertools.product(
                (1, -1), *[range(-2, 3)] * (degree - 1), (1, -1, 2, -2)
            ):
                p = poly(c0, *middle, lead)
                fac = factor_cyclotomic(p)
                assert all(e > 0 for e in fac.factors.values()), p
                assert fac.is_cyclotomic or fac.factors == {}, p
                assert fac.reconstruct() == p, p

    @pytest.mark.parametrize(
        "p",
        [
            poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),  # Lehmer's polynomial
            poly(1, -3, 1),
            cyclotomic(7) * poly(1, -3, 1),
            poly(3),
        ],
        ids=["lehmer", "t2-3t+1", "phi7-cofactor", "constant-3"],
    )
    def test_non_cyclotomic_is_all_or_nothing(self, p):
        fac = factor_cyclotomic(p)
        assert not fac.is_cyclotomic
        assert fac.factors == {}
        assert fac.reconstruct() == p


LEHMER = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def peel_calls(p):
    """factor_cyclotomic(p) and the (list length, m) of every stride step its
    peel takes."""
    calls = []
    step = exactalg.divide_by_binomial

    def spy(s, m, a):
        calls.append((len(s), m))
        step(s, m, a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactalg, "divide_by_binomial", spy)
        return factor_cyclotomic(p), calls


# products of Phi_n up to n = 210; the second branch puts a multiple of 6 on
# top, whose index passes 2 deg p unless a small factor raises the degree
cyclotomic_products = st.one_of(
    st.dictionaries(st.integers(1, 210), st.integers(1, 2), max_size=3),
    st.builds(
        lambda k, small: {**small, 6 * k: 1},
        st.integers(1, 35),
        st.dictionaries(st.integers(1, 2), st.integers(1, 2), max_size=1),
    ),
)


class TestShortPeel:
    @given(
        cyclotomic_products,
        st.sampled_from((1, -1)),
        st.one_of(st.none(), st.tuples(st.integers(0, 400), st.sampled_from((-1, 1)))),
    )
    @example({30: 1}, 1, None)
    @example({210: 1}, -1, None)
    @example({66: 1, 1: 2}, 1, (5, 1))
    @example({30: 1}, 1, (8, -1))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_full_peel(self, factors, unit, perturbation):
        p = dense_product(CyclotomicFactorization(factors, unit, P.one()))
        if perturbation:
            i, delta = perturbation
            c = list(p.coefficients)
            c[i % len(c)] += delta
            p = P(c)
        assume(not p.is_zero())
        assert factor_cyclotomic(p) == full_peel_factor_cyclotomic(p)

    @pytest.mark.parametrize(
        "factors, unit",
        [({7: 1, 1: 1}, 1), ({7: 1}, -1)],
        ids=["phi7-phi1", "phi7"],
    )
    def test_closes_at_twice_the_degree(self, factors, unit):
        expected = CyclotomicFactorization(factors, unit, P.one())
        p = dense_product(expected)
        fac, calls = peel_calls(p)
        assert fac == expected
        assert {length for length, _ in calls} == {2 * p.degree + 1}

    @pytest.mark.parametrize("n", [30, 210])
    def test_needs_the_index_bound(self, n):
        # Phi_30 has degree 8 and Phi_210 degree 48: the short peel does not
        # reach the index, the second one runs to N + 1 = n + 1 coefficients
        p = cyclotomic(n)
        fac, calls = peel_calls(p)
        assert fac == CyclotomicFactorization({n: 1}, 1, P.one())
        assert cyclotomic_index_bound(p.degree) == n
        assert sorted({length for length, _ in calls}) == [2 * p.degree + 1, n + 1]

    @pytest.mark.parametrize(
        "p, steps",
        [(poly(1, -3, 1), [1]), (cyclotomic(7) * poly(1, -3, 1), [1, 2, 3])],
        ids=["t2-3t+1", "phi7-cofactor"],
    )
    def test_budget_break_at_the_short_length_is_final(self, p, steps):
        # the budget breaks at m = 2 and m = 4: no stride step past them, and
        # no second peel
        fac, calls = peel_calls(p)
        assert fac == CyclotomicFactorization({}, 1, p)
        assert calls == [(2 * p.degree + 1, m) for m in steps]

    def test_budget_breaks_only_at_the_index_bound(self):
        # Lehmer's polynomial (degree 10) peels to m = 20 within the budget
        # and does not close; the peel to N = 30 breaks it at m = 26
        fac, calls = peel_calls(LEHMER)
        assert fac == CyclotomicFactorization({}, 1, LEHMER)
        assert cyclotomic_index_bound(10) == 30
        short = [m for length, m in calls if length == 21]
        full = [m for length, m in calls if length == 31]
        assert len(short) + len(full) == len(calls)
        assert max(short) == 20 and max(full) == 25

    @given(st.dictionaries(st.integers(1, 60), st.integers(1, 2), min_size=1, max_size=4), st.sampled_from((1, -1)))
    @example({7: 1}, 1)
    @example({2: 1, 3: 1, 4: 1, 6: 1, 12: 1}, 1)
    @settings(max_examples=60, deadline=None)
    def test_cost_within_twice_the_degree(self, factors, unit):
        # a product whose every index is at most 2 deg p is peeled on lists
        # of 2 deg p + 1 coefficients only, never up to the index bound
        expected = CyclotomicFactorization(factors, unit, P.one())
        p = dense_product(expected)
        assume(max(factors) <= 2 * p.degree)
        fac, calls = peel_calls(p)
        assert fac == expected
        assert max(length for length, _ in calls) <= 2 * p.degree + 1


def dense_product(fac):
    """unit * prod power(Phi_n, e_n) * remainder, multiplied out densely."""
    p = poly(fac.unit)
    for n, e in fac.factors.items():
        p = p * power(cyclotomic(n), e)
    return p * fac.remainder


# indices 1-60, with the square-ful 4, 8, 9, 12 and 18 drawn often
factor_maps = st.dictionaries(
    st.one_of(st.sampled_from((4, 8, 9, 12, 18)), st.integers(1, 60)), st.integers(1, 3), max_size=4
)
remainders = st.one_of(
    st.just(P.one()),
    st.sampled_from((poly(-2, 0, 1), poly(1, -3, 1), poly(3))),
    small_polys.filter(bool),
)


class TestReconstruct:
    @given(factor_maps, st.sampled_from((1, -1)), remainders)
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_product(self, factors, unit, remainder):
        fac = CyclotomicFactorization(factors, unit, remainder)
        assert fac.reconstruct() == dense_product(fac)

    @given(factor_maps, st.sampled_from((1, -1)))
    @settings(max_examples=60, deadline=None)
    def test_factor_inverts_reconstruct(self, factors, unit):
        fac = CyclotomicFactorization(factors, unit, P.one())
        assert factor_cyclotomic(fac.reconstruct()) == fac

    def test_milnor_orlik_oracles_of_all_rows(self):
        for row in load_rows():
            f = parse_polynomial(row.f, VARIABLES)
            for g in (f, transpose(f)):
                oracle = milnor_orlik(reduce(canonical_weights(g)))
                assert oracle.reconstruct() == dense_product(oracle), row.name


class TestCyclotomicIndexBound:
    def test_against_brute_force(self):
        # phi(n) >= sqrt(n/2), so every n with phi(n) <= 60 is at most 2*60^2
        phi = [euler_totient(n) for n in range(1, 2 * 60 * 60 + 1)]
        for degree in range(1, 61):
            expected = max(n for n, f in enumerate(phi, 1) if f <= degree)
            assert cyclotomic_index_bound(degree) == expected, degree

    @pytest.mark.parametrize(
        "degree, bound", [(0, 0), (22, 66), (100, 420), (343, 1470), (512, 2310)]
    )
    def test_anchors(self, degree, bound):
        assert cyclotomic_index_bound(degree) == bound


class TestCyclotomicExponents:
    def test_binomials(self):
        # 1 - t^6 = -Phi_1 Phi_2 Phi_3 Phi_6; (1 - t^2)/(1 - t) = 1 + t = Phi_2
        assert cyclotomic_exponents([(6, 1)]) == {1: 1, 2: 1, 3: 1, 6: 1}
        assert cyclotomic_exponents([(2, 1), (1, -1)]) == {2: 1}
        assert cyclotomic_exponents([(3, 1), (3, -1)]) == {}
        # a square's root is one divisor, counted once: 36 has nine divisors
        assert cyclotomic_exponents([(36, 1), (4, -1)]) == {3: 1, 6: 1, 9: 1, 12: 1, 18: 1, 36: 1}

    @given(st.lists(st.tuples(st.integers(1, 400), st.integers(-3, 3)), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_every_divisor_once(self, pairs):
        # e_n is the sum of a over the m divisible by n, by n
        expected = {n: sum(a for m, a in pairs if m % n == 0) for n in range(1, 401)}
        assert cyclotomic_exponents(pairs) == {n: e for n, e in expected.items() if e}


class TestDivideByBinomial:
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=12), st.integers(1, 14), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_against_polynomial_product(self, coeffs, m, a):
        # the result s satisfies s * (1 - t^m)^a = coeffs mod t^n for a > 0,
        # and s = coeffs * (1 - t^m)^(-a) mod t^n otherwise
        n = len(coeffs)
        s = list(coeffs)
        divide_by_binomial(s, m, a)
        source, target = (s, coeffs) if a > 0 else (coeffs, s)
        product = (P(source) * power(one_minus_t(m), abs(a))).coefficients
        assert (list(product) + [0] * n)[:n] == target

    def test_inverse_steps(self):
        s = [3, -1, 4, 1, -5, 9, 2, 6]
        divide_by_binomial(s, 3, 2)
        divide_by_binomial(s, 3, -2)
        assert s == [3, -1, 4, 1, -5, 9, 2, 6]


class TestSquareRootSpectrum:
    def test_fourth_roots(self):
        assert square_root_spectrum({4: 1}) == {2: 2}

    def test_odd_fixed(self):
        assert square_root_spectrum({3: 1}) == {3: 1}

    def test_66(self):
        assert square_root_spectrum({66: 1}) == {33: 1}

    def test_degree_preserved(self):
        factors = {4: 2, 6: 1, 7: 3}
        squared = square_root_spectrum(factors)
        assert sum(euler_totient(n) * e for n, e in squared.items()) == sum(
            euler_totient(n) * e for n, e in factors.items()
        )


class TestMatrices:
    def test_det_exponent_matrix(self):
        assert det_bareiss(IntMatrix([[6, 1, 0], [0, 3, 0], [0, 0, 2]])) == 36

    def test_det_identity(self):
        assert det_bareiss(identity(5)) == 1

    def test_det_cartan_block(self):
        assert det_bareiss(IntMatrix([[-2, 1], [1, -2]])) == 3

    def test_charpoly_rotation(self):
        assert char_poly(IntMatrix([[0, -1], [1, -1]])) == poly(1, 1, 1)

    def test_charpoly_identity(self):
        assert char_poly(identity(3)) == power(poly(-1, 1), 3)

    def test_entries_must_be_int(self):
        # stored as given: a float or bool entry is an error, not truncated
        assert IntMatrix([[0, 1], [1, 2]]).entries == ((0, 1), (1, 2))
        for bad in ([[0.5, 1], [1, 2.9]], [[1, 0], [0, True]], [["1", 0], [0, 1]]):
            with pytest.raises(TypeError):
                IntMatrix(bad)

    def test_charpoly_diagonal(self):
        assert char_poly(IntMatrix([[2, 0], [0, 3]])) == poly(6, -5, 1)

    matrices = st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_cayley_hamilton(self, rows):
        m = IntMatrix(rows)
        p = char_poly(m)
        n = m.dim
        acc = IntMatrix([[0] * n for _ in range(n)])
        power = identity(n)
        for c in p.coefficients:
            if c:
                acc = IntMatrix(
                    [
                        [acc[i, j] + c * power[i, j] for j in range(n)]
                        for i in range(n)
                    ]
                )
            power = matmul(power, m)
        assert acc == IntMatrix([[0] * n for _ in range(n)])

    def test_annihilates_reads_across_slots(self):
        # M = [[0, 1], [B^2, 0]] has M - B I = [[-B, 1], [B^2, -B]] != 0, whose
        # rows packed b bits per slot (B = 2^b) read as 0: any fixed width
        # up to 64 bits would call t - B an annihilator
        for b in range(1, 65):
            m = IntMatrix([[0, 1], [4**b, 0]])
            assert not annihilates(poly(-(2**b), 1), m)
            assert annihilates(poly(-(4**b), 0, 1), m)

    def test_annihilates_sizes_slots_by_the_full_degree(self):
        # p = t gives p(M) = M, whose entry -4 reaches rho^deg = 5 but not
        # rho^(deg - 1) = 1: a slot sized for the latter packs the row
        # [-4, 1] as -4 + (1 << 2) = 0 and calls M its own annihilator
        m = IntMatrix([[-4, 1], [0, 0]])
        assert m.row_sum_bound == 5
        assert not annihilates(poly(0, 1), m)
        assert annihilates(poly(0, 0, 1), IntMatrix([[0, 1], [0, 0]]))

    def test_charpoly_reads_entries_at_the_slot_edge(self):
        # rho^n bounds every entry of the powers M^k that char_poly packs, and
        # these powers reach it: diag(-rho, rho)^2 has rho^2 twice, [[-rho]]
        # is -rho, and [[0, rho], [rho, 0]] and diag(-rho, -rho, rho) reach
        # +-rho^n on their last power; a slot one bit narrower, or sized for
        # rho^(n-1), misreads them
        for rho in range(1, 65):
            for rows in (
                [[-rho, 0], [0, rho]],
                [[-rho]],
                [[0, rho], [rho, 0]],
                [[-rho, 0, 0], [0, -rho, 0], [0, 0, rho]],
            ):
                m = IntMatrix(rows)
                assert char_poly(m) == dense_char_poly(m), rows

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_det_equals_charpoly_constant(self, rows):
        m = IntMatrix(rows)
        p = char_poly(m)
        constant = p.coefficients[0] if p.coefficients else 0
        assert det_bareiss(m) == (-1) ** m.dim * constant


# each value type: a value, built afresh on every call, an equal value built
# another way (None: equality is identity), and the tuple of its entries
VALUE_TYPES = {
    "IntPolynomial": (lambda: P((1, 2, 0)), lambda: P([1, 2]), (1, 2)),
    "IntMatrix": (lambda: IntMatrix([[1, 2], [3, 4]]), lambda: IntMatrix(((1, 2), (3, 4))), ((1, 2), (3, 4))),
    "InvertiblePolynomial": (
        lambda: parse_polynomial("x^2 + y^3", "xy"),
        lambda: InvertiblePolynomial(IntMatrix([[2, 0], [0, 3]]), ["x", "y"]),
        (IntMatrix([[2, 0], [0, 3]]), ("x", "y")),
    ),
    "SparsePoly-uv": (
        lambda: SparsePoly([((0, 0), 1), ((0, 1), 1)]),
        lambda: SparsePoly([((0, 1), 1), ((0, 0), 1), ((2, 2), 0)]),
        (((0, 0), 1), ((0, 1), 1)),
    ),
    "SparsePoly-XYZ": (
        lambda: SparsePoly([((0, 0, 2), 1), ((0, 2, 0), 1)]),
        lambda: SparsePoly([((0, 2, 0), 1), ((0, 0, 2), 2), ((0, 0, 2), -1)]),
        (((0, 0, 2), 1), ((0, 2, 0), 1)),
    ),
    "GeneratorList": (
        lambda: GeneratorList(((Sheaf("OX"), class_of(Sheaf("OX"))),)),
        None,
        ((Sheaf("OX"), MukaiClass(1, (), 1)),),
    ),
}


@pytest.mark.parametrize("make, make_equal, entries", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_type_semantics(make, make_equal, entries):
    # equal by value where the type defines it (by identity otherwise), never
    # equal to a tuple of the same entries, hashing agrees with equality, and
    # every field is read-only
    a = make()
    b = a if make_equal is None else make_equal()
    assert a == b and not a != b
    if make_equal is None:
        assert make() != a
    assert a != entries and entries != a and a != tuple(entries)
    if type(a).__hash__ is not None:
        assert hash(a) == hash(b)
    for field in type(a).__annotations__:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == getattr(b, field)
    assert not hasattr(a, "__dict__")


def test_times_packed_multiplies_rows_past_zero_entries():
    m = IntMatrix([[0, 2], [3, 0]])
    assert m.times_packed([1, 10]) == [20, 3]
    assert m.times_packed([5, 7]) == [14, 15]
