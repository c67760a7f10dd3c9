import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bhdual.exactalg import IntMatrix
from bhdual.fixtures import VARIABLES, load_rows
from bhdual.polyparse import InvertiblePolynomial, parse_polynomial
from bhdual.weights import (
    CanonicalWeights,
    ReducedWeights,
    ambient_weights,
    beta_congruence_check,
    canonical_weights,
    compactified_monomials,
    gorenstein_parameter,
    reduce,
    validate_action,
)
from conftest import KREUZER_SKARKE


def poly(text):
    return parse_polynomial(text, VARIABLES)


class TestCanonicalWeights:
    def test_chain_type(self):
        assert canonical_weights(poly("x^6 + x*y^3 + z^2")) == CanonicalWeights((6, 10, 18), 36)

    def test_fermat(self):
        assert canonical_weights(poly("x^11 + y^3 + z^2")) == CanonicalWeights((6, 22, 33), 66)

    def test_mixed_chain(self):
        assert canonical_weights(poly("x^4*z + x*y^3 + z^2")) == CanonicalWeights((3, 7, 12), 24)

    def test_negative_determinant_uses_absolute_value(self):
        # loop-type monomial pattern with det = -20
        w = canonical_weights(poly("x^5 + x*z^2 + y^2*z"))
        assert w == CanonicalWeights((4, 6, 8), 20)

    def test_exact_resolve(self):
        for row in load_rows():
            f = poly(row.f)
            w = canonical_weights(f)
            for exponents in f.matrix.entries:
                assert sum(e * wi for e, wi in zip(exponents, w.w)) == w.d_prime

    def test_nonpositive_weights_rejected(self):
        # x*y^2 + y solves to w = (-1, 1)
        with pytest.raises(ValueError, match=re.escape("weights (-1, 1) are not all positive")):
            canonical_weights(parse_polynomial("x*y^2 + y", ("x", "y")))
        # det E = 4, and x^2 + y^2 + x*y*z solves to w = (2, 2, 0): a zero weight
        with pytest.raises(ValueError, match=re.escape("weights (2, 2, 0) are not all positive")):
            canonical_weights(parse_polynomial("x^2 + y^2 + x*y*z", ("x", "y", "z")))


class TestReduce:
    def test_common_factor_two(self):
        assert reduce(CanonicalWeights((6, 10, 18), 36)) == ReducedWeights((3, 5, 9), 18, 2)

    def test_already_reduced(self):
        assert reduce(CanonicalWeights((3, 7, 12), 24)) == ReducedWeights((3, 7, 12), 24, 1)

    def test_uniform_gcd(self):
        assert reduce(CanonicalWeights((2, 2, 2), 4)) == ReducedWeights((1, 1, 1), 2, 2)


class TestGorensteinParameter:
    def test_fermat(self):
        assert gorenstein_parameter(canonical_weights(poly("x^11 + y^3 + z^2"))) == 5

    def test_chain(self):
        w = canonical_weights(poly("x^6*y + y^3 + z^2"))
        assert w == CanonicalWeights((4, 12, 18), 36)
        assert gorenstein_parameter(w) == 2

    def test_double_chain(self):
        w = canonical_weights(poly("x^6*y + x*y^3 + z^2"))
        assert w == CanonicalWeights((4, 10, 17), 34)
        assert gorenstein_parameter(w) == 3


class TestAmbientWeights:
    def test_plain_w_power(self):
        amb = ambient_weights(ReducedWeights((3, 5, 9), 18, 2), "w^18")
        assert amb == ((1, 3, 5, 9), (18, 0, 0, 0))
        assert amb.compactifier == "w^18"

    def test_x_shape(self):
        amb = ambient_weights(ReducedWeights((6, 22, 33), 66, 1), "x*w^12")
        assert amb == ((5, 6, 22, 33), (12, 1, 0, 0))
        assert amb.compactifier == "x*w^12"

    def test_z_shape(self):
        amb = ambient_weights(ReducedWeights((3, 5, 7), 17, 1), "z*w^5")
        assert amb == ((2, 3, 5, 7), (5, 0, 0, 1))
        assert amb.compactifier == "z*w^5"

    def test_only_the_head_is_read(self):
        # the exponent of w is derived: a stored one is not read, and a head
        # that names no coordinate means the plain power of w
        assert ambient_weights(ReducedWeights((3, 5, 7), 17, 1), "z*w^99").compactifier == "z*w^5"
        assert ambient_weights(ReducedWeights((3, 5, 9), 18, 2), "w^99").compactifier == "w^18"

    def test_nonpositive_q0(self):
        with pytest.raises(ValueError, match="^q0 = 0 is not positive$"):
            ambient_weights(ReducedWeights((3, 3, 3), 9, 1), "w^9")

    def test_nonintegral_exponent(self):
        # d = 17, q0 = 2: the plain w-power would need exponent 17/2
        with pytest.raises(ValueError, match="^compactifier exponent 17/2 is not an integer$"):
            ambient_weights(ReducedWeights((3, 5, 7), 17, 1), "w^9")


class TestValidateAction:
    def test_invariant_quadruple(self):
        monomials = ((0, 6, 0, 0), (0, 1, 3, 0), (0, 0, 0, 2), (18, 0, 0, 0))
        assert validate_action(monomials, 2, (0, 1, -1, 0))

    def test_trivial_group(self):
        monomials = ((0, 6, 0, 0), (18, 0, 0, 0))
        assert validate_action(monomials, 1, (7, 7, 7, 7))
        assert validate_action(monomials, 1, None)

    def test_no_generator_for_a_nontrivial_group(self):
        # without m every character would be 0 and any F would pass
        monomials = ((0, 6, 0, 0), (18, 0, 0, 0))
        with pytest.raises(ValueError, match="^a group of order 2 needs the exponents of its generator$"):
            validate_action(monomials, 2, None)

    @pytest.mark.parametrize("m", [(0, 1, -1), (0, 1, -1, 0, 0)])
    def test_generator_of_the_wrong_length(self, m):
        # zip would drop z's exponent, or the fifth one, and the action pass
        monomials = ((0, 6, 0, 0), (0, 1, 3, 0), (0, 0, 0, 2), (18, 0, 0, 0))
        with pytest.raises(ValueError, match=f"^the generator has {len(m)} exponents, not one per coordinate of F$"):
            validate_action(monomials, 2, m)

    def test_broken_quadruple(self):
        monomials = ((0, 6, 0, 0), (0, 1, 3, 0), (0, 0, 0, 2), (18, 0, 0, 0))
        assert not validate_action(monomials, 2, (0, 1, 0, 0))

    def test_every_fixture_action(self):
        for row in load_rows():
            amb = ambient_weights(reduce(canonical_weights(poly(row.f))), row.compactifier)
            monomials = compactified_monomials(poly(row.f), amb)
            # m is stored exactly when the group is nontrivial
            assert (row.action_m is None) == (row.action_c == 1), row.name
            assert validate_action(monomials, row.action_c, row.action_m), row.name


class TestBetaCongruence:
    def test_a5_row(self):
        assert beta_congruence_check(((2, 1), (3, 2), (11, 9)), 5, 1) is True

    def test_a2_row(self):
        assert beta_congruence_check(((3, 2), (5, 3), (7, 4)), 2, 1) is True

    def test_counterexample(self):
        assert beta_congruence_check(((4, 1),), 2, 1) is False

    def test_inapplicable_for_nonreduced(self):
        assert beta_congruence_check(((2, 1), (3, 2), (10, 7)), 2, 2) is None

    @pytest.mark.parametrize("pair", [(1, 1), (3, 0), (3, 3)])
    def test_invalid_pair_raises(self, pair):
        # alpha < 2, beta = 0 and beta = alpha, each next to two valid pairs;
        # the pairs are checked before c_f decides applicability
        for c_f in (1, 2):
            with pytest.raises(ValueError, match=re.escape(f"invalid pair (alpha, beta) = {pair}")):
                beta_congruence_check(((2, 1), (3, 2), pair), 5, c_f)


class TestFixtureReproduction:
    def test_c_f_and_a_columns(self):
        for row in load_rows():
            assert reduce(canonical_weights(poly(row.f))).c_f == row.c_f, row.name
            assert gorenstein_parameter(canonical_weights(poly(row.f_T))) == row.a, row.name

    def test_ambient_and_compactifier_columns(self):
        for row in load_rows():
            amb = ambient_weights(reduce(canonical_weights(poly(row.f))), row.compactifier)
            assert amb.weights == row.ambient, row.name
            assert amb.compactifier == row.compactifier, row.name

    def test_compactifier_has_degree_d(self):
        # the monomial has degree d for every shape whose exponent is an
        # integer; the row's own compactifier is always one of them
        for row in load_rows():
            f = poly(row.f)
            rw = reduce(canonical_weights(f))
            written = []
            for shape in ("w", "x*w", "y*w", "z*w"):
                try:
                    amb = ambient_weights(rw, shape)
                except ValueError as exc:
                    assert str(exc).endswith("is not an integer"), exc
                    continue
                written.append(amb.compactifier)
                assert compactified_monomials(f, amb)[-1] == amb.monomial, (row.name, shape)
                assert sum(e * q for e, q in zip(amb.monomial, amb.weights)) == rw.d, (row.name, shape)
            assert row.compactifier in written, row.name

    def test_congruence_on_reduced_rows(self):
        for row in load_rows():
            verdict = beta_congruence_check(row.alpha_beta, row.a, row.c_f)
            if row.c_f == 1:
                assert verdict is True, row.name
            else:
                assert verdict is None, row.name

    def test_orbit_data_euler_number_integrality(self):
        """Consistency of the (alpha, beta) pairs with the weight systems on
        the reduced rows: the virtual Euler number -d/(q1*q2*q3) must differ
        from -sum((alpha-beta)/alpha) by an integer.  This pins down the two
        corrected beta entries in the fixture store."""
        for row in load_rows():
            if row.c_f != 1:
                continue
            rw = reduce(canonical_weights(poly(row.f)))
            euler = Fraction(-rw.d, rw.q[0] * rw.q[1] * rw.q[2])
            total = sum(Fraction(al - be, al) for al, be in row.alpha_beta)
            assert (-euler - total).denominator == 1, row.name


@given(
    st.sampled_from(sorted(KREUZER_SKARKE)),
    st.tuples(*[st.integers(2, 8)] * 3),
    st.sampled_from(("w", "x*w", "y*w", "z*w")),
)
@example("fermat", (2, 3, 7), "w")  # P(1, 21, 14, 6) and w^42
@example("chain", (3, 3, 2), "y*w")  # P(1, 5, 3, 9) and y*w^15
@settings(max_examples=200, deadline=None)
def test_compactifier_of_every_shape(kind, exponents, shape):
    # ambient_weights either says why no such monomial exists, or returns one
    # of degree d that its written text reads back to
    f = InvertiblePolynomial(IntMatrix(KREUZER_SKARKE[kind](*exponents)), VARIABLES)
    rw = reduce(canonical_weights(f))
    try:
        amb = ambient_weights(rw, shape)
    except ValueError as exc:
        assert re.fullmatch(r"q0 = -?\d+ is not positive|compactifier exponent \d+/\d+ is not an integer", str(exc)), exc
        return
    for row in compactified_monomials(f, amb):
        assert sum(e * q for e, q in zip(row, amb.weights)) == rw.d, row
    assert ambient_weights(rw, amb.compactifier) == amb
