import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bhdual.exactalg import IntMatrix
from bhdual.fixtures import VARIABLES, load_rows
from bhdual.polyparse import (
    InvertiblePolynomial,
    ParseError,
    infer_variables,
    parse_polynomial,
    render,
    transpose,
)
from conftest import kreuzer_skarke_matrices, render_text

XYZ = ("x", "y", "z")


def same_polynomial(f, g):
    """Equality up to monomial order (variables must match)."""
    return f.variables == g.variables and sorted(f.matrix.entries) == sorted(g.matrix.entries)


class TestParse:
    def test_three_variable_example(self):
        f = parse_polynomial("x^6*y + y^3 + z^2", XYZ)
        assert f.matrix.entries == ((6, 1, 0), (0, 3, 0), (0, 0, 2))

    def test_one_variable_fermat(self):
        f = parse_polynomial("x^2", ("x",))
        assert f.matrix.entries == ((2,),)

    def test_monomial_count_mismatch(self):
        with pytest.raises(ValueError, match="^3 monomials for 2 variables$"):
            parse_polynomial("x^2 + x*y + y^2", ("x", "y"))

    def test_star_optional(self):
        assert parse_polynomial("x^6y + y^3 + z^2", XYZ) == parse_polynomial(
            "x^6*y + y^3 + z^2", XYZ
        )

    def test_whitespace_optional(self):
        assert parse_polynomial("x^6*y+y^3+z^2", XYZ) == parse_polynomial(
            " x^6 * y  +  y^3 + z^2 ", XYZ
        )

    def test_leading_one_accepted(self):
        assert parse_polynomial("1*x^2", ("x",)).matrix.entries == ((2,),)

    def test_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("2*x^2", ("x",))

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match=r"^unknown variable 'w' \(at position 6\)$") as info:
            parse_polynomial("x^2 + w^3", ("x", "y"))
        assert info.value.position == 6

    def test_duplicate_monomial(self):
        # x*y has no head exponent of at least 2; two equal monomials of the
        # right shape share their head
        with pytest.raises(ValueError, match=r"^monomial x\*y is not x\^a or x\^a\*y with a at least 2$"):
            parse_polynomial("x*y + y*x", ("x", "y"))
        with pytest.raises(ValueError, match="^x is the head of two monomials$"):
            parse_polynomial("x^2*y + y*x^2", ("x", "y"))

    def test_zero_determinant(self):
        # det E = 0, and x^2*y^2 has two exponents of 2
        with pytest.raises(ValueError, match=r"^monomial x\^2\*y\^2 is not x\^a or x\^a\*y with a at least 2$"):
            parse_polynomial("x^2*y^2 + x*y", ("x", "y"))

    def test_malformed(self):
        for text in ("", "x +", "^2", "x^", "x**y", "x*", "x^2* + y^3 + z^5"):
            with pytest.raises(ParseError):
                parse_polynomial(text, XYZ)
        with pytest.raises(ParseError, match="dangling") as info:
            parse_polynomial("x^2* + y^3 + z^5", XYZ)
        assert info.value.position == 3

    @pytest.mark.parametrize(
        "text, entries",
        [("x^9", ((9,),)), ("x^10", ((10,),)), ("x^19", ((19,),)), ("x^09", ((9,),))],
    )
    def test_every_ascii_digit_reads(self, text, entries):
        # 0 and 9 in the first and in a later digit of an exponent
        assert parse_polynomial(text, ("x",)).matrix.entries == entries

    def test_exponent_zero_drops_the_variable(self):
        assert parse_polynomial("x^2*y^0 + y^3", ("x", "y")).matrix.entries == ((2, 0), (0, 3))
        with pytest.raises(ValueError, match=r"^monomial 1 is not x\^a or x\^a\*y with a at least 2$"):
            parse_polynomial("x^0", ("x",))

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x + + y", "empty monomial", 4),
            ("+ x", "empty monomial", 0),
            ("x + y +", "trailing '\\+'", 6),
            ("", "empty polynomial", 0),
            ("   ", "empty polynomial", 0),
        ],
    )
    def test_empty_monomial_errors(self, text, message, position):
        with pytest.raises(ParseError, match=message) as info:
            parse_polynomial(text, ("x", "y"))
        assert info.value.position == position

    def test_non_ascii_digit_rejected_at_its_position(self):
        # str.isdigit accepts both characters, and int() even reads the second
        for ch in ("\u00b3", "\u0663"):
            text = f"x^2 + y^{ch} + z^5"
            with pytest.raises(ParseError, match="unexpected character") as info:
                parse_polynomial(text, XYZ)
            assert info.value.position == text.index(ch)


class TestInvertiblePolynomial:
    def test_float_exponent_rejected(self):
        # a non-int exponent is an error, not truncated to 2
        with pytest.raises(TypeError):
            InvertiblePolynomial(IntMatrix([[2.9, 0, 0], [0, 3, 0], [0, 0, 2]]), XYZ)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match=r"^monomial x\^2\*y\^-1 is not x\^a or x\^a\*y with a at least 2$"):
            InvertiblePolynomial(IntMatrix([[2, -1], [0, 3]]), ("x", "y"))

    def test_one_row_per_variable(self):
        with pytest.raises(ValueError, match="^2 monomials for 3 variables$"):
            InvertiblePolynomial(IntMatrix([[2, 0], [0, 3]]), XYZ)

    def test_no_variables_rejected(self):
        # the empty matrix has det 1, so no other check refuses it
        with pytest.raises(ValueError, match="^a polynomial needs at least one variable$"):
            InvertiblePolynomial(IntMatrix(()), ())


class TestTranspose:
    def test_chain_row(self):
        f = parse_polynomial("x^6*y + y^3 + z^2", XYZ)
        assert render(transpose(f)) == "x^6 + x*y^3 + z^2"

    def test_fermat_self_transpose(self):
        f = parse_polynomial("x^11 + y^3 + z^2", XYZ)
        assert same_polynomial(transpose(f), f)

    def test_loop_self_transpose(self):
        f = parse_polynomial("x^4*y + x*z^2 + y^2*z", XYZ)
        assert same_polynomial(transpose(f), f)

    def test_involution_on_fixtures(self):
        for row in load_rows():
            f = parse_polynomial(row.f, VARIABLES)
            assert transpose(transpose(f)) == f


class TestRender:
    def test_inverse_of_parse(self):
        f = InvertiblePolynomial(IntMatrix(((6, 1, 0), (0, 3, 0), (0, 0, 2))), XYZ)
        assert render(f) == "x^6*y + y^3 + z^2"

    def test_single(self):
        f = InvertiblePolynomial(IntMatrix(((2,),)), ("x",))
        assert render(f) == "x^2"

    def test_transposed_fixture_row(self):
        row = next(r for r in load_rows() if r.name == "Z_17")
        f = parse_polynomial(row.f_T, VARIABLES)
        assert render(transpose(f)) == "x^4*y + y^3 + x*z^2"

    def test_round_trip_on_all_fixture_strings(self):
        for row in load_rows():
            for text in (row.f, row.f_T):
                f = parse_polynomial(text, VARIABLES)
                assert parse_polynomial(render(f), VARIABLES) == f


def _column_permuted(entries, perm):
    return tuple(tuple(row[p] for p in perm) for row in entries)


class TestDualityColumns:
    def test_transpose_matches_dual_column(self):
        """transpose(f_T) equals f up to row order for every row except one,
        where a variable permutation intervenes (recorded here exactly)."""
        permuted_rows = []
        for row in load_rows():
            lhs = transpose(parse_polynomial(row.f_T, VARIABLES))
            rhs = parse_polynomial(row.f, VARIABLES)
            if same_polynomial(lhs, rhs):
                continue
            match = None
            for perm in itertools.permutations(range(3)):
                if sorted(_column_permuted(lhs.matrix.entries, perm)) == sorted(
                    rhs.matrix.entries
                ):
                    match = perm
                    break
            assert match is not None, row.name
            permuted_rows.append((row.name, match))
        assert permuted_rows == [("W_17", (0, 2, 1))]


class TestInferVariables:
    def test_alphabetical(self):
        assert infer_variables("x^4*z + x*y^3 + z^2") == ("x", "y", "z")

    def test_single(self):
        assert infer_variables("x^2") == ("x",)


@given(kreuzer_skarke_matrices())
@settings(max_examples=60)
def test_render_parse_round_trip(entries):
    variables = XYZ[: len(entries)]
    f = InvertiblePolynomial(IntMatrix(entries), variables)
    assert parse_polynomial(render(f), variables) == f


@st.composite
def named_invertible_polynomials(draw):
    """A Kreuzer-Skarke exponent matrix with n = 1..4 and entries 0..5, over
    the first n names of a shuffled w, x, y, z."""
    rows = draw(kreuzer_skarke_matrices(max_n=4, max_a=5))
    return InvertiblePolynomial(IntMatrix(rows), draw(st.permutations("wxyz"))[: len(rows)])


@given(named_invertible_polynomials())
def test_render_matches_the_reference(f):
    assert render(f) == render_text(f)


@st.composite
def decorated_texts(draw):
    """A Kreuzer-Skarke exponent matrix and a text for it with random spaces,
    optional '*', an optional leading 1 or 1*, and exponents split across
    repeated factors (x^3 as x*x^2)."""
    entries = draw(kreuzer_skarke_matrices())
    variables = XYZ[: len(entries)]
    space = st.sampled_from(["", " "])
    monomials = []
    for row in entries:
        factors = []
        for name, e in zip(variables, row):
            while e > 0:
                part = draw(st.integers(1, e))
                bare = part == 1 and draw(st.booleans())
                factors.append(name if bare else f"{name}{draw(space)}^{draw(space)}{part}")
                e -= part
        factors = draw(st.permutations(factors))
        text = draw(st.sampled_from(["", "1", "1*", "1 * "]))
        for k, factor in enumerate(factors):
            if k:
                text += draw(st.sampled_from(["", " ", "*", " * "]))
            text += factor
        monomials.append(f"{draw(space)}{text}{draw(space)}")
    return entries, "+".join(monomials)


@given(decorated_texts())
@settings(max_examples=200)
def test_parse_sums_the_factors_of_each_monomial(case):
    entries, text = case
    f = parse_polynomial(text, XYZ[: len(entries)])
    assert f.matrix.entries == entries, text
