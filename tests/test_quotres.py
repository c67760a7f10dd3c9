import pytest
from hypothesis import example, given, settings, strategies as st

from bhdual.quotres import (
    SparsePoly,
    attachment_double,
    branch_count_at_attachment,
    exceptional_components_met,
    invariant_image,
    invariant_image_double,
    proper_transform,
)
from conftest import chart, chart_image, components_met_by_chart, proper_transform_by_chart


def transition_image(i, k):
    """Chart-(i+1) exponent map composed with the gluing map
    (u_i, v_i) -> (1/v_i, u_i v_i^2), which sends u^a v^b to u^b v^(2b-a);
    as exponent pairs in (u_i, v_i).  There is no chart above the last one."""
    return tuple((b, 2 * b - a) for a, b in chart(i + 1, k))


def laurent(terms):
    """A u, v polynomial from a dict of exponent pair -> coefficient."""
    return SparsePoly(terms.items())


class TestInvariantImage:
    def test_generic(self):
        assert str(invariant_image(3, 5)) == "Z^3 + Y"

    def test_smallest(self):
        assert str(invariant_image(1, 2)) == "Z + Y"

    def test_double(self):
        assert str(invariant_image_double(7)) == "Z^2 + Y^2"

    def test_range_errors(self):
        with pytest.raises(ValueError, match="^need 0 < m < k, got m=5, k=5$"):
            invariant_image(5, 5)
        with pytest.raises(ValueError, match="^need 0 < m < k, got m=0, k=5$"):
            invariant_image(0, 5)
        with pytest.raises(ValueError, match="^need k >= 2, got k=1$"):
            invariant_image_double(1)


class TestProperTransform:
    def test_lemma_shape_in_its_chart(self):
        (p, q), unit = proper_transform(invariant_image(3, 5), 2, 5)
        assert (p, q) == (3, 3)
        assert unit == laurent({(0, 0): 1, (0, 1): 1})  # 1 + v

    def test_double_shape(self):
        k = 8
        (p, q), unit = proper_transform(invariant_image_double(k), k - 1, k)
        assert (p, q) == (2, 2)
        assert unit == laurent({(0, 0): 1, (0, 2): 1})  # 1 + v^2

    def test_smallest_case(self):
        (p, q), unit = proper_transform(invariant_image(1, 2), 1, 2)
        assert (p, q) == (1, 1)
        assert unit == laurent({(0, 0): 1, (0, 1): 1})

    def test_unfactorable(self):
        with pytest.raises(ValueError, match="^curve image is zero in this chart$"):
            proper_transform(SparsePoly([]), 1, 3)


class TestAttachmentIndices:
    def test_worked_values(self):
        assert exceptional_components_met(invariant_image(3, 5), 5) == [2]
        assert exceptional_components_met(invariant_image(2, 7), 7) == [5]

    def test_outermost(self):
        for k in range(2, 13):
            assert exceptional_components_met(invariant_image(k - 1, k), k) == [1]

    def test_double(self):
        assert attachment_double(8) == (7, 2)
        assert attachment_double(2) == (1, 2)
        assert attachment_double(5) == (4, 2)

    def test_range(self):
        with pytest.raises(ValueError, match="^need 0 < m < k, got m=7, k=7$"):
            invariant_image(7, 7)
        with pytest.raises(ValueError, match="^need k >= 2, got k=1$"):
            attachment_double(1)


class TestLemmaSweep:
    def test_single_attachment_for_all_small_orders(self):
        for k in range(2, 41):
            for m in range(1, k):
                curve = invariant_image(m, k)
                for i in range(1, k + 1):
                    _, unit = proper_transform(curve, i, k)
                    assert dict(unit.terms).get((0, 0), 0) != 0
                assert exceptional_components_met(curve, k) == [k - m], (m, k)

    def test_double_attachment_and_branches(self):
        for k in range(2, 41):
            curve = invariant_image_double(k)
            assert exceptional_components_met(curve, k) == [k - 1], k
            component, branches = attachment_double(k)
            assert branch_count_at_attachment(curve, k, component) == branches == 2


class TestClosedForm:
    # the lines of Z^m + Y cross in charts k - m and k - m + 1, those of
    # Z^2 + Y^2 in charts k - 1 and k (exceptional_components_met's docstring)
    def test_lemma_meets_e_k_minus_m(self):
        for k in range(2, 61):
            for m in range(1, k):
                assert exceptional_components_met(invariant_image(m, k), k) == [k - m], (m, k)

    def test_double_meets_e_k_minus_1(self):
        for k in range(2, 61):
            assert exceptional_components_met(invariant_image_double(k), k) == [k - 1], k


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def curves_on_lines(draw):
    """(curve, k) with k in 0..30 and up to five terms, coefficients in
    -3..3.  A term is fresh or a copy of an earlier one moved along
    XY = Z^k, X^a Y^b Z^c -> X^(a+t) Y^(b+t) Z^(c-kt), so the two share a
    line; the copy may carry the negated coefficient, cancelling the line."""
    k = draw(st.integers(0, 30))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        if terms and draw(st.booleans()):
            (a, b, c), coeff = draw(st.sampled_from(terms))
            t = draw(st.integers(-min(a, b), c // k if k else 3))
            exps = (a + t, b + t, c - k * t)
            coeff = draw(st.sampled_from([-coeff, draw(st.integers(-3, 3))]))
        else:
            exps = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 * k + 2)))
            coeff = draw(st.integers(-3, 3))
        terms.append((exps, coeff))
    return SparsePoly(terms), k


class TestLinesMatchCharts:
    @given(curves_on_lines())
    @settings(max_examples=300)
    @example((SparsePoly([((1, 1, 0), 1), ((0, 0, 5), -1)]), 5))  # XY - Z^k: zero
    @example((SparsePoly([((2, 0, 0), 1), ((0, 0, 1), 1)]), 4))  # X^2 + Z: no unit
    def test_same_outcome_as_the_chart_route(self, curve_k):
        # the components met, every chart's factorization (out of range
        # charts 0 and k + 1 included), and the ValueError texts; the two
        # examples raise each text from exceptional_components_met
        curve, k = curve_k
        assert outcome(exceptional_components_met, curve, k) == outcome(components_met_by_chart, curve, k)
        for i in range(k + 2):
            assert outcome(proper_transform, curve, i, k) == outcome(proper_transform_by_chart, curve, i, k)


class TestChartTransitions:
    def test_consistency(self):
        # the next chart's exponent map composed with the gluing map must
        # reproduce this chart's exponent map, as Laurent identities
        for k in range(2, 13):
            for i in range(1, k):
                assert transition_image(i, k) == chart(i, k), (i, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"^chart index 6 outside 1\.\.5$"):
            transition_image(5, 5)
        with pytest.raises(ValueError, match=r"^chart index 0 outside 1\.\.4$"):
            chart(0, 4)


class TestRepeatedRoots:
    # (Z+Y)^2 and (Z^2-Y^2)^2: the restriction to E_(k-1) has a double root
    SQUARE = SparsePoly([((0, 0, 2), 1), ((0, 1, 1), 2), ((0, 2, 0), 1)])
    SQUARED_DIFFERENCE = SparsePoly([((0, 0, 4), 1), ((0, 2, 2), -2), ((0, 4, 0), 1)])

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_square(self, k):
        assert exceptional_components_met(self.SQUARE, k) == [k - 1]
        assert branch_count_at_attachment(self.SQUARE, k, k - 1) == 1

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_squared_difference(self, k):
        assert exceptional_components_met(self.SQUARED_DIFFERENCE, k) == [k - 1]
        assert branch_count_at_attachment(self.SQUARED_DIFFERENCE, k, k - 1) == 2


def evaluate(terms, *point):
    total = 0
    for exps, coeff in terms:
        for x, e in zip(point, exps):
            coeff *= x ** e
        total += coeff
    return total


xyz_polys = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 6)] * 3), st.integers(-3, 3)), max_size=4
).map(SparsePoly)
nonzero = st.integers(-4, 4).filter(bool)


class TestEvaluationOracle:
    @given(xyz_polys, st.data(), nonzero, nonzero)
    @settings(max_examples=200)
    def test_substitution_and_factorization(self, curve, data, u, v):
        k = data.draw(st.integers(2, 30))
        i = data.draw(st.integers(1, k))
        xyz = (u ** i * v ** (i - 1), u ** (k - i) * v ** (k + 1 - i), u * v)
        image = chart_image(curve, i, k)
        assert evaluate(image.terms, u, v) == evaluate(curve.terms, *xyz)
        try:
            (p, q), unit = proper_transform(curve, i, k)
        except ValueError as exc:
            assert str(exc) in ("curve image is zero in this chart", "unit factor vanishes at the chart origin")
            return
        assert dict(unit.terms).get((0, 0), 0) != 0
        assert u ** p * v ** q * evaluate(unit.terms, u, v) == evaluate(image.terms, u, v)


class TestLaurentPoly:
    """SparsePoly in the chart coordinates u, v, where exponents may be negative."""

    def test_constructor_sums_and_drops_zeros(self):
        poly = SparsePoly([((1, 0), 2), ((1, 0), -2), ((0, 3), 1), ((0, 3), 4)])
        assert poly == laurent({(0, 3): 5})
        assert SparsePoly([((0, 0), 1), ((0, 0), -1)]).terms == ()

    def test_negative_exponents_allowed(self):
        poly = laurent({(-1, 0): 1, (0, -2): 3})
        assert poly.on_line(1) == {-1: 1}
        assert poly.on_line(0) == {-2: 3}
        assert str(poly) == "u^-1 + 3*v^-2"

    def test_coefficients_are_not_truncated(self):
        # a float is rejected, not rounded to an int
        with pytest.raises(TypeError, match=r"^coefficient 0\.5 of \(0, 0\) is not an int$"):
            laurent({(0, 0): 0.5})

    def test_str(self):
        assert str(laurent({(0, 0): 1, (0, 1): 1})) == "1 + v"
        assert str(laurent({(2, 3): 1})) == "u^2*v^3"
        assert str(laurent({(0, 0): -2, (1, 0): -1, (1, 1): 4})) == "-2 - u + 4*u*v"


class TestXYZPoly:
    """SparsePoly in the invariant coordinates X, Y, Z."""

    def test_constructor_sums_and_drops_zeros(self):
        curve = SparsePoly([((0, 0, 1), 2), ((0, 0, 1), 3), ((0, 1, 0), 1), ((0, 1, 0), -1)])
        assert curve == SparsePoly([((0, 0, 1), 5)])
        assert SparsePoly([((1, 0, 0), 1), ((1, 0, 0), -1)]).terms == ()
        assert str(curve) == "5*Z"

    @pytest.mark.parametrize("coeff", [0.5, 1.0, "1"])
    def test_non_integer_coefficient_rejected(self, coeff):
        with pytest.raises(TypeError):
            SparsePoly([((0, 0, 1), coeff), ((0, 1, 0), 1)])
