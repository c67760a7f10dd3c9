"""Symbolic local model for resolving a cyclic quotient singularity of type
(k, k-1) and the curve-attachment rules it implies.

C^2/Z_k with the action (x, y) -> (zeta*x, zeta^(-1)*y) embeds in C^3 as the
hypersurface XY = Z^k via (X, Y, Z) = (x^k, y^k, x*y).  The resolution is
covered by k charts with coordinates (u_i, v_i); chart i maps to (X, Y, Z) =
(u^i v^(i-1), u^(k-i) v^(k+1-i), u*v), and the exceptional components are
E_i = {u_i = 0} = {v_(i+1) = 0}, forming an A_(k-1) chain.

Curves in X, Y, Z and their chart images in u, v are one type, SparsePoly.
Chart i sends X^a Y^b Z^c to u^(i*d + c') v^((i-1)*d + c') with d = a - b,
c' = k*b + c and the same integer coefficient, so every chart kills XY = Z^k
and is read off the curve's lines (d, c').  bh lemma prints the component
and branch count derived here.
"""
from __future__ import annotations

from .exactalg import Frozen, monomial, signed_sum


class SparsePoly(Frozen):
    """Sparse polynomial with integer coefficients: ``terms`` is the sorted
    tuple of (exponent tuple, nonzero coefficient) pairs.  Two exponents are
    the chart coordinates u, v (negative ones allowed), three the invariant
    coordinates X, Y, Z.  The constructor takes (exponents, coefficient)
    pairs, sums the coefficients of equal exponents, drops zeros and raises
    TypeError for a coefficient that is not an int."""

    __slots__ = ("terms",)
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, terms):
        cleaned: dict[tuple[int, ...], int] = {}
        for key, coeff in terms:
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} of {key} is not an int")
            key = tuple(key)
            cleaned[key] = cleaned.get(key, 0) + coeff
        object.__setattr__(self, "terms", tuple(sorted((k, c) for k, c in cleaned.items() if c)))

    def __eq__(self, other):
        return type(other) is SparsePoly and other.terms == self.terms

    def on_line(self, axis: int) -> dict[int, int]:
        """Restriction of a u, v polynomial to {u = 0} (axis 0) or {v = 0}
        (axis 1), as a map from the other exponent to its coefficient."""
        return {key[1 - axis]: c for key, c in self.terms if key[axis] == 0}

    def __str__(self) -> str:
        return signed_sum((monomial("uv" if len(exps) == 2 else "XYZ", exps), c) for exps, c in self.terms)


def _lines(curve: SparsePoly, k: int) -> dict[tuple[int, int], int]:
    """The curve's terms summed on their lines (d, c') = (a - b, k*b + c),
    without the lines that cancel.  Chart i puts each line at its own point
    (i*d + c', (i-1)*d + c'), so terms collide in a chart iff on one line."""
    lines: dict[tuple[int, int], int] = {}
    for (a, b, c), coeff in curve.terms:
        lines[a - b, k * b + c] = lines.get((a - b, k * b + c), 0) + coeff
    return {line: coeff for line, coeff in lines.items() if coeff}


# ---------------------------------------------------------------------------
# curves in the quotient and their proper transforms
# ---------------------------------------------------------------------------

def invariant_image(m: int, k: int) -> SparsePoly:
    """Image of the curve x^m + y^(k-m) = 0 in invariant coordinates: Z^m + Y."""
    if not 0 < m < k:
        raise ValueError(f"need 0 < m < k, got m={m}, k={k}")
    return SparsePoly([((0, 0, m), 1), ((0, 1, 0), 1)])


def invariant_image_double(k: int) -> SparsePoly:
    """Image of the doubled curve x^2 + y^(2k-2) = 0: Z^2 + Y^2."""
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    return SparsePoly([((0, 0, 2), 1), ((0, 2, 0), 1)])


def proper_transform(curve: SparsePoly, i: int, k: int):
    """Factor the image of the curve in chart i as monomial * unit.

    Returns ((p, q), unit) with the curve image equal to u^p v^q * unit and
    unit not vanishing at the chart origin.  Raises ValueError when the
    image is zero or when every candidate unit vanishes at the origin (the
    curve is then not one of the supported shapes).
    """
    if not 1 <= i <= k:
        raise ValueError(f"chart index {i} outside 1..{k}")
    image = [((i * d + c, (i - 1) * d + c), coeff) for (d, c), coeff in _lines(curve, k).items()]
    if not image:
        raise ValueError("curve image is zero in this chart")
    p = min(eu for (eu, ev), _ in image)
    q = min(ev for (eu, ev), _ in image)
    unit = SparsePoly(((eu - p, ev - q), c) for (eu, ev), c in image)
    # every exponent is now >= 0, so a constant term sorts first
    if unit.terms[0][0] != (0, 0):
        raise ValueError("unit factor vanishes at the chart origin")
    return (p, q), unit


def attachment_double(k: int):
    """The doubled curve meets E_(k-1) in two transversal branches."""
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    return k - 1, 2


def exceptional_components_met(curve: SparsePoly, k: int) -> list[int]:
    """Indices i of the exceptional components E_i whose generic point lies on
    the proper transform of the curve.

    E_i is {u_i = 0} in chart i and {v_(i+1) = 0} in chart i+1.  Chart i puts
    the line (d, c') at (i*d + c', (i-1)*d + c'); with p, q the least
    exponents, the unit is nonzero at the origin iff a line sits at (p, q),
    and non-constant on {u = 0} iff another line has u-exponent p.  Once
    every chart passes that origin check, the transform misses the one point
    of E_i outside chart i (chart i+1's origin), so E_i is read on chart i
    alone: it is met iff two u-exponents, as lines in i, tie at their
    minimum.  Z^m + Y has the lines (0, m) and (-1, k), whose u-exponents m
    and k - i tie only at i = k - m: it meets exactly E_(k-m), whatever
    gcd(m, k).  Z^2 + Y^2 has (0, 2) and (-2, 2k), tied at i = k - 1.
    """
    if k < 2:
        return []
    lines = _lines(curve, k)
    if not lines:
        raise ValueError("curve image is zero in this chart")
    met = []
    for i in range(1, k + 1):
        points = [(i * d + c, (i - 1) * d + c) for d, c in lines]
        p, q = min(u for u, _ in points), min(v for _, v in points)
        if (p, q) not in points:
            raise ValueError("unit factor vanishes at the chart origin")
        if i < k and any(u == p and v != q for u, v in points):
            met.append(i)
    return met


def branch_count_at_attachment(curve: SparsePoly, k: int, component: int) -> int:
    """Number of distinct transversal branch points on E_(component): the
    roots of the unit factor restricted to that line, c_0 + c_1 v^e.

    Two lines (d_1, c'_1), (d_2, c'_2) tied at the least u-exponent in chart
    i sit at v-exponents that differ by |d_1 - d_2| = e, and c_0 is the
    constant term the origin check guarantees, so a two-term curve restricts
    to that binomial, with e distinct nonzero roots, on the component it
    meets and to c_0 alone, with none, on every other.  Raises ValueError,
    naming the term count, when the restriction has three or more terms.
    """
    _, unit = proper_transform(curve, component, k)
    on_line = unit.on_line(0)
    if len(on_line) > 2:
        raise ValueError(f"the unit restricts to E_{component} in {len(on_line)} terms, not a binomial")
    return max(on_line)
