"""Symbolic local model for resolving a cyclic quotient singularity of type
(k, k-1) and the curve-attachment rules it implies.

C^2/Z_k with the action (x, y) -> (zeta*x, zeta^(-1)*y) embeds in C^3 as the
hypersurface XY = Z^k via (X, Y, Z) = (x^k, y^k, x*y).  The resolution is
covered by k charts with coordinates (u_i, v_i); chart i maps to (X, Y, Z) =
(u^i v^(i-1), u^(k-i) v^(k+1-i), u*v), and the exceptional components are
E_i = {u_i = 0} = {v_(i+1) = 0}, forming an A_(k-1) chain.

Curves in X, Y, Z and their chart images in u, v are one type, SparsePoly.
A chart is only its exponent map, chart(i, k): each term X^a Y^b Z^c goes to
one monomial u^p v^q with the same coefficient, so all the algebra stays
over Z.  bh lemma prints the component and branch count derived here.
"""
from __future__ import annotations

from .exactalg import Frozen, IntPolynomial, gcd_degree


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
        if not self.terms:
            return "0"
        names = "uv" if len(self.terms[0][0]) == 2 else "XYZ"
        parts = []
        for exps, coeff in self.terms:
            body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
            if not body:
                parts.append(f"{coeff}")
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def chart(i: int, k: int) -> tuple[tuple[int, int], ...]:
    """Chart i of the resolution as its exponent map: the exponent pairs
    (exp_u, exp_v) of the monomials that X, Y and Z become."""
    if not 1 <= i <= k:
        raise ValueError(f"chart index {i} outside 1..{k}")
    return (i, i - 1), (k - i, k + 1 - i), (1, 1)


def chart_image(curve: SparsePoly, i: int, k: int) -> SparsePoly:
    """Image of the curve in chart i: each term goes to one monomial by the
    exponent map."""
    (xu, xv), (yu, yv), (zu, zv) = chart(i, k)
    return SparsePoly(
        ((ex * xu + ey * yu + ez * zu, ex * xv + ey * yv + ez * zv), coeff)
        for (ex, ey, ez), coeff in curve.terms
    )


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
    image = chart_image(curve, i, k)
    if not image.terms:
        raise ValueError("curve image is zero in this chart")
    p = min(eu for (eu, ev), _ in image.terms)
    q = min(ev for (eu, ev), _ in image.terms)
    unit = SparsePoly(((eu - p, ev - q), c) for (eu, ev), c in image.terms)
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

    E_i is {u_i = 0} in chart i and {v_(i+1) = 0} in chart i+1; the transform
    meets it iff the unit factor restricted to that line is non-constant.
    Each chart is transformed once and read on both of its lines.
    """
    if k < 2:
        return []
    met = set()
    for i in range(1, k + 1):
        _, unit = proper_transform(curve, i, k)
        if i < k and set(unit.on_line(0)) - {0}:
            met.add(i)
        if i > 1 and set(unit.on_line(1)) - {0}:
            met.add(i - 1)
    return sorted(met)


def branch_count_at_attachment(curve: SparsePoly, k: int, component: int) -> int:
    """Number of distinct transversal branch points on E_(component): the
    count of distinct roots of the unit factor p restricted to that line,
    deg p - deg gcd(p, p')."""
    _, unit = proper_transform(curve, component, k)
    on_line = unit.on_line(0)
    p = IntPolynomial(on_line.get(e, 0) for e in range(max(on_line, default=-1) + 1))
    if p.degree <= 0:
        return 0
    derivative = IntPolynomial(e * c for e, c in enumerate(p.coefficients) if e)
    return p.degree - gcd_degree(p, derivative)
