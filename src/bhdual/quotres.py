"""Symbolic local model for resolving a cyclic quotient singularity of type
(k, k-1) and the curve-attachment rules it implies.

C^2/Z_k with the action (x, y) -> (zeta*x, zeta^(-1)*y) embeds in C^3 as the
hypersurface XY = Z^k via (X, Y, Z) = (x^k, y^k, x*y).  The resolution is
covered by k charts with coordinates (u_i, v_i); chart i maps to (X, Y, Z) =
(u^i v^(i-1), u^(k-i) v^(k+1-i), u*v), and the exceptional components are
E_i = {u_i = 0} = {v_(i+1) = 0}, forming an A_(k-1) chain.

A chart is a linear map on exponent vectors (X^a Y^b Z^c goes to one monomial
u^p v^q with the same coefficient), so all the algebra stays over Z.
"""
from __future__ import annotations

from .exactalg import Frozen, IntPolynomial, gcd_degree


class LaurentPoly2(Frozen):
    """Laurent polynomial in two chart coordinates u, v with integer
    coefficients; terms maps (exp_u, exp_v) to a nonzero coefficient.  The
    constructor sums the coefficients of equal exponents and drops zeros."""

    __slots__ = ("terms",)
    terms: tuple[tuple[tuple[int, int], int], ...]

    def __init__(self, terms):
        items = terms.items() if isinstance(terms, dict) else terms
        cleaned: dict[tuple[int, int], int] = {}
        for key, coeff in items:
            key = tuple(key)
            cleaned[key] = cleaned.get(key, 0) + coeff
        object.__setattr__(self, "terms", tuple(sorted((k, c) for k, c in cleaned.items() if c)))

    def __eq__(self, other):
        return type(other) is LaurentPoly2 and other.terms == self.terms

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return dict(self.terms).get((0, 0), 0)

    def restrict_u0(self) -> dict[int, int]:
        """Coefficients of the restriction to {u = 0} as a map ev -> coeff."""
        return {ev: c for (eu, ev), c in self.terms if eu == 0}

    def restrict_v0(self) -> dict[int, int]:
        return {eu: c for (eu, ev), c in self.terms if ev == 0}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (eu, ev), coeff in self.terms:
            factors = []
            if eu:
                factors.append("u" if eu == 1 else f"u^{eu}")
            if ev:
                factors.append("v" if ev == 1 else f"v^{ev}")
            body = "*".join(factors) if factors else "1"
            if coeff == 1 and factors:
                parts.append(body)
            elif coeff == -1 and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}" if factors else f"{coeff}")
        return " + ".join(parts).replace("+ -", "- ")


class ResolutionChart(Frozen):
    """Chart i of the resolution of the type (k, k-1) singularity."""

    __slots__ = ("i", "k")
    i: int
    k: int

    def __init__(self, i: int, k: int):
        if not 1 <= i <= k:
            raise ValueError(f"chart index {i} outside 1..{k}")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "k", k)

    def substitution(self) -> dict[str, tuple[int, int]]:
        """The exponent pair (exp_u, exp_v) of the monomial each of X, Y, Z
        becomes in this chart."""
        i, k = self.i, self.k
        return {"X": (i, i - 1), "Y": (k - i, k + 1 - i), "Z": (1, 1)}


# ---------------------------------------------------------------------------
# curves in the quotient and their proper transforms
# ---------------------------------------------------------------------------

class XYZPoly(Frozen):
    """Polynomial in the invariant coordinates X, Y, Z with integer
    coefficients; terms maps (exp_X, exp_Y, exp_Z) to a nonzero coefficient.
    The constructor sums the coefficients of equal exponents, drops zeros and
    raises TypeError for a coefficient that is not an int."""

    __slots__ = ("terms",)
    terms: tuple[tuple[tuple[int, int, int], int], ...]

    def __init__(self, terms):
        items = terms.items() if isinstance(terms, dict) else terms
        cleaned: dict[tuple[int, int, int], int] = {}
        for key, coeff in items:
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} of {key} is not an int")
            key = tuple(key)
            cleaned[key] = cleaned.get(key, 0) + coeff
        object.__setattr__(self, "terms", tuple(sorted((k, c) for k, c in cleaned.items() if c)))

    def __eq__(self, other):
        return type(other) is XYZPoly and other.terms == self.terms

    def substitute(self, chart: ResolutionChart) -> LaurentPoly2:
        """Chart image: each term goes to one monomial by the exponent map."""
        sub = chart.substitution()
        (xu, xv), (yu, yv), (zu, zv) = sub["X"], sub["Y"], sub["Z"]
        return LaurentPoly2(
            ((ex * xu + ey * yu + ez * zu, ex * xv + ey * yv + ez * zv), coeff)
            for (ex, ey, ez), coeff in self.terms
        )

    def __str__(self) -> str:
        parts = []
        for (ex, ey, ez), coeff in sorted(self.terms, key=lambda t: (t[0][2], t[0][0], t[0][1]), reverse=True):
            factors = [f"{n}^{e}" if e > 1 else n for n, e in (("X", ex), ("Y", ey), ("Z", ez)) if e]
            body = "*".join(factors) if factors else "1"
            parts.append(body if coeff == 1 else f"{coeff}*{body}")
        return " + ".join(parts) if parts else "0"


def invariant_image(m: int, k: int) -> XYZPoly:
    """Image of the curve x^m + y^(k-m) = 0 in invariant coordinates: Z^m + Y."""
    if not 0 < m < k:
        raise ValueError(f"need 0 < m < k, got m={m}, k={k}")
    return XYZPoly({(0, 0, m): 1, (0, 1, 0): 1})


def invariant_image_double(k: int) -> XYZPoly:
    """Image of the doubled curve x^2 + y^(2k-2) = 0: Z^2 + Y^2."""
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    return XYZPoly({(0, 0, 2): 1, (0, 2, 0): 1})


def proper_transform(curve: XYZPoly, chart: ResolutionChart):
    """Factor the chart image of the curve as monomial * unit.

    Returns ((p, q), unit) with the curve image equal to u^p v^q * unit and
    unit not vanishing at the chart origin.  Raises ValueError when the
    image is zero or when every candidate unit vanishes at the origin (the
    curve is then not one of the supported shapes).
    """
    image = curve.substitute(chart)
    if image.is_zero():
        raise ValueError("curve image is zero in this chart")
    p = min(eu for (eu, ev), _ in image.terms)
    q = min(ev for (eu, ev), _ in image.terms)
    unit = LaurentPoly2(((eu - p, ev - q), c) for (eu, ev), c in image.terms)
    if unit.constant_term() == 0:
        raise ValueError("unit factor vanishes at the chart origin")
    return (p, q), unit


def attachment_index(m: int, k: int) -> int:
    """Exceptional component met by the transform of x^m + y^(k-m): E_(k-m)."""
    if not 0 < m < k:
        raise ValueError(f"need 0 < m < k, got m={m}, k={k}")
    return k - m


def attachment_double(k: int):
    """The doubled curve meets E_(k-1) in two transversal branches."""
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    return k - 1, 2


def exceptional_components_met(curve: XYZPoly, k: int) -> list[int]:
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
        _, unit = proper_transform(curve, ResolutionChart(i, k))
        if i < k and set(unit.restrict_u0()) - {0}:
            met.add(i)
        if i > 1 and set(unit.restrict_v0()) - {0}:
            met.add(i - 1)
    return sorted(met)


def branch_count_at_attachment(curve: XYZPoly, k: int, component: int) -> int:
    """Number of distinct transversal branch points on E_(component): the
    count of distinct roots of the unit factor p restricted to that line,
    deg p - deg gcd(p, p')."""
    _, unit = proper_transform(curve, ResolutionChart(component, k))
    on_line = unit.restrict_u0()
    p = IntPolynomial(on_line.get(e, 0) for e in range(max(on_line, default=-1) + 1))
    if p.degree <= 0:
        return 0
    derivative = IntPolynomial(e * c for e, c in enumerate(p.coefficients) if e)
    return p.degree - gcd_degree(p, derivative)
