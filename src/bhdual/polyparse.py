"""Parsing, rendering and transposition of invertible polynomials.

An invertible polynomial in n variables is a sum of exactly n monomials with
all coefficients 1, an isolated singularity at 0 and no monomial x_i*x_j; by
Kreuzer and Skarke (Commun. Math. Phys. 150, 1992) each monomial is then
x_h^a or x_h^a*x_t with a at least 2, no two sharing a head h or a target t.
The grammar accepted by :func:`parse_polynomial` is

    poly   := mono ('+' mono)*
    mono   := factor ('*'? factor)*
    factor := var ('^' uint)?

with single-letter variable names, optional '*' and whitespace, and an
optional leading literal ``1`` in a monomial.  Coefficients other than 1 are
rejected, and so is a '*' with no factor after it.
"""
from __future__ import annotations

from .exactalg import Frozen, IntMatrix, monomial, signed_sum


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvertiblePolynomial(Frozen):
    """Exponent matrix plus an ordered tuple of variable names.

    Row i of the matrix is the i-th monomial; column j carries the exponents
    of ``variables[j]``.  All coefficients are normalized to 1.  There is at
    least one variable, the matrix has one row per variable, and its rows
    have the Kreuzer-Skarke shape, the one check of invertibility.
    """

    __slots__ = ("matrix", "variables")
    matrix: IntMatrix
    variables: tuple[str, ...]

    def __init__(self, matrix: IntMatrix, variables):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial needs at least one variable")
        if len(variables) != matrix.dim:
            raise ValueError(
                f"{matrix.dim} monomials for {len(variables)} variables"
            )
        for row in matrix.entries:  # a > 1, and the other exponents 0 but for at most one 1
            a = max(row)
            if a <= 1 or min(row) < 0 or sum(row) - a > 1:
                raise ValueError(f"monomial {monomial(variables, row) or 1} is not x^a or x^a*y with a at least 2")
        for name, column in zip(variables, zip(*matrix.entries)):
            targets = column.count(1)  # and every exponent but 0 and 1 is a head's
            if targets > 1 or len(column) - column.count(0) - targets > 1:
                raise ValueError(f"{name} is the {'target' if targets > 1 else 'head'} of two monomials")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "variables", variables)

    def __eq__(self, other):
        return type(other) is InvertiblePolynomial and (other.matrix, other.variables) == (self.matrix, self.variables)

    @property
    def n(self) -> int:
        return self.matrix.dim


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+*^":
            tokens.append((ch, i))
            i += 1
        elif "0" <= ch <= "9":  # not str.isdigit, which also accepts '³' and '٣'
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", i, int(text[i:j])))
            i = j
        elif ch.isalpha():
            tokens.append(("var", i, ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_polynomial(text: str, variables) -> InvertiblePolynomial:
    """Parse '+'-separated monomials into an InvertiblePolynomial.

    Each token is checked only against the kind of the token before it:
    ``"+"`` (a monomial may start), ``"*"``, ``"^"``, ``"var"``, ``"exp"``
    (the integer after '^') or ``"one"`` (a leading 1).  Raises ValueError
    naming an empty or repeated name in ``variables`` before reading the
    text; ParseError, with its position, on malformed text or an unknown
    variable; ValueError when the monomials do not form an invertible
    polynomial.
    """
    variables = tuple(variables)
    index = {v: k for k, v in enumerate(variables)}
    if "" in index:
        raise ValueError("empty variable name")
    if len(index) < len(variables):
        repeated = sorted({v for v in variables if variables.count(v) > 1})
        raise ValueError("repeated variable name " + ", ".join(map(repr, repeated)))
    monomials = []
    row = [0] * len(variables)
    prev, prev_position, column = "+", 0, 0
    for tok in _tokenize(text) + [("end", len(text))]:
        kind, position = tok[0], tok[1]
        if prev == "^" and kind != "int":
            raise ParseError("'^' must be followed by an integer", prev_position)
        if kind == "var":
            if tok[2] not in index:
                raise ParseError(f"unknown variable {tok[2]!r}", position)
            column = index[tok[2]]
            row[column] += 1
        elif kind == "int":
            if prev == "^":
                kind = "exp"
                row[column] += tok[2] - 1  # the variable already counted once
            elif prev == "+" and tok[2] == 1:
                kind = "one"
            else:
                raise ParseError("numeric coefficients other than a leading 1 are not allowed", position)
        elif kind == "^":
            if prev != "var":
                raise ParseError("misplaced '^'", position)
        elif kind == "*":
            if prev in ("+", "*"):
                raise ParseError("misplaced '*'", position)
        else:  # '+' or the end of the text closes a monomial
            if prev == "*":
                raise ParseError("dangling '*'", prev_position)
            if prev == "+":
                if kind == "+":
                    raise ParseError("empty monomial", position)
                if not monomials:
                    raise ParseError("empty polynomial", 0)
                raise ParseError("trailing '+'", prev_position)
            monomials.append(tuple(row))
            row = [0] * len(variables)
        prev, prev_position = kind, position

    if len(monomials) != len(variables):
        # a non-square list is no matrix: count before building one
        raise ValueError(
            f"{len(monomials)} monomials for {len(variables)} variables"
        )
    return InvertiblePolynomial(IntMatrix(monomials), variables)


def transpose(f: InvertiblePolynomial) -> InvertiblePolynomial:
    """The transpose polynomial: transposed exponent matrix, same variables."""
    return InvertiblePolynomial(f.matrix.transpose(), f.variables)


def render(f: InvertiblePolynomial) -> str:
    """Canonical text form; parse_polynomial(render(f)) reproduces f exactly."""
    return signed_sum((monomial(f.variables, row), 1) for row in f.matrix.entries)


def infer_variables(text: str) -> tuple[str, ...]:
    """Variable names appearing in the text, in alphabetical order (the
    conventional x, y, z ordering; CLI convenience)."""
    seen = set()
    for tok in _tokenize(text):
        if tok[0] == "var":
            seen.add(tok[2])
    return tuple(sorted(seen))
