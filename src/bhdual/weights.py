"""Canonical and reduced weight systems, Gorenstein parameter, ambient
projective weights and group-action validation.

The canonical weight system of an invertible polynomial with exponent matrix
E is the unique solution of E*w = d'*(1,...,1) with d' = |det E| (the absolute
value keeps all weights positive for loop-type polynomials whose determinant
is negative).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .exactalg import IntMatrix, det_bareiss, monomial
from .fixtures import VARIABLES
from .polyparse import InvertiblePolynomial


class CanonicalWeights(NamedTuple):
    """Weights (w_1..w_n) and degree d' with E*w = d'*(1,..,1)."""

    w: tuple[int, ...]
    d_prime: int


class ReducedWeights(NamedTuple):
    """Canonical system divided by c_f = gcd(w_1,...,w_n,d')."""

    q: tuple[int, ...]
    d: int
    c_f: int


class AmbientWeights(NamedTuple):
    """Weights (q0, q1, q2, q3) of the ambient weighted projective space and
    the exponent row of the compactifying monomial, both over the homogeneous
    coordinates (w, x, y, z)."""

    weights: tuple[int, int, int, int]
    monomial: tuple[int, int, int, int]

    @property
    def compactifier(self) -> str:
        w, *xyz = self.monomial
        return monomial((*VARIABLES, "w"), (*xyz, w))


def canonical_weights(f: InvertiblePolynomial) -> CanonicalWeights:
    """Solve E*w = |det E| * (1,...,1) exactly.

    By Cramer's rule w_j = sign(det E) * det(E with column j set to 1), so the
    solution is always integral.  Raises ValueError when it is not a
    system of positive integers (which signals a non-invertible input).
    """
    entries = f.matrix.entries
    n = f.n
    det = det_bareiss(f.matrix)
    sign = 1 if det > 0 else -1
    w = tuple(
        sign * det_bareiss(IntMatrix([[*row[:j], 1, *row[j + 1 :]] for row in entries]))
        for j in range(n)
    )
    if any(x <= 0 for x in w):
        raise ValueError(f"weights {w} are not all positive")
    d_prime = abs(det)
    # re-multiply to confirm the exact solve
    for row in entries:
        if sum(e * x for e, x in zip(row, w)) != d_prime:
            raise ValueError(f"weights {w} do not solve E*w = {d_prime}*(1,...,1)")
    return CanonicalWeights(w, d_prime)


def reduce(wsys: CanonicalWeights) -> ReducedWeights:
    """Divide the canonical system by c_f = gcd of all weights and the degree."""
    c_f = math.gcd(wsys.d_prime, *wsys.w)
    return ReducedWeights(tuple(x // c_f for x in wsys.w), wsys.d_prime // c_f, c_f)


def gorenstein_parameter(wsys: CanonicalWeights) -> int:
    """d' - w_1 - w_2 - w_3 of a three-variable canonical system."""
    if len(wsys.w) != 3:
        raise ValueError("Gorenstein parameter is defined here for n = 3 only")
    return wsys.d_prime - sum(wsys.w)


def ambient_weights(rw: ReducedWeights, compactifier: str) -> AmbientWeights:
    """Ambient space P(q0,q1,q2,q3) with q0 = d - q1 - q2 - q3, plus the
    compactifying monomial of weighted degree exactly d whose shape the text
    ``compactifier`` names: its head factor, when that is one of the
    coordinates x, y, z, times a power of w; otherwise the plain power of w.
    Only the head is read.

    The exponent of w is numerator // q0 with numerator = d - q_i for the
    head's coordinate (d for the plain w-power), once q0 divides it.  Its
    degree is therefore q0 * (numerator // q0) + q_i = d by construction, so
    no separate degree check is made.
    """
    if len(rw.q) != 3:
        raise ValueError("ambient weights require a three-variable system")
    q0 = rw.d - sum(rw.q)
    if q0 <= 0:
        raise ValueError(f"q0 = {q0} is not positive")
    head = compactifier.split("*")[0]
    coord = tuple(int(v == head) for v in VARIABLES)
    numerator = rw.d - sum(e * q for e, q in zip(coord, rw.q))
    if numerator % q0 != 0:
        raise ValueError(
            f"compactifier exponent {numerator}/{q0} is not an integer"
        )
    return AmbientWeights((q0, *rw.q), (numerator // q0, *coord))


def compactified_monomials(f: InvertiblePolynomial, ambient: AmbientWeights):
    """Exponent rows of F = f + compactifier over the coordinates (w,x,y,z)."""
    return (*((0, *row) for row in f.matrix.entries), ambient.monomial)


def validate_action(F_monomials, c: int, m) -> bool:
    """True iff all monomials of F share one character mod c under the cyclic
    group of order c whose generator acts on (w:x:y:z) with exponents m
    (None only when c = 1).

    ``F_monomials`` are exponent rows over (w,x,y,z); the character of a
    monomial is sum(m_j * exponent_j) mod c, and ValueError is raised when m
    and a row differ in length.
    """
    if c < 1:
        raise ValueError("group order must be >= 1")
    if c == 1:
        return True
    if m is None:
        raise ValueError(f"a group of order {c} needs the exponents of its generator")
    if any(len(row) != len(m) for row in F_monomials):
        raise ValueError(f"the generator has {len(m)} exponents, not one per coordinate of F")
    characters = {sum(m_j * e for m_j, e in zip(m, row)) % c for row in F_monomials}
    return len(characters) == 1


def beta_congruence_check(alpha_beta, a: int, c_f: int):
    """Check a*beta_i == 1 (mod alpha_i) for the three orbit-invariant pairs.

    Returns True/False when c_f = 1; returns None (inapplicable) when the
    canonical system is non-reduced, where the pairs are not orbit invariants.
    """
    for alpha, beta in alpha_beta:
        if not 1 <= beta < alpha:
            raise ValueError(f"invalid pair (alpha, beta) = ({alpha}, {beta})")
    if c_f != 1:
        return None
    return all((a * beta) % alpha == 1 % alpha for alpha, beta in alpha_beta)
