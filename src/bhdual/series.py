"""Poincare series, the characteristic function phi_f = p_f * Delta_0, the
weighted-homogeneous monodromy oracle, and the identity checks built on them.

This module is pure series and monodromy arithmetic: the identity checks take
the artifacts they compare (phi_f, the oracle, the Coxeter factorization) as
arguments and build no lattice themselves.

The monodromy oracle is Milnor and Orlik's divisor formula for weighted
homogeneous isolated singularities: with u_i/v_i = d/q_i in lowest terms,
the divisor of the characteristic polynomial is prod (L_(u_i)/v_i - L_1),
where L_m is the divisor of t^m - 1 and L_a * L_b = gcd(a, b) L_lcm(a, b).
That is a handful of gcd/lcm terms, read as cyclotomic exponents; the
Milnor algebra series prod (1 - T^(d - q_i))/(1 - T^q_i) is only checked to
be a polynomial, by its own cyclotomic exponents, and never expanded.

p_f and phi_f are quotients of binomials 1 - t^n = -prod_{k | n} Phi_k.  p_f
is kept as its binomial exponents and expanded by one stride step per
binomial; phi_f is kept as its cyclotomic exponents n -> e_n, and the identity
checks compare exponents: no polynomial is multiplied, divided or factored.
"""
from __future__ import annotations

import math

from .exactalg import (
    CyclotomicFactorization,
    IntPolynomial,
    RationalFunction,
    cyclotomic_exponents,
    euler_totient,
    square_root_spectrum,
)
from .fixtures import FixtureRow, VARIABLES
from .polyparse import parse_polynomial
from .weights import CanonicalWeights, ReducedWeights, canonical_weights, reduce


def poincare_series(wsys: CanonicalWeights) -> RationalFunction:
    """p_f(t) = (1 - t^d') / prod(1 - t^(w_i)) for a three-variable system."""
    if len(wsys.w) != 3:
        raise ValueError("Poincare series requires a three-variable system")
    return RationalFunction((wsys.d_prime,), wsys.w)


def poincare_bruteforce(wsys: CanonicalWeights, k_max: int) -> list[int]:
    """dim R_{f,k} for k = 0..k_max, counted from the weights alone.

    The monomials of weighted degree k are counted by a knapsack over the
    weights, the coefficients of prod 1/(1 - t^(w_i)); the dimension is that
    count minus the count in degree k - d' (one relation in each degree once
    f enters), i.e. the series times (1 - t^d').  It reads the same data as
    ``poincare_series`` and runs the same stride prefix sums, so the two
    agree for every weight system: the check confirms the expansion, not
    anything about f beyond its weights.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    counts = [0] * (k_max + 1)
    counts[0] = 1
    # accumulate the geometric factor for each weight: dense knapsack count
    for w in wsys.w:
        for k in range(w, k_max + 1):
            counts[k] += counts[k - w]
    return [
        counts[k] - (counts[k - wsys.d_prime] if k >= wsys.d_prime else 0)
        for k in range(k_max + 1)
    ]


def characteristic_function(wsys: CanonicalWeights, alpha) -> dict[int, int]:
    """phi_f = p_f * Delta_0 with Delta_0 = (1-t)^(-2) prod(1 - t^(alpha_i)),
    from f's canonical weights, as cyclotomic exponents: phi_f equals
    +-prod Phi_n^(e_n) for the returned map n -> e_n (nonzero e_n only).
    The Dolgachev triple alpha is checked once, by ``curveconf.arms``."""
    binomials = [(wsys.d_prime, 1), *((a, 1) for a in alpha)]
    binomials += [(w, -1) for w in wsys.w] + [(1, -2)]
    return cyclotomic_exponents(binomials)


def _scaled_divisor(q, d) -> tuple[dict[int, int], int]:
    """(V * div, V): the monodromy divisor of Milnor and Orlik,
    div = prod_i (L_(u_i) / v_i - L_1) with u_i / v_i = d / q_i in lowest
    terms, scaled by V = prod v_i so that every coefficient is an integer.

    L_m stands for the divisor of t^m - 1, and L_a * L_b = gcd(a, b) *
    L_lcm(a, b); the result maps m to the coefficient of L_m."""
    divisor, scale = {1: 1}, 1
    for qi in q:
        g = math.gcd(d, qi)
        u, v = d // g, qi // g
        scale *= v
        product: dict[int, int] = {}
        for a, c in divisor.items():  # c L_a (L_u - v L_1)
            h = math.gcd(a, u)
            product[a // h * u] = product.get(a // h * u, 0) + h * c
            product[a] = product.get(a, 0) - v * c
        divisor = product
    return divisor, scale


def milnor_orlik(rw: ReducedWeights) -> CyclotomicFactorization:
    """Cyclotomic factorization of the monic characteristic polynomial of the
    monodromy of a weighted homogeneous polynomial with reduced weights rw,
    from the divisor formula of Milnor and Orlik (Topology 9, 1970).

    The divisor sum_m c_m L_m (``_scaled_divisor``) is the characteristic
    polynomial prod (t^m - 1)^(c_m) = +-prod Phi_n^(e_n), with e_n the sum of
    c_m over the m divisible by n (``cyclotomic_exponents``, which keeps n in
    order, the order the report prints the factors in).  The product is
    scaled by V = prod v_i and divided back exactly; every e_n must be an
    integer >= 0, and a remainder raises instead of truncating.  Degree and
    divisor multiply alike (L_a * L_b has degree gcd(a, b) lcm(a, b) = ab),
    so the degree sum phi(n) e_n is the Milnor number prod (d - q_i)/q_i.

    The Milnor algebra series prod (1 - T^(d - q_i))/(1 - T^q_i) must be a
    polynomial, and it is iff #{i : n | d - q_i} >= #{i : n | q_i} for every
    n.  Proof: 1 - T^m = -prod_(n | m) Phi_n, so the series is
    +-prod Phi_n^(a_n - b_n) with a_n, b_n those two counts.  The Phi_n are
    distinct monic irreducibles of Q[T], which factors uniquely, so the
    quotient is a polynomial iff no exponent a_n - b_n is negative; it is
    then a product of monic integer polynomials, in Z[T]."""
    q, d = rw.q, rw.d
    if any(d - qi <= 0 for qi in q):
        raise ValueError(f"degenerate weights {rw}")
    algebra = cyclotomic_exponents([*((d - qi, 1) for qi in q), *((qi, -1) for qi in q)])
    if any(e < 0 for e in algebra.values()):
        raise ValueError(f"Milnor algebra series not polynomial for {rw}")
    divisor, scale = _scaled_divisor(q, d)
    factors: dict[int, int] = {}
    for n, e in cyclotomic_exponents(divisor.items()).items():
        factors[n], remainder = divmod(e, scale)
        if remainder or e < 0:
            raise ValueError(f"eigenvalue multiplicities not nonnegative integers for {rw}")
    return CyclotomicFactorization(factors, 1, IntPolynomial.one())


# ---------------------------------------------------------------------------
# identity checks and fixture-row oracles
# ---------------------------------------------------------------------------

def transpose_reduced_weights(row: FixtureRow) -> ReducedWeights:
    return reduce(canonical_weights(parse_polynomial(row.f_T, VARIABLES)))


def verify_phi_identity(
    phi: dict[int, int], transpose_weights: ReducedWeights, oracle: CyclotomicFactorization
) -> tuple[bool, int] | None:
    """Find the unique e >= 0 with phi_f * (t-1)^e equal, up to sign, to the
    monodromy characteristic polynomial ``oracle`` of the transpose, whose
    reduced weight system is ``transpose_weights``.

    ``phi`` holds the cyclotomic exponents of phi_f, so the identity holds iff
    the oracle's exponents minus phi's vanish away from n = 1; e is the
    difference at n = 1.  Returns (holds, e), with e = -1 when the identity
    fails; None when the canonical system of the transpose is not reduced
    (the identity is only asserted in the reduced case).
    """
    if transpose_weights.c_f != 1:
        return None
    gap = {n: oracle.factors.get(n, 0) - phi.get(n, 0) for n in {*oracle.factors, *phi}}
    shift = gap.pop(1, 0)
    if oracle.is_cyclotomic and shift >= 0 and not any(gap.values()):
        return True, shift
    return False, -1


def verify_square_relation(
    phi: dict[int, int], coxeter: CyclotomicFactorization, rank: int
) -> tuple[bool, str]:
    """(holds, reason): whether the squared spectrum of (t-1)^e * phi_f matches ``coxeter``,
    the Coxeter characteristic polynomial of a K-lattice of the given rank.

    ``phi`` holds the cyclotomic exponents of phi_f; e is fixed by degree
    counting (the K-lattice rank), and a phi_f with a denominator factor
    other than (t-1) yields a negative verdict, not an error.
    """
    if any(e < 0 for n, e in phi.items() if n != 1):
        return False, "denominator is not a power of (t-1)"
    if not coxeter.is_cyclotomic:
        return False, "Coxeter characteristic polynomial not cyclotomic"
    factors = {n: e for n, e in phi.items() if e > 0}
    pad = rank - sum(euler_totient(n) * e for n, e in factors.items())
    if pad < 0:
        return False, "degree exceeds the lattice rank"
    if pad:
        factors[1] = factors.get(1, 0) + pad
    if square_root_spectrum(factors) == coxeter.factors:
        return True, "squared spectrum matches"
    return False, "squared spectrum differs"


def transpose_monodromy(row: FixtureRow) -> CyclotomicFactorization:
    """Monodromy characteristic polynomial of the row's transpose polynomial."""
    return milnor_orlik(transpose_reduced_weights(row))


#: expected square-relation verdicts for the six rows of Kodaira type I0*:
#: it holds for the rows dual to Z_17 and W_17 and for U_1,0, and fails for
#: the remaining three (negative controls).
SQUARE_RELATION_EXPECTED = {
    "Q_2,0": True,
    "S_1,0": True,
    "U_1,0": True,
    "J_3,0": False,
    "Z_1,0": False,
    "W_1,0": False,
}
