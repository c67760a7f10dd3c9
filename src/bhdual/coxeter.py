"""Reflections, Coxeter elements and lattice invariants for the small
edge-weighted graphs arising as Coxeter-Dynkin diagrams.

A root basis is encoded by its Gram matrix G (symmetric, all diagonal entries
-2).  The reflection in basis vector e_i acts by x -> x + <x, e_i> e_i; in the
basis itself its matrix is s_i = I + e_i G[i, :].  The Coxeter element is the
product s_0 s_1 ... s_{n-1} of all basis reflections in basis order.  It is
built by applying the reflections in place: right multiplication by s_i adds
c * G[i, :] to every row whose entry c in column i is nonzero, a rank-one
update, so no reflection matrix is ever formed.  The product is checked by one
identity with the Seifert matrix U, the upper triangle of G with -1 on the
diagonal: U tau = -U^T, which implies both tau^T G tau = G and det tau =
(-1)^mu (see ``seifert_identity``).

Diagrams are compared in ``dynkin``, entry by entry under the named vertex
correspondence; no isomorphism search is needed.
"""
from __future__ import annotations

from typing import NamedTuple

from .exactalg import (
    CyclotomicFactorization,
    IntMatrix,
    IntPolynomial,
    annihilates,
    char_poly,
    factor_cyclotomic,
)


class CoxeterResult(NamedTuple):
    matrix: IntMatrix
    char: IntPolynomial
    factorization: CyclotomicFactorization

    @property
    def order(self) -> int | None:
        """The order of tau, None when it is infinite; computed on each read.

        Let N be the lcm of the indices n of char = prod Phi_n^(e_n) and r =
        prod Phi_n over them.  The minimal polynomial has the roots of char, so
        tau^N = I <=> minpoly | t^N - 1 <=> minpoly is squarefree <=> r(tau) = 0;
        tau^m = I forces a squarefree minpoly and n | m for every n: N is the order.
        When every e_n is 1, r is char up to its unit, and char(tau) = 0 by
        Cayley-Hamilton, since char is tau's own characteristic polynomial: no
        test is needed.
        """
        if not self.factorization.is_cyclotomic:
            return None
        factors = self.factorization.factors
        if any(e > 1 for e in factors.values()):
            radical = CyclotomicFactorization(dict.fromkeys(factors, 1), 1, IntPolynomial.one())
            if not annihilates(radical.reconstruct(), self.matrix):
                return None
        return self.factorization.lcm_of_orders()


def coxeter_element(gram: IntMatrix) -> CoxeterResult:
    """Ordered product of the basis reflections, with characteristic
    polynomial and cyclotomic factorization; the order is read on demand."""
    n = gram.dim
    if not gram.is_symmetric():
        raise ValueError("Gram matrix must be symmetric")
    g = gram.entries
    if any(row[i] != -2 for i, row in enumerate(g)):
        raise ValueError("all diagonal entries must be -2")
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        gi = g[i]
        for row in rows:
            c = row[i]
            if c:
                for j in range(n):
                    row[j] += c * gi[j]
    tau = IntMatrix(rows)
    char = char_poly(tau)
    return CoxeterResult(tau, char, factor_cyclotomic(char))


def seifert_identity(tau: IntMatrix, gram: IntMatrix) -> bool:
    """U tau == -U^T on packed rows, for the Seifert matrix U: the upper
    triangle of G with -1 on the diagonal, so G = U + U^T and tau is the
    Picard-Lefschetz monodromy -U^-1 U^T.  Entries are at most rho(U) rho(tau).

    U is triangular with diagonal -1, hence invertible over the integers, and
    the identity pins tau exactly.  It implies tau^T G tau = U U^-T (U + U^T)
    U^-1 U^T = U (U^-T + U^-1) U^T = U + U^T = G, and det tau = det(-U^T) /
    det U = (-1)^mu.
    """
    n = gram.dim
    g = gram.entries
    upper = IntMatrix([[g[i][j] if j > i else -(i == j) for j in range(n)] for i in range(n)])
    bound = upper.row_sum_bound * tau.row_sum_bound
    return upper.times_packed(tau.packed(bound)) == [-row for row in upper.transpose().packed(bound)]


def _sign_changes(coefficients) -> int:
    signs = [c > 0 for c in coefficients if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def lattice_invariants(gram: IntMatrix) -> tuple[int, tuple[int, int, int]]:
    """Exact determinant and inertia (positive, zero, negative) from
    p = char_poly(G).

    A symmetric G has a real-rooted p, so Descartes' rule of signs is exact:
    the sign changes of p / t^zero and of its value at -t count the positive
    and negative eigenvalues, where zero is the multiplicity of the root 0.
    det G = (-1)^n p(0).
    """
    if not gram.is_symmetric():
        raise ValueError("Gram matrix must be symmetric")
    n = gram.dim
    p = char_poly(gram).coefficients
    zero = next(k for k, c in enumerate(p) if c)
    q = p[zero:]
    pos = _sign_changes(q)
    neg = _sign_changes(c if k % 2 == 0 else -c for k, c in enumerate(q))
    return (-1) ** n * p[0], (pos, zero, neg)
