"""Reflections, Coxeter elements and lattice invariants for the small
edge-weighted graphs arising as Coxeter-Dynkin diagrams.

A root basis is encoded by its Gram matrix G (symmetric, all diagonal entries
-2).  The reflection in basis vector e_i acts by x -> x + <x, e_i> e_i; in the
basis itself its matrix is s_i = I + e_i G[i, :].  The Coxeter element is the
product tau = s_0 s_1 ... s_{n-1} of all basis reflections in basis order, and
it is applied as those reflections (``Reflections``): left multiplication by
s_i changes only row i, to -X_i + sum_{k != i} G[i][k] X_k, so tau X on packed
rows costs one multiply-add per off-diagonal nonzero of G, which is nearly a
tree, where the dense tau would cost one per nonzero of tau.  tau's matrix is
read once, from tau applied to the packed identity; the char, from the first
mu//2 powers of tau, and the order's radical test run on the reflections.
The product is checked by one identity with the Seifert matrix U, the upper
triangle of G with -1 on the diagonal: U tau = -U^T, which implies tau^T G
tau = G and det tau = (-1)^mu (see ``seifert_identity``), and with them that
char tau is a palindrome, whose second half is mirrored, not computed.

Diagrams are compared in ``dynkin``, entry by entry under the named vertex
correspondence; no isomorphism search is needed.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .exactalg import (
    CyclotomicFactorization,
    IntMatrix,
    IntPolynomial,
    annihilates,
    char_poly,
    factor_cyclotomic,
    matrix_of,
    palindromic_char_poly,
)


class Reflections(NamedTuple):
    """tau = s_0 s_1 ... s_(n-1) kept as its reflections, with the ``dim``,
    ``row_sum_bound`` and ``times_packed`` of IntMatrix, so that ``matrix_of``,
    ``char_poly`` and ``annihilates`` run on it.  Packing is Z-linear, so
    times_packed is exact even where a row between two reflections leaves its
    slots."""

    neighbours: tuple[tuple[tuple[int, int], ...], ...]  # row i: (k, G[i][k]) over k != i, G[i][k] != 0
    row_sum_bound: int  # at least rho(tau)

    @property
    def dim(self) -> int:
        return len(self.neighbours)

    def times_packed(self, packed: list[int]) -> list[int]:
        """Packed rows of tau B = s_0 (s_1 (... (s_(n-1) B))); s_i replaces row i."""
        rows = list(packed)
        neighbours = self.neighbours
        for i in range(len(rows) - 1, -1, -1):
            row = -rows[i]
            for k, a in neighbours[i]:
                row += a * rows[k]
            rows[i] = row
        return rows


class CoxeterResult(NamedTuple):
    matrix: IntMatrix
    char: IntPolynomial
    factorization: CyclotomicFactorization
    reflections: Reflections

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
            if not annihilates(radical.reconstruct(), self.reflections):
                return None
        return self.factorization.lcm_of_orders()


def coxeter_element(gram: IntMatrix) -> CoxeterResult:
    """Ordered product of the basis reflections, with characteristic
    polynomial and cyclotomic factorization; the order is read on demand.

    rho(s_i) = 1 + sum_{k != i} |G[i][k]| and rho is submultiplicative, so
    the entries of tau are at most prod rho(s_i), the bound tau's matrix is
    read at; the char and the order test then run at rho(tau) itself.

    char tau is a palindrome, so it needs only its first mu//2 power sums
    (``palindromic_char_poly``).  tau = -U^-1 U^T for the Seifert matrix U
    (``seifert_identity``), so tau^-1 = -U^-T U = U^-T tau^T U^T is similar
    to tau^T and has the same char, and det tau = (-1)^mu: with char(t) =
    prod (t - l) over the eigenvalues, t^mu char(1/t) = prod (1 - l t) =
    (-1)^mu det tau char_(tau^-1)(t) = char(t), that is c_k = c_(mu-k)."""
    if not gram.is_symmetric():
        raise ValueError("Gram matrix must be symmetric")
    g = gram.entries
    if any(row[i] != -2 for i, row in enumerate(g)):
        raise ValueError("all diagonal entries must be -2")
    neighbours = tuple(tuple((k, a) for k, a in enumerate(row) if a and k != i) for i, row in enumerate(g))
    reflections = Reflections(neighbours, math.prod(1 + sum(abs(a) for _, a in row) for row in neighbours))
    tau = matrix_of(reflections)
    reflections = reflections._replace(row_sum_bound=tau.row_sum_bound)
    char = palindromic_char_poly(reflections)
    return CoxeterResult(tau, char, factor_cyclotomic(char), reflections)


def seifert_identity(tau: IntMatrix, gram: IntMatrix) -> bool:
    """U tau == -U^T on tau's integer rows, for the Seifert matrix U: the
    upper triangle of G with -1 on the diagonal, so G = U + U^T and tau is the
    Picard-Lefschetz monodromy -U^-1 U^T.  A tau of another dimension than G
    fails.

    Row i of U tau is -tau_i + sum_{j > i} G[i][j] tau_j, and row i of -U^T
    is e_i - sum_{j < i} G[j][i] e_j; the rows are compared one at a time.

    U is triangular with diagonal -1, hence invertible over the integers, and
    the identity pins tau exactly.  It implies tau^T G tau = U U^-T (U + U^T)
    U^-1 U^T = U (U^-T + U^-1) U^T = U + U^T = G, and det tau = det(-U^T) /
    det U = (-1)^mu.
    """
    n = gram.dim
    if tau.dim != n:
        return False
    g, t = gram.entries, tau.entries
    for i in range(n):
        row = [-e for e in t[i]]
        for a, t_j in zip(g[i][i + 1:], t[i + 1:]):
            if a:
                row = [x + a * y for x, y in zip(row, t_j)]
        if row != [-g[j][i] for j in range(i)] + [1] + [0] * (n - 1 - i):
            return False
    return True


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
