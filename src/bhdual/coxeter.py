"""Reflections, Coxeter elements, lattice invariants, and isomorphism testing
for the small edge-weighted graphs arising as Coxeter-Dynkin diagrams.

A root basis is encoded by its Gram matrix G (symmetric, all diagonal entries
-2).  The reflection in basis vector e_i acts by x -> x + <x, e_i> e_i; in the
basis itself its matrix is s_i = I + e_i G[i, :].  The Coxeter element is the
product s_0 s_1 ... s_{n-1} of all basis reflections in basis order.  It is
built by applying the reflections in place: right multiplication by s_i adds
c * G[i, :] to every row whose entry c in column i is nonzero, a rank-one
update, so no reflection matrix is ever formed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    CyclotomicFactorization,
    IntMatrix,
    IntPolynomial,
    char_poly,
    factor_cyclotomic,
)


class NotARootBasis(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


@dataclass(frozen=True)
class CoxeterResult:
    matrix: IntMatrix
    char: IntPolynomial
    factorization: CyclotomicFactorization
    order: int | None  # None: tau has infinite order


def coxeter_element(gram: IntMatrix) -> CoxeterResult:
    """Ordered product of the basis reflections, with characteristic
    polynomial, cyclotomic factorization and (finite) order.

    The order is exact: a matrix of finite order is semisimple with root of
    unity eigenvalues, so its characteristic polynomial is fully cyclotomic
    and its order is the lcm N of the factor indices.  Either tau^N = 1 and
    the order is N, or tau has infinite order.
    """
    n = gram.dim
    if not gram.is_symmetric():
        raise NotSymmetric("Gram matrix must be symmetric")
    if any(gram[i, i] != -2 for i in range(n)):
        raise NotARootBasis("all diagonal entries must be -2")
    g = gram.entries
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
    fac = factor_cyclotomic(char)
    order = None
    if fac.is_cyclotomic:
        candidate = fac.lcm_of_orders()
        if tau ** candidate == IntMatrix.identity(n):
            order = candidate
    return CoxeterResult(tau, char, fac, order)


def preserves_form(tau: IntMatrix, gram: IntMatrix) -> bool:
    return tau.transpose() * gram * tau == gram


@dataclass(frozen=True)
class LatticeInvariants:
    rank: int
    det: int
    signature: tuple[int, int, int]  # (positive, zero, negative)


def _sign_changes(coefficients) -> int:
    signs = [c > 0 for c in coefficients if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def lattice_invariants(gram: IntMatrix) -> LatticeInvariants:
    """Exact rank, determinant, and inertia from p = char_poly(G).

    A symmetric G has a real-rooted p, so Descartes' rule of signs is exact:
    the sign changes of p / t^zero and of its value at -t count the positive
    and negative eigenvalues, where zero is the multiplicity of the root 0.
    det G = (-1)^n p(0).
    """
    if not gram.is_symmetric():
        raise NotSymmetric("Gram matrix must be symmetric")
    n = gram.dim
    p = char_poly(gram).coefficients
    zero = next(k for k, c in enumerate(p) if c)
    q = p[zero:]
    pos = _sign_changes(q)
    neg = _sign_changes(c if k % 2 == 0 else -c for k, c in enumerate(q))
    return LatticeInvariants(n, (-1) ** n * p[0], (pos, zero, neg))


def graph_isomorphic(g1: IntMatrix, g2: IntMatrix) -> list[int] | None:
    """Search for a permutation p with G1[i][j] == G2[p[i]][p[j]].

    Backtracking over vertices ordered by invariant rarity, with a two-round
    neighborhood refinement for pruning; deterministic.  Returns one witness
    permutation or None.
    """
    if not g1.is_symmetric() or not g2.is_symmetric():
        raise NotSymmetric("isomorphism testing requires symmetric matrices")
    n = g1.dim
    if g2.dim != n:
        return None

    def refine(g: IntMatrix):
        inv = [
            (g[i, i], tuple(sorted(g[i, j] for j in range(n) if j != i and g[i, j])))
            for i in range(n)
        ]
        for _ in range(2):
            inv = [
                (
                    inv[i],
                    tuple(sorted((g[i, j], inv[j]) for j in range(n) if j != i and g[i, j])),
                )
                for i in range(n)
            ]
        return inv

    inv1, inv2 = refine(g1), refine(g2)
    if sorted(inv1) != sorted(inv2):
        return None
    rarity = {key: sum(1 for x in inv1 if x == key) for key in set(inv1)}
    order = sorted(range(n), key=lambda i: (rarity[inv1[i]], i))
    mapping = [-1] * n
    used = [False] * n

    def backtrack(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for p in range(n):
            if used[p] or inv2[p] != inv1[i]:
                continue
            if all(g1[i, order[t]] == g2[p, mapping[order[t]]] for t in range(k)):
                mapping[i] = p
                used[p] = True
                if backtrack(k + 1):
                    return True
                used[p] = False
                mapping[i] = -1
        return False

    return mapping[:] if backtrack(0) else None
