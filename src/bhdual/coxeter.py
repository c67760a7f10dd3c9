"""Reflections, Coxeter elements, lattice invariants, and isomorphism testing
for the small edge-weighted graphs arising as Coxeter-Dynkin diagrams.

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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactalg import (
    CyclotomicFactorization,
    IntMatrix,
    IntPolynomial,
    annihilates,
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

    @cached_property
    def order(self) -> int | None:
        """The order of tau, None when it is infinite; computed on first read.

        Let N be the lcm of the indices n of char = prod Phi_n^(e_n) and r =
        prod Phi_n over them.  The minimal polynomial has the roots of char, so
        tau^N = I <=> minpoly | t^N - 1 <=> minpoly is squarefree <=> r(tau) = 0;
        tau^m = I forces a squarefree minpoly and n | m for every n: N is the order.
        """
        if not self.factorization.is_cyclotomic:
            return None
        radical = CyclotomicFactorization(
            dict.fromkeys(self.factorization.factors, 1), 1, IntPolynomial.one()
        ).reconstruct()
        return self.factorization.lcm_of_orders() if annihilates(radical, self.matrix) else None


def coxeter_element(gram: IntMatrix) -> CoxeterResult:
    """Ordered product of the basis reflections, with characteristic
    polynomial and cyclotomic factorization; the order is read on demand."""
    n = gram.dim
    if not gram.is_symmetric():
        raise NotSymmetric("Gram matrix must be symmetric")
    g = gram.entries
    if any(row[i] != -2 for i, row in enumerate(g)):
        raise NotARootBasis("all diagonal entries must be -2")
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


def _adjacency(entries) -> list[list[tuple[int, int]]]:
    """(j, weight) for the nonzero off-diagonal entries of each row."""
    return [[(j, w) for j, w in enumerate(row) if w and j != i] for i, row in enumerate(entries)]


def _signatures(colours, adjacency):
    """One refinement round: vertex i's signature is its colour and the sorted
    (weight, colour) pairs of its neighbours."""
    return [
        (colours[i], tuple(sorted([(w, colours[j]) for j, w in adj])))
        for i, adj in enumerate(adjacency)
    ]


@dataclass(frozen=True)
class Reference:
    """A graph refined by itself: ``palettes[r]`` interns round r's signatures
    as small int colours, ``rounds[r]`` is the sorted colour list after round
    r, and ``targets`` lists the vertices of each final colour."""

    gram: IntMatrix
    palettes: tuple[dict, ...]
    rounds: tuple[list[int], ...]
    targets: dict[int, list[int]]


def refine(gram: IntMatrix) -> Reference:
    """Colour refinement of the reference side of :func:`graph_isomorphic`.

    Each vertex starts coloured by its diagonal entry; each of three rounds
    recolours it by its signature, interned in that round's palette.
    """
    if not gram.is_symmetric():
        raise NotSymmetric("isomorphism testing requires symmetric matrices")
    adjacency = _adjacency(gram.entries)
    colours = [row[i] for i, row in enumerate(gram.entries)]
    palettes, rounds = [], []
    for _ in range(3):
        palette: dict = {}
        colours = [palette.setdefault(s, len(palette)) for s in _signatures(colours, adjacency)]
        palettes.append(palette)
        rounds.append(sorted(colours))
    targets: dict[int, list[int]] = {}
    for p, c in enumerate(colours):
        targets.setdefault(c, []).append(p)
    return Reference(gram, tuple(palettes), tuple(rounds), targets)


def graph_isomorphic(g1: IntMatrix, g2: IntMatrix | Reference) -> list[int] | None:
    """Search for a permutation p with G1[i][j] == G2[p[i]][p[j]].

    Colour refinement, then backtracking; deterministic.  G2, the reference,
    is refined by itself (:func:`refine`), or passed already refined when
    many candidates meet one reference.  G1 is recoloured round by round
    from its own adjacency lists, and each of its signatures is only looked
    up in the reference's palette for that round: a signature the palette
    does not hold rejects at once, and G1 never adds a colour.  The two
    colour multisets must agree after every round.  Backtracking then maps
    vertices, rarest colour first, only onto vertices of equal colour, and
    checks every entry against the vertices already mapped.  The result
    stays exact: an isomorphism maps each vertex to one with an equal
    signature in every round, so the lookups only prune, and a returned
    permutation has passed every entry check.  Returns one witness
    permutation or None.
    """
    if not g1.is_symmetric():
        raise NotSymmetric("isomorphism testing requires symmetric matrices")
    reference = g2 if isinstance(g2, Reference) else refine(g2)
    n = g1.dim
    if reference.gram.dim != n:
        return None
    e1, e2 = g1.entries, reference.gram.entries
    adjacency = _adjacency(e1)
    colours = [row[i] for i, row in enumerate(e1)]
    for palette, expected in zip(reference.palettes, reference.rounds):
        lookup = palette.get
        colours = [lookup(s) for s in _signatures(colours, adjacency)]
        if None in colours or sorted(colours) != expected:
            return None
    targets = reference.targets
    order = sorted(range(n), key=lambda i: (len(targets[colours[i]]), i))
    mapping = [-1] * n
    used = [False] * n
    placed: list[tuple[int, int]] = []

    def backtrack(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        r1 = e1[i]
        for p in targets[colours[i]]:
            if used[p]:
                continue
            r2 = e2[p]
            if all(r1[a] == r2[b] for a, b in placed):
                mapping[i] = p
                used[p] = True
                placed.append((i, p))
                if backtrack(k + 1):
                    return True
                placed.pop()
                used[p] = False
        return False

    return mapping if backtrack(0) else None
