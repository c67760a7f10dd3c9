"""Cross-check graph_isomorphic against networkx's VF2 matcher.

VF2 searches vertex mappings with its own feasibility rules and compares
edge weights through ``edge_match``, so agreement here is independent of the
colour refinement and backtracking in ``coxeter.graph_isomorphic``.  The
inputs are every diagram calibration can build for the 20 rows, against the
row's K-lattice diagram, and seeded random weighted graphs.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

nx = pytest.importorskip("networkx")

from bhdual.coxeter import graph_isomorphic, refine
from bhdual.dynkin import (
    READINGS,
    ConventionTable,
    MissingConvention,
    _case_candidates,
    _case_key_for_row,
    diagram_for_row,
)
from bhdual.exactalg import IntMatrix
from bhdual.fixtures import load_rows
from bhdual.klattice import row_gram


def to_networkx(g: IntMatrix):
    graph = nx.Graph()
    n = g.dim
    for i in range(n):
        graph.add_node(i, d=g[i, i])
    for i in range(n):
        for j in range(i + 1, n):
            if g[i, j]:
                graph.add_edge(i, j, w=g[i, j])
    return graph


def vf2_isomorphic(g1: IntMatrix, g2: IntMatrix) -> bool:
    return nx.is_isomorphic(
        to_networkx(g1),
        to_networkx(g2),
        node_match=lambda a, b: a["d"] == b["d"],
        edge_match=lambda a, b: a["w"] == b["w"],
    )


def check_agreement(g1: IntMatrix, g2: IntMatrix) -> bool:
    """Assert that graph_isomorphic agrees with VF2 and that a returned
    witness maps every entry; returns the verdict."""
    perm = graph_isomorphic(g1, g2)
    assert (perm is not None) == vf2_isomorphic(g1, g2)
    if perm is not None:
        n = g1.dim
        assert sorted(perm) == list(range(n))
        for i in range(n):
            for j in range(n):
                assert g1[i, j] == g2[perm[i], perm[j]]
    return perm is not None


def calibration_candidates():
    """(row name, diagram Gram, K-lattice Gram) for every candidate diagram
    that calibration can build, over every reading."""
    for row in load_rows():
        k_gram = row_gram(row)[0]
        key = _case_key_for_row(row)
        for reading in READINGS:
            for candidate in _case_candidates(key):
                try:
                    diagram = diagram_for_row(row, ConventionTable(reading, {key: candidate}))
                except MissingConvention:
                    continue
                yield row.name, diagram.gram, k_gram


def test_calibration_candidates_agree_with_vf2():
    built = isomorphic = 0
    seen = set()
    for name, gram, k_gram in calibration_candidates():
        built += 1
        if (name, gram.entries) in seen:
            continue
        seen.add((name, gram.entries))
        isomorphic += check_agreement(gram, k_gram)
    assert built > 3000
    # every row has at least the committed wiring isomorphic
    assert isomorphic >= 20


def random_gram(rng: random.Random, n: int) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    density = rng.choice((0.2, 0.35, 0.5))
    for i in range(n):
        rows[i][i] = -2
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.choice((-2, -1, 1))
    return IntMatrix(rows)


def relabel(g: IntMatrix, perm) -> IntMatrix:
    """The Gram with vertex i renamed perm[i]."""
    n = g.dim
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = g[i, j]
    return IntMatrix(rows)


def test_random_weighted_graphs_agree_with_vf2():
    rng = random.Random(20110)
    flips = []
    for _ in range(300):
        n = rng.randint(1, 12)
        g1 = random_gram(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [list(r) for r in relabel(g1, perm).entries]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
        flipped = bool(edges) and rng.random() < 0.5
        if flipped:
            i, j = rng.choice(edges)
            rows[i][j] = rows[j][i] = -rows[i][j]
        # a sign flip changes the multiset of edge weights
        assert check_agreement(g1, IntMatrix(rows)) is not flipped
        flips.append(flipped)
    assert 50 < sum(flips) < 250


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reused_reference_answers_like_a_fresh_one(n, seed):
    # one refined reference against a shuffled stream of its relabelled
    # copies and their one-entry sign flips: every answer is the one-shot
    # answer, agrees with VF2 and has a valid witness, and the reference's
    # palettes stay as refine left them.  The graphs come from a seeded
    # Random: a Hypothesis-driven one degenerates to complete graphs with
    # one weight, where VF2 needs factorial time to reject a sign flip.
    rng = random.Random(seed)
    gram = random_gram(rng, n)
    reference = refine(gram)
    palettes = [dict(p) for p in reference.palettes]
    stream = []
    for _ in range(6):
        perm = list(range(n))
        rng.shuffle(perm)
        copy = relabel(gram, perm)
        stream.append(copy)
        rows = [list(r) for r in copy.entries]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
        if edges:
            i, j = rng.choice(edges)
            rows[i][j] = rows[j][i] = -rows[i][j]
            stream.append(IntMatrix(rows))
    rng.shuffle(stream)
    for candidate in stream:
        witness = graph_isomorphic(candidate, reference)
        assert witness == graph_isomorphic(candidate, gram)
        assert check_agreement(candidate, gram) is (witness is not None)
    assert [dict(p) for p in reference.palettes] == palettes
