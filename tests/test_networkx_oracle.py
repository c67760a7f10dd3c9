"""Cross-check the vertex correspondence against networkx's VF2 matcher.

``dynkin.equal_under_correspondence`` tests one named vertex map; VF2
searches all vertex maps with its own feasibility rules and compares edge
weights through ``edge_match``.  Equality under the correspondence must
therefore imply VF2 isomorphism, and the correspondence must be one of the
maps VF2 finds.  The inputs are the diagrams of every wiring variant in
``conftest.case_candidates``, under every position reading, for the 20 rows,
against the row's K-lattice diagram.
"""
import pytest

nx = pytest.importorskip("networkx")

from bhdual.dynkin import (
    case_key,
    committed_convention,
    correspondence,
    diagram_for_row,
    equal_under_correspondence,
)
from bhdual.exactalg import IntMatrix
from bhdual.fixtures import load_rows
from bhdual.klattice import row_gram
from conftest import READINGS, case_candidates, rule_diagram


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


MATCH = {
    "node_match": lambda a, b: a["d"] == b["d"],
    "edge_match": lambda a, b: a["w"] == b["w"],
}


def vf2_isomorphic(g1: IntMatrix, g2: IntMatrix) -> bool:
    return nx.is_isomorphic(to_networkx(g1), to_networkx(g2), **MATCH)


def calibration_candidates():
    """(row, diagram Gram, K-lattice Gram) for every wiring variant whose
    diagram can be built, over every reading."""
    for row in load_rows():
        k_gram = row_gram(row)
        key = case_key(row)
        for reading in READINGS:
            for candidate in case_candidates(key):
                try:
                    diagram = rule_diagram(row, reading, candidate)
                except ValueError:
                    continue
                yield row, diagram.gram, k_gram


def test_calibration_candidates_agree_with_vf2():
    # equality under the correspondence implies isomorphism; of the 25
    # isomorphic distinct candidates, the 20 committed wirings are equal
    built = isomorphic = equal = 0
    seen = set()
    for row, gram, k_gram in calibration_candidates():
        built += 1
        if (row.name, gram.entries) in seen:
            continue
        seen.add((row.name, gram.entries))
        iso = vf2_isomorphic(gram, k_gram)
        same = equal_under_correspondence(row, gram, k_gram)
        assert iso or not same, row.name
        isomorphic += iso
        equal += same
    assert (built, len(seen), isomorphic, equal) == (3104, 2200, 25, 20)


def test_correspondence_is_a_vf2_isomorphism():
    for row in load_rows():
        gram = diagram_for_row(row).gram
        k_gram = row_gram(row)
        sigma = dict(enumerate(correspondence(row)))
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            to_networkx(gram), to_networkx(k_gram), **MATCH
        )
        assert sigma in list(matcher.isomorphisms_iter()), row.name


def test_two_a3_wirings_are_isomorphic():
    # the literal chain with arms on B2 is isomorphic to the K-lattice
    # diagram on every a3 row, like the committed wiring, but it is not the
    # K-lattice basis under the correspondence
    committed = committed_convention()
    chain_on_b2 = list(case_candidates("a3"))[32]
    for row in load_rows():
        if case_key(row) != "a3":
            continue
        k_gram = row_gram(row)
        for candidate in (committed.cases["a3"], chain_on_b2):
            gram = rule_diagram(row, committed.reading, candidate).gram
            assert vf2_isomorphic(gram, k_gram), row.name
