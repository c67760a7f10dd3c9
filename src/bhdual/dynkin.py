"""Rule-based construction of the Coxeter-Dynkin diagrams: the T-shaped core
graph, its extension by a chain of extra vertices, and the check of the
committed wiring of that extension against the K-lattice.

The core T(alpha_1, alpha_2, alpha_3) has three arm chains of lengths
alpha_i - 1 (plain edges), a lower and an upper central vertex each joined
plainly to every arm's innermost vertex, and a doubled dashed edge between
the two central vertices.  The extension appends the ``a`` extra vertices
B1..Ba that the row's case tag fixes (``fixtures.CASE_TAGS``); how they
wire to the core and to the arms is case data in a ConventionTable, which
:func:`calibrate` checks against the monodromy oracle and the K-lattice
diagrams.  Each rule vertex stands for one named K-lattice generator
(:func:`correspondence`), and the two diagrams are compared entry by entry
under that correspondence.  The arms are ``curveconf.arms`` of the Dolgachev
triple, and the arm-position rule takes alpha_i from it too.  An edge that
names a vertex the diagram lacks (an attachment beyond the arm the triple
builds) raises ValueError where the diagram is assembled.
"""
from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import NamedTuple

from . import klattice
from .coxeter import coxeter_element
from .curveconf import arm_label, arms
from .exactalg import IntMatrix
from .fixtures import CASE_TAGS, FixtureRow


class CalibrationFailed(RuntimeError):
    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class DynkinDiagram(NamedTuple):
    """Ordered vertex labels plus the Gram matrix of the basis they encode.

    Edge weights are the off-diagonal Gram entries: |w| parallel edges,
    dashed when w < 0; every diagonal entry is -2.
    """

    vertices: tuple[str, ...]
    gram: IntMatrix

    @property
    def rank(self) -> int:
        return self.gram.dim

    def edges(self):
        n = self.gram.dim
        for i in range(n):
            for j in range(i + 1, n):
                w = self.gram[i, j]
                if w:
                    yield self.vertices[i], self.vertices[j], w

    def dot(self, name: str = "diagram") -> str:
        lines = [f"graph {name} {{"]
        for label in self.vertices:
            lines.append(f"  {label};")
        for a, b, w in self.edges():
            style = " [style=dashed]" if w < 0 else ""
            for _ in range(abs(w)):
                lines.append(f"  {a} -- {b}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# conventions
# ---------------------------------------------------------------------------

class CaseConvention(NamedTuple):
    """Extension wiring for one case.

    ``bullet_edges`` are (i, j, sign) pairs among the extra vertices;
    ``upper_sign`` signs the B1 edge to the upper central vertex.  Rule-read
    arm attachments hang on ``arm_bullet`` (None: no rule-read attachments);
    ``fixed_slots`` lists (bullet, arm, position, sign) attachments that
    bypass the arm-position rule of :func:`extension_edges` in the two
    twisted cases, where the outermost arm slots are occupied by the
    extra-curve classes themselves.
    """

    upper_sign: int
    bullet_edges: tuple[tuple[int, int, int], ...]
    arm_bullet: int | None
    arm_sign: int
    fixed_slots: tuple[tuple[int, int, int, int], ...] = ()


class ConventionTable(NamedTuple):
    """Committed conventions for the whole fixture set: one CaseConvention
    per extension case."""

    cases: dict[str, CaseConvention]

    #: the name of the one arm-position rule, alpha - beta - 1 counted from
    #: the outer end (:func:`extension_edges`); not a field, since no table
    #: holds another, but kept because ``bench/workloads.py::_wiring`` and
    #: the pinned stdout of ``scripts/calibrate_conventions.py`` read it
    reading = "outside-minus"


def case_key(row: FixtureRow) -> str:
    """The row's key in a ConventionTable: a2, a2_r1, a3 or a5, with a the
    extension size its case tag fixes."""
    a = CASE_TAGS[row.case_tag]
    return f"a{a}_r1" if row.case_tag == "Quadrilateral_r1" else f"a{a}"


def committed_convention() -> ConventionTable:
    """The extension wiring of each case, read off the K-lattice Gram of its
    rows; :func:`calibrate` checks that every row's rule diagram under it is
    the row's K-lattice diagram."""
    return ConventionTable(
        cases={
            "a2": CaseConvention(upper_sign=-1, bullet_edges=((1, 2, -1),), arm_bullet=2, arm_sign=1),
            "a2_r1": CaseConvention(
                upper_sign=-1, bullet_edges=((1, 2, -1),), arm_bullet=None, arm_sign=1, fixed_slots=((2, 3, 2, 1),)
            ),
            "a3": CaseConvention(upper_sign=-1, bullet_edges=((1, 3, -1), (2, 3, 1)), arm_bullet=3, arm_sign=1),
            "a5": CaseConvention(
                upper_sign=1,
                bullet_edges=((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)),
                arm_bullet=None,
                arm_sign=1,
                fixed_slots=((3, 3, 1, 1),),
            ),
        },
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

LOWER, UPPER = "EinfL", "EinfU"


def _minus_two_graph(labels, edges, core=()) -> DynkinDiagram:
    """The diagram on ``labels``: -2 on the diagonal, the Gram rows of
    ``core`` (a diagram on the leading labels) in the top-left block, and
    each (s, t, w) in ``edges`` set symmetrically, later ones winning;
    ValueError when an edge names a label not in ``labels``."""
    n = len(labels)
    gram = [[*row, *[0] * (n - len(row))] for row in core]
    for k in range(len(gram), n):
        gram.append([0] * n)
        gram[k][k] = -2
    index = {s: k for k, s in enumerate(labels)}
    for s, t, w in edges:
        for v in (s, t):
            if v not in index:
                raise ValueError(f"the edge {s} -- {t} names {v}, a curve the diagram lacks")
        gram[index[s]][index[t]] = gram[index[t]][index[s]] = w
    return DynkinDiagram(tuple(labels), IntMatrix(gram))


@cache
def t_graph(alpha) -> DynkinDiagram:
    """The T-shaped core diagram for a triple alpha, built once per tuple.

    Vertex numbering: the ``curveconf.arms`` of alpha (arm 1 outside-in,
    arm 2, arm 3), lower central vertex, upper central vertex.
    """
    arm_curves = arms(alpha)
    edges = [(LOWER, UPPER, -2)]
    for arm in arm_curves:
        edges += [(u, v, 1) for u, v in zip(arm, arm[1:])]
        edges += [(arm[-1], LOWER, 1), (arm[-1], UPPER, 1)]
    return _minus_two_graph([label for arm in arm_curves for label in arm] + [LOWER, UPPER], edges)


def extension_edges(row: FixtureRow, case: CaseConvention) -> list[tuple[str, str, int]]:
    """The (B vertex, vertex, sign) edges that wire the row's extra vertices
    B1..Ba to its T-core under one case convention.  A rule-read attachment
    joins arm i at position alpha_i - beta_i - 1, counted from the outer
    end; an arm with beta_i = alpha_i - 1 gets none.  On the 14 untwisted
    fixture rows that is the lemma's component less one, as their attachment
    tables store it (x^beta + y^(alpha - beta) meets E_(alpha - beta),
    ``quotres.exceptional_components_met``): an observation, not a proof."""
    edges = [("B1", UPPER, case.upper_sign)]
    edges += [(f"B{i}", f"B{j}", sign) for i, j, sign in case.bullet_edges]
    if case.arm_bullet is not None:
        for arm, (alpha, (_, beta)) in enumerate(zip(row.dolgachev, row.alpha_beta), start=1):
            if beta != alpha - 1:
                edges.append((f"B{case.arm_bullet}", arm_label(arm, alpha - beta - 1), case.arm_sign))
    edges += [(f"B{b}", arm_label(arm, pos), sign) for b, arm, pos, sign in case.fixed_slots]
    return edges


def extend(t: DynkinDiagram, a: int, edges) -> DynkinDiagram:
    """Append the chain of ``a`` extra vertices B1..Ba to a T-core with the
    given :func:`extension_edges`; new vertices are numbered last."""
    labels = [*t.vertices, *(f"B{k}" for k in range(1, a + 1))]
    return _minus_two_graph(labels, edges, t.gram.entries)


def diagram_for_row(row: FixtureRow) -> DynkinDiagram:
    """The row's rule diagram under the committed conventions, as ``bh
    verify`` and :func:`calibrate` build it."""
    edges = extension_edges(row, committed_convention().cases[case_key(row)])
    return extend(t_graph(row.dolgachev), CASE_TAGS[row.case_tag], edges)


def correspondence(row: FixtureRow) -> list[int]:
    """sigma: rule vertex i stands for generator sigma[i] of the row's
    K-lattice generator list.

    Both list arm 1, arm 2 and arm 3 outside-in, then the lower and upper
    central vertices (O_E(-1), O_E) and the extra vertices B1..Ba, so sigma
    is the identity outside the twisted cases.  There the list replaces the
    two outermost arm-3 classes by the twist class and lists the E0 class
    (O_E0(-1), or O_E0pp(-1)) last, and that class stands at E3_1, the outer
    end of arm 3: sigma = [0, ..., s-1, n-1, s, ..., n-2] with s the index of
    E3_1 in the T-core.
    """
    t = t_graph(row.dolgachev)
    n = t.rank + CASE_TAGS[row.case_tag]
    if row.case_tag not in klattice.TWISTED:
        return list(range(n))
    s = t.vertices.index(arm_label(3, 1))
    return [*range(s), n - 1, *range(s, n - 1)]


def equal_under_correspondence(row: FixtureRow, rule_gram: IntMatrix, k_gram: IntMatrix) -> bool:
    """rule_gram[i][j] == k_gram[sigma[i]][sigma[j]] for all i, j, with sigma
    the row's :func:`correspondence`: the two diagrams are one basis, vertex
    by vertex, which is stronger than being isomorphic."""
    sigma = correspondence(row)
    if not rule_gram.dim == k_gram.dim == len(sigma):
        return False
    pick = itemgetter(*sigma)  # a tuple: every diagram has at least five vertices
    k = k_gram.entries
    return rule_gram.entries == tuple(pick(k[p]) for p in sigma)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _passes(row: FixtureRow, oracle) -> bool:
    """Whether the row's rule diagram is its K-lattice diagram with the
    ``oracle`` Coxeter factorization; an unbuildable K-lattice Gram raises."""
    k_gram = klattice.row_gram(row)
    try:
        rule = diagram_for_row(row)
    except ValueError:
        return False
    if not equal_under_correspondence(row, rule.gram, k_gram):
        return False
    fac = coxeter_element(rule.gram).factorization
    return fac.is_cyclotomic and fac.factors == oracle.factors


def calibrate(rows, oracle_fac) -> ConventionTable:
    """Check that each row's rule diagram (:func:`diagram_for_row`) equals
    its K-lattice diagram under :func:`correspondence` and has the oracle
    characteristic polynomial (``oracle_fac(row)``, cyclotomic), judging
    every row in order before any verdict.  Returns the committed table
    restricted to the cases the rows reach; CalibrationFailed maps every
    case with a failing row to all its rows."""
    cases: dict[str, list[str]] = {}
    failing = set()
    for row in rows:
        key = case_key(row)
        cases.setdefault(key, []).append(row.name)
        if not _passes(row, oracle_fac(row)):
            failing.add(key)
    if failing:
        report = {key: cases[key] for key in sorted(failing)}
        raise CalibrationFailed("the K-lattice does not imply the committed wiring", report)
    committed = committed_convention().cases
    return ConventionTable({key: committed[key] for key in sorted(cases)})
