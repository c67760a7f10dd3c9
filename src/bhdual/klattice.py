"""K-group lattice of the triangulated category attached to a curve
configuration: Mukai-style classes for the generator lists, the negative
Euler pairing as a Gram matrix in listing order, and spherical-twist base
change.

A class is a triple (rank, divisor, degree) with pairing

    <(r, D, s), (r', D', s')> = D.D' - r*s' - r'*s,

where D.D' uses the configuration's intersection numbers (-2 on the
diagonal) and D names its curves by label, at most two for any generator.
The dictionary is: a line bundle of degree -1 on a curve C gives (0, C, 0);
its untwisted structure sheaf gives (0, C, 1); the structure sheaf of the
surface gives (1, 0, 1); a shift negates; the spherical twist of one curve
class along an adjacent one adds the divisors.  The generator list and its
classes depend on the row alone; :func:`gram_matrix` is the one place that
reads the configuration.
"""
from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .curveconf import CurveConfiguration, arm_label, arms, build_configuration, CENTER, E0, E0P, E0PP
from .exactalg import Frozen, IntMatrix
from .fixtures import FixtureRow


#: the cases whose generator list replaces the two outermost arm-3 classes by
#: one spherical-twist class and lists the E0 class last
TWISTED = ("Quadrilateral_r1", "Exceptional_a5")


class MukaiClass(NamedTuple):
    """(rank, D, degree) with D the sum of m * C over the (label C,
    multiplicity m) pairs of ``divisor``, sorted by label, every m nonzero."""

    rank: int
    divisor: tuple[tuple[str, int], ...]
    degree: int


#: how each descriptor kind prints, its nodes filled in
_FORMS = {"OC-1": "O_{0}(-1)", "OC": "O_{0}", "OX": "O_X", "OX[1]": "O_X[1]", "TW": "T_{0}({1})"}


class Sheaf(NamedTuple):
    """Descriptor of a generator: kind is one of 'OC-1', 'OC', 'OX', 'OX[1]',
    'TW'; nodes names the supporting curve(s)."""

    kind: str
    nodes: tuple[str, ...] = ()

    def __str__(self) -> str:
        form = _FORMS.get(self.kind)
        return self.kind if form is None else form.format(*self.nodes)


class GeneratorList(Frozen):
    __slots__ = ("items",)
    items: tuple[tuple[Sheaf, MukaiClass], ...]

    def __init__(self, items):
        object.__setattr__(self, "items", items)

    @property
    def classes(self) -> tuple[MukaiClass, ...]:
        return tuple(cls for _, cls in self.items)

    @property
    def descriptors(self) -> tuple[str, ...]:
        return tuple(str(sheaf) for sheaf, _ in self.items)


#: (rank, degree) of each descriptor kind; the divisor is its nodes, each once
_RANK_DEGREE = {"OC-1": (0, 0), "OC": (0, 1), "TW": (0, 0), "OX": (1, 1), "OX[1]": (-1, -1)}


def class_of(sheaf: Sheaf) -> MukaiClass:
    """Class of a generator descriptor in (rank, divisor, degree) form."""
    rank, degree = _RANK_DEGREE[sheaf.kind]
    return MukaiClass(rank, tuple((label, 1) for label in sorted(sheaf.nodes)), degree)


def generator_list(row: FixtureRow) -> GeneratorList:
    """The ordered generator system for the row's case.

    Arms are listed outside-in, arm 1 first; the two cases that shorten the
    third arm replace its two outermost classes by the spherical-twist class.
    The two-component E0 of the Quadrilateral_r1 case enrolls the plain
    structure-sheaf class of one component and the (-1)-twisted class of the
    other (the committed resolution of the single-symbol listing).
    """
    case = row.case_tag
    arm_curves = arms(row.dolgachev)
    sheaves = [Sheaf("OC-1", (label,)) for arm in arm_curves for label in arm]
    if case in TWISTED:  # after the curves of arms 1 and 2
        k = len(arm_curves[0]) + len(arm_curves[1])
        sheaves[k : k + 2] = [Sheaf("TW", (arm_label(3, 1), arm_label(3, 2)))]
    sheaves += [Sheaf("OC-1", (CENTER,)), Sheaf("OC", (CENTER,))]
    if case == "Exceptional_a5":
        sheaves += [Sheaf("OX[1]"), Sheaf("OC", ("F1",))]
        sheaves += [Sheaf("OC-1", (label,)) for label in ("F2", "F3", "F4", E0)]
    elif case == "Exceptional_a3":
        sheaves += [Sheaf("OX"), Sheaf("OC-1", ("F1",)), Sheaf("OC", (E0,))]
    elif case == "Quadrilateral_r1":
        sheaves += [Sheaf("OX"), Sheaf("OC", (E0P,)), Sheaf("OC-1", (E0PP,))]
    else:
        sheaves += [Sheaf("OX"), Sheaf("OC", (E0,))]
    return GeneratorList(tuple((sheaf, class_of(sheaf)) for sheaf in sheaves))


def gram_matrix(gens: GeneratorList, conf: CurveConfiguration) -> IntMatrix:
    """Gram matrix of the negative Euler pairing in listing order, read from
    the adjacency; ValueError when a class names a curve the configuration
    lacks.  Row i adds a * m * b at j for each curve C of class i
    (multiplicity a), curve C' with C.C' = m (-2 when C' = C) and class j
    holding C' b times; the rank terms touch only the row and column of a
    class of nonzero rank."""
    classes = gens.classes
    near, holders = defaultdict(dict), defaultdict(list)
    for (c, d), m in conf.edges.items():
        near[c][d] = near[d][c] = m
    for label in conf.labels:
        near[label][label] = -2
    for j, (sheaf, w) in enumerate(gens.items):
        for d, b in w.divisor:
            if d not in conf.labels:
                raise ValueError(f"generator {sheaf} names {d}, a curve the configuration lacks")
            holders[d].append((j, b))
    n = len(classes)
    rows = [[0] * n for _ in range(n)]
    for i, v in enumerate(classes):
        for c, a in v.divisor:
            for d, m in near[c].items():
                for j, b in holders[d]:
                    rows[i][j] += a * m * b
        if v.rank:
            for j, w in enumerate(classes):
                rows[i][j] -= v.rank * w.degree
                rows[j][i] -= v.rank * w.degree
    return IntMatrix(rows)


def row_gram(row: FixtureRow) -> IntMatrix:
    """The Gram matrix of a fixture row's generator list; ValueError, naming
    the generator, when a diagonal entry is not -2."""
    gens = generator_list(row)
    gram = gram_matrix(gens, build_configuration(row))
    for i, (sheaf, _) in enumerate(gens.items):
        if gram[i, i] != -2:
            raise ValueError(f"generator {sheaf} is not a root")
    return gram
