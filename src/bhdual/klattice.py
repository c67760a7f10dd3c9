"""K-group lattice of the triangulated category attached to a curve
configuration: Mukai-style classes for the generator lists, the negative
Euler pairing, spherical-twist base change, and Gram matrices in listing
order.

A class is a triple (rank, divisor, degree) with pairing

    <(r, D, s), (r', D', s')> = D.D' - r*s' - r'*s,

where D.D' uses the configuration's intersection numbers (-2 on the
diagonal) and D names its curves by label, at most two for any generator.
The dictionary is: a line bundle of degree -1 on a curve C gives (0, C, 0);
its untwisted structure sheaf gives (0, C, 1); the structure sheaf of the
surface gives (1, 0, 1); a shift negates; the spherical twist of one curve
class along an adjacent one adds the divisors.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .curveconf import CurveConfiguration, arm_label, build_configuration, CENTER, E0, E0P, E0PP
from .exactalg import IntMatrix
from .fixtures import FixtureRow


#: the cases whose generator list replaces the two outermost arm-3 classes by
#: one spherical-twist class and lists the E0 class last
TWISTED = ("Quadrilateral_r1", "Exceptional_a5")


class NotARoot(ValueError):
    pass


class UnknownNode(KeyError):
    pass


class CaseMismatch(ValueError):
    pass


@dataclass(frozen=True)
class MukaiClass:
    """(rank, D, degree) with D the sum of m * C over the (label C,
    multiplicity m) pairs of ``divisor``, sorted by label, every m nonzero."""

    rank: int
    divisor: tuple[tuple[str, int], ...]
    degree: int


#: how each descriptor kind prints, its nodes filled in
_FORMS = {"OC-1": "O_{0}(-1)", "OC": "O_{0}", "OX": "O_X", "OX[1]": "O_X[1]", "TW": "T_{0}({1})"}


@dataclass(frozen=True)
class Sheaf:
    """Descriptor of a generator: kind is one of 'OC-1', 'OC', 'OX', 'OX[1]',
    'TW'; nodes names the supporting curve(s)."""

    kind: str
    nodes: tuple[str, ...] = ()

    def __str__(self) -> str:
        form = _FORMS.get(self.kind)
        return self.kind if form is None else form.format(*self.nodes)


@dataclass(frozen=True)
class GeneratorList:
    items: tuple[tuple[Sheaf, MukaiClass], ...]

    def __len__(self) -> int:
        return len(self.items)

    @property
    def classes(self) -> tuple[MukaiClass, ...]:
        return tuple(cls for _, cls in self.items)

    @property
    def descriptors(self) -> tuple[str, ...]:
        return tuple(str(sheaf) for sheaf, _ in self.items)


def _known(conf: CurveConfiguration, divisor: tuple[tuple[str, int], ...]):
    for label, _ in divisor:
        if label not in conf.labels:
            raise UnknownNode(label)
    return divisor


def mukai_pairing(v: MukaiClass, w: MukaiClass, conf: CurveConfiguration) -> int:
    """Negative Euler pairing of two classes over the same configuration;
    UnknownNode when either names a curve the configuration lacks."""
    vd, wd = _known(conf, v.divisor), _known(conf, w.divisor)
    dd = sum(a * b * conf.intersection(c, d) for c, a in vd for d, b in wd)
    return dd - v.rank * w.degree - w.rank * v.degree


def class_of(descriptor: Sheaf, conf: CurveConfiguration) -> MukaiClass:
    """Class of a generator descriptor in (rank, divisor, degree) form."""
    kind, nodes = descriptor.kind, descriptor.nodes
    if kind in ("OC-1", "OC", "TW"):
        divisor = _known(conf, tuple((label, 1) for label in sorted(nodes)))
        return MukaiClass(0, divisor, int(kind == "OC"))
    if kind == "OX":
        return MukaiClass(1, (), 1)
    if kind == "OX[1]":
        return MukaiClass(-1, (), -1)
    raise CaseMismatch(f"unknown descriptor kind {kind!r}")


def generator_list(row: FixtureRow, conf: CurveConfiguration) -> GeneratorList:
    """The ordered generator system for the row's case.

    Arms are listed outside-in, arm 1 first; the two cases that shorten the
    third arm replace its two outermost classes by the spherical-twist class.
    The two-component E0 of the Quadrilateral_r1 case enrolls the plain
    structure-sheaf class of one component and the (-1)-twisted class of the
    other (the committed resolution of the single-symbol listing).
    """
    if conf.case_tag != row.case_tag:
        raise CaseMismatch(f"configuration built for {conf.case_tag}, row is {row.case_tag}")
    case = row.case_tag
    arms = [arm_label(i, j) for i, a_i in enumerate(row.alpha, start=1) for j in range(1, a_i)]
    sheaves = [Sheaf("OC-1", (label,)) for label in arms]
    if case in TWISTED:  # after the a1 - 1 + a2 - 1 curves of arms 1 and 2
        k = row.alpha[0] + row.alpha[1] - 2
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
    items = tuple((sheaf, class_of(sheaf, conf)) for sheaf in sheaves)
    for sheaf, cls in items:
        if mukai_pairing(cls, cls, conf) != -2:
            raise NotARoot(f"generator {sheaf} is not a root")
    return GeneratorList(items)


def gram_matrix(gens: GeneratorList, conf: CurveConfiguration) -> IntMatrix:
    """Gram matrix in listing order: the pairing of :func:`mukai_pairing`, read
    from the adjacency once each class is known.  Row i adds a * m * b at j for
    each curve C of class i (multiplicity a), curve C' with C.C' = m (-2 when
    C' = C) and class j holding C' b times; the rank terms touch only the row
    and column of a class of nonzero rank."""
    classes = gens.classes
    near, holders = defaultdict(dict), defaultdict(list)
    for (c, d), m in conf.edges.items():
        near[c][d] = near[d][c] = m
    for label in conf.labels:
        near[label][label] = -2
    for j, w in enumerate(classes):
        for d, b in _known(conf, w.divisor):
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


def row_gram(row: FixtureRow) -> tuple[IntMatrix, GeneratorList, CurveConfiguration]:
    """Configuration, generator list, and Gram matrix for a fixture row."""
    conf = build_configuration(row)
    gens = generator_list(row, conf)
    return gram_matrix(gens, conf), gens, conf
