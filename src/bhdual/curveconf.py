"""Configurations of smooth rational -2-curves attached to a fixture row:
three arm chains meeting a central curve, the extra curve E0 (one or two
components), and the chain of curves F_l over the extra quotient point in the
exceptional cases.

A stored value that names a curve the configuration lacks raises
ValueError where the edge is joined, as it does where klattice and dynkin
look a curve up.
"""
from __future__ import annotations

from typing import NamedTuple

from .exactalg import IntMatrix
from .fixtures import CASE_TAGS, FixtureRow


class CurveConfiguration(NamedTuple):
    """Labeled undirected multigraph of -2-curves.

    ``edges`` maps a sorted label pair to its intersection multiplicity (all
    multiplicities are 1 here: transversal intersections in distinct points).
    """

    labels: tuple[str, ...]
    edges: dict[tuple[str, str], int]

    def intersection(self, a: str, b: str) -> int:
        if a == b:
            return -2
        return self.edges.get((min(a, b), max(a, b)), 0)

    def intersection_matrix(self) -> IntMatrix:
        labels = self.labels
        return IntMatrix(
            [[self.intersection(a, b) for b in labels] for a in labels]
        )

def arm_label(i: int, j: int) -> str:
    return f"E{i}_{j}"


CENTER = "Einf"
E0, E0P, E0PP = "E0", "E0p", "E0pp"


def build_configuration(row: FixtureRow) -> CurveConfiguration:
    """Construct the configuration for a fixture row.

    Arms are chains of alpha_i - 1 curves indexed from the outer end; the
    innermost curve of each arm meets the central curve.  E0 attaches at the
    positions stored in the row's attachment table; in the Quadrilateral_r1
    case it has two components, both meeting the outermost curve of the third
    arm and nothing else.  An edge that names a curve the labels lack (an
    attachment beyond its arm or the F-chain, or the innermost curve of an
    arm with alpha_i below 2) or an attachment the table does not record
    raises ValueError.
    """
    alpha, case = row.dolgachev, row.case_tag
    a = CASE_TAGS[case]
    labels: list[str] = []
    for i, a_i in enumerate(alpha, start=1):
        labels.extend(arm_label(i, j) for j in range(1, a_i))
    labels.append(CENTER)
    if case == "Quadrilateral_r1":
        labels += [E0P, E0PP]
    else:
        labels.append(E0)
    exceptional = case.startswith("Exceptional")
    if exceptional:
        labels.extend(f"F{l}" for l in range(1, a))

    edges: dict[tuple[str, str], int] = {}

    def join(u: str, v: str):
        for w in (u, v):
            if w not in labels:
                raise ValueError(
                    f"row {row.name}: the edge {u} -- {v} names {w}, a curve the configuration lacks"
                )
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0) + 1

    for i, a_i in enumerate(alpha, start=1):
        for j in range(1, a_i - 1):
            join(arm_label(i, j), arm_label(i, j + 1))
        join(arm_label(i, a_i - 1), CENTER)

    table = row.attachment_table
    if case == "Quadrilateral_r1":
        if table.arms.get(3) != 1:
            raise ValueError(
                f"row {row.name}: both E0 components attach the outermost curve of arm 3"
            )
        join(E0P, arm_label(3, 1))
        join(E0PP, arm_label(3, 1))
    else:
        if not table.arms:
            raise ValueError(f"row {row.name}: no arm attachments recorded")
        for i, pos in sorted(table.arms.items()):
            join(E0, arm_label(i, pos))
        if exceptional:
            if table.f_chain is None:
                raise ValueError(
                    f"row {row.name}: missing F-chain attachment for case {case}"
                )
            join(E0, f"F{table.f_chain}")

    if exceptional:
        for l in range(1, a - 1):
            join(f"F{l}", f"F{l+1}")

    return CurveConfiguration(labels=tuple(labels), edges=edges)
