"""Configurations of smooth rational -2-curves attached to a fixture row:
three arm chains meeting a central curve, the extra curve E0 (one or two
components), and the chain of curves F_l over the extra quotient point in the
exceptional cases.

:func:`arms` is the one rule that turns the Dolgachev triple into arm curves
and the one check of it.  A stored value that names a curve the
configuration lacks raises ValueError where the edge is joined, as it does
where klattice and dynkin look a curve up.
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


def arms(alpha) -> tuple[tuple[str, ...], ...]:
    """The arms of T(alpha_1, alpha_2, alpha_3), shared by the configuration,
    the generator list and the T-core: arm i's alpha_i - 1 curve labels from
    the outer end inward; ValueError, naming the arm, for an alpha_i below 2."""
    for i, a_i in enumerate(alpha, start=1):
        if a_i < 2:
            raise ValueError(f"Dolgachev number alpha_{i} = {a_i} is below 2: arm {i} has no curve")
    return tuple(tuple(arm_label(i, j) for j in range(1, a_i)) for i, a_i in enumerate(alpha, start=1))


CENTER = "Einf"
E0, E0P, E0PP = "E0", "E0p", "E0pp"


def build_configuration(row: FixtureRow) -> CurveConfiguration:
    """Construct the configuration for a fixture row.

    The arms are the chains :func:`arms` lists, each ending at the central
    curve.  E0 attaches at the positions stored in the row's attachment
    table; in the Quadrilateral_r1 case it has two components, both meeting
    the outermost curve of the third arm and nothing else, and the table must
    say exactly that, {3: 1} with no F-chain position.  An edge that names a
    curve the labels lack (an attachment beyond its arm or the F-chain, or an
    F-chain position on a row without F-chain) or an attachment the table
    does not record raises ValueError.
    """
    case = row.case_tag
    arm_curves = arms(row.dolgachev)
    f_chain = [f"F{l}" for l in range(1, CASE_TAGS[case])] if case.startswith("Exceptional") else []
    labels = [label for arm in arm_curves for label in arm]
    labels += [CENTER, E0P, E0PP] if case == "Quadrilateral_r1" else [CENTER, E0]
    labels += f_chain
    edges: dict[tuple[str, str], int] = {}

    def join(u: str, v: str):
        for w in (u, v):
            if w not in labels:
                raise ValueError(
                    f"row {row.name}: the edge {u} -- {v} names {w}, a curve the configuration lacks"
                )
        key = (min(u, v), max(u, v))
        edges[key] = edges.get(key, 0) + 1

    for arm in arm_curves:
        for u, v in zip(arm, arm[1:]):
            join(u, v)
        join(arm[-1], CENTER)

    table = row.attachment_table
    if case == "Quadrilateral_r1":
        if table != ({3: 1}, None):
            raise ValueError(
                f"row {row.name}: both E0 components attach the outermost curve of arm 3, and nothing else"
            )
        join(E0P, arm_label(3, 1))
        join(E0PP, arm_label(3, 1))
    else:
        if not table.arms:
            raise ValueError(f"row {row.name}: no arm attachments recorded")
        for i, pos in sorted(table.arms.items()):
            join(E0, arm_label(i, pos))
        if f_chain and table.f_chain is None:
            raise ValueError(f"row {row.name}: missing F-chain attachment for case {case}")
        if table.f_chain is not None:
            join(E0, f"F{table.f_chain}")
    for u, v in zip(f_chain, f_chain[1:]):
        join(u, v)
    return CurveConfiguration(labels=tuple(labels), edges=edges)
