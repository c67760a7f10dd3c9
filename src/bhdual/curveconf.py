"""Configurations of smooth rational -2-curves attached to a fixture row:
three arm chains meeting a central curve, the extra curve E0 (one or two
components), and the chain of curves F_l over the extra quotient point in the
exceptional cases.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactalg import IntMatrix
from .fixtures import FixtureRow


class MissingAttachment(ValueError):
    """The row's attachment table does not cover a required attachment."""


@dataclass(frozen=True)
class CurveConfiguration:
    """Labeled undirected multigraph of -2-curves.

    ``edges`` maps a sorted label pair to its intersection multiplicity (all
    multiplicities are 1 here: transversal intersections in distinct points).
    ``unused`` flags nodes present in the geometry but not enrolled in the
    K-group generator list.
    """

    labels: tuple[str, ...]
    edges: dict[tuple[str, str], int]
    case_tag: str
    unused: frozenset[str] = field(default_factory=frozenset)

    @cached_property
    def index(self):
        """label -> position, by a dict built once; KeyError when unknown."""
        return {label: i for i, label in enumerate(self.labels)}.__getitem__

    def intersection(self, a: str, b: str) -> int:
        if a == b:
            return -2
        return self.edges.get((min(a, b), max(a, b)), 0)

    def intersection_matrix(self) -> IntMatrix:
        labels = self.labels
        return IntMatrix(
            [[self.intersection(a, b) for b in labels] for a in labels]
        )

    def neighbors(self, label: str):
        for (a, b), _ in sorted(self.edges.items()):
            if a == label:
                yield b
            elif b == label:
                yield a

    def is_connected(self) -> bool:
        if not self.labels:
            return True
        seen = {self.labels[0]}
        frontier = [self.labels[0]]
        while frontier:
            current = frontier.pop()
            for other in self.neighbors(current):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(self.labels)


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
    arm and nothing else.
    """
    alpha = row.alpha
    case = row.case_tag
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
        labels.extend(f"F{l}" for l in range(1, row.a))

    edges: dict[tuple[str, str], int] = {}

    def join(a: str, b: str):
        key = (min(a, b), max(a, b))
        edges[key] = edges.get(key, 0) + 1

    for i, a_i in enumerate(alpha, start=1):
        for j in range(1, a_i - 1):
            join(arm_label(i, j), arm_label(i, j + 1))
        join(arm_label(i, a_i - 1), CENTER)

    table = row.attachment_table
    if case == "Quadrilateral_r1":
        if table.arms.get(3) != 1:
            raise MissingAttachment(
                f"row {row.name}: both E0 components attach the outermost curve of arm 3"
            )
        join(E0P, arm_label(3, 1))
        join(E0PP, arm_label(3, 1))
    else:
        if not table.arms:
            raise MissingAttachment(f"row {row.name}: no arm attachments recorded")
        for i, pos in sorted(table.arms.items()):
            if not 1 <= pos <= alpha[i - 1] - 1:
                raise MissingAttachment(
                    f"row {row.name}: position {pos} outside arm {i}"
                )
            join(E0, arm_label(i, pos))
        if exceptional:
            if table.f_chain is None or not 1 <= table.f_chain <= row.a - 1:
                raise MissingAttachment(
                    f"row {row.name}: missing F-chain attachment for case {case}"
                )
            join(E0, f"F{table.f_chain}")

    if exceptional:
        for l in range(1, row.a - 1):
            join(f"F{l}", f"F{l+1}")

    unused = frozenset({"F1"}) if case == "Exceptional_a2" else frozenset()
    return CurveConfiguration(
        labels=tuple(labels),
        edges=edges,
        case_tag=case,
        unused=unused,
    )


def attachment_consistent_with_rule(row: FixtureRow) -> bool:
    """Whether the committed attachment table equals the literal reading
    'position alpha_i - beta_i - 1 from the outside, skipping beta = alpha-1'.

    Rows with provenance 'calibrated' are allowed to deviate; for all others
    this is an integrity check on the fixture data.
    """
    expected = {
        i: al - be - 1
        for i, (al, be) in enumerate(row.alpha_beta, start=1)
        if be != al - 1
    }
    if row.case_tag == "Quadrilateral_r1":
        # both E0 components sit on the outermost curve of the third arm
        return row.attachment_table.arms == {3: 1}
    return row.attachment_table.arms == expected


def validate_tree(conf: CurveConfiguration) -> bool:
    """True iff the subgraph on the arms and the central curve is a tree with
    exactly three branches at the center."""
    core = {label for label in conf.labels if label.startswith("E") and "_" in label}
    core.add(CENTER)
    core_edges = [
        (a, b) for (a, b) in conf.edges if a in core and b in core
    ]
    if len(core_edges) != len(core) - 1:
        return False
    # connectivity of the core
    seen = {CENTER}
    frontier = [CENTER]
    adjacency: dict[str, list[str]] = {}
    for a, b in core_edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    while frontier:
        current = frontier.pop()
        for other in adjacency.get(current, ()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    if seen != core:
        return False
    return len(adjacency.get(CENTER, ())) == 3


def _node_sort_key(label: str):
    head = label.rstrip("0123456789")
    tail = label[len(head):]
    return (head, int(tail) if tail else -1)


def dual_graph_dot(conf: CurveConfiguration, name: str = "config") -> str:
    """Deterministic DOT rendering; multiplicity-m edges are emitted m times."""
    lines = [f"graph {name} {{"]
    for label in sorted(conf.labels, key=_node_sort_key):
        lines.append(f"  {label};")
    for (a, b), mult in sorted(conf.edges.items()):
        for _ in range(mult):
            lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
