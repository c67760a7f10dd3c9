import re

import pytest
from hypothesis import given, settings, strategies as st

from bhdual.curveconf import (
    CENTER,
    CurveConfiguration,
    arms,
    build_configuration,
)
from bhdual.dynkin import DynkinDiagram, correspondence, diagram_for_row, t_graph
from bhdual.fixtures import AttachmentTable, load_rows, row_by_name
from bhdual.klattice import TWISTED, GeneratorList, MukaiClass, Sheaf, class_of, generator_list, gram_matrix


def expected_node_count(row):
    arms = sum(a - 1 for a in row.dolgachev)
    e0 = 2 if row.case_tag == "Quadrilateral_r1" else 1
    f_chain = row.a - 1 if row.case_tag.startswith("Exceptional") else 0
    return arms + 1 + e0 + f_chain


def adjacency(conf, nodes=None):
    """label -> adjacent labels, over the edges with both ends in ``nodes``
    (default: every label)."""
    nodes = set(conf.labels if nodes is None else nodes)
    adjacent = {label: [] for label in nodes}
    for a, b in conf.edges:
        if a in nodes and b in nodes:
            adjacent[a].append(b)
            adjacent[b].append(a)
    return adjacent


def is_core_tree(conf, reachable):
    """Whether the subgraph on the arms and the central curve is a tree with
    exactly three branches at the center."""
    core = {label for label in conf.labels if label.startswith("E") and "_" in label}
    core.add(CENTER)
    adjacent = adjacency(conf, core)
    n_edges = sum(map(len, adjacent.values())) // 2
    return (
        n_edges == len(core) - 1
        and reachable(CENTER, adjacent.__getitem__) == core
        and len(adjacent[CENTER]) == 3
    )


def follows_literal_rule(row):
    """Whether the committed attachment table equals the literal reading
    'position alpha_i - beta_i - 1 from the outside, skipping beta = alpha-1'
    (both E0 components on the outermost curve of arm 3 for Quadrilateral_r1)."""
    if row.case_tag == "Quadrilateral_r1":
        return row.attachment_table.arms == {3: 1}
    expected = {
        i: al - be - 1
        for i, (al, be) in enumerate(row.alpha_beta, start=1)
        if be != al - 1
    }
    return row.attachment_table.arms == expected


def config_dot(conf):
    """The configuration drawn as render_diagrams.py draws it."""
    return DynkinDiagram(conf.labels, conf.intersection_matrix()).dot(name="config")


class TestBuildConfiguration:
    def test_two_component_case(self):
        conf = build_configuration(row_by_name("Z_1,0"))
        assert len(conf.labels) == 14  # arms 1+3+7, center, E0p, E0pp
        assert conf.intersection("E0p", "E3_1") == 1
        assert conf.intersection("E0pp", "E3_1") == 1
        assert conf.intersection("E0p", "E0pp") == 0
        # the arms-plus-center tree has 11+1 nodes and 11 edges; two extra edges
        assert len(conf.edges) == 13

    def test_a5_case(self):
        conf = build_configuration(row_by_name("E_20"))
        assert len(conf.labels) == 19  # 13 arm + center + E0 + F1..F4
        assert conf.intersection("E0", "F2") == 1
        assert conf.intersection("E0", "E3_1") == 1
        assert conf.intersection("F1", "F2") == 1
        assert conf.intersection("E0", "F1") == 0

    def test_a2_case(self):
        conf = build_configuration(row_by_name("S_16"))
        assert len(conf.labels) == 15  # 12 arm + center + E0 + F1
        assert conf.intersection("E0", "F1") == 1
        assert conf.intersection("E0", "E2_1") == 1
        assert conf.intersection("E0", "E3_2") == 1

    def test_a2_generators_leave_f1_out(self):
        # F1 is in the geometry of the a2 case but enrolls no generator
        rows = [row for row in load_rows() if row.case_tag == "Exceptional_a2"]
        assert rows
        for row in rows:
            assert "F1" in build_configuration(row).labels, row.name
            for sheaf, cls in generator_list(row).items:
                assert "F1" not in sheaf.nodes, row.name
                assert "F1" not in dict(cls.divisor), row.name

    def test_node_count_formula_and_connectivity(self, reachable):
        for row in load_rows():
            conf = build_configuration(row)
            assert len(conf.labels) == expected_node_count(row), row.name
            reached = reachable(conf.labels[0], adjacency(conf).__getitem__)
            assert reached == set(conf.labels), row.name
            assert all(conf.intersection(l, l) == -2 for l in conf.labels)
            assert all(mult == 1 for mult in conf.edges.values())

    def test_missing_attachment(self):
        row = row_by_name("S_16")
        broken = row._replace(attachment_table=AttachmentTable(arms={}, f_chain=1))
        with pytest.raises(ValueError, match="^row S_16: no arm attachments recorded$"):
            build_configuration(broken)

    def test_position_out_of_range(self):
        # arm 3 of S_16 holds E3_1..E3_6 and its F-chain F1 alone: an
        # attachment beyond them names a curve the configuration lacks
        row = row_by_name("S_16")
        for table, curve in (
            (AttachmentTable(arms={2: 1, 3: 9}, f_chain=1), "E3_9"),
            (AttachmentTable(arms={2: 1, 3: 2}, f_chain=2), "F2"),
        ):
            with pytest.raises(ValueError) as raised:
                build_configuration(row._replace(attachment_table=table))
            assert str(raised.value) == f"row S_16: the edge E0 -- {curve} names {curve}, a curve the configuration lacks"

    @pytest.mark.parametrize("alpha, arm", [((1, 3, 12), 1), ((2, 0, 12), 2), ((2, 3, 1), 3)])
    def test_short_arm(self, alpha, arm):
        # an arm with no curves is rejected by the one arm rule, with its text
        with pytest.raises(ValueError) as raised:
            build_configuration(row_by_name("E_18")._replace(dolgachev=alpha))
        assert str(raised.value) == (
            f"Dolgachev number alpha_{arm} = {alpha[arm - 1]} is below 2: arm {arm} has no curve"
        )


class TestArms:
    """One arm rule past the 20 rows: every triple with alpha_i in 1..15."""

    TRIPLES = st.tuples(*[st.integers(1, 15)] * 3)

    @given(TRIPLES)
    @settings(max_examples=300, deadline=None)
    def test_one_rule_for_every_triple(self, alpha):
        # arms raises iff some alpha_i < 2, and then the T-core, the
        # configuration and the generator list raise its text; otherwise the
        # T-core's arm vertices are arms(alpha), outside-in, its arm edges
        # their consecutive pairs, and each innermost curve meets both
        # central vertices
        row = row_by_name("E_18")._replace(dolgachev=alpha)
        if min(alpha) < 2:
            with pytest.raises(ValueError) as raised:
                arms(alpha)
            for build in (lambda: t_graph(alpha), lambda: build_configuration(row), lambda: generator_list(row)):
                with pytest.raises(ValueError) as again:
                    build()
                assert str(again.value) == str(raised.value)
            return
        chains = arms(alpha)
        assert [len(arm) for arm in chains] == [a - 1 for a in alpha]
        t = t_graph(alpha)
        centres = ("EinfL", "EinfU")
        assert t.vertices == (*(label for arm in chains for label in arm), *centres)
        edges = {(u, v) for u, v, _ in t.edges()}
        assert {e for e in edges if e[1] not in centres} == {pair for arm in chains for pair in zip(arm, arm[1:])}
        assert {e for e in edges if e[1] in centres} == {centres} | {(arm[-1], c) for arm in chains for c in centres}

    @given(st.sampled_from(load_rows()), TRIPLES)
    @settings(max_examples=200, deadline=None)
    def test_three_builders_share_the_arms(self, row, raise_to):
        # each alpha_i raised to at least its stored value, so the stored
        # attachments stay on the arms: the configuration lists arms(alpha),
        # the generator list lists them outside-in (the twist class in place
        # of arm 3's two outermost curves), and the correspondence, the rule
        # diagram and the generator list have one size
        alpha = tuple(map(max, row.dolgachev, raise_to))
        row = row._replace(dolgachev=alpha)
        flat = [label for arm in arms(alpha) for label in arm]
        conf = build_configuration(row)
        assert [label for label in conf.labels if re.fullmatch(r"E\d+_\d+", label)] == flat
        gens = generator_list(row)
        listed = len(flat) - (row.case_tag in TWISTED)
        assert [node for sheaf, _ in gens.items[:listed] for node in sheaf.nodes] == flat
        assert len(correspondence(row)) == diagram_for_row(row).rank == len(gens.items)


class TestIndex:
    def test_unknown_label_is_an_unknown_node(self):
        conf = build_configuration(row_by_name("S_16"))
        stray = (Sheaf("dense"), MukaiClass(0, (("E9_9", 1),), 0))
        with pytest.raises(ValueError, match="E9_9"):
            gram_matrix(GeneratorList((stray,)), conf)
        sheaf = Sheaf("OC-1", ("F99",))
        with pytest.raises(ValueError, match="F99"):
            gram_matrix(GeneratorList(((sheaf, class_of(sheaf)),)), conf)


class TestAttachmentRule:
    def test_calibrated_rows_are_exactly_the_deviating_ones(self):
        deviating = {
            row.name for row in load_rows() if not follows_literal_rule(row)
        }
        assert deviating == {"Z_19"}


class TestValidateTree:
    def test_built_configurations(self, reachable):
        for row in load_rows():
            assert is_core_tree(build_configuration(row), reachable), row.name

    def test_cycle_detected(self, reachable):
        conf = build_configuration(row_by_name("S_16"))
        edges = dict(conf.edges)
        edges[("E1_1", "E2_1")] = 1
        assert not is_core_tree(
            CurveConfiguration(conf.labels, edges), reachable
        )

    def test_minimal_star(self, reachable):
        # bare (2,2,2) star: one curve per arm plus the center
        labels = ("E1_1", "E2_1", "E3_1", "Einf")
        edges = {
            ("E1_1", "Einf"): 1,
            ("E2_1", "Einf"): 1,
            ("E3_1", "Einf"): 1,
        }
        assert is_core_tree(CurveConfiguration(labels, edges), reachable)


class TestDot:
    def test_counts(self):
        dot = config_dot(build_configuration(row_by_name("Z_1,0")))
        assert dot.count(";") == 14 + 13  # one line per node, one per edge
        assert dot.startswith("graph config {")

    def test_empty(self):
        empty = CurveConfiguration((), {})
        assert config_dot(empty) == "graph config {\n}\n"

    def test_a5_node_count(self):
        dot = config_dot(build_configuration(row_by_name("E_20")))
        assert sum(1 for line in dot.splitlines() if line.endswith(";") and "--" not in line) == 19

    def test_deterministic(self):
        a = config_dot(build_configuration(row_by_name("U_16")))
        b = config_dot(build_configuration(row_by_name("U_16")))
        assert a == b
