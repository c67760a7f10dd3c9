import re

import pytest
from hypothesis import given, settings, strategies as st

from bhdual import klattice
from bhdual.curveconf import build_configuration
from bhdual.fixtures import load_rows, row_by_name
from bhdual.klattice import (
    GeneratorList,
    MukaiClass,
    Sheaf,
    class_of,
    generator_list,
    gram_matrix,
    row_gram,
)
from bhdual.series import transpose_monodromy
from conftest import mukai_pairing


def conf_for(name):
    return build_configuration(row_by_name(name))


def negate(v):
    return MukaiClass(-v.rank, tuple((label, -m) for label, m in v.divisor), -v.degree)


class TestPairing:
    def test_structure_sheaf_is_spherical(self):
        conf = conf_for("S_16")
        ox = class_of(Sheaf("OX"))
        assert mukai_pairing(ox, ox, conf) == -2

    def test_adjacent_line_bundles(self):
        conf = conf_for("S_16")
        c = class_of(Sheaf("OC-1", ("E2_1",)))
        d = class_of(Sheaf("OC-1", ("E2_2",)))
        assert mukai_pairing(c, d, conf) == 1

    def test_ox_vs_twisted_line_bundle(self):
        conf = conf_for("S_16")
        ox = class_of(Sheaf("OX"))
        c = class_of(Sheaf("OC-1", ("E2_1",)))
        assert mukai_pairing(ox, c, conf) == 0

    def test_ox_vs_structure_sheaf_of_curve(self):
        conf = conf_for("S_16")
        ox = class_of(Sheaf("OX"))
        oc = class_of(Sheaf("OC", ("Einf",)))
        assert mukai_pairing(ox, oc, conf) == -1

    def test_central_pair(self):
        conf = conf_for("S_16")
        a = class_of(Sheaf("OC-1", ("Einf",)))
        b = class_of(Sheaf("OC", ("Einf",)))
        assert mukai_pairing(a, b, conf) == -2


PAIRING_CONFS = {name: conf_for(name) for name in ("S_16", "E_20", "J_3,0")}


def dense_classes_on(name):
    """(rank, dense divisor with one slot per curve, degree) triples."""
    size = len(PAIRING_CONFS[name].labels)
    one = st.tuples(
        st.integers(-3, 3),
        st.lists(st.integers(-3, 3), min_size=size, max_size=size),
        st.integers(-3, 3),
    )
    return st.tuples(st.just(name), one, one)


def sparse(dense, conf):
    """The class of a dense triple, its divisor named by label."""
    rank, divisor, degree = dense
    return MukaiClass(
        rank, tuple(sorted((conf.labels[i], m) for i, m in enumerate(divisor) if m)), degree
    )


class TestPairingReference:
    @given(st.sampled_from(sorted(PAIRING_CONFS)).flatmap(dense_classes_on))
    @settings(max_examples=60, deadline=None)
    def test_matches_intersection_matrix(self, case):
        name, (r, dv, s), (r2, dw, s2) = case
        conf = PAIRING_CONFS[name]
        m = conf.intersection_matrix()
        n = len(conf.labels)
        dd = sum(dv[i] * m[i, j] * dw[j] for i in range(n) for j in range(n))
        expected = dd - r * s2 - r2 * s
        v, w = sparse((r, dv, s), conf), sparse((r2, dw, s2), conf)
        assert mukai_pairing(v, w, conf) == expected

    @given(st.sampled_from(sorted(PAIRING_CONFS)).flatmap(dense_classes_on))
    @settings(max_examples=60, deadline=None)
    def test_gram_matches_pairing(self, case):
        # dense divisors and nonzero ranks on both classes, past the
        # generators' at most two curves
        name, v, w = case
        conf = PAIRING_CONFS[name]
        classes = [sparse(v, conf), sparse(w, conf)]
        gram = gram_matrix(GeneratorList(tuple((Sheaf("dense"), c) for c in classes)), conf)
        assert gram.entries == tuple(tuple(mukai_pairing(a, b, conf) for b in classes) for a in classes)

    def test_cross_configuration_class_raises(self):
        # F4 is a curve of the E_20 configuration (a = 5), not of S_16 (a = 2)
        s16, e20 = PAIRING_CONFS["S_16"], PAIRING_CONFS["E_20"]
        foreign = class_of(Sheaf("OC-1", ("F4",)))
        native = class_of(Sheaf("OC", ("Einf",)))
        ox = class_of(Sheaf("OX"))
        for v, w in ((foreign, native), (native, foreign), (foreign, foreign), (ox, foreign)):
            with pytest.raises(ValueError, match="F4"):
                mukai_pairing(v, w, s16)
        with pytest.raises(ValueError, match="F4"):
            gram_matrix(GeneratorList(((Sheaf("OC-1", ("F4",)), foreign),)), s16)
        # a class with no curves pairs on any configuration
        assert mukai_pairing(ox, ox, s16) == -2


class TestClassOf:
    def test_twist_class(self):
        conf = conf_for("E_20")
        tw = class_of(Sheaf("TW", ("E3_1", "E3_2")))
        assert tw.rank == 0 and tw.degree == 0
        assert mukai_pairing(tw, tw, conf) == -2
        assert tw.divisor == (("E3_1", 1), ("E3_2", 1))

    def test_shift_negates(self):
        ox = class_of(Sheaf("OX"))
        shifted = class_of(Sheaf("OX[1]"))
        assert shifted == negate(ox)
        assert (shifted.rank, shifted.degree) == (-1, -1)

    def test_unknown_node(self):
        # a class reads the descriptor alone; the Gram is where a curve the
        # configuration lacks shows
        sheaf = Sheaf("OC", ("E9_9",))
        with pytest.raises(ValueError, match="E9_9"):
            gram_matrix(GeneratorList(((sheaf, class_of(sheaf)),)), conf_for("S_16"))


class TestGeneratorList:
    def test_counts_match_milnor_number(self):
        for row in load_rows():
            gens = generator_list(row)
            assert len(gens.items) == row.mu == transpose_monodromy(row).degree, row.name

    def test_selected_counts(self):
        assert len(generator_list(row_by_name("S_16")).items) == 16
        assert len(generator_list(row_by_name("E_20")).items) == 20
        assert len(generator_list(row_by_name("Z_1,0")).items) == 15

    def test_every_generator_is_a_root(self):
        for row in load_rows():
            conf = build_configuration(row)
            gens = generator_list(row)
            for cls in gens.classes:
                assert mukai_pairing(cls, cls, conf) == -2

    def test_listing_order(self):
        gens = generator_list(row_by_name("E_20"))
        names = gens.descriptors
        assert names[0] == "O_E1_1(-1)"
        assert names[3] == "T_E3_1(E3_2)"
        assert names[-6:] == (
            "O_X[1]",
            "O_F1",
            "O_F2(-1)",
            "O_F3(-1)",
            "O_F4(-1)",
            "O_E0(-1)",
        )

    def test_two_component_tail(self):
        # the calibrated dictionary for the two-component case: one plain
        # structure sheaf and one (-1)-twisted
        gens = generator_list(row_by_name("Z_1,0"))
        assert gens.descriptors[-3:] == ("O_X", "O_E0p", "O_E0pp(-1)")
        assert gens.descriptors[4] == "T_E3_1(E3_2)"


class TestGramMatrix:
    def test_arm_block(self):
        conf = conf_for("S_16")
        gens = generator_list(row_by_name("S_16"))
        gram = gram_matrix(gens, conf)
        # two adjacent arm curves
        assert (gram[0, 0], gram[0, 1], gram[1, 1]) == (-2, 1, -2)

    def test_central_entries(self):
        conf = conf_for("S_16")
        gens = generator_list(row_by_name("S_16"))
        gram = gram_matrix(gens, conf)
        names = gens.descriptors
        i = names.index("O_Einf(-1)")
        j = names.index("O_Einf")
        k = names.index("O_X")
        assert gram[i, j] == -2
        assert gram[k, j] == -1

    def test_symmetric_diagonal_and_range(self):
        for row in load_rows():
            gram = row_gram(row)
            entries = gram.entries
            assert gram.is_symmetric()
            assert all(entries[i][i] == -2 for i in range(gram.dim))
            off = {
                entries[i][j]
                for i in range(gram.dim)
                for j in range(gram.dim)
                if i != j
            }
            assert off <= {-2, -1, 0, 1}, row.name

    def test_equals_mukai_pairing_on_every_pair(self):
        # the adjacency read is the pairing's definition, entry by entry
        for row in load_rows():
            gram, gens, conf = row_gram(row), generator_list(row), build_configuration(row)
            classes = gens.classes
            for i, v in enumerate(classes):
                for j, w in enumerate(classes):
                    assert gram[i, j] == mukai_pairing(v, w, conf), (row.name, i, j)

    def test_unknown_curve_raises(self):
        conf = conf_for("S_16")
        gens = generator_list(row_by_name("S_16"))
        stray = (Sheaf("OC-1", ("E9_1",)), MukaiClass(0, (("E9_1", 1),), 0))
        with pytest.raises(ValueError, match="E9_1"):
            gram_matrix(GeneratorList((*gens.items, stray)), conf)

    def test_foreign_generators_raise(self):
        # E_20's generators name E3_7..E3_10 and F2..F4, which S_16's
        # configuration lacks
        with pytest.raises(ValueError, match="E3_7"):
            gram_matrix(generator_list(row_by_name("E_20")), conf_for("S_16"))


class TestReflect:
    def test_negates_axis(self, reflect):
        conf = conf_for("S_16")
        e = class_of(Sheaf("OC-1", ("E1_1",)))
        assert reflect(e, e, conf) == negate(e)

    def test_reflection_realizes_twist(self, reflect):
        conf = conf_for("E_20")
        b = class_of(Sheaf("OC-1", ("E3_1",)))
        c = class_of(Sheaf("OC-1", ("E3_2",)))
        assert mukai_pairing(c, b, conf) == 1
        assert reflect(c, b, conf) == class_of(Sheaf("TW", ("E3_1", "E3_2")))

    def test_orthogonal_fixed(self, reflect):
        conf = conf_for("S_16")
        e = class_of(Sheaf("OC-1", ("E1_1",)))
        x = class_of(Sheaf("OC-1", ("E2_1",)))
        assert mukai_pairing(x, e, conf) == 0
        assert reflect(x, e, conf) == x

    def test_involution_and_isometry(self, reflect):
        row = row_by_name("W_18")
        conf = build_configuration(row)
        gens = generator_list(row)
        classes = gens.classes
        root = classes[5]
        images = [reflect(v, root, conf) for v in classes]
        for v, iv in zip(classes, images):
            assert reflect(iv, root, conf) == v
        for i, v in enumerate(classes):
            for j, w in enumerate(classes):
                assert mukai_pairing(images[i], images[j], conf) == mukai_pairing(v, w, conf)

    def test_not_a_root(self, monkeypatch):
        # the twist class T_E3_1(E3_2) is a root only because E3_1 meets E3_2;
        # row_gram reads that from the Gram's diagonal
        def apart(row):
            conf = build_configuration(row)
            edges = {pair: m for pair, m in conf.edges.items() if pair != ("E3_1", "E3_2")}
            return conf._replace(edges=edges)

        monkeypatch.setattr(klattice, "build_configuration", apart)
        with pytest.raises(ValueError, match=re.escape("generator T_E3_1(E3_2) is not a root")):
            row_gram(row_by_name("E_20"))


class TestBaseChange:
    def test_twist_preserves_pairings_against_other_generators(self):
        """Replacing the two outermost arm-3 classes by the twist class leaves
        every pairing with the remaining generators unchanged in total."""
        row = row_by_name("E_20")
        conf = build_configuration(row)
        b = class_of(Sheaf("OC-1", ("E3_1",)))
        c = class_of(Sheaf("OC-1", ("E3_2",)))
        tw = class_of(Sheaf("TW", ("E3_1", "E3_2")))
        gens = generator_list(row)
        for sheaf, v in gens.items:
            if str(sheaf) in ("T_E3_1(E3_2)",):
                continue
            assert mukai_pairing(tw, v, conf) == mukai_pairing(b, v, conf) + mukai_pairing(
                c, v, conf
            )
