import pytest
from hypothesis import given, settings, strategies as st

from bhdual import coxeter, dynkin, klattice
from bhdual.coxeter import coxeter_element
from bhdual.dynkin import (
    CalibrationFailed,
    ConventionTable,
    calibrate,
    case_key,
    committed_convention,
    correspondence,
    diagram_for_row,
    equal_under_correspondence,
    extend,
    extension_edges,
    t_graph,
)
from bhdual.exactalg import CyclotomicFactorization, IntMatrix, IntPolynomial
from bhdual.fixtures import load_rows, row_by_name
from bhdual.klattice import TWISTED, generator_list, row_gram
from bhdual.quotres import exceptional_components_met, invariant_image
from bhdual.series import transpose_monodromy
from conftest import READINGS, case_candidates, reading_edges, rule_diagram


def wrong_oracle(row):
    """A monodromy oracle no candidate diagram can match (all eigenvalues -1)."""
    return CyclotomicFactorization({2: row.mu}, 1, IntPolynomial.one())


def k_lattice_in_rule_order(row, k_gram):
    """K[sigma[i]][sigma[j]] for the row's correspondence sigma, read entry
    by entry."""
    sigma = correspondence(row)
    return tuple(tuple(k_gram[p, q] for q in sigma) for p in sigma)


class TestTGraph:
    def test_smallest(self):
        t = t_graph((2, 2, 2))
        assert t.rank == 5
        # doubled dashed edge between the central vertices
        i, j = t.vertices.index("EinfL"), t.vertices.index("EinfU")
        assert t.gram[i, j] == -2

    def test_vertex_counts(self):
        assert t_graph((3, 5, 7)).rank == 14
        assert t_graph((2, 3, 11)).rank == 15

    def test_arm_chains_plain(self):
        t = t_graph((3, 5, 7))
        i, j = t.vertices.index("E2_1"), t.vertices.index("E2_2")
        assert t.gram[i, j] == 1

    def test_both_centrals_meet_arm_ends(self):
        t = t_graph((2, 2, 2))
        for arm_end in ("E1_1", "E2_1", "E3_1"):
            k = t.vertices.index(arm_end)
            assert t.gram[k, t.vertices.index("EinfL")] == 1
            assert t.gram[k, t.vertices.index("EinfU")] == 1


class TestExtend:
    def test_a2_attachments(self):
        row = row_by_name("S_16")
        diagram = diagram_for_row(row)
        assert diagram.rank == 16
        b2 = diagram.vertices.index("B2")
        attached = [
            v
            for k, v in enumerate(diagram.vertices)
            if k != b2 and diagram.gram[b2, k] and v != "B1"
        ]
        # arm 1 has beta = alpha - 1, so only arms 2 and 3 are attached
        assert attached == ["E2_1", "E3_2"]

    def test_a5_chain(self):
        diagram = diagram_for_row(row_by_name("E_20"))
        assert diagram.rank == 20
        for a, b in (("B1", "B2"), ("B2", "B3"), ("B3", "B4"), ("B4", "B5")):
            assert diagram.gram[diagram.vertices.index(a), diagram.vertices.index(b)] == 1
        b1 = diagram.vertices.index("B1")
        assert diagram.gram[b1, diagram.vertices.index("EinfU")] == 1

    def test_escape_clause_all_beta_maximal(self):
        conv = committed_convention()
        row = row_by_name("S_16")._replace(dolgachev=(2, 2, 2), alpha_beta=((2, 1),) * 3)
        assert case_key(row) == "a2"
        diagram = extend(t_graph((2, 2, 2)), 2, extension_edges(row, conv.cases["a2"]))
        assert diagram_for_row(row) == diagram
        b2 = diagram.vertices.index("B2")
        neighbors = [
            v for k, v in enumerate(diagram.vertices) if k != b2 and diagram.gram[b2, k]
        ]
        assert neighbors == ["B1"]  # no arm attachments at all

    def test_new_vertices_numbered_last(self):
        diagram = diagram_for_row(row_by_name("W_18"))
        assert diagram.vertices[-3:] == ("B1", "B2", "B3")

    def test_attachment_beyond_the_built_arm(self):
        # the J_3,0 fixed slot at E3_2 lies beyond arm 3 when alpha_3 = 2: an
        # error naming the curve (a ValueError, as every stage error is), not
        # a bare KeyError
        with pytest.raises(ValueError) as raised:
            diagram_for_row(row_by_name("J_3,0")._replace(dolgachev=(2, 3, 2)))
        assert str(raised.value) == "the edge B2 -- E3_2 names E3_2, a curve the diagram lacks"
        assert not isinstance(raised.value, KeyError)

    def test_arm_rule_is_the_lemma_component_less_one(self):
        # on the untwisted rows the stored attachment table hangs arm i at the
        # component the resolution lemma gives for (beta_i, alpha_i), less
        # one: alpha - beta - 1, the position extension_edges reads
        untwisted = [row for row in load_rows() if row.case_tag not in TWISTED]
        assert len(untwisted) == 14
        for row in untwisted:
            lemma = {}
            for arm, (alpha, (_, beta)) in enumerate(zip(row.dolgachev, row.alpha_beta), start=1):
                [c] = exceptional_components_met(invariant_image(beta, alpha), alpha)
                if c >= 2:
                    lemma[arm] = c - 1
            assert row.attachment_table.arms == lemma, row.name


def judged_by_case(rows, oracle_fac):
    """case key -> [(row, its K-lattice Gram, its oracle verdict)], keys
    sorted; the verdict is whether the K-lattice Gram in rule order has the
    oracle Coxeter factorization, which a variant equal to it shares."""
    cases = {}
    for row in rows:
        k_gram = row_gram(row)
        fac = coxeter_element(IntMatrix(k_lattice_in_rule_order(row, k_gram))).factorization
        verdict = fac.is_cyclotomic and fac.factors == oracle_fac(row).factors
        cases.setdefault(case_key(row), []).append((row, k_gram, verdict))
    return dict(sorted(cases.items()))


def variant_fits(judged, reading, candidate):
    """Whether the variant's diagram under ``reading`` is the K-lattice
    diagram of every judged row and each row's oracle verdict holds; a
    diagram that cannot be built fits no row."""
    for row, k_gram, verdict in judged:
        try:
            gram = rule_diagram(row, reading, candidate).gram
        except ValueError:
            return False
        if not (verdict and equal_under_correspondence(row, gram, k_gram)):
            return False
    return True


def fitting_variants(reading):
    """case key -> the variants of tests/conftest.py that fit every row of
    the case under ``reading``."""
    return {
        key: [candidate for candidate in case_candidates(key) if variant_fits(judged, reading, candidate)]
        for key, judged in judged_by_case(load_rows(), transpose_monodromy).items()
    }


class TestVariantStream:
    def test_committed_wiring_is_the_one_fit_under_the_arm_rule(self):
        # under alpha - beta - 1 the committed wiring is the first variant
        # drawn and the only one that fits a2, a3 and a5; a2_r1's second fit
        # hangs the arms on B2, where the rule reads, on each a2_r1 row, the
        # one attachment the committed fixed slot names (arm 3, position 2)
        committed = committed_convention().cases
        fits = fitting_variants(ConventionTable.reading)
        for key in ("a2", "a3", "a5"):
            assert fits[key] == [committed[key]], key
        assert next(case_candidates("a2_r1")) == committed["a2_r1"] == fits["a2_r1"][0]
        assert len(fits["a2_r1"]) == 2

    @pytest.mark.parametrize("reading", READINGS[1:])
    def test_other_readings_fit_no_a2_or_a3_variant(self, reading):
        fits = fitting_variants(reading)
        assert fits["a2"] == fits["a3"] == []

    def test_moved_edges_are_the_package_edges_under_the_arm_rule(self):
        # the tests' reading-aware copy of extension_edges agrees with the
        # package's one rule on every row and every variant of its case
        assert READINGS[0] == ConventionTable.reading
        for row in load_rows():
            for candidate in case_candidates(case_key(row)):
                assert reading_edges(row, READINGS[0], candidate) == extension_edges(row, candidate), row.name


class TestCalibration:
    def test_committed_table_is_the_calibration_result(self):
        # plain equality: a CaseConvention carries nothing but its wiring
        assert calibrate(load_rows(), transpose_monodromy) == committed_convention()

    def test_a2_toy_char_poly_convention_free(self):
        # two plainly joined roots: characteristic polynomial t^2 + t + 1
        cox = coxeter_element(IntMatrix([[-2, 1], [1, -2]]))
        assert cox.char == IntPolynomial((1, 1, 1))

    def test_calibration_failure_reports_rows(self):
        rows = [row_by_name("E_20")]
        with pytest.raises(CalibrationFailed) as info:
            calibrate(rows, wrong_oracle)
        assert info.value.report == {"a5": ["E_20"]}

    @pytest.mark.parametrize("u, v", [("EinfL", "EinfU"), ("B1", "B1")])
    def test_k_lattice_unlike_the_rule_diagram_fails_the_row(self, monkeypatch, u, v):
        # the extension edges fix only the off-diagonal entries of the B
        # rows: a K-lattice whose core block or B diagonal differs from the
        # rule diagram's fails the row too
        row = row_by_name("E_20")
        vertices, sigma = diagram_for_row(row).vertices, correspondence(row)
        p, q = sigma[vertices.index(u)], sigma[vertices.index(v)]
        gram = [list(r) for r in row_gram(row).entries]
        gram[p][q] = gram[q][p] = -gram[p][q]
        monkeypatch.setattr(klattice, "row_gram", lambda r: IntMatrix(gram))
        with pytest.raises(CalibrationFailed) as info:
            calibrate([row], transpose_monodromy)
        assert info.value.report == {"a5": ["E_20"]}

    def test_unbuildable_rule_diagram_fails_the_row(self):
        # beta_3 > alpha_3 puts S_16's arm-3 attachment before the arm's
        # outer end, a curve the rule diagram lacks: the row fails
        row = row_by_name("S_16")
        row = row._replace(alpha_beta=(*row.alpha_beta[:2], (7, 9)))
        with pytest.raises(CalibrationFailed) as info:
            calibrate([row], transpose_monodromy)
        assert info.value.report == {"a2": ["S_16"]}

    def test_unbuildable_k_lattice_raises(self):
        # J_3,0 with alpha_3 = 2 lacks E3_2, which both its twist class and
        # its fixed slot name; the K-lattice Gram is built first, so its
        # error propagates instead of failing the row
        row = row_by_name("J_3,0")._replace(dolgachev=(2, 3, 2))
        with pytest.raises(ValueError) as raised:
            calibrate([row], transpose_monodromy)
        assert str(raised.value) == "generator T_E3_1(E3_2) names E3_2, a curve the configuration lacks"


class TestCalibrationRejectsCheaplyFirst:
    @pytest.mark.parametrize("path", ["success", "failure"])
    def test_coxeter_element_only_for_isomorphic_candidates(self, monkeypatch, path):
        # a row reaches the Coxeter element at most once, on its rule
        # diagram, and only once that diagram equals the K-lattice diagram
        # under the correspondence
        calls = []
        current = {}

        def traced_rule(row):
            current["row"] = row
            return diagram_for_row(row)

        def traced_coxeter(gram):
            calls.append((current["row"], gram))
            return coxeter_element(gram)

        monkeypatch.setattr(dynkin, "diagram_for_row", traced_rule)
        monkeypatch.setattr(dynkin, "coxeter_element", traced_coxeter)
        if path == "success":
            rows = load_rows()
            calibrate(rows, transpose_monodromy)
        else:
            rows = [row_by_name("E_20")]
            with pytest.raises(CalibrationFailed):
                calibrate(rows, wrong_oracle)
        assert sorted(row.name for row, _ in calls) == sorted(row.name for row in rows)
        for row, gram in calls:
            assert gram.entries == k_lattice_in_rule_order(row, row_gram(row)), row.name


class TestCalibrationJudgesEachDiagramOnce:
    def count_work(self, monkeypatch):
        """Record the Grams built and the comparisons under the
        correspondence, as (row name, entries)."""
        work = {"built": [], "compared": []}

        def counted_extend(t, a, edges):
            diagram = extend(t, a, edges)
            work["built"].append(diagram.gram.entries)
            return diagram

        def counted_equal(row, rule_gram, k_gram):
            work["compared"].append((row.name, rule_gram.entries))
            return equal_under_correspondence(row, rule_gram, k_gram)

        monkeypatch.setattr(dynkin, "extend", counted_extend)
        monkeypatch.setattr(dynkin, "equal_under_correspondence", counted_equal)
        return work

    def test_failure_path_one_isomorphism_test_per_distinct_diagram(self, monkeypatch):
        # the one diagram built and compared is E_20's rule diagram, which
        # equals the K-lattice diagram, and the wrong oracle rejects its
        # Coxeter element
        work = self.count_work(monkeypatch)
        row = row_by_name("E_20")
        with pytest.raises(CalibrationFailed):
            calibrate([row], wrong_oracle)
        k_prime = k_lattice_in_rule_order(row, row_gram(row))
        assert work["built"] == [k_prime]
        assert work["compared"] == [("E_20", k_prime)]

    def test_success_path_keeps_no_reference(self, monkeypatch):
        # every row builds one diagram, its rule diagram, and compares it
        # once against its K-lattice Gram
        work = self.count_work(monkeypatch)
        rows = load_rows()
        assert calibrate(rows, transpose_monodromy) == committed_convention()
        assert len(work["compared"]) == len(work["built"]) == 20
        assert work["compared"] == [(row.name, k_lattice_in_rule_order(row, row_gram(row))) for row in rows]
        assert work["built"] == [entries for _, entries in work["compared"]]

    def test_extension_keeps_the_core_block(self):
        # every variant diagram carries t_graph(alpha) unchanged in its
        # top-left block, so its extension edges determine the rest
        for row in load_rows():
            core = t_graph(row.dolgachev).gram.entries
            k = len(core)
            key = case_key(row)
            for reading in READINGS:
                for candidate in case_candidates(key):
                    try:
                        gram = rule_diagram(row, reading, candidate).gram.entries
                    except ValueError:
                        continue
                    assert len(gram) == k + row.a, row.name
                    assert tuple(r[:k] for r in gram[:k]) == core, (row.name, reading)

    def test_no_matrix_power(self, monkeypatch):
        # calibration never reads the order of tau, whose only matrix work is
        # the radical test exactalg.annihilates
        def no_power(p, matrix):
            raise AssertionError("order of tau computed")

        monkeypatch.setattr(coxeter, "annihilates", no_power)
        # the affine A1 Gram: char (t - 1)^2 is not squarefree, so its order
        # needs the radical test
        with pytest.raises(AssertionError, match="order of tau computed"):
            coxeter_element(IntMatrix([[-2, 2], [2, -2]])).order
        assert calibrate(load_rows(), transpose_monodromy) == committed_convention()
        with pytest.raises(CalibrationFailed) as info:
            calibrate([row_by_name("E_20")], wrong_oracle)
        assert info.value.report == {"a5": ["E_20"]}


def walk_every_variant(rows, oracle_fac):
    """The search that calibrate replaced: the first reading under which
    every case has a variant that fits all its rows, with the first such
    variant of each case; None when no reading has one for every case."""
    cases = judged_by_case(rows, oracle_fac)
    for reading in READINGS:
        table = {
            key: next((c for c in case_candidates(key) if variant_fits(judged, reading, c)), None)
            for key, judged in cases.items()
        }
        if None not in table.values():
            return reading, ConventionTable(table)
    return None


def search_outcome(search, rows, wrong):
    """The table ``search`` returns, or its CalibrationFailed report, with
    the oracle wrong for the rows named in ``wrong``."""
    def oracle(row):
        return wrong_oracle(row) if row.name in wrong else transpose_monodromy(row)

    try:
        return search(rows, oracle)
    except CalibrationFailed as failed:
        return failed.report


ROW_NAMES = [row.name for row in load_rows()]


class TestCalibrationSkipsDeadCases:
    def spy(self, monkeypatch):
        """Record each extension_edges call by its row name."""
        seen = []

        def spied_edges(row, case):
            seen.append(row.name)
            return extension_edges(row, case)

        monkeypatch.setattr(dynkin, "extension_edges", spied_edges)
        return seen

    @pytest.mark.parametrize("names, wrong", [(["E_20"], {"E_20"}), (["E_20", "Z_19", "Q_18"], {"Q_18"})])
    def test_dead_case_draws_no_candidate(self, monkeypatch, names, wrong):
        # no candidate wiring is drawn: each row builds its committed rule
        # diagram once (one extension_edges call), whether its case is dead
        # (the oracle is wrong for one of its rows) or live
        seen = self.spy(monkeypatch)
        rows = [row_by_name(name) for name in names]
        assert search_outcome(calibrate, rows, wrong) == {"a5": names}
        assert seen == names
        seen.clear()
        assert calibrate(rows, transpose_monodromy).cases == {"a5": committed_convention().cases["a5"]}
        assert seen == names

    @pytest.mark.parametrize(
        "keys, wrong, failing",
        [
            (("a2", "a2_r1", "a3", "a5"), {"Q_18"}, "a5"),
            (("a2", "a2_r1", "a3", "a5"), {"Z_18"}, "a3"),
            (("a2_r1", "a5"), {"Q_18"}, "a5"),
            (("a2_r1", "a3"), {"Z_18"}, "a3"),
            (("a2", "a2_r1", "a3", "a5"), {"Q_18", "Z_18"}, "a3+a5"),
        ],
    )
    def test_report_after_a_passing_case(self, keys, wrong, failing):
        # the oracle is wrong for one row of a multi-row case that sorts
        # after a case that passes: the report names every dead case with
        # all its rows
        rows = [row for row in load_rows() if case_key(row) in keys]
        report = {key: [row.name for row in rows if case_key(row) == key] for key in failing.split("+")}
        assert search_outcome(calibrate, rows, wrong) == report

    def test_live_case_with_another_wiring_is_reported_beside_a_dead_case(self, monkeypatch):
        # every a3 row's K-lattice has the oracle Coxeter factorization, but
        # the wiring committed here (one a3 sign flipped) is not its
        # K-lattice diagram; a5 is dead under the wrong oracle for Q_18; one
        # report names both cases with all their rows, and a2 and a2_r1,
        # which pass, not at all
        table = committed_convention()
        flipped = table.cases["a3"]._replace(bullet_edges=((1, 3, 1), (2, 3, 1)))
        monkeypatch.setattr(dynkin, "committed_convention", lambda: ConventionTable({**table.cases, "a3": flipped}))
        rows = load_rows()
        report = {key: [row.name for row in rows if case_key(row) == key] for key in ("a3", "a5")}
        assert [len(names) for names in report.values()] == [5, 3]
        judged = judged_by_case(rows, transpose_monodromy)["a3"]
        assert all(verdict for _, _, verdict in judged)
        assert search_outcome(calibrate, rows, {"Q_18"}) == report
        assert search_outcome(calibrate, rows, set()) == {"a3": report["a3"]}

    @given(
        st.lists(st.sampled_from(ROW_NAMES), min_size=1, unique=True),
        st.sets(st.sampled_from(ROW_NAMES), max_size=2),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_outcome_as_walking_every_candidate(self, names, wrong):
        # a wrong oracle fails its row, so its case is dead and is reported
        # with all its rows; with no dead case, calibrate returns what a walk
        # of every variant under every reading finds first
        rows = [row_by_name(name) for name in names]
        dead = {case_key(row) for row in rows if row.name in wrong}
        outcome = search_outcome(calibrate, rows, wrong)
        if dead:
            assert outcome == {key: [row.name for row in rows if case_key(row) == key] for key in dead}
        else:
            assert walk_every_variant(rows, transpose_monodromy) == (ConventionTable.reading, outcome)


class TestDiagramAgainstKLattice:
    def test_char_poly_matches_oracle(self):
        for row in load_rows():
            diagram = diagram_for_row(row)
            cox = coxeter_element(diagram.gram)
            assert cox.factorization.is_cyclotomic, row.name
            assert cox.factorization.factors == transpose_monodromy(row).factors, row.name

    def test_isomorphic_to_k_lattice(self):
        # equal entry by entry under the correspondence, which is stronger
        # than isomorphic; it is the identity outside the two twisted cases
        identity_rows = []
        for row in load_rows():
            diagram = diagram_for_row(row)
            gram = row_gram(row)
            assert diagram.rank == gram.dim == row.mu, row.name
            assert diagram.gram.entries == k_lattice_in_rule_order(row, gram), row.name
            assert equal_under_correspondence(row, diagram.gram, gram), row.name
            if correspondence(row) == list(range(row.mu)):
                identity_rows.append(row.name)
                assert diagram.gram.entries == gram.entries, row.name
        expected_identity = {
            row.name
            for row in load_rows()
            if row.case_tag not in ("Quadrilateral_r1", "Exceptional_a5")
        }
        assert set(identity_rows) == expected_identity

    def test_vertex_count_formula(self):
        for row in load_rows():
            assert diagram_for_row(row).rank == sum(a - 1 for a in row.dolgachev) + 2 + row.a

    def test_connected(self, reachable):
        for row in load_rows():
            diagram = diagram_for_row(row)
            n = diagram.rank
            gram = diagram.gram.entries
            neighbors = [[j for j, w in enumerate(r) if w and j != i] for i, r in enumerate(gram)]
            assert len(reachable(0, neighbors.__getitem__)) == n, row.name


class TestCorrespondence:
    def test_twisted_cases_move_the_last_generator_to_e3_1(self):
        # the K-lattice lists the E0 class last; the rule diagram puts it at
        # E3_1, after the arm-1 and arm-2 vertices
        for row in load_rows():
            sigma = correspondence(row)
            n = row.mu
            assert sorted(sigma) == list(range(n)), row.name
            if row.case_tag in ("Quadrilateral_r1", "Exceptional_a5"):
                s = row.dolgachev[0] - 1 + row.dolgachev[1] - 1
                assert sigma == [*range(s), n - 1, *range(s, n - 1)], row.name
                assert diagram_for_row(row).vertices[s] == "E3_1"
                assert generator_list(row).descriptors[-1] in ("O_E0(-1)", "O_E0pp(-1)")
            else:
                assert sigma == list(range(n)), row.name

    def test_accepts_the_committed_a3_wiring_only(self):
        # on every a3 row two wirings have the oracle characteristic
        # polynomial and are isomorphic to the K-lattice diagram (see the
        # networkx oracle): the committed one and the literal chain with its
        # arms on B2; only the committed one is the K-lattice basis
        committed = committed_convention()
        chain_on_b2 = list(case_candidates("a3"))[32]
        assert chain_on_b2.bullet_edges == ((1, 2, -1), (2, 3, 1))
        assert chain_on_b2.arm_bullet == 2
        a3_rows = [row for row in load_rows() if case_key(row) == "a3"]
        assert [row.name for row in a3_rows] == ["E_19", "Z_18", "Q_17", "W_18", "S_17"]
        for row in a3_rows:
            k_gram = row_gram(row)
            for candidate, expected in ((committed.cases["a3"], True), (chain_on_b2, False)):
                gram = rule_diagram(row, committed.reading, candidate).gram
                fac = coxeter_element(gram).factorization
                assert fac.factors == transpose_monodromy(row).factors, row.name
                assert equal_under_correspondence(row, gram, k_gram) is expected, row.name

    def test_rank_mismatch_is_unequal(self):
        row = row_by_name("E_20")
        gram = row_gram(row)
        smaller = IntMatrix([list(r[:-1]) for r in gram.entries[:-1]])
        assert not equal_under_correspondence(row, diagram_for_row(row).gram, smaller)


class TestDot:
    def test_dashed_and_doubled(self):
        diagram = diagram_for_row(row_by_name("S_16"))
        dot = diagram.dot()
        assert dot.count("style=dashed") >= 2  # central pair twice + bullet edges
        assert "EinfL -- EinfU [style=dashed]" in dot
        # the doubled central edge appears twice
        assert dot.count("EinfL -- EinfU") == 2
