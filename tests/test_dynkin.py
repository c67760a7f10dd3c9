import pytest
from hypothesis import given, settings, strategies as st

from bhdual import coxeter, dynkin, klattice
from bhdual.coxeter import coxeter_element
from bhdual.dynkin import (
    CalibrationFailed,
    _implied_edges,
    calibrate,
    case_key,
    committed_convention,
    correspondence,
    diagram_for_row,
    equal_under_correspondence,
    extend,
    extension_edges,
    read_position,
    t_graph,
)
from bhdual.exactalg import CyclotomicFactorization, IntMatrix, IntPolynomial
from bhdual.fixtures import load_rows, row_by_name
from bhdual.klattice import generator_list, row_gram
from bhdual.series import transpose_monodromy
from conftest import rule_diagram


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
        diagram = extend(t_graph((2, 2, 2)), 2, extension_edges(row, conv.reading, conv.cases["a2"]))
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


class TestReadings:
    def test_position_values(self):
        assert read_position("outside-minus", 11, 9) == 1
        assert read_position("outside-plus", 11, 9) == 3
        assert read_position("inside-minus", 11, 9) == 10
        assert read_position("inside-plus", 11, 9) == 8


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
    def test_k_lattice_outside_the_edge_maps_fails_the_row(self, monkeypatch, u, v):
        # an edge map fixes only the off-diagonal entries of the B rows: a
        # K-lattice whose core block or B diagonal differs from the rule's
        # fails the row under every candidate
        row = row_by_name("E_20")
        vertices, sigma = diagram_for_row(row).vertices, correspondence(row)
        p, q = sigma[vertices.index(u)], sigma[vertices.index(v)]
        gram = [list(r) for r in row_gram(row).entries]
        gram[p][q] = gram[q][p] = -gram[p][q]
        monkeypatch.setattr(klattice, "row_gram", lambda r: IntMatrix(gram))
        with pytest.raises(CalibrationFailed) as info:
            calibrate([row], transpose_monodromy)
        assert info.value.report == {"a5": ["E_20"]}


class TestCalibrationRejectsCheaplyFirst:
    @pytest.mark.parametrize("path", ["success", "failure"])
    def test_coxeter_element_only_for_isomorphic_candidates(self, monkeypatch, path):
        # a row reaches the Coxeter element at most once, on the diagram its
        # K-lattice implies, and only once that diagram equals the K-lattice
        # diagram under the correspondence
        calls = []
        current = {}

        def traced_implied(row, oracle):
            current["row"] = row
            return _implied_edges(row, oracle)

        def traced_coxeter(gram):
            calls.append((current["row"], gram))
            return coxeter_element(gram)

        monkeypatch.setattr(dynkin, "_implied_edges", traced_implied)
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
        # E_20's case draws no candidate wiring, since the wrong oracle leaves
        # the row no implied edge map; the one diagram built and compared is
        # the one its K-lattice implies, which equals the K-lattice diagram,
        # and the wrong oracle rejects its Coxeter element
        work = self.count_work(monkeypatch)
        row = row_by_name("E_20")
        with pytest.raises(CalibrationFailed):
            calibrate([row], wrong_oracle)
        implied = k_lattice_in_rule_order(row, row_gram(row))
        assert work["built"] == [implied]
        assert work["compared"] == [("E_20", implied)]

    def test_success_path_keeps_no_reference(self, monkeypatch):
        # every row builds one diagram, the one its K-lattice implies, and
        # compares it once against its K-lattice Gram
        work = self.count_work(monkeypatch)
        rows = load_rows()
        assert calibrate(rows, transpose_monodromy) == committed_convention()
        assert len(work["compared"]) == len(work["built"]) == 20
        assert work["compared"] == [(row.name, k_lattice_in_rule_order(row, row_gram(row))) for row in rows]
        assert work["built"] == [entries for _, entries in work["compared"]]

    def test_edge_map_verdict_is_the_gram_verdict(self):
        # calibrate judges a candidate by its edge map alone; that verdict is
        # the one of building the candidate's Gram and comparing it with the
        # K-lattice Gram under the correspondence, where a candidate whose
        # edge names a curve the diagram lacks fails
        checked, passed = 0, set()
        for row in load_rows():
            k_gram = row_gram(row)
            implied = _implied_edges(row, transpose_monodromy(row))
            assert implied is not None, row.name
            for reading in dynkin.READINGS:
                for candidate in dynkin._case_candidates(case_key(row)):
                    verdict = dynkin._edge_map(row, reading, candidate) == implied
                    try:
                        expected = equal_under_correspondence(row, rule_diagram(row, reading, candidate).gram, k_gram)
                    except ValueError:
                        expected = False
                    assert verdict is expected, (row.name, reading, candidate)
                    checked += 1
                    if verdict:
                        passed.add(row.name)
        assert checked == 3264
        assert passed == {row.name for row in load_rows()}

    def test_extension_keeps_the_core_block(self):
        # a candidate is judged by its extension edges: every candidate
        # diagram carries t_graph(alpha) unchanged in its top-left block, so
        # the edges determine the rest of the diagram
        for row in load_rows():
            core = t_graph(row.dolgachev).gram.entries
            k = len(core)
            key = case_key(row)
            for reading in dynkin.READINGS:
                for candidate in dynkin._case_candidates(key):
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


def loop_without_dead_cases(rows, oracle_fac):
    """calibrate's search with every case walking its candidates under every
    reading, even one with a row that implies no edge map."""
    cases = {}
    for row in rows:
        cases.setdefault(case_key(row), []).append((row, _implied_edges(row, oracle_fac(row))))
    for reading in dynkin.READINGS:
        table_cases, failure_report = {}, {}
        for key in sorted(cases):
            for candidate in dynkin._case_candidates(key):
                if all(dynkin._edge_map(row, reading, candidate) == edges for row, edges in cases[key]):
                    table_cases[key] = candidate
                    break
            else:
                failure_report[key] = [row.name for row, _ in cases[key]]
                break
        else:
            return dynkin.ConventionTable(reading, table_cases)
    raise CalibrationFailed("no convention assignment passes all rows", failure_report)


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
        """Record each _case_candidates call by its key and each
        extension_edges call by its row name."""
        seen = {"drawn": [], "edges": []}
        candidates = dynkin._case_candidates

        def spied_candidates(key):
            seen["drawn"].append(key)
            return candidates(key)

        def spied_edges(row, reading, case):
            seen["edges"].append(row.name)
            return extension_edges(row, reading, case)

        monkeypatch.setattr(dynkin, "_case_candidates", spied_candidates)
        monkeypatch.setattr(dynkin, "extension_edges", spied_edges)
        return seen

    @pytest.mark.parametrize("names, wrong", [(["E_20"], {"E_20"}), (["E_20", "Z_19", "Q_18"], {"Q_18"})])
    def test_dead_case_draws_no_candidate(self, monkeypatch, names, wrong):
        seen = self.spy(monkeypatch)
        rows = [row_by_name(name) for name in names]
        assert search_outcome(calibrate, rows, wrong) == {"a5": names}
        assert seen == {"drawn": [], "edges": []}
        # the spies see a live case's search
        assert calibrate(rows, transpose_monodromy).cases == {"a5": committed_convention().cases["a5"]}
        assert seen["drawn"] == ["a5"] and seen["edges"] == names

    @pytest.mark.parametrize(
        "keys, wrong, failing",
        [
            # a2 passes only under the first reading, so a walk of every
            # reading would end on a2; the dead case is reported instead
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

    def test_live_case_no_candidate_fits(self, monkeypatch):
        # every row implies an edge map, but no candidate is drawn for a3:
        # a3 fails under every reading and a2 under all but the first, so the
        # first reading fails fewest cases and its report names a3 alone
        candidates = dynkin._case_candidates
        monkeypatch.setattr(dynkin, "_case_candidates", lambda key: [] if key == "a3" else candidates(key))
        rows = load_rows()
        a3 = [row.name for row in rows if case_key(row) == "a3"]
        assert len(a3) == 5
        assert search_outcome(calibrate, rows, set()) == {"a3": a3}

    @given(
        st.lists(st.sampled_from(ROW_NAMES), min_size=1, unique=True),
        st.sets(st.sampled_from(ROW_NAMES), max_size=2),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_outcome_as_walking_every_candidate(self, names, wrong):
        # a wrong oracle leaves its row no edge map, so its case is dead and
        # is reported with all its rows; with no dead case, calibrate is the
        # walk of every candidate under every reading
        rows = [row_by_name(name) for name in names]
        dead = {case_key(row) for row in rows if row.name in wrong}
        outcome = search_outcome(calibrate, rows, wrong)
        if dead:
            assert outcome == {key: [row.name for row in rows if case_key(row) == key] for key in dead}
        else:
            assert outcome == search_outcome(loop_without_dead_cases, rows, wrong)


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
        chain_on_b2 = list(dynkin._case_candidates("a3"))[32]
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
