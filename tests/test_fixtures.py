import hashlib

import pytest

from bhdual.fixtures import (
    CASE_TAGS,
    UnknownFixture,
    _read_document,
    _row_from_dict,
    all_names,
    load_rows,
    normalize_name,
    row_by_name,
)

#: sha256 of repr(load_rows()): every field of every row, tuples kept apart from lists
ROWS_REPR_SHA256 = "fef809cc5163519331bf126600a085d9229308093d05b6e3815169ce4443ef79"


class TestStore:
    def test_twenty_rows(self):
        rows = load_rows()
        assert len(rows) == 20
        assert len(set(r.name for r in rows)) == 20

    def test_case_census(self):
        tags = [r.case_tag for r in load_rows()]
        assert tags.count("Quadrilateral_r1") == 3
        assert tags.count("Quadrilateral_other") == 3
        assert tags.count("Exceptional_a2") == 6
        assert tags.count("Exceptional_a3") == 5
        assert tags.count("Exceptional_a5") == 3
        assert set(tags) <= set(CASE_TAGS)

    def test_a_matches_case(self):
        for row in load_rows():
            assert row.a == CASE_TAGS[row.case_tag], row.name
            if row.case_tag == "Exceptional_a3":
                assert row.a == 3
            elif row.case_tag == "Exceptional_a5":
                assert row.a == 5
            else:
                assert row.a == 2

    def test_lookup_and_normalization(self):
        assert row_by_name("E_20").dual_name == "E_20"
        assert row_by_name("J_{3,0}").name == "J_3,0"
        assert normalize_name("Z_{1,0}") == "Z_1,0"
        with pytest.raises(UnknownFixture):
            row_by_name("E_99")

    def test_all_names_order(self):
        assert all_names()[:3] == ("J_3,0", "Z_1,0", "Q_2,0")

    def test_document_matches_rows(self):
        doc = _read_document()
        assert [d["name"] for d in doc["rows"]] == list(all_names())
        for d, row in zip(doc["rows"], load_rows()):
            assert _row_from_dict(d) == row

    def test_rows_pinned(self):
        assert hashlib.sha256(repr(load_rows()).encode()).hexdigest() == ROWS_REPR_SHA256


class TestCrossChecks:
    def test_dual_pairs_swap_invariant_triples(self):
        # rows that are mutually dual by name (self-dual rows paired with
        # themselves); a row whose dual has no fixture row is skipped
        rows = {row.name: row for row in load_rows()}
        pairs = [
            (row, rows[row.dual_name])
            for row in load_rows()
            if row.dual_name in rows and rows[row.dual_name].dual_name == row.name
        ]
        assert pairs, "some mutual pairs must exist"
        for row, partner in pairs:
            assert row.gabrielov == partner.dolgachev, (row.name, partner.name)
            assert row.dolgachev == partner.gabrielov, (row.name, partner.name)

    def test_self_dual_rows(self):
        self_dual = {r.name for r in load_rows() if r.dual_name == r.name}
        assert self_dual == {
            "Z_1,0",
            "W_1,0",
            "U_1,0",
            "E_20",
            "Z_18",
            "Q_16",
            "W_18",
            "S_16",
            "U_16",
        }

    def test_one_class_hosts_two_polynomials(self):
        # the dual column names Z_1,0 twice: once self-dual, once from E_19
        duals = [r.dual_name for r in load_rows()]
        assert duals.count("Z_1,0") == 2
        assert row_by_name("E_19").dual_name == "Z_1,0"

    def test_alpha_beta_ranges(self):
        for row in load_rows():
            for (alpha, beta), a in zip(row.alpha_beta, row.dolgachev):
                assert alpha == a
                assert 1 <= beta < alpha

    def test_deformation_chains_point_to_rows(self):
        # the metadata key is a note for readers, so read from the document
        names = set(all_names())
        for d in _read_document()["rows"]:
            target = d["metadata"]["deforms_to"]
            assert target is None or target in names

    def test_mu_positive_and_bounded(self):
        for row in load_rows():
            assert 14 <= row.mu <= 20
