"""Fixture store: the 20 singularity classes with their polynomials,
invariants, ambient data and curve-attachment tables.

The data ships as a single JSON document (``data/fixtures.json``); the verify
suite recomputes every derivable column and treats any disagreement with the
stored values as a failure, so transcription errors surface immediately.
"""
from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

#: each case tag and the size a of its extension: B1..Ba, and F1..F(a-1) if exceptional
CASE_TAGS = {
    "Quadrilateral_r1": 2,
    "Quadrilateral_other": 2,
    "Exceptional_a2": 2,
    "Exceptional_a3": 3,
    "Exceptional_a5": 5,
}

VARIABLES = ("x", "y", "z")


class UnknownFixture(KeyError):
    pass


class AttachmentTable(NamedTuple):
    """Where the curve E0 meets the arms (positions count from the outer end)
    and, for exceptional cases, which F-chain component it meets."""

    arms: dict[int, int]
    f_chain: int | None


class FixtureRow(NamedTuple):
    name: str
    dual_name: str
    f_T: str
    f: str
    gabrielov: tuple[int, int, int]
    dolgachev: tuple[int, int, int]
    alpha_beta: tuple[tuple[int, int], ...]
    a: int
    c_f: int
    ambient: tuple[int, int, int, int]
    compactifier: str
    action_c: int
    action_m: tuple[int, int, int, int] | None
    case_tag: str
    attachment_table: AttachmentTable
    mu: int


def _tuple(value):
    """A JSON list, and every list inside it, as a tuple; any other value as is."""
    return tuple(map(_tuple, value)) if isinstance(value, list) else value


def _row_from_dict(d: dict) -> FixtureRow:
    if d["case_tag"] not in CASE_TAGS:
        raise ValueError(f"unknown case tag {d['case_tag']!r}")
    action, table = d["action"], d["attachment_table"]
    built = {
        "action_c": action["c"],
        "action_m": _tuple(action["m"]),
        "attachment_table": AttachmentTable({int(k): v for k, v in table["arms"].items()}, table["f_chain"]),
    }
    return FixtureRow(**{field: _tuple(d[field]) for field in FixtureRow._fields if field not in built}, **built)


def _read_document() -> dict:
    text = resources.files("bhdual").joinpath("data/fixtures.json").read_text("utf-8")
    return json.loads(text)


_ROWS: tuple[FixtureRow, ...] | None = None


def load_rows() -> tuple[FixtureRow, ...]:
    global _ROWS
    if _ROWS is None:
        doc = _read_document()
        _ROWS = tuple(_row_from_dict(d) for d in doc["rows"])
    return _ROWS


def normalize_name(name: str) -> str:
    """Accept both 'J_3,0' and 'J_{3,0}' spellings."""
    return name.replace("{", "").replace("}", "").strip()


def row_by_name(name: str) -> FixtureRow:
    wanted = normalize_name(name)
    for row in load_rows():
        if row.name == wanted:
            return row
    raise UnknownFixture(wanted)


def all_names() -> tuple[str, ...]:
    return tuple(row.name for row in load_rows())
