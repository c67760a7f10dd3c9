#!/usr/bin/env python3
"""Write DOT files for every fixture row: the curve configuration, the
rule-built diagram, and the K-lattice diagram.

Usage: python scripts/render_diagrams.py [output_dir]
"""
import sys
from pathlib import Path

from bhdual.cli import diagram_of, dot_id
from bhdual.curveconf import build_configuration
from bhdual.dynkin import DynkinDiagram
from bhdual.fixtures import load_rows


def main(out_dir: str = "diagrams") -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for row in load_rows():
        stem = dot_id(row.name)
        conf = build_configuration(row)
        config = DynkinDiagram(conf.labels, conf.intersection_matrix())
        (out / f"{stem}_config.dot").write_text(config.dot(name=f"config_{stem}"))
        for source in ("rules", "ktheory"):
            diagram = diagram_of(row, source)
            (out / f"{stem}_{source}.dot").write_text(diagram.dot(name=f"{source}_{stem}"))
    print(f"wrote {3 * len(load_rows())} DOT files to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
