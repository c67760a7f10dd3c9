#!/usr/bin/env python3
"""Re-run the diagram-convention calibration from scratch and print the
winning table next to the committed one.

The committed table in bhdual.dynkin is exactly the first full-pass
assignment of this search; this script demonstrates that the commitment is
reproducible rather than hand-tuned.
"""
from bhdual.dynkin import calibrate, committed_convention
from bhdual.fixtures import load_rows
from bhdual.series import transpose_monodromy


def describe(case):
    parts = [f"B1-upper: {case.upper_sign:+d}"]
    parts += [f"B{i}-B{j}: {s:+d}" for i, j, s in case.bullet_edges]
    if case.arm_bullet is not None:
        parts.append(f"arms on B{case.arm_bullet} ({case.arm_sign:+d})")
    for bullet, arm, pos, sign in case.fixed_slots:
        parts.append(f"B{bullet}-arm{arm}@{pos} ({sign:+d})")
    return ", ".join(parts)


def main() -> int:
    table = calibrate(load_rows(), transpose_monodromy)
    committed = committed_convention()
    print(f"reading: {table.reading} (committed: {committed.reading})")
    for key in sorted(table.cases):
        same = table.cases[key] == committed.cases.get(key)
        print(f"{key:6s} {describe(table.cases[key])}  [{'matches committed' if same else 'DIFFERS'}]")
    agree = table == committed
    print("calibration reproduces the committed table" if agree else "MISMATCH")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
