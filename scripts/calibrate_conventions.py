#!/usr/bin/env python3
"""Check the committed diagram conventions against the 20 rows and print
the table the check returns.

``dynkin.calibrate`` checks that every row's K-lattice Gram implies the
committed extension wiring of its case and that the resulting diagram has
the monodromy oracle's characteristic polynomial; the table it returns is
the committed one, restricted to the cases the rows reach.  The "reading"
line names the one arm-position rule, alpha - beta - 1 counted from the
outer end of the arm.  When the check fails, the script prints the failing
cases with their rows to stderr and exits 1.
"""
import sys

from bhdual.dynkin import CalibrationFailed, calibrate, committed_convention
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
    try:
        table = calibrate(load_rows(), transpose_monodromy)
    except CalibrationFailed as failed:
        print(f"calibration failed: {failed}", file=sys.stderr)
        for key, names in failed.report.items():
            print(f"{key:6s} {' '.join(names)}", file=sys.stderr)
        return 1
    print(f"reading: {table.reading} (committed: {committed_convention().reading})")
    for key in sorted(table.cases):
        print(f"{key:6s} {describe(table.cases[key])}  [matches committed]")
    print("calibration reproduces the committed table")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
