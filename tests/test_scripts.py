"""The scripts run end to end in a fresh interpreter against the package."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bhdual.cli import dot_id
from bhdual.curveconf import build_configuration
from bhdual.fixtures import load_rows

ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


#: sha256 over the 60 DOT files, each its name, a newline and its bytes, in
#: sorted name order: the configuration, rule and K-lattice diagrams
RENDER_DIAGRAMS_SHA256 = "07ae8f453913791e2b86db665df7453d06d894abb066abf4be607001394480c9"


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    out = tmp_path_factory.mktemp("diagrams")
    done = run_script("render_diagrams.py", str(out))
    assert done.returncode == 0, done.stderr
    return out


def test_render_diagrams(rendered):
    assert len(list(rendered.glob("*.dot"))) == 3 * len(load_rows()) == 60
    for row in load_rows():
        conf = build_configuration(row)
        lines = (rendered / f"{dot_id(row.name)}_config.dot").read_text().splitlines()
        nodes = [line for line in lines if line.endswith(";") and " -- " not in line]
        edges = [line.strip(" ;").split(" -- ") for line in lines if " -- " in line]
        assert nodes == [f"  {label};" for label in conf.labels], row.name
        assert len(edges) == len(conf.edges), row.name
        assert {frozenset(edge) for edge in edges} == set(map(frozenset, conf.edges)), row.name


def test_render_diagrams_pinned(rendered):
    # the configuration DOT files are compared with build_configuration
    # above, which agrees with whatever the builder does; the digest pins
    # all 60 files, those included
    digest = hashlib.sha256()
    for path in sorted(rendered.glob("*.dot"), key=lambda path: path.name):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == RENDER_DIAGRAMS_SHA256


CALIBRATE_CONVENTIONS_STDOUT = """\
reading: outside-minus (committed: outside-minus)
a2     B1-upper: -1, B1-B2: -1, arms on B2 (+1)  [matches committed]
a2_r1  B1-upper: -1, B1-B2: -1, B2-arm3@2 (+1)  [matches committed]
a3     B1-upper: -1, B1-B3: -1, B2-B3: +1, arms on B3 (+1)  [matches committed]
a5     B1-upper: +1, B1-B2: +1, B2-B3: +1, B3-B4: +1, B4-B5: +1, B3-arm3@1 (+1)  [matches committed]
calibration reproduces the committed table
"""


def test_calibrate_conventions():
    # the whole stdout: the reading and one line per case, then the verdict
    done = run_script("calibrate_conventions.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == CALIBRATE_CONVENTIONS_STDOUT


#: stderr of calibrate_conventions.py when every eigenvalue of the oracle is
#: -1: every case fails, and the report names all its rows
CALIBRATE_CONVENTIONS_WRONG_ORACLE_STDERR = """\
calibration failed: the K-lattice does not imply the committed wiring
a2     W_1,0 S_1,0 U_1,0 E_18 Z_17 Q_16 W_17 S_16 U_16
a2_r1  J_3,0 Z_1,0 Q_2,0
a3     E_19 Z_18 Q_17 W_18 S_17
a5     E_20 Z_19 Q_18
"""

WRONG_ORACLE_RUN = """\
import runpy, sys
from bhdual import series
from bhdual.exactalg import CyclotomicFactorization, IntPolynomial
series.transpose_monodromy = lambda row: CyclotomicFactorization({2: row.mu}, 1, IntPolynomial.one())
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_calibrate_conventions_failure():
    # with an oracle no diagram can match, the check's report goes to stderr
    # and the script exits 1, without a traceback
    done = run_python("-c", WRONG_ORACLE_RUN, str(ROOT / "scripts" / "calibrate_conventions.py"))
    assert (done.returncode, done.stdout) == (1, "")
    assert "Traceback" not in done.stderr
    assert done.stderr == CALIBRATE_CONVENTIONS_WRONG_ORACLE_STDERR
