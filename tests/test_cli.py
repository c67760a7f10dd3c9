import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bhdual import cli, dynkin
from bhdual.cli import build_report, main, verify_row
from bhdual.exactalg import IntMatrix
from bhdual.fixtures import AttachmentTable, all_names, load_rows, row_by_name
from bhdual.polyparse import infer_variables, parse_polynomial
from bhdual.series import transpose_monodromy
from conftest import kreuzer_skarke_matrices, kreuzer_skarke_shape


REPORT_SHA256 = "9920047c62547c90e843b713feafe51c9142a98469aa667080fc7ce2a81af65f"
#: sha256 over the 120 bh diagram / bh coxeter runs, each with its exit code
COMMAND_OUTPUTS_SHA256 = "055d37067d7eb53dc336e197876795ac01537cf26bf623778d85fdf5ce56c518"
#: sha256 over the 418 bh lemma runs, each with its exit code and stderr:
#: c2 for 1 <= m < k <= 20 and c2double for 2 <= k <= 20, each with and
#: without --symbolic
LEMMA_OUTPUTS_SHA256 = "7a6f01666c85b028b827f78729e7ed31ed261d1a4edfef5f6d890461c9be28ce"
#: sha256 over the 80 bh transpose runs, each with its exit code and stderr:
#: f and f_T of every row, with inferred variables and with --vars z,y,x
TRANSPOSE_OUTPUTS_SHA256 = "2306e896d765a429da8ce760a1a5d85a9db3df0f83a021e75e8d0909a4c69337"
#: sha256 over the 80 bh weights runs, each with its exit code and stderr:
#: f and f_T of every row, with inferred variables and with --vars z,y,x
WEIGHTS_OUTPUTS_SHA256 = "5984a1c993fd4dd0b9425b3486f878116b3a66536dbe74625cd5e15e5b43e94c"
#: sha256 of the bh tables stdout
TABLES_SHA256 = "5240dd9d45660b528d13077dd45126f599dffca3f7a3314d8a2e2fb3cde0e7ff"
#: what the dolgachev stage (curveconf.arms) says of a Dolgachev triple
#: whose alpha_1 is 1: arm 1 holds no curve
SHORT_ARM = "Dolgachev number alpha_1 = 1 is below 2: arm 1 has no curve"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTranspose:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "transpose", "x^6*y + y^3 + z^2")
        assert code == 0
        assert out.strip() == "x^6 + x*y^3 + z^2"

    def test_one_variable(self, capsys):
        code, out, _ = run(capsys, "transpose", "x^2")
        assert code == 0
        assert out.strip() == "x^2"

    def test_singular_matrix_exits_2(self, capsys):
        code, _, err = run(capsys, "transpose", "x^2*y^2 + x*y")
        assert code == 2
        assert "error" in err

    def test_no_isolated_singularity_exits_2(self, capsys):
        # det E = 9, but x*y*z has no head exponent of at least 2: the
        # transpose would be x*y^3 + x*z^3 + x, with a linear monomial
        code, out, err = run(capsys, "transpose", "x*y*z + x^3 + y^3")
        assert code == 2
        assert out == ""
        assert err == "error: monomial x*y*z is not x^a or x^a*y with a at least 2\n"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "transpose", "x^2 + + y")
        assert code == 2
        assert "position" in err

    def test_explicit_vars(self, capsys):
        code, _, err = run(capsys, "transpose", "x^2 + y^3", "--vars", "x")
        assert code == 2

    def test_constant_exits_2(self, capsys):
        # the text names no variable: the monomial count is checked before
        # any polynomial is built
        for command in ("weights", "transpose"):
            code, out, err = run(capsys, command, "1")
            assert code == 2 and out == ""
            assert err == "error: 1 monomials for 0 variables\n"


class TestWeights:
    def test_three_variables(self, capsys):
        code, out, _ = run(capsys, "weights", "x^4*z + x*y^3 + z^2")
        assert code == 0
        data = json.loads(out)
        assert data["canonical"] == [3, 7, 12, 24]
        assert data["c_f"] == 1
        assert data["a"] == 2

    def test_fermat(self, capsys):
        code, out, _ = run(capsys, "weights", "x^11 + y^3 + z^2")
        data = json.loads(out)
        assert data["canonical"] == [6, 22, 33, 66]
        assert data["a"] == 5

    def test_one_variable_has_no_a(self, capsys):
        code, out, _ = run(capsys, "weights", "x^2")
        data = json.loads(out)
        assert data["canonical"] == [1, 2]
        assert "a" not in data


    def test_zero_weight_exits_2(self, capsys):
        # det E = 4 and w = (2, 2, 0), but x*y*z already breaks the
        # Kreuzer-Skarke shape, so no weights are solved
        code, out, err = run(capsys, "weights", "x^2 + y^2 + x*y*z")
        assert code == 2
        assert out == ""
        assert err == "error: monomial x*y*z is not x^a or x^a*y with a at least 2\n"

    def test_shared_target_exits_2(self, capsys):
        # y*(x^2 + y^2 + z^2) is singular along a curve: two monomials point
        # at y
        code, out, err = run(capsys, "weights", "x^2*y + y^3 + z^2*y")
        assert code == 2
        assert out == ""
        assert err == "error: y is the target of two monomials\n"

    def test_superscript_digit_exits_2_with_position(self, capsys):
        code, out, err = run(capsys, "weights", "x^2 + y^\u00b3 + z^5")
        assert code == 2
        assert out == ""
        assert "unexpected character" in err and "position 8" in err

    def test_dangling_star_exits_2_with_position(self, capsys):
        code, out, err = run(capsys, "weights", "x^2* + y^3 + z^5")
        assert code == 2
        assert out == ""
        assert "dangling '*'" in err and "position 3" in err

    @pytest.mark.parametrize(
        "names, message",
        [
            ("x,x", "repeated variable name 'x'"),
            ("x,y,y", "repeated variable name 'y'"),
            ("", "empty variable name"),
            (",,", "empty variable name"),
            ("x,,y", "empty variable name"),
        ],
    )
    def test_bad_vars_exit_2_naming_them(self, capsys, names, message):
        # the names are checked before the text, so no variable of the
        # polynomial is blamed
        for command in ("weights", "transpose"):
            code, out, err = run(capsys, command, "x^2+y^3", "--vars", names)
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"


@st.composite
def near_kreuzer_skarke_texts(draw):
    """The text of a Kreuzer-Skarke matrix over the first n of w, x, y, z,
    half the time with one exponent set to a drawn 0..4."""
    rows = [list(row) for row in draw(kreuzer_skarke_matrices(max_n=4, max_a=5))]
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, len(rows) - 1))] = draw(st.integers(0, 4))
    return " + ".join("*".join(f"{v}^{e}" for v, e in zip("wxyz", row) if e) or "1" for row in rows)


class TestFuzz:
    @given(st.one_of(st.text(alphabet="xyzw0123456789\u00b3\u0663+*^ ", max_size=24), near_kreuzer_skarke_texts()))
    @example("x^3y + y^2x")
    @example("w^2 + x^3*z + y^2*w + z^4")
    @example("x^2*y + y^3 + z^2*y")
    @settings(max_examples=200, deadline=None)
    def test_polynomial_commands_exit_cleanly(self, text):
        # any string ends in a clean exit code, never an exception; what is
        # accepted has the Kreuzer-Skarke shape, and so has its transpose
        for command in ("weights", "transpose"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, text])
            assert code in (0, 2), (command, text)
            if code == 0:
                assert kreuzer_skarke_shape(parse_polynomial(text, infer_variables(text)).matrix.entries), text
                if command == "transpose":
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        assert main(["transpose", out.getvalue().strip()]) == 0, (text, out.getvalue())

    @given(
        st.sampled_from(["c2", "c2double"]),
        st.one_of(st.none(), st.integers(-3, 45)),
        st.integers(-3, 40),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_lemma_exits_cleanly(self, which, m, k, symbolic):
        # any --m and --k around the swept range, with or without the
        # charts, ends in a clean exit code, never an exception
        argv = ["lemma", which, "--k", str(k)]
        if m is not None:
            argv += ["--m", str(m)]
        if symbolic:
            argv.append("--symbolic")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2), argv


def test_transpose_outputs_pinned(capsys):
    # render writes the transpose of every stored polynomial under two
    # variable orders: any refactor of the printer must keep all 80 outputs
    digest = hashlib.sha256()
    count = 0
    for row in load_rows():
        for text in (row.f, row.f_T):
            for order in ((), ("--vars", "z,y,x")):
                argv = ("transpose", text, *order)
                digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
                count += 1
    assert count == 80
    assert digest.hexdigest() == TRANSPOSE_OUTPUTS_SHA256


def test_weights_outputs_pinned(capsys):
    # the canonical and reduced systems of every stored polynomial under two
    # variable orders
    digest = hashlib.sha256()
    count = 0
    for row in load_rows():
        for text in (row.f, row.f_T):
            for order in ((), ("--vars", "z,y,x")):
                argv = ("weights", text, *order)
                digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
                count += 1
    assert count == 80
    assert digest.hexdigest() == WEIGHTS_OUTPUTS_SHA256


class TestDiagram:
    def test_ktheory_json(self, capsys):
        code, out, _ = run(capsys, "diagram", "--name", "E_20", "--source", "ktheory", "--format", "json")
        assert code == 0
        gram = json.loads(out)
        assert len(gram) == 20 and all(len(r) == 20 for r in gram)
        assert all(gram[i][i] == -2 for i in range(20))

    def test_rules_dot(self, capsys):
        code, out, _ = run(capsys, "diagram", "--name", "S_16", "--source", "rules", "--format", "dot")
        assert code == 0
        nodes = [l for l in out.splitlines() if l.endswith(";") and "--" not in l]
        assert len(nodes) == 16

    @pytest.mark.parametrize(
        "source, text",
        [
            pytest.param("rules", "the edge B2 -- E3_2 names E3_2, a curve the diagram lacks", id="rules"),
            pytest.param(
                "ktheory", "generator T_E3_1(E3_2) names E3_2, a curve the configuration lacks", id="ktheory"
            ),
        ],
    )
    def test_missing_curve_exits_2(self, capsys, monkeypatch, source, text):
        # alpha_3 = 2 leaves arm 3 one curve, but the a2_r1 fixed slot and the
        # twist class both name E3_2: a stored value a builder rejects is an
        # error line and exit 2
        wrong = row_by_name("J_3,0")._replace(dolgachev=(2, 3, 2))
        monkeypatch.setattr(cli, "row_by_name", lambda _: wrong)
        code, out, err = run(capsys, "diagram", "--name", "J_3,0", "--source", source)
        assert (code, out, err) == (2, "", f"error: {text}\n")


@pytest.mark.parametrize("command", ["diagram", "coxeter", "verify"])
def test_unknown_name_exits_3(capsys, command):
    for name in ("E_99", ""):
        code, out, err = run(capsys, command, "--name", name)
        assert code == 3 and out == ""
        assert err.splitlines() == [f"unknown fixture {name!r}; valid names:", "  " + " ".join(all_names())]


class TestCoxeterCommand:
    def test_fermat(self, capsys):
        code, out, _ = run(capsys, "coxeter", "--name", "E_20")
        data = json.loads(out)
        assert data["char_cyclotomic"] == "Φ66"
        assert data["order"] == 66
        assert data["signature"] == [2, 0, 18]


def test_command_outputs_pinned(capsys):
    # bh diagram in both sources and both formats, and bh coxeter in both
    # sources, for every row: any refactor must keep all 120 outputs
    digest = hashlib.sha256()
    for name in all_names():
        for source in ("rules", "ktheory"):
            for argv in (
                ("diagram", "--name", name, "--source", source, "--format", "dot"),
                ("diagram", "--name", name, "--source", source, "--format", "json"),
                ("coxeter", "--name", name, "--source", source),
            ):
                digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
    assert digest.hexdigest() == COMMAND_OUTPUTS_SHA256


def test_lemma_outputs_pinned(capsys):
    # every bh lemma output of the benchmark's sweep range: any refactor of
    # quotres must keep all 418
    digest = hashlib.sha256()
    count = 0
    for k in range(2, 21):
        for which in [*(("c2", "--m", str(m)) for m in range(1, k)), ("c2double",)]:
            for symbolic in ((), ("--symbolic",)):
                argv = ("lemma", *which, "--k", str(k), *symbolic)
                digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
                count += 1
    assert count == 418
    assert digest.hexdigest() == LEMMA_OUTPUTS_SHA256


class TestLemma:
    def test_c2(self, capsys):
        code, out, _ = run(capsys, "lemma", "c2", "--m", "3", "--k", "5")
        data = json.loads(out)
        assert data["attachment_component"] == 2
        assert data["image"] == "Z^3 + Y"

    def test_c2_symbolic(self, capsys):
        code, out, _ = run(capsys, "lemma", "c2", "--m", "3", "--k", "5", "--symbolic")
        data = json.loads(out)
        assert data["charts"]["2"] == {"monomial": "u^3*v^3", "unit": "1 + v"}

    def test_double(self, capsys):
        code, out, _ = run(capsys, "lemma", "c2double", "--k", "8")
        data = json.loads(out)
        assert data["attachment_component"] == 7
        assert data["branches"] == 2

    def test_missing_m_exits_2(self, capsys):
        code, _, err = run(capsys, "lemma", "c2", "--k", "5")
        assert code == 2

    def test_double_rejects_m(self, capsys):
        code, out, err = run(capsys, "lemma", "c2double", "--k", "3", "--m", "1")
        assert code == 2 and out == ""
        assert err == "error: lemma c2double takes no --m\n"

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run(capsys, "lemma", "c2", "--m", "5", "--k", "5")
        assert code == 2

    def test_component_is_derived(self, capsys, monkeypatch):
        # the printed component is the one exceptional_components_met finds,
        # and the branches are counted on it: on E_4 of k = 5 the transform
        # of Z^3 + Y has the unit 1 + u^2*v, constant on u = 0
        from bhdual import quotres

        monkeypatch.setattr(quotres, "exceptional_components_met", lambda curve, k: [4])
        code, out, err = run(capsys, "lemma", "c2", "--m", "3", "--k", "5")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["attachment_component"], data["branches"]) == (4, 0)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["c2", "--m", "1", "--k", "3"],
                '{"curve": "x^1 + y^2", "image": "Z + Y", "attachment_component": 2, "branches": 1}',
            ),
            (
                ["c2double", "--k", "4", "--symbolic"],
                '{"curve": "x^2 + y^6", "image": "Z^2 + Y^2", "attachment_component": 3, '
                '"branches": 2, "charts": {"1": {"monomial": "u^2*v^2", "unit": "1 + u^4*v^6"}, '
                '"2": {"monomial": "u^2*v^2", "unit": "1 + u^2*v^4"}, '
                '"3": {"monomial": "u^2*v^2", "unit": "1 + v^2"}, '
                '"4": {"monomial": "u^0*v^2", "unit": "1 + u^2"}}}',
            ),
        ],
    )
    def test_exact_output(self, capsys, argv, expected):
        # quotres is imported by this command alone; its output is unchanged
        code, out, err = run(capsys, "lemma", *argv)
        assert (code, out, err) == (0, expected + "\n", "")


def _nudged(v):
    """Values of v with one integer moved to v-1, v+1, 0, 1, 2 or 2v+3: v
    itself, or one entry, at any depth, of the tuple v."""
    if isinstance(v, tuple):
        return st.integers(0, len(v) - 1).flatmap(
            lambda i: _nudged(v[i]).map(lambda entry: (*v[:i], entry, *v[i + 1 :]))
        )
    return st.sampled_from([v - 1, v + 1, 0, 1, 2, 2 * v + 3])


class TestVerify:
    def test_single_row(self, capsys):
        code, out, err = run(capsys, "verify", "--name", "E_20")
        assert code == 0
        report = json.loads(out)
        checks = report["rows"][0]["checks"]
        assert checks["coxeter_monodromy"]["char"] == "Φ66"
        assert checks["phi_identity"] == {"status": "pass", "shift_exponent": 1}
        assert report["summary"]["fail"] == 0
        assert "E_20" in err

    def test_negative_control_row(self, capsys):
        code, out, _ = run(capsys, "verify", "--name", "J_3,0")
        assert code == 0
        checks = json.loads(out)["rows"][0]["checks"]
        assert checks["square_relation"]["status"] == "pass"
        assert checks["square_relation"]["holds"] is False
        assert "negative control" in checks["square_relation"]["note"]

    def test_all_rows_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--all")
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 20
        assert report["summary"]["fail"] == 0

    def test_report_bytes_pinned(self, capsys):
        # sha256 of the full bh-report/1 stdout; any refactor must keep it
        code, out, _ = run(capsys, "verify", "--all")
        assert code == 0
        assert json.loads(out)["summary"] == {"pass": 170, "fail": 0, "inapplicable": 30}
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256

    def test_verify_and_calibrate_skip_the_dense_product(self, monkeypatch):
        # the Coxeter layer applies tau as its reflections: the bh verify
        # report and the calibration check multiply by no IntMatrix
        def dense(matrix, packed):
            raise LookupError("IntMatrix.times_packed")

        monkeypatch.setattr(IntMatrix, "times_packed", dense)
        out = json.dumps(build_report(load_rows()), indent=2) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256
        assert dynkin.calibrate(load_rows(), transpose_monodromy) == dynkin.committed_convention()

    def test_cold_cli_without_asserts(self):
        # a fresh `python -O` interpreter: no shared caches, asserts stripped
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "bhdual.cli", "verify", "--all"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_SHA256

    @pytest.mark.parametrize("name", ["E_20", "Q_16"])
    def test_one_sign_flip_fails_only_its_diagram_check(self, monkeypatch, name):
        # negate the E3_1 edge to E3_2 in one row's rule diagram, on a twisted
        # row and on an identity row: that row's diagram check fails and
        # nothing else in the report changes
        clean = build_report(load_rows())
        rule_diagram = dynkin.diagram_for_row

        def flipped(row):
            diagram = rule_diagram(row)
            if row.name != name:
                return diagram
            rows = [list(r) for r in diagram.gram.entries]
            i, j = diagram.vertices.index("E3_1"), diagram.vertices.index("E3_2")
            assert rows[i][j] == 1
            rows[i][j] = rows[j][i] = -1
            return dynkin.DynkinDiagram(diagram.vertices, IntMatrix(rows))

        monkeypatch.setattr(dynkin, "diagram_for_row", flipped)
        report = build_report(load_rows())
        assert report["summary"]["fail"] == 1
        for before, after in zip(clean["rows"], report["rows"]):
            if after["name"] == name:
                check = after["checks"].pop("diagram_isomorphic")
                assert check == {
                    "status": "fail",
                    "identity_permutation": False,
                    "failed": [{"condition": "correspondence", "expected": True, "actual": False}],
                }
                before["checks"].pop("diagram_isomorphic")
            assert after == before

    @pytest.mark.parametrize(
        "name, column, value, check, condition",
        [
            ("E_20", "c_f", 2, "weights_table", "c_f"),
            ("E_18", "c_f", 1, "weights_table", "c_f"),
            ("Z_18", "ambient", (3, 4, 10, 18), "weights_table", "ambient"),
            ("J_3,0", "compactifier", "w^17", "weights_table", "compactifier"),
            ("J_3,0", "action_c", 3, "action_invariance", "one character mod c"),
            ("E_20", "mu", 21, "rank_mu", "mu"),
            # the case tag fixes the extension, so only weights_table reads a
            ("Q_16", "a", 3, "weights_table", "a"),
            ("E_20", "a", 6, "weights_table", "a"),
        ],
    )
    def test_one_wrong_column_names_its_condition(self, name, column, value, check, condition):
        # one stored column changed: its own check fails, naming only its own
        # condition, and every other check of the row keeps its clean record
        row = row_by_name(name)
        clean = verify_row(row)["checks"]
        checks = verify_row(row._replace(**{column: value}))["checks"]
        failed = checks.pop(check)["failed"]
        assert [entry["condition"] for entry in failed] == [condition]
        clean.pop(check)
        assert checks == clean

    def test_wrong_mu_fails_only_rank_mu(self):
        for row in load_rows():
            checks = verify_row(row._replace(mu=row.mu + 1))["checks"]
            assert [name for name, check in checks.items() if check["status"] == "fail"] == ["rank_mu"]
            assert checks["rank_mu"]["failed"] == [
                {"condition": "mu", "expected": row.mu + 1, "actual": row.mu}
            ]

    @pytest.mark.parametrize(
        "name, exponent", [pytest.param("E_20", "66/5", id="E_20"), pytest.param("Q_16", "21/2", id="Q_16")]
    )
    def test_compactifier_of_no_degree_fails_its_column(self, capsys, monkeypatch, name, exponent):
        # no power of w alone has degree d on these rows: the ambient stage
        # fails, so do the two checks that read it (weights_table, and the
        # action check, which needs F = f + compactifier), and bh verify
        # exits 1, not an exception
        row = row_by_name(name)
        clean = verify_row(row)["checks"]
        wrong = row._replace(compactifier="w^99")
        checks = verify_row(wrong)["checks"]
        failed = [{"condition": "stage ambient", "expected": None,
                   "actual": f"compactifier exponent {exponent} is not an integer"}]
        for check in ("weights_table", "action_invariance"):
            assert checks.pop(check) == {"status": "fail", "failed": failed}
            clean.pop(check)
        assert checks == clean
        monkeypatch.setattr(cli, "row_by_name", lambda _: wrong)
        code, out, _ = run(capsys, "verify", "--name", name)
        assert code == 1
        assert json.loads(out)["summary"]["fail"] == 2

    @pytest.mark.parametrize(
        "name, column, value, failed",
        [
            # group order 0: validate_action raises ValueError in the action stage
            ("J_3,0", "action_c", 0, {"action_invariance": ("stage action", "group order must be >= 1")}),
            # beta = 0: beta_congruence_check raises ValueError in the beta
            # stage; the a5 convention does not read beta, so the diagram is
            # unchanged
            (
                "E_20",
                "alpha_beta",
                ((2, 1), (3, 2), (11, 0)),
                {"beta_congruence": ("stage beta", "invalid pair (alpha, beta) = (11, 0)")},
            ),
            # beta = alpha on an a2 row: the reading also puts the arm
            # attachment at E3_-1, a vertex the diagram lacks, so the rule
            # stage fails too
            (
                "E_18",
                "alpha_beta",
                ((2, 1), (3, 2), (12, 12)),
                {
                    "beta_congruence": ("stage beta", "invalid pair (alpha, beta) = (12, 12)"),
                    "diagram_isomorphic": ("stage rule", "the edge B2 -- E3_-1 names E3_-1, a curve the diagram lacks"),
                },
            ),
            # a = 6: the diagram takes a from the case tag, so only the
            # comparison with the recomputed Gorenstein parameter fails
            ("E_20", "a", 6, {"weights_table": ("a", 5)}),
            # alpha_3 = 13 in alpha_beta against the Dolgachev triple (2, 3, 12):
            # weights_table names the column; the diagram and the beta stage
            # take alpha_i from the triple, so nothing else fails
            (
                "E_18",
                "alpha_beta",
                ((2, 1), (3, 2), (13, 8)),
                {"weights_table": ("alpha_beta", (2, 3, 13))},
            ),
            # alpha_1 = 1 in the Dolgachev triple: the dolgachev stage rejects
            # it once, and every check that reads the triple fails through it
            (
                "E_18",
                "dolgachev",
                (1, 3, 12),
                {
                    "weights_table": ("alpha_beta", (2, 3, 12)),
                    "beta_congruence": ("stage dolgachev", SHORT_ARM),
                    "rank_mu": ("stage dolgachev", SHORT_ARM),
                    "gram_form": ("stage dolgachev", SHORT_ARM),
                    "coxeter_monodromy": ("stage dolgachev", SHORT_ARM),
                    "phi_identity": ("stage dolgachev", SHORT_ARM),
                    "diagram_isomorphic": ("stage dolgachev", SHORT_ARM),
                },
            ),
            # the same on an I0* row, where phi_f also feeds the square relation
            (
                "Z_1,0",
                "dolgachev",
                (1, 4, 8),
                {
                    "weights_table": ("alpha_beta", (2, 4, 8)),
                    "beta_congruence": ("stage dolgachev", SHORT_ARM),
                    "rank_mu": ("stage dolgachev", SHORT_ARM),
                    "gram_form": ("stage dolgachev", SHORT_ARM),
                    "coxeter_monodromy": ("stage dolgachev", SHORT_ARM),
                    "phi_identity": ("stage dolgachev", SHORT_ARM),
                    "square_relation": ("stage dolgachev", SHORT_ARM),
                    "diagram_isomorphic": ("stage dolgachev", SHORT_ARM),
                },
            ),
            # a null action_m on a group of order c > 1: no generator to test
            # F's monomials against, so the action stage fails instead of
            # passing vacuously (the columns of a tuple change together)
            pytest.param(
                "J_3,0", "action_m", None,
                {"action_invariance": ("stage action", "a group of order 2 needs the exponents of its generator")},
                id="J_3,0-null-action_m",
            ),
            pytest.param(
                "J_3,0", ("action_c", "action_m"), (7, None),
                {"action_invariance": ("stage action", "a group of order 7 needs the exponents of its generator")},
                id="J_3,0-order-7-null-action_m",
            ),
            pytest.param(
                "Q_2,0", "action_c", 5,
                {"action_invariance": ("stage action", "a group of order 5 needs the exponents of its generator")},
                id="Q_2,0-order-5-null-action_m",
            ),
            # a generator stored with a group of order 1, here of two
            # exponents for four coordinates, is named instead of ignored
            pytest.param(
                "Q_2,0", "action_m", (5, 7),
                {"action_invariance": ("stage action", "a group of order 1 needs no generator, not (5, 7)")},
                id="Q_2,0-order-1-action_m",
            ),
            # a generator of three or five exponents for the four coordinates
            # (w, x, y, z): the action stage fails instead of truncating
            *(
                pytest.param(
                    "J_3,0", "action_m", m,
                    {"action_invariance": (
                        "stage action", f"the generator has {len(m)} exponents, not one per coordinate of F"
                    )},
                    id=f"J_3,0-action_m-of-{len(m)}",
                )
                for m in ((0, 1, -1), (0, 1, -1, 0, 0))
            ),
        ],
    )
    def test_out_of_range_column_fails_its_check(self, capsys, monkeypatch, name, column, value, failed):
        # a stored value outside the range a stage accepts, or at odds with
        # the column it repeats, is a failing check naming its conditions
        # (one pair, or a list of them), and bh verify exits 1: no traceback.
        # A check that reads a failed stage carries nothing but the stage's
        # condition, with a null expected value and the error text
        row = row_by_name(name)
        clean = verify_row(row)["checks"]
        columns = dict(zip(column, value)) if isinstance(column, tuple) else {column: value}
        wrong = row._replace(**columns)
        checks = verify_row(wrong)["checks"]
        for check, conditions in failed.items():
            record = checks.pop(check)
            expected = conditions if isinstance(conditions, list) else [conditions]
            if all(condition.startswith("stage ") for condition, _ in expected):
                assert record == {
                    "status": "fail",
                    "failed": [{"condition": c, "expected": None, "actual": a} for c, a in expected],
                }
            else:
                assert record["status"] == "fail"
                assert [(e["condition"], e["actual"]) for e in record["failed"]] == expected
            clean.pop(check)
        assert checks == clean
        monkeypatch.setattr(cli, "row_by_name", lambda _: wrong)
        code, out, _ = run(capsys, "verify", "--name", name)
        assert code == 1
        assert json.loads(out)["summary"]["fail"] == len(failed)

    @pytest.mark.parametrize(
        "name, column, value, check, condition, text",
        [
            pytest.param(
                "E_18", "attachment_table", AttachmentTable({1: 9}, None), "rank_mu", "stage gram",
                "row E_18: the edge E0 -- E1_9 names E1_9, a curve the configuration lacks",
                id="MissingAttachment-table",
            ),
            pytest.param(
                "E_18", "dolgachev", (2, 3, 3), "gram_form", "stage gram",
                "row E_18: the edge E0 -- E3_3 names E3_3, a curve the configuration lacks",
                id="MissingAttachment-dolgachev",
            ),
            pytest.param(
                "E_18", "f", "x^2+", "poincare_series", "stage f",
                "trailing '+' (at position 3)", id="ParseError",
            ),
            pytest.param(
                "E_18", "f", "x^5 + y^3 + q*z^2", "weights_table", "stage f",
                "unknown variable 'q' (at position 12)", id="UnknownVariable",
            ),
            pytest.param(
                "E_18", "f_T", "x^2*y", "rank_mu", "stage f_T",
                "1 monomials for 3 variables", id="MonomialCountMismatch",
            ),
            # alpha_3 = 2 leaves arm 3 one curve, but the twist class of E_20 names E3_2
            pytest.param(
                "E_20", "dolgachev", (2, 3, 2), "coxeter_monodromy", "stage gram",
                "generator T_E3_1(E3_2) names E3_2, a curve the configuration lacks", id="UnknownNode",
            ),
            pytest.param("E_18", "dolgachev", (1, 3, 12), "rank_mu", "stage dolgachev", SHORT_ARM, id="ShortArm"),
            pytest.param(
                "J_3,0", "dolgachev", (2, 3, 1), "gram_form", "stage dolgachev",
                "Dolgachev number alpha_3 = 1 is below 2: arm 3 has no curve",
                id="ShortArm-twisted",
            ),
            # the a2_r1 convention's fixed slot wires B2 to E3_2, which a
            # Dolgachev alpha_3 = 2 leaves out of the rule diagram
            pytest.param(
                "J_3,0", "dolgachev", (2, 3, 2), "diagram_isomorphic", "stage rule",
                "the edge B2 -- E3_2 names E3_2, a curve the diagram lacks", id="fixed-slot",
            ),
        ],
    )
    def test_stage_error_fails_a_check(self, capsys, monkeypatch, name, column, value, check, condition, text):
        # a stored value a stage's builder rejects fails each check that reads
        # the stage, with the builder's error text; bh verify exits 1
        wrong = row_by_name(name)._replace(**{column: value})
        record = verify_row(wrong)["checks"][check]
        assert record["status"] == "fail"
        assert {"condition": condition, "expected": None, "actual": text} in record["failed"]
        monkeypatch.setattr(cli, "row_by_name", lambda _: wrong)
        code, out, err = run(capsys, "verify", "--name", name)
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["rows"][0]["checks"][check] == record

    def test_arithmetic_error_is_a_fault_not_a_failed_stage(self, monkeypatch):
        # a ValueError from a builder fails the stage; an ArithmeticError (an
        # inexact division that must be exact) is a program fault and escapes
        row = row_by_name("E_20")

        def raising(error):
            def build(gram):
                raise error("builder fault")
            return build

        monkeypatch.setattr(cli, "coxeter_element", raising(ValueError))
        record = verify_row(row)["checks"]["coxeter_monodromy"]
        assert {"condition": "stage coxeter", "expected": None, "actual": "builder fault"} in record["failed"]
        monkeypatch.setattr(cli, "coxeter_element", raising(ArithmeticError))
        with pytest.raises(ArithmeticError, match="^builder fault$"):
            verify_row(row)
        with pytest.raises(ArithmeticError, match="^builder fault$"):
            main(["verify", "--name", "E_20"])

    @pytest.mark.parametrize(
        "columns, check, failed",
        [
            pytest.param(
                {"f_T": "x^2 + + y", "dolgachev": (1, 3, 12)}, "beta_congruence",
                [("stage f_T", "empty monomial (at position 6)"), ("stage dolgachev", SHORT_ARM)],
                id="f_T-and-dolgachev",
            ),
            pytest.param(
                {"f": "x^2 + + y", "dolgachev": (1, 3, 12)}, "phi_identity",
                [("stage f", "empty monomial (at position 6)"), ("stage dolgachev", SHORT_ARM)],
                id="f-and-dolgachev",
            ),
            # beta reads a (from f_T) before reduced (from f)
            pytest.param(
                {"f": "x^2+", "f_T": "x^2*y"}, "beta_congruence",
                [("stage f_T", "1 monomials for 3 variables"), ("stage f", "trailing '+' (at position 3)")],
                id="f_T-and-f",
            ),
        ],
    )
    def test_every_root_behind_a_stage_is_named(self, capsys, monkeypatch, columns, check, failed):
        # a stage that reads two broken stages holds both their roots, in read
        # order, and the check that reads it names each
        wrong = row_by_name("E_18")._replace(**columns)
        record = verify_row(wrong)["checks"][check]
        assert record == {
            "status": "fail",
            "failed": [{"condition": c, "expected": None, "actual": a} for c, a in failed],
        }
        monkeypatch.setattr(cli, "row_by_name", lambda _: wrong)
        code, out, err = run(capsys, "verify", "--name", "E_18")
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["rows"][0]["checks"][check] == record

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_bad_column_never_raises(self, data):
        # one column of one row replaced by another row's value, by a
        # malformed polynomial, or with one integer (the column, or an entry
        # of a tuple column) moved: every check ends in a status and bh
        # verify exits 0 or 1
        rows = load_rows()
        row = data.draw(st.sampled_from(rows))
        column = data.draw(st.sampled_from(list(row._fields)))
        old = getattr(row, column)
        moves = [st.sampled_from([getattr(other, column) for other in rows])]
        if column in ("f", "f_T"):
            moves.append(st.sampled_from(["x^2+", "x^5 + y^3 + q*z^2", "x^2*y", "", "x^2 + x^2 + z^3"]))
        if type(old) in (int, tuple):  # an AttachmentTable is a tuple too, of no integers
            moves.append(_nudged(old))
        wrong = row._replace(**{column: data.draw(st.one_of(moves))})
        statuses = {check["status"] for check in verify_row(wrong)["checks"].values()}
        assert statuses <= {"pass", "fail", "inapplicable"}
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "row_by_name", lambda _: wrong):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(["verify", "--name", row.name]) in (0, 1)

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "--all")
        _, second, _ = run(capsys, "verify", "--all")
        assert first == second  # byte-identical JSON


class TestTables:
    def test_lists_all_rows(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        for row in load_rows():
            assert row.name in out

    def test_output_pinned(self, capsys):
        code, out, err = run(capsys, "tables")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == TABLES_SHA256
