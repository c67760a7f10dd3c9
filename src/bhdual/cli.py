"""Command-line interface: polynomial utilities, diagram emission, the local
resolution lemmas, and the full verification runner.

Exit codes: 0 success, 1 verification failures, 2 parse/usage error or a
stored value a builder rejects, 3 unknown fixture name.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import curveconf, dynkin, klattice, series
from .coxeter import coxeter_element, lattice_invariants, seifert_identity
from .fixtures import FixtureRow, UnknownFixture, VARIABLES, all_names, load_rows, row_by_name
from .polyparse import (
    InvertiblePolynomial,
    infer_variables,
    parse_polynomial,
    render,
    transpose,
)
from .weights import (
    ambient_weights,
    beta_congruence_check,
    canonical_weights,
    compactified_monomials,
    gorenstein_parameter,
    reduce,
    validate_action,
)

REPORT_SCHEMA = "bh-report/1"


def _parse_cli_polynomial(text: str, vars_option: str | None) -> InvertiblePolynomial:
    variables = tuple(vars_option.split(",")) if vars_option is not None else infer_variables(text)
    return parse_polynomial(text, variables)


def cmd_transpose(args) -> int:
    f = _parse_cli_polynomial(args.polynomial, args.vars)
    print(render(transpose(f)))
    return 0


def cmd_weights(args) -> int:
    f = _parse_cli_polynomial(args.polynomial, args.vars)
    canonical = canonical_weights(f)
    reduced = reduce(canonical)
    out = {
        "canonical": [*canonical.w, canonical.d_prime],
        "reduced": [*reduced.q, reduced.d],
        "c_f": reduced.c_f,
    }
    if f.n == 3:
        out["a"] = gorenstein_parameter(canonical)
    print(json.dumps(out))
    return 0


def dot_id(label: str) -> str:
    return (
        label.replace("(-1)", "_m1")
        .replace("[1]", "_s1")
        .replace("(", "_")
        .replace(")", "")
        .replace(",", "_")
    )


def diagram_of(row: FixtureRow, source: str) -> dynkin.DynkinDiagram:
    if source == "rules":
        return dynkin.diagram_for_row(row)
    labels = tuple(dot_id(d) for d in klattice.generator_list(row).descriptors)
    return dynkin.DynkinDiagram(labels, klattice.row_gram(row))


def cmd_diagram(args) -> int:
    row = row_by_name(args.name)
    diagram = diagram_of(row, args.source)
    if args.format == "dot":
        print(diagram.dot(name=f"{args.source}_{dot_id(row.name)}"), end="")
    else:
        print(json.dumps([list(r) for r in diagram.gram.entries]))
    return 0


def cmd_coxeter(args) -> int:
    row = row_by_name(args.name)
    diagram = diagram_of(row, args.source)
    cox = coxeter_element(diagram.gram)
    det, signature = lattice_invariants(diagram.gram)
    out = {
        "name": row.name,
        "source": args.source,
        "rank": diagram.rank,
        "char_cyclotomic": str(cox.factorization),
        "char_coefficients": list(cox.char.coefficients),
        "order": cox.order,
        "det_gram": det,
        "signature": list(signature),
    }
    print(json.dumps(out))
    return 0


def cmd_lemma(args) -> int:
    from . import quotres  # only this command needs it: bh verify does not load it

    k = args.k
    if args.which == "c2":
        if args.m is None:
            raise ValueError("lemma c2 requires --m")
        curve, text = quotres.invariant_image(args.m, k), f"x^{args.m} + y^{k - args.m}"
    else:
        if args.m is not None:
            raise ValueError("lemma c2double takes no --m")
        curve, text = quotres.invariant_image_double(k), f"x^2 + y^{2 * k - 2}"
    [component] = quotres.exceptional_components_met(curve, k)
    out = {
        "curve": text,
        "image": str(curve),
        "attachment_component": component,
        "branches": quotres.branch_count_at_attachment(curve, k, component),
    }
    if args.symbolic:
        charts = {}
        for i in range(1, k + 1):
            (p, q), unit = quotres.proper_transform(curve, i, k)
            charts[str(i)] = {"monomial": f"u^{p}*v^{q}", "unit": str(unit)}
        out["charts"] = charts
    print(json.dumps(out))
    return 0


def cmd_tables(args) -> int:
    header = f"{'name':7s} {'dual':6s} {'gabrielov':10s} {'dolgachev':10s} {'(a_i,b_i)':22s} a c_f {'ambient':14s} {'compactifier':12s} case"
    print(header)
    print("-" * len(header))
    for row in load_rows():
        ab = " ".join(f"({a},{b})" for a, b in row.alpha_beta)
        print(
            f"{row.name:7s} {row.dual_name:6s} {str(row.gabrielov):10s} {str(row.dolgachev):10s} "
            f"{ab:22s} {row.a} {row.c_f:3d} {str(row.ambient):14s} {row.compactifier:12s} {row.case_tag}"
        )
    return 0


# ---------------------------------------------------------------------------
# verification runner
# ---------------------------------------------------------------------------

def _check(conditions, **fields) -> dict:
    """One check's record: its status, then ``fields``.  ``conditions`` lists
    named (condition, expected, actual) triples, or is None when the check does
    not apply; a failing record ends with ``failed``, each triple that differs."""
    if conditions is None:
        return {"status": "inapplicable", **fields}
    failed = [{"condition": c, "expected": e, "actual": a} for c, e, a in conditions if a != e]
    if failed:
        fields["failed"] = failed
    return {"status": "fail" if failed else "pass", **fields}


def _stages(row: FixtureRow):
    """The row's stages in dependency order: (name, the stages its builder
    reads, builder), the builder taking those stages' values."""
    return (
        ("f", (), lambda: parse_polynomial(row.f, VARIABLES)),
        ("f_T", (), lambda: parse_polynomial(row.f_T, VARIABLES)),
        ("canonical", ("f",), canonical_weights),
        ("reduced", ("canonical",), reduce),
        ("canonical_T", ("f_T",), canonical_weights),
        ("reduced_T", ("canonical_T",), reduce),
        ("a", ("canonical_T",), gorenstein_parameter),
        ("ambient", ("reduced",), lambda reduced: ambient_weights(reduced, row.compactifier)),
        # the one check of the Dolgachev triple; its readers build from the row
        ("dolgachev", (), lambda: curveconf.arms(row.dolgachev)),
        # the recomputed a and c_f and the Dolgachev alphas: weights_table compares the stored ones
        ("beta", ("a", "reduced", "dolgachev"), lambda a, reduced, _: beta_congruence_check(
            [*zip(row.dolgachev, (beta for _, beta in row.alpha_beta))], a, reduced.c_f)),
        # the group acts on F = f + compactifier
        ("action", ("f", "ambient"), lambda f, ambient: validate_action(
            compactified_monomials(f, ambient), row.action_c, row.action_m)),
        ("gram", ("dolgachev",), lambda _: klattice.row_gram(row)),
        ("oracle", ("reduced_T",), series.milnor_orlik),
        ("coxeter", ("gram",), coxeter_element),
        ("phi", ("canonical", "dolgachev"), lambda canonical, _: series.characteristic_function(canonical, row.dolgachev)),
        ("rule", ("dolgachev",), lambda _: dynkin.diagram_for_row(row).gram),
    )


def verify_row(row: FixtureRow) -> dict:
    """Run every check for one fixture row; returns the JSON-ready record.

    Stages and checks are one table, run by one loop under one ``try``.  An
    entry whose builder or judge raises a ValueError holds that root (its
    name, the error text); one that reads such entries holds every distinct
    root behind them, in read order, and a check fails with ``stage <name>``
    and the error text for each root, so a bad stored column never raises."""
    # each judge takes the values of the stages its check reads and returns
    # the check's conditions (None: it does not apply) and its fields
    def weights_table(canonical, reduced, a, ambient):
        derived = {"c_f": reduced.c_f, "a": a, "ambient": ambient.weights, "compactifier": ambient.compactifier}
        conditions = [(column, getattr(row, column), v) for column, v in derived.items()]
        # alpha_beta repeats the Dolgachev triple as its alphas
        conditions.append(("alpha_beta", row.dolgachev, tuple(alpha for alpha, _ in row.alpha_beta)))
        return conditions, {"canonical": [*canonical.w, canonical.d_prime], **derived}

    def beta_congruence(beta):
        return None if beta is None else [("a*beta_i = 1 mod alpha_i", True, beta)], {}

    def action_invariance(action):
        return [("one character mod c", True, action)], {}

    def poincare_series(canonical):
        k_max = 2 * canonical.d_prime
        closed = series.poincare_series(canonical).series_coefficients(k_max)
        brute = series.poincare_bruteforce(canonical, k_max)
        return [("closed form", brute, closed)], {"checked_through": k_max}

    def rank_mu(gram, oracle):
        conditions = [("mu", row.mu, oracle.degree), ("rank", oracle.degree, gram.dim)]
        return conditions, {"rank": gram.dim, "mu": row.mu}

    def gram_form(gram):
        off = {e for i, r in enumerate(gram.entries) for j, e in enumerate(r) if i != j}
        return [
            ("symmetric", True, gram.is_symmetric()),
            ("diagonal", [-2] * gram.dim, [r[i] for i, r in enumerate(gram.entries)]),
            ("off-diagonal outside -2..1", [], sorted(off - {-2, -1, 0, 1})),
        ], {}

    # the Seifert identity implies tau^T G tau = G and det tau = (-1)^mu
    def coxeter_monodromy(gram, oracle, cox):
        conditions = [
            ("cyclotomic", True, cox.factorization.is_cyclotomic),
            ("char", oracle.factors, cox.factorization.factors),
            ("Seifert identity", True, seifert_identity(cox.matrix, gram)),
        ]
        det_tau = (-1) ** gram.dim * cox.char.coefficients[0]
        return conditions, {"char": str(cox.factorization), "order": cox.order, "det_tau": det_tau}

    def phi_identity(phi, reduced_T, oracle):
        report = series.verify_phi_identity(phi, reduced_T, oracle)
        holds, shift = report or (None, None)
        return report and [("holds", True, holds), ("shift_exponent", 1, shift)], {"shift_exponent": shift}

    expected = series.SQUARE_RELATION_EXPECTED.get(row.name)

    def square_relation(phi, cox, gram):
        holds, reason = series.verify_square_relation(phi, cox.factorization, gram.dim)
        note = "fails as expected (negative control)" if not (expected or holds) else reason
        return [("holds", expected, holds)], {"holds": holds, "expected": expected, "note": note}

    # equal under the named vertex correspondence, hence isomorphic
    def diagram_isomorphic(rule, gram):
        equal = dynkin.equal_under_correspondence(row, rule, gram)
        return [("correspondence", True, equal)], {"identity_permutation": rule.entries == gram.entries}

    judges = (
        ("weights_table", ("canonical", "reduced", "a", "ambient"), weights_table),
        ("beta_congruence", ("beta",), beta_congruence),
        ("action_invariance", ("action",), action_invariance),
        ("poincare_series", ("canonical",), poincare_series),
        ("rank_mu", ("gram", "oracle"), rank_mu),
        ("gram_form", ("gram",), gram_form),
        ("coxeter_monodromy", ("gram", "oracle", "coxeter"), coxeter_monodromy),
        ("phi_identity", ("phi", "reduced_T", "oracle"), phi_identity),
        # off the six I0* rows the square relation reads nothing and does not apply
        ("square_relation", ("phi", "coxeter", "gram"), square_relation)
        if expected is not None
        else ("square_relation", (), lambda: (None, {})),
        ("diagram_isomorphic", ("rule", "gram"), diagram_isomorphic),
    )
    value, broken = {}, {}
    checks: dict[str, dict] = dict.fromkeys(check for check, _, _ in judges)
    for name, reads, build in (*_stages(row), *judges):
        roots = tuple(dict.fromkeys(root for r in reads for root in broken[r]))
        if not roots:
            try:
                value[name] = build(*map(value.get, reads))
            except ValueError as exc:
                roots = ((name, str(exc)),)
        broken[name] = roots
        if name in checks:
            conditions, fields = ([(f"stage {s}", None, text) for s, text in roots], {}) if roots else value[name]
            checks[name] = _check(conditions, **fields)
    return {"name": row.name, "checks": checks}


def build_report(rows) -> dict:
    records = [verify_row(row) for row in rows]
    tally = {"pass": 0, "fail": 0, "inapplicable": 0}
    for record in records:
        for check in record["checks"].values():
            tally[check["status"]] += 1
    return {"schema": REPORT_SCHEMA, "rows": records, "summary": tally}


def _human_table(report: dict) -> str:
    lines = []
    names = list(report["rows"][0]["checks"]) if report["rows"] else []
    short = {name: name.replace("_", " ")[:18] for name in names}
    width = max((len(s) for s in short.values()), default=10)
    for record in report["rows"]:
        lines.append(record["name"])
        for check, result in record["checks"].items():
            lines.append(f"  {short[check]:{width}s} {result['status']}")
    summary = report["summary"]
    lines.append(
        f"total: {summary['pass']} pass, {summary['fail']} fail, "
        f"{summary['inapplicable']} inapplicable"
    )
    return "\n".join(lines)


def cmd_verify(args) -> int:
    rows = [row_by_name(args.name)] if args.name is not None else list(load_rows())
    started = time.monotonic()
    report = build_report(rows)
    elapsed = time.monotonic() - started
    print(json.dumps(report, indent=2))
    print(_human_table(report), file=sys.stderr)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report["summary"]["fail"] == 0 else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transpose", help="transpose an invertible polynomial")
    p.add_argument("polynomial")
    p.add_argument("--vars", help="comma-separated variable order (default: inferred)")
    p.set_defaults(func=cmd_transpose)

    p = sub.add_parser("weights", help="canonical and reduced weight systems")
    p.add_argument("polynomial")
    p.add_argument("--vars")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("diagram", help="emit a diagram as DOT or a Gram matrix as JSON")
    p.add_argument("--name", required=True)
    p.add_argument("--source", choices=("rules", "ktheory"), default="rules")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("coxeter", help="Coxeter element data for a fixture row")
    p.add_argument("--name", required=True)
    p.add_argument("--source", choices=("rules", "ktheory"), default="ktheory")
    p.set_defaults(func=cmd_coxeter)

    p = sub.add_parser("lemma", help="local resolution lemma computations")
    p.add_argument("which", choices=("c2", "c2double"))
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("verify", help="run the verification suite")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true")
    group.add_argument("--name")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="print the fixture table")
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownFixture:
        print(f"unknown fixture {args.name!r}; valid names:", file=sys.stderr)
        print("  " + " ".join(all_names()), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
