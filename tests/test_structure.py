"""Source-level guards on the package layout."""
import ast
import builtins
import inspect
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import bhdual
from bhdual import dynkin, klattice
from bhdual.weights import AmbientWeights

PACKAGE = Path(bhdual.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def test_no_assert_statements():
    # python -O strips asserts, so a runtime invariant must raise its error
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_series_imports_no_lattice_modules():
    # series is pure series/monodromy math; lattices are built by the caller
    imported = set()
    for node in ast.walk(_tree("series.py")):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            if node.module in (None, "bhdual"):
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert not imported & {"klattice", "coxeter", "curveconf", "dynkin"}


def test_series_uses_no_factorization_or_gcd():
    # the phi checks add cyclotomic exponents and factor no polynomial;
    # neither an import nor an attribute access (exactalg.factor_cyclotomic)
    # may bring a factorization back
    names = set()
    for node in ast.walk(_tree("series.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & {"factor_cyclotomic", "polynomial_gcd"}


def _importers(top):
    """file:line of every import of the module ``top`` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == top for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_fractions_import():
    # integer kernels throughout: no module of the package uses Fraction
    assert _importers("fractions") == []


def test_no_dataclasses_import():
    # records are NamedTuples and value types plain classes with __slots__:
    # building dataclasses (and importing dataclasses, which loads inspect)
    # cost a cold bh verify about 17 ms
    assert _importers("dataclasses") == []


def _function(module, name):
    return next(
        node
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _called(func):
    """Names called in ``func``, as bare names or attributes."""
    return {
        getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
    }


def test_factor_cyclotomic_is_one_exact_pass():
    # the index bound comes from the degree, not from a parameter, and the
    # factorization peels binomials instead of trial-dividing by each Phi_n
    func = _function("exactalg.py", "factor_cyclotomic")
    args = func.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["p"]
    assert args.vararg is None and args.kwarg is None
    assert not _called(func) & {"cyclotomic", "divmod_exact_leading"}


def test_no_n_max_parameter():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(
            a.arg == "n_max"
            for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
    ]
    assert found == []


def test_series_names_no_polynomial_division():
    # the Poincare series is built by the exactalg stride step
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(_tree("series.py"))
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not names & {"exact_div", "divmod_exact_leading", "t_n_minus_1", "eval_at_integer"}


def test_milnor_orlik_is_the_divisor_formula():
    # the monodromy oracle multiplies gcd/lcm divisors and expands no series:
    # the spectrum is the tests' oracle, and no package module defines or
    # names it
    for name in ("milnor_orlik", "_scaled_divisor"):
        assert "divide_by_binomial" not in _called(_function("series.py", name)), name
    assert "_scaled_divisor" in _called(_function("series.py", "milnor_orlik"))
    assert not [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if _mentioned_name(node) == "spectrum" or getattr(node, "name", None) == "spectrum"
    ]


def test_one_stride_step():
    # factor_cyclotomic's peel calls the shared step and updates no
    # coefficient list of its own
    func = _function("exactalg.py", "factor_cyclotomic")
    assert "divide_by_binomial" in _called(func)
    assert not [
        node.lineno
        for node in ast.walk(func)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
    ]


def test_reconstruct_expands_by_the_stride_step():
    # CyclotomicFactorization.reconstruct inverts the peel with the same step;
    # neither Phi_n nor a dense power may bring the product back
    func = _function("exactalg.py", "reconstruct")
    called = _called(func)
    assert "divide_by_binomial" in called and "cyclotomic" not in called
    assert not [node.lineno for node in ast.walk(func) if isinstance(node, ast.Pow)]


def test_poincare_series_expands_by_the_stride_step():
    # RationalFunction keeps binomial exponents and expands them with the
    # shared step: no dense 1 - t^n is formed and no general division is left
    assert "divide_by_binomial" in _called(_function("exactalg.py", "series_coefficients"))
    defined = {
        qualname.rsplit(".", 1)[-1]
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, _ in _definitions(path)
    }
    assert "one_minus_t_n" not in defined


def _definitions(path):
    """(qualified name, node) for every top-level function and class and
    every non-dunder method of a module of the package."""
    for node in _tree(path.name).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield f"{node.name}.{method.name}", method


def _mentioned_name(node):
    # binding a name (an assignment target, a loop variable, a parameter)
    # mentions no definition
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_every_name_has_a_caller():
    # a name that only tests reach is API nothing uses: each function, class
    # and method of the package must be named by the package, a script or
    # the benchmark outside its own definition; a method only as an attribute
    # or a string, so a local variable of the same name keeps no method alive.
    # A re-export in __init__.py (its import aliases, its __all__ strings)
    # calls nothing
    modules = sorted(PACKAGE.glob("*.py"))
    callers = [path for path in modules if path.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    mentions = defaultdict(list)
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = _mentioned_name(node)
            if name is not None:
                mentions[name].append((path, node.lineno, isinstance(node, ast.Name)))
    uncalled = [
        f"{path.stem}.{qualname}"
        for path in modules
        for qualname, node in _definitions(path)
        if all(
            (where == path and node.lineno <= line <= node.end_lineno) or (bare and "." in qualname)
            for where, line, bare in mentions[node.name]
        )
    ]
    assert uncalled == []


def test_package_init_binds_nothing():
    # functions are imported from their modules; a re-export layer in
    # __init__.py is a second list of names that nothing outside it reads
    body = _tree("__init__.py").body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_one_elimination_kernel():
    # exactalg eliminates only by Bareiss, for determinants: the long-division
    # gcd stack, the dense Phi_n and the Sylvester-minor gcd are gone, and a
    # branch count reads the exponents of the lemma's binomial, with no gcd
    tree = _tree("exactalg.py")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    deleted = {"polynomial_gcd", "_positive_leading", "divmod_exact_leading", "exact_div",
               "content", "primitive_part", "cyclotomic", "gcd_degree"}
    assert not defined & deleted
    called = _called(_function("quotres.py", "branch_count_at_attachment"))
    assert "det_bareiss" not in called and not any("gcd" in name for name in called)
    imported = {
        alias.name for node in ast.walk(_tree("quotres.py")) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not imported & {"IntPolynomial", "det_bareiss"} and not any("gcd" in name for name in imported)


def test_one_polynomial_type_in_quotres():
    # curves in X, Y, Z and their chart images in u, v are one value type,
    # a chart is read off the curve's lines, and bh lemma prints what quotres
    # derives
    frozen = [
        node.name
        for node in ast.walk(_tree("quotres.py"))
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "Frozen" for base in node.bases)
    ]
    assert frozen == ["SparsePoly"]
    assert {"exceptional_components_met", "branch_count_at_attachment"} <= _called(_function("cli.py", "cmd_lemma"))


def test_lemma_charts_call_no_public_name():
    # bench/tracing.py wraps every public quotres function, and a traced
    # run's post-processing grows with the spans it records: the charts are
    # read off the curve's lines, with no public call and no SparsePoly
    public = {name for name, _ in _definitions(PACKAGE / "quotres.py") if not name.startswith("_")}
    assert "proper_transform" in public
    assert not _called(_function("quotres.py", "exceptional_components_met")) & public


def test_parser_keeps_no_state_flags():
    # parse_polynomial checks each token against the kind of the one before
    # it; the three flags of the nested-loop parser stay out
    func = _function("polyparse.py", "parse_polynomial")
    bound = {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert not bound & {"saw_factor", "expect_factor", "leading_one_allowed"}


def test_one_correspondence_check():
    # bh verify and calibration (in the per-row step it calls) compare the
    # rule diagram with the K-lattice Gram through the same dynkin function,
    # and only dynkin reads the vertex correspondence; no module keeps an
    # isomorphism search, and the one rule-diagram builder is the only
    # caller of extend
    assert "equal_under_correspondence" in _called(_function("cli.py", "verify_row"))
    assert "_passes" in _called(_function("dynkin.py", "calibrate"))
    assert {"diagram_for_row", "equal_under_correspondence"} <= _called(_function("dynkin.py", "_passes"))
    extenders = {
        name
        for name, node in _function_nodes(PACKAGE / "dynkin.py")
        if isinstance(node, ast.Call) and "extend" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert extenders == {"diagram_for_row"}
    readers = {
        path.name for path in PACKAGE.glob("*.py") if "correspondence" in _called(_tree(path.name))
    }
    assert readers == {"dynkin.py"}
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(_tree(path.name))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & {"graph_isomorphic", "refine", "Reference", "_adjacency", "_signatures"}


def test_packed_layout_stays_in_exactalg():
    # coxeter supplies a linear operator and shifts no bits; the slot width,
    # the packing and the readout belong to exactalg's iterating kernels
    assert not [
        node.lineno
        for node in ast.walk(_tree("coxeter.py"))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.LShift, ast.RShift))
    ]
    sources = sorted(PACKAGE.glob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    mentioning = {
        path.name
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _mentioned_name(node) in ("_slot_bits", "slot_bits")
    }
    assert mentioning == {"exactalg.py"}
    defined = {name for name, _ in _definitions(PACKAGE / "exactalg.py")}
    assert not defined & {"slot_bits", "IntMatrix.packed"}
    args = _function("exactalg.py", "matrix_of").args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["operator"]
    assert args.vararg is None and args.kwarg is None


def _scopes(tree):
    """The nodes of each function of ``tree`` and of its top level, each node
    with the innermost function that holds it."""
    pending = [tree]
    while pending:
        scope, nodes = pending.pop(), []
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending.append(node)
            else:
                nodes.append(node)
                todo.extend(ast.iter_child_nodes(node))
        yield nodes


def test_every_record_field_is_read():
    # a field that only tests read is data nothing uses: each field of a
    # record of the package (a class whose body annotates its fields, a
    # NamedTuple or a plain class with __slots__) must be read as an attribute
    # by the package, a script or the benchmark. A read counts for one class
    # when the receiver was bound, in the same function, to a call of that
    # class or of a package function annotated to return it; otherwise for
    # every class with a field of that name
    modules = sorted(PACKAGE.glob("*.py"))
    fields = [
        (node.name, stmt.target.id)
        for path in modules
        for node in _tree(path.name).body
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert len(fields) >= 55  # the 55 fields of the 19 records: the finder still sees them
    classes = {cls for cls, _ in fields}
    returns = {
        node.name: ast.unparse(node.returns).strip("'\"")
        for path in modules
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.FunctionDef) and node.returns is not None
    }
    callers = [path for path in modules if path.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    read = set()
    for path in callers:
        for nodes in _scopes(ast.parse(path.read_text(), filename=str(path))):
            bound = {}
            for node in nodes:
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    callee = _mentioned_name(node.value.func)
                    cls = callee if callee in classes else returns.get(callee)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bound[target.id] = cls if cls in classes else None
            for node in nodes:
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    receiver = node.value.id if isinstance(node.value, ast.Name) else None
                    read.add((bound.get(receiver), node.attr))
    unread = [
        f"{cls}.{name}"
        for cls, name in fields
        if (cls, name) not in read and (None, name) not in read
    ]
    assert unread == []


def test_one_status_rule():
    # bh verify decides pass, fail or inapplicable in one place: verify_row
    # puts into its checks dict only what cli._check returns, and names no
    # status itself. It catches in one place too: the verify path holds one
    # try, in the stage loop, whose one handler takes ValueError, so no check
    # catches an exception itself
    cli = _tree("cli.py")
    defined = {node.name for node in ast.walk(cli) if isinstance(node, ast.FunctionDef)}
    assert "_check" in defined and "_status" not in defined
    verify_row = _function("cli.py", "verify_row")
    placed = [
        node.value
        for node in ast.walk(verify_row)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Subscript) and getattr(target.value, "id", None) == "checks"
    ]
    assert placed
    assert all(isinstance(v, ast.Call) and getattr(v.func, "id", None) == "_check" for v in placed)
    assert not [
        node.lineno
        for node in ast.walk(verify_row)
        if isinstance(node, ast.Constant) and node.value in ("status", "pass", "fail", "inapplicable")
    ]
    path = [_function("cli.py", name) for name in ("_check", "_stages", "verify_row", "build_report")]
    tries = [node for func in path for node in ast.walk(func) if isinstance(node, ast.Try)]
    assert len(tries) == 1
    assert [ast.unparse(handler.type) for handler in tries[0].handlers] == ["ValueError"]
    assert not tries[0].orelse and not tries[0].finalbody
    assert sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check"
               for node in ast.walk(verify_row)) == 1
    # stages and checks run in one loop, the only one in verify_row: it holds
    # the try, and outside it broken is only made, so one failure rule writes
    # it for stages and checks alike
    [loop] = [node for node in ast.walk(verify_row) if isinstance(node, (ast.For, ast.While))]
    in_loop = set(map(id, ast.walk(loop)))
    assert sum(isinstance(node, ast.Try) for node in ast.walk(loop)) == 1
    broken = [node for node in ast.walk(verify_row) if isinstance(node, ast.Name) and node.id == "broken"]
    assert [type(node.ctx) for node in broken if id(node) not in in_loop] == [ast.Store]
    assert any(isinstance(node.ctx, ast.Load) for node in broken)


def test_scripts_import_no_private_name():
    # a script uses the package's public names only: it imports no
    # underscore name from bhdual and reads none off a name it imports
    found = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        imported = {
            (alias.asname or alias.name, f"{node.module}.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bhdual"
            for alias in node.names
        }
        found += [dotted for _, dotted in imported if "._" in f".{dotted}"]
        found += [
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and getattr(node.value, "id", None) in {name for name, _ in imported}
        ]
    assert found == []


def test_cli_loads_no_dataclasses_or_inspect():
    # importing the CLI adds neither module to those a bare interpreter holds
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = (
        "import sys; bare = set(sys.modules); import bhdual.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_cli_loads_quotres_for_lemma_only():
    # cmd_lemma imports quotres itself, so bh verify never compiles or loads it
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = "import sys, bhdual.cli; print('bhdual.quotres' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def _owned_nodes(path):
    """(owner, node) for every node of a package module, the owner being the
    top-level function or class that holds it (None at module level)."""
    for top in _tree(path.name).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            yield owner, node


def test_case_tag_fixes_the_extension():
    # every shape builder takes the extension size a from the case tag
    # (fixtures.CASE_TAGS): no module reads the stored a column as an
    # attribute but bh tables, which prints it, and weights_table, which
    # compares it through getattr; one function spells a case's key in a
    # convention table
    modules = sorted(PACKAGE.glob("*.py"))
    readers = {
        f"{path.stem}.{owner}"
        for path in modules
        for owner, node in _owned_nodes(path)
        if isinstance(node, ast.Attribute) and node.attr == "a"
    }
    assert readers == {"cli.cmd_tables"}
    assert "getattr" in _called(_function("cli.py", "verify_row"))
    spellers = {
        f"{path.stem}.{owner}"
        for path in modules
        for owner, node in _owned_nodes(path)
        if isinstance(node, ast.JoinedStr)
        and "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        in ("a{}", "a{}_r1")
    }
    assert spellers == {"dynkin.case_key"}


def _function_nodes(path):
    """(name, node) for every node of a package module, the name being that
    of the innermost function that holds it (None at module level)."""
    pending = [(None, _tree(path.name))]
    while pending:
        name, scope = pending.pop()
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending.append((node.name, node))
            else:
                yield name, node
                todo.extend(ast.iter_child_nodes(node))


def _loop_iterables(node):
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        return [g.iter for g in node.generators]
    return []


def _calls(node, name):
    return any(isinstance(n, ast.Call) and _base_name(n.func) == name for n in ast.walk(node))


def _pair_targets(target, iterable):
    """(part of a loop target, node) for each ``.alpha_beta`` read that
    ``iterable`` iterates, itself or as an argument of zip or enumerate,
    with the part of the target that names one of its pairs."""
    if isinstance(iterable, ast.Attribute) and iterable.attr == "alpha_beta":
        yield target, iterable
    elif isinstance(iterable, ast.Call) and _base_name(iterable.func) in ("zip", "enumerate"):
        if isinstance(target, ast.Tuple):
            parts = target.elts[_base_name(iterable.func) == "enumerate":]
            for part, arg in zip(parts, iterable.args):
                yield from _pair_targets(part, arg)


def test_one_arm_rule():
    # curveconf.arms is the one rule that turns the Dolgachev triple into arm
    # curves and the one check of it: no other package function calls
    # arm_label in a loop over a range or does arm arithmetic on entries of
    # the triple, and only arms compares a number with 2 or says so in an
    # error (quotres's k >= 2 bounds a resolution chain, not an arm)
    modules = sorted(PACKAGE.glob("*.py"))
    builders, entries, bounds = set(), set(), set()
    for path in modules:
        for owner, node in _function_nodes(path):
            where = f"{path.stem}.{owner}"
            if any(_calls(it, "range") for it in _loop_iterables(node)) and _calls(node, "arm_label"):
                builders.add(where)
            if isinstance(node, ast.Subscript) and _base_name(node.value) == "dolgachev":
                entries.add(where)
            if isinstance(node, ast.Compare) and path.stem != "quotres":
                operands = [node.left, *node.comparators]
                if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops) and any(
                    isinstance(v, ast.Constant) and v.value == 2 for v in operands
                ):
                    bounds.add(where)
            if isinstance(node, ast.Raise) and path.stem != "quotres":
                if re.search(r"below 2|>= ?2", ast.unparse(node)):
                    bounds.add(where)
    assert builders == {"curveconf.arms"}
    assert entries == set()
    assert bounds == {"curveconf.arms"}


def test_alpha_beta_gives_only_its_betas():
    # the Dolgachev triple is the one source of the alpha_i: a loop over the
    # pairs of alpha_beta anywhere else unpacks each as (_, beta), and no
    # other code reads the column. weights_table compares the stored alphas
    # with the triple, and bh tables prints them
    readers, iterated, reads = set(), set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _function_nodes(path):
            if isinstance(node, (ast.For, ast.comprehension)):
                for part, read in _pair_targets(node.target, node.iter):
                    iterated.add(read)
                    if not (isinstance(part, ast.Tuple) and _base_name(part.elts[0]) == "_"):
                        readers.add(owner)
            elif isinstance(node, ast.Attribute) and node.attr == "alpha_beta":
                reads.append((owner, node))
    readers |= {owner for owner, node in reads if node not in iterated}
    assert readers == {"weights_table", "cmd_tables"}


def test_verify_builders_take_the_row_alone():
    # the generator list, its classes and the rule diagram depend on the row
    # alone; gram_matrix is the one reader of the configuration's curves and
    # the one pairing: no other package code reads a class's divisor, so a
    # second pairing cannot drift from it
    for func, params in (
        (klattice.generator_list, ["row"]),
        (klattice.class_of, ["sheaf"]),
        (dynkin.diagram_for_row, ["row"]),
    ):
        assert list(inspect.signature(func).parameters) == params, func.__name__
    modules = sorted(PACKAGE.glob("*.py"))
    defined = {name for path in modules for name, _ in _definitions(path)}
    assert not defined & {"mukai_pairing", "_known"}
    readers = {
        f"{path.stem}.{owner}"
        for path in modules
        for owner, node in _owned_nodes(path)
        if isinstance(node, ast.Attribute) and node.attr == "divisor"
    }
    assert readers == {"klattice.gram_matrix"}


def test_one_unknown_curve_rule():
    # a stored value that names a curve a graph lacks is caught where the
    # graph looks the label up, by the configuration's join, the Gram's
    # label check and the diagram's index, and by no guard that predicts it;
    # each raises a ValueError saying "a curve the <graph> lacks"; one
    # function spells an arm curve's label
    modules = sorted(PACKAGE.glob("*.py"))
    defined = {name for path in modules for name, _ in _definitions(path)}
    assert not defined & {"ShortArm", "UnknownNode", "MissingConvention", "UnknownCurve"}
    raisers = {}
    for path in modules:
        for owner, node in _owned_nodes(path):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if re.search(r"a curve the \w+ lacks", ast.unparse(node.exc)):
                    raisers[f"{path.stem}.{owner}"] = _base_name(node.exc.func)
    assert raisers == {
        "curveconf.build_configuration": "ValueError",
        "klattice.gram_matrix": "ValueError",
        "dynkin._minus_two_graph": "ValueError",
    }
    spellers = {
        f"{path.stem}.{owner}"
        for path in modules
        for owner, node in _owned_nodes(path)
        if isinstance(node, ast.JoinedStr)
        and "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values) == "E{}_{}"
    }
    assert spellers == {"curveconf.arm_label"}


def _base_name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _builtin_error(name):
    base = getattr(builtins, name or "", None)
    return isinstance(base, type) and issubclass(base, BaseException)


def test_every_error_class_is_caught_or_carries_data():
    # an error class earns its name when some handler in the package, a
    # script or the benchmark catches it by that name, or when it carries
    # data beyond its message (it defines __init__); any other raise site
    # raises ValueError, or ArithmeticError for a program fault
    classes = {
        node.name: node
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _tree(path.name).body
        if isinstance(node, ast.ClassDef)
    }
    errors: set[str] = set()
    while True:  # a subclass of a package error class is one too
        found = {
            name
            for name, node in classes.items()
            if any(base in errors or _builtin_error(base) for base in map(_base_name, node.bases))
        }
        if found <= errors:
            break
        errors |= found
    sources = sorted(PACKAGE.glob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    caught = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(map(_base_name, types))
    carrying = {
        name
        for name in errors
        if any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in classes[name].body)
    }
    assert errors - caught - carrying == set()
    assert errors == {"ParseError", "UnknownFixture", "CalibrationFailed"}


def test_calibration_checks_the_committed_wiring():
    # calibrate checks each row's rule diagram under the committed wiring:
    # no variant stream, no position readings and no itertools.product for
    # them; extension_edges reads arm positions by its one rule, so it takes
    # the row and the case and nothing else
    body = _tree("dynkin.py").body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    assert "calibrate" in defined and "committed_convention" in defined
    assert not defined & {"READINGS", "read_position", "_POSITIONS", "_case_candidates", "_sign_variants"}
    assert not [where for where in _importers("itertools") if where.startswith("dynkin.py:")]
    args = _function("dynkin.py", "extension_edges").args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["row", "case"]
    assert args.vararg is None and args.kwarg is None


def _qualified_functions(path):
    """(qualified name, node) for every top-level function and every method
    of a package module."""
    for top in _tree(path.name).body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{top.name}.{node.name}", node


def _writes_exponent(node):
    """An f-string with '^' right before a formatted value, or a '+' with a
    string holding '^' on either side."""
    if isinstance(node, ast.JoinedStr):
        return any(
            isinstance(part, ast.Constant) and part.value.endswith("^") and isinstance(after, ast.FormattedValue)
            for part, after in zip(node.values, node.values[1:])
        )
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and any(
            isinstance(side, ast.Constant) and isinstance(side.value, str) and "^" in side.value
            for side in (node.left, node.right)
        )
    )


def test_one_polynomial_printer():
    # every polynomial the package writes goes through exactalg's two rules:
    # monomial writes the exponents, signed_sum the coefficients and signs,
    # and each printer is one expression over them.  Two other functions
    # write '^': bh lemma, whose curve and chart-monomial fields keep the
    # explicit x^1 and u^0 that its pinned outputs fix, and the Phi notation
    # of a cyclotomic factorization
    functions = {
        f"{path.stem}.{name}": node
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in _qualified_functions(path)
    }
    for printer in ("exactalg.IntPolynomial.__str__", "quotres.SparsePoly.__str__", "polyparse.render"):
        body = [s for s in functions[printer].body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
        assert len(body) == 1 and isinstance(body[0], ast.Return), printer
        assert {"monomial", "signed_sum"} <= _called(functions[printer]), printer
    writers = {name for name, node in functions.items() if any(map(_writes_exponent, ast.walk(node)))}
    assert writers == {"exactalg.monomial", "exactalg.CyclotomicFactorization.__str__", "cli.cmd_lemma"}


def test_one_compactifier_notation():
    # the compactifying monomial is one exponent row over (w, x, y, z):
    # weights reads its shape off the stored text and writes it back, the
    # fixture row derives nothing from its columns, and no other function
    # splits a monomial at '*'
    [fixture_row] = [node for node in _tree("fixtures.py").body if getattr(node, "name", None) == "FixtureRow"]
    assert not [node.name for node in fixture_row.body if isinstance(node, ast.FunctionDef)]
    splitters = {
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, node in _function_nodes(path)
        if isinstance(node, ast.Call) and _base_name(node.func) == "split"
        and any(isinstance(arg, ast.Constant) and arg.value == "*" for arg in node.args)
    }
    assert splitters == {"weights.ambient_weights"}
    assert AmbientWeights._fields == ("weights", "monomial")


def test_one_invertibility_rule():
    # the Kreuzer-Skarke shape is the one definition of an invertible
    # polynomial, checked once where one is built: it implies det != 0, so
    # polyparse needs no determinant, and positive weights, so
    # canonical_weights tests no sign (ambient_weights' q0 is not a weight of
    # f); no other function raises about a monomial's shape
    names = {
        alias.name for node in ast.walk(_tree("polyparse.py")) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert "det_bareiss" not in names
    raises = [
        (f"{path.stem}.{name}", ast.unparse(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for name, function in _qualified_functions(path)
        for node in ast.walk(function)
        if isinstance(node, ast.Raise)
    ]
    assert {where for where, text in raises if where.startswith("weights.") and "positive" in text} == {
        "weights.ambient_weights"
    }
    shape = re.compile(r"x\^a|of two monomials|singular|identical|non-negative")
    rule = "polyparse.InvertiblePolynomial.__init__"
    assert {where for where, text in raises if shape.search(text)} == {rule}
    assert any(where == rule and "x^a" in text for where, text in raises)
