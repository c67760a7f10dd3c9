"""Source-level guards on the package layout."""
import ast
from pathlib import Path

import bhdual

PACKAGE = Path(bhdual.__file__).parent


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def test_no_assert_statements():
    # python -O strips asserts, so runtime invariants must raise typed errors
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


def test_no_fractions_import():
    # integer kernels throughout: no module of the package uses Fraction
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_factor_cyclotomic_is_one_exact_pass():
    # the index bound comes from the degree, not from a parameter, and the
    # factorization peels binomials instead of trial-dividing by each Phi_n
    func = next(
        node
        for node in ast.walk(_tree("exactalg.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "factor_cyclotomic"
    )
    args = func.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["p"]
    assert args.vararg is None and args.kwarg is None
    called = {
        getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
    }
    assert not called & {"cyclotomic", "divmod_exact_leading"}


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
    # spectrum and Poincare series are built by the exactalg stride step
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(_tree("series.py"))
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not names & {"exact_div", "divmod_exact_leading", "t_n_minus_1", "eval_at_integer"}


def test_one_stride_step():
    # factor_cyclotomic's peel calls the shared step and updates no
    # coefficient list of its own
    func = next(
        node
        for node in ast.walk(_tree("exactalg.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "factor_cyclotomic"
    )
    called = {getattr(node.func, "id", None) for node in ast.walk(func) if isinstance(node, ast.Call)}
    assert "divide_by_binomial" in called
    assert not [
        node.lineno
        for node in ast.walk(func)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
    ]
