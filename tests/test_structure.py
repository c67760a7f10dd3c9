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
    # the phi checks add cyclotomic exponents, so they never meet the index
    # bound of factor_cyclotomic; neither an import nor an attribute access
    # (exactalg.factor_cyclotomic) may bring it back
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
