"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cslindex"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def test_package_has_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


def test_test_only_helpers_are_gone():
    import cslindex
    from cslindex import matrices, normalform

    for name in ("minors_gcd", "gcd_entries", "det", "hermite_normal_form"):
        assert not hasattr(cslindex, name) and name not in cslindex.__all__
    assert not hasattr(normalform, "minors_gcd") and not hasattr(normalform, "MINOR_BUDGET")
    assert not hasattr(matrices, "gcd_entries") and not hasattr(matrices.IntMatrix, "transpose")
