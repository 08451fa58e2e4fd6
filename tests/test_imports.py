"""Every name a package module imports at module level is used there, and
every private name one defines is read somewhere in the package.

Each src/drazinkit/*.py but __init__.py (which re-exports the public names)
is parsed with ast; a module-level import whose name the module never
reads, in code or in a quoted annotation, is dead and fails here. So is a
module-level private function, class or constant that no package module
reads, such as a wrapper whose callers a refactor has inlined.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "drazinkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The name each module-level import binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private (single underscore) names of the module-level functions,
    classes and constants, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update((n, node.lineno) for n in targets if n[:1] == "_" and n[:2] != "__")
    return names


@cache
def package_reads() -> frozenset[str]:
    """Every name any package module reads, __init__.py included."""
    return frozenset().union(*(
        read_names(ast.parse(p.read_text(encoding="utf-8"))) for p in SRC.glob("*.py")
    ))


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {
        "cli", "drazin_core", "exact_arith", "matrix_rings", "quadruple_lab", "spectral",
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read_in_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = package_reads()
    unread = {name: line for name, line in private_definitions(tree).items() if name not in reads}
    assert unread == {}
