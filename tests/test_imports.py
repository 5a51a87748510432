"""Every name a package or test module imports is used in that module.

No linter runs over the package or its tests, so this parses each module
with `ast` and refuses an import that binds a name the module never reads.
"""
import ast
from pathlib import Path

import sandwichkit

MODULES = sorted(Path(sandwichkit.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """{bound name: line} for every import statement, __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def read_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_unused_imports():
    assert {p.name for p in MODULES} >= {"cli.py", "numerics.py", "oracle.py"}
    assert {p.name for p in TESTS} >= {"test_imports.py", "test_numerics.py"}
    unused = []
    for path in MODULES + TESTS:
        tree = ast.parse(path.read_text(), str(path))
        read = read_names(tree)
        for name, line in imported_names(tree).items():
            if name not in read:
                unused.append(f"{path.name}:{line}: {name}")
    assert not unused, unused


def used_names(node: ast.AST) -> set:
    """Names a subtree reads, loads as attributes or imports by name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_no_dead_top_level_definitions():
    """Every top-level function or class of the package is used somewhere
    in the package or the tests, outside its own definition."""
    # (module, top-level statement, names the statement uses)
    statements = []
    for path in MODULES + TESTS:
        for node in ast.parse(path.read_text(), str(path)).body:
            statements.append((path, node, used_names(node)))
    dead = []
    for path, node, _ in statements:
        if path not in MODULES or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(node.name in names for _, other, names in statements if other is not node):
            dead.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not dead, dead
