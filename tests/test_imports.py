"""Every name a package or test module imports is used in that module,
and every package definition is used outside the tests.

No linter runs over the package or its tests, so this parses each module
with `ast` and refuses an import that binds a name the module never reads,
and a package definition that nothing but the tests reads.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import sandwichkit

MODULES = sorted(Path(sandwichkit.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
README = ROOT / "README.md"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def read_counts(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often a subtree reads each name: (every read, as a variable, as
    an attribute or imported by name; attribute reads obj.name alone)."""
    out, attributes = Counter(), Counter()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
            attributes[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out, attributes


def documented_names() -> set:
    """Every name in backticks in README's module table, whole and by its
    last dotted part (`QueryProgram.dual` names `dual`)."""
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    tour = tour[:tour.index("\n## ", 1)]
    names = set()
    for line in tour.splitlines():
        if line.startswith("| `sandwichkit."):
            for span in re.findall(r"`([^`]+)`", line):
                names.update((span, span.rsplit(".", 1)[-1]))
    return names


def package_definitions(tree: ast.Module):
    """(definition, is a method) for each top-level function or class, and
    each public method of a public class, dunders aside."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if (isinstance(member, DEFINITIONS)
                        and not member.name.startswith("_")):
                    yield member, True


def test_no_dead_top_level_definitions():
    """Every top-level function or class of the package, and every public
    method of a public package class, is read outside its own definition by
    a package module or a perfbench script, or is documented API named in
    README's module table.  A method counts as read only through an
    attribute, obj.name: a bare name, such as a local variable of the same
    name, does not keep it alive.  Two classes' methods of one name are
    still not told apart.  A read from the tests alone does not keep
    package code alive: test-only code lives in tests/support.py."""
    assert {p.name for p in PERFBENCH} >= {"run.py", "workloads.py"}
    trees = {path: ast.parse(path.read_text(), str(path)) for path in MODULES + PERFBENCH}
    reads, attribute_reads = Counter(), Counter()
    for tree in trees.values():
        every, attributes = read_counts(tree)
        reads.update(every)
        attribute_reads.update(attributes)
    documented = documented_names()
    dead = []
    for path in MODULES:
        for node, is_method in package_definitions(trees[path]):
            every, attributes = read_counts(node)
            if is_method:
                outside = attribute_reads[node.name] - attributes[node.name]
            else:
                outside = reads[node.name] - every[node.name]
            if outside <= 0 and node.name not in documented:
                dead.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not dead, "read by no package module or perfbench script: " + ", ".join(dead)


#: the LP code the oracle must not reach: it checks certificates by arithmetic
LP_NAMES = {"LpBuilder", "lp_solve", "LinearProgram", "sup_affine_minus_convex",
            "sups_affine_minus_convex", "evaluate", "eval_with_subgradient"}


def test_the_oracle_binds_no_lp_code():
    """sandwichkit.oracle neither imports nor reads, as a name or as an
    attribute, any of the package's LP entry points."""
    (path,) = [p for p in MODULES if p.name == "oracle.py"]
    tree = ast.parse(path.read_text(), str(path))
    every, _ = read_counts(tree)
    bound = set(imported_names(tree)) | set(every) | read_names(tree)
    assert not bound & LP_NAMES, sorted(bound & LP_NAMES)


def test_no_package_module_imports_the_tests():
    """The package runs without the tests: no module under src imports
    tests/support.py or any other test module."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            else:
                continue
            for name in modules:
                root = name.split(".")[0]
                if root in ("tests", "support", "conftest") or root.startswith("test_"):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found
