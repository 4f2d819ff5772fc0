"""The package's public surface: every exported name resolves, and every
public top-level function or class, and every public method of a public
class, is used by the program itself (the package, its CLI or the
benchmark), not only by tests."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anisolab"
PROGRAM_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
MODULES = sorted(f.stem for f in PACKAGE.glob("*.py") if f.stem != "__main__")

# Public definitions no program code calls yet, each kept on purpose.
ALLOWED_UNUSED = set()

# Public methods no program code calls, each kept on purpose.
ALLOWED_UNUSED_METHODS = {
    # the one reader of the grid files the CLI writes (`conjugate --out
    # *.bin`, `capacity --field`, `solve --fields-dir`), with the
    # malformed-file checks every reader keeps
    "SampledFn2D.from_binary",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"anisolab.{name}" if name != "__init__" else "anisolab")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def _references(tree, skip, strings=False):
    """Names and attribute names used in ``tree`` outside the nodes in
    ``skip``; with ``strings``, also every string constant (methods called
    by name, as ``getattr(obj, "log_value")``)."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unused_definitions():
    """``[(file, lineno, name)]`` of every public top-level function or
    class that no program code references."""
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in PROGRAM_FILES}
    definitions = {
        (f, node)
        for f in PROGRAM_FILES
        if f.parent == PACKAGE
        for node in trees[f].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    everywhere = {f: _references(tree, set()) for f, tree in trees.items()}
    unused = []
    for f, node in sorted(definitions, key=lambda d: (d[0].name, d[1].lineno)):
        used = node.name in _references(trees[f], {node}) or any(
            node.name in refs for g, refs in everywhere.items() if g != f
        )
        if not used:
            unused.append((f.name, node.lineno, node.name))
    return unused


def _unused_methods():
    """``[(file, lineno, "Class.method")]`` of every public method of a
    public class that no program code references, by name or as a string."""
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in PROGRAM_FILES}
    methods = [
        (f, cls, node)
        for f in PROGRAM_FILES
        if f.parent == PACKAGE
        for cls in trees[f].body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    everywhere = {f: _references(tree, set(), strings=True) for f, tree in trees.items()}
    unused = []
    for f, cls, node in methods:
        used = node.name in _references(trees[f], {node}, strings=True) or any(
            node.name in refs for g, refs in everywhere.items() if g != f
        )
        if not used:
            unused.append((f.name, node.lineno, f"{cls.name}.{node.name}"))
    return unused


def test_every_public_definition_is_used_by_the_program():
    unused = [f"{f}:{line} {name}" for f, line, name in _unused_definitions()
              if name not in ALLOWED_UNUSED]
    assert not unused, unused


def test_every_public_method_is_used_by_the_program():
    unused = [f"{f}:{line} {name}" for f, line, name in _unused_methods()
              if name not in ALLOWED_UNUSED_METHODS]
    assert not unused, unused


def test_allowlists_hold_only_unused_names():
    # an allowlisted name that is gone, or that the program now uses,
    # leaves the list in the same change
    assert ALLOWED_UNUSED <= {name for *_, name in _unused_definitions()}
    assert ALLOWED_UNUSED_METHODS <= {name for *_, name in _unused_methods()}
