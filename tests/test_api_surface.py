"""Every definition of the package has a caller outside the tests.

A top-level function, class or assigned name of ``src/tailflow/`` that only
tests use is an API kept alive for its own tests.  This parses the package
and ``bench/`` and requires each such name (dunders excepted) to be referenced
somewhere in them: as a name read, as an attribute, or as a string equal to
the name, which covers lookups by ``getattr`` and hooks installed by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tailflow"


def _trees(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(directory.glob("*.py"))}


def _defined(tree):
    """Names that a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _unused(package, others):
    """``module.name`` of each definition in ``package`` that no tree references.

    ``package`` maps module paths to parsed trees; ``others`` holds further
    trees whose references count.
    """
    used = {name for tree in [*package.values(), *others] for name in _referenced(tree)}
    return [f"{path.stem}.{name}" for path, tree in package.items()
            for name in _defined(tree)
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


def test_no_definition_is_used_only_by_tests():
    package = _trees(PACKAGE)
    assert package
    unused = _unused(package, _trees(ROOT / "bench").values())
    assert not unused, f"defined in src/tailflow/ but used only by tests: {unused}"


@pytest.mark.parametrize("module,caller,want", [
    ("def f(): pass", "", ["m.f"]),
    ("def f(): pass", "f()", []),
    ("def f(): pass", "m.f()", []),
    ("def f(): pass", "getattr(m, 'f')", []),
    ("class C: pass", "", ["m.C"]),
    ("X = 1", "X = 2", ["m.X"]),  # a store is no reference
    ("X: int = 1", "", ["m.X"]),
    ("a, (b, c) = 1, (2, 3)", "a + c", ["m.b"]),
    ("__all__ = []", "", []),
    ("def f():\n    g = 1\n    return g", "f", []),  # g is not top-level
], ids=["unused", "name", "attribute", "string", "class", "store", "annotated",
        "unpacked", "dunder", "nested"])
def test_rule(module, caller, want):
    package = {Path("m.py"): ast.parse(module)}
    assert _unused(package, [ast.parse(caller)]) == want
