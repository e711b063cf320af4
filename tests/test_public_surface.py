"""Every exported name is used by the program itself, not only by the tests."""

import ast
from pathlib import Path

import segre_towers

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "segre_towers"


def _references(node, outside, found):
    """Add to ``found`` each name read or attribute taken below ``node``,
    except inside a definition named ``outside``."""
    for child in ast.iter_child_nodes(node):
        definition = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if isinstance(child, definition) and child.name == outside:
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found.add(child.attr)
        _references(child, outside, found)


def _used_by_the_program(name):
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        found = set()
        _references(ast.parse(path.read_text(encoding="utf-8")), name, found)
        if name in found:
            return True
    return False


def test_every_export_is_used_by_the_program():
    unused = [name for name in segre_towers.__all__ if not _used_by_the_program(name)]
    assert not unused, f"exported, but no module of the program uses: {unused}"


def test_reference_finder_ignores_definitions_and_text():
    source = (
        "def f():\n    return f()\n"
        "def g():\n    raise ValueError('h is not used')\n"
        "h = 1\n"
    )
    found = set()
    _references(ast.parse(source), "f", found)
    assert found == {"ValueError"}
    found = set()
    _references(ast.parse(source + "x = f\ny = mod.g\n"), "f", found)
    assert found == {"ValueError", "f", "mod", "g"}
