"""Static checks on the sources.

tests/oracles.py must not import the package it is the reference for, and
the library states its checks as raised errors, never as `assert`, which
`python -O` strips.
"""

from __future__ import annotations

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
LIBRARY = Path(__file__).resolve().parent.parent / "src" / "corrhit"


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import reaches the package only from inside it
            yield "." * node.level + (node.module or "")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("__import__", "import_module")
        ):
            yield from (
                arg.value for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )


def test_oracles_import_nothing_from_corrhit():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    modules = list(imported_modules(tree))
    assert modules, "the parser found no imports at all"
    offending = [
        name for name in modules
        if name.startswith(".") or name == "corrhit" or name.startswith("corrhit.")
    ]
    assert offending == []


def test_library_has_no_assert_statements():
    sources = sorted(LIBRARY.rglob("*.py"))
    assert sources, "no library sources found"
    found = [
        f"{path.relative_to(LIBRARY)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
