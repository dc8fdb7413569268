"""Each storage format has one owner in the library.

`dist_core` alone lays out a distribution's dense weight table: no other
module calls `StepDistribution(...)` (they build with
`StepDistribution.from_cells`) or reads the dense `_scaled` table.
`fourier` alone reads or builds function payloads: no other module calls
`FunctionSpec(...)` or reads `.payload`.  Annotations and docstrings that
name these do not count.  The joint-count program sits below both: its
module imports no corrhit module but `_util` and `dist_core`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corrhit"

# (owner module, names whose calls only it makes, attributes only it reads)
RULES = (
    ("dist_core", {"StepDistribution"}, {"_scaled"}),
    ("fourier", {"FunctionSpec"}, {"payload"}),
)


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def trespasses(source: str, calls: set, attrs: set) -> list[str]:
    """`name(` calls of `calls` and `.attr` reads of `attrs` in source, as
    'line: text' strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) in calls:
            found.append(f"{node.lineno}: {_called_name(node)}(")
        elif isinstance(node, ast.Attribute) and node.attr in attrs:
            found.append(f"{node.lineno}: .{node.attr}")
    return found


@pytest.mark.parametrize("owner, calls, attrs", RULES, ids=[r[0] for r in RULES])
def test_only_the_owner_touches_its_format(owner, calls, attrs):
    modules = sorted(PACKAGE.glob("*.py"))
    assert owner in {p.stem for p in modules}
    bad = {
        path.name: hits
        for path in modules
        if path.stem != owner
        and (hits := trespasses(path.read_text(), calls, attrs))
    }
    assert bad == {}


def test_the_finder_sees_calls_and_reads_but_not_annotations():
    source = (
        "def f(p: StepDistribution) -> FunctionSpec:\n"
        '    """StepDistribution(...) and f.payload in a docstring."""\n'
        "    q = StepDistribution.from_cells(a, 2, {})\n"
        "    g = fourier.FunctionSpec(1, a, 'table', {})\n"
        "    return p._scaled, g.payload, StepDistribution(a, 2, w, True)\n"
    )
    assert sorted(trespasses(source, {"StepDistribution"}, {"_scaled"})) == [
        "5: ._scaled", "5: StepDistribution(",
    ]
    assert sorted(trespasses(source, {"FunctionSpec"}, {"payload"})) == [
        "4: FunctionSpec(", "5: .payload",
    ]


def _in_package(name: str) -> str | None:
    """The module of the package that the absolute import `name` names
    ("corrhit" for the package itself), or None outside it."""
    if name != "corrhit" and not name.startswith("corrhit."):
        return None
    return name.removeprefix("corrhit").lstrip(".") or "corrhit"


def corrhit_imports(source: str) -> set[str]:
    """The corrhit modules that `source`, a module of the package, imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {_in_package(alias.name) for alias in node.names} - {None}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or "" if node.level else _in_package(node.module or "")
            if module in ("", "corrhit"):
                found |= {alias.name for alias in node.names}
            elif module is not None:
                found.add(module)
    return found


def test_the_joint_count_program_imports_only_the_layers_below():
    source = (PACKAGE / "_jointcount.py").read_text()
    assert corrhit_imports(source) == {"_util", "dist_core"}


def test_the_import_finder_sees_every_form():
    source = (
        "import numpy as np\n"
        "from . import fourier\n"
        "from .hitting import x\n"
        "from corrhit.cli import main\n"
        "import corrhit.invariance\n"
        "from corrhit import decompose\n"
        "from numpy import linalg\n"
    )
    assert corrhit_imports(source) == {"fourier", "hitting", "cli", "invariance", "decompose"}
