"""Every name the package exports has a caller outside its own unit tests.

A caller is a reference in the library itself, a demo, the benchmark's jobs
or the acceptance criteria: a bare name the file defines or imports from
corrhit, or an attribute of a name bound to a corrhit module (`C.rho`,
`fourier.analyze`).  The benchmark's own numpy references (`R.max_operator`)
are not corrhit and do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "corrhit"
CALLERS = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + [
        ROOT / "perfbench" / "workloads.py",
        ROOT / "perfbench" / "run.py",
        ROOT / "tests" / "test_acceptance.py",
    ]
)

EXEMPT = {
    # perfbench/tracing.py wraps it by name and the benchmark declares its
    # per-layer metrics, so it goes only together with a benchmark change
    "max_operator",
    # the paper's low-influence bound; it is to get a reader that can fail
    # (an exact invariance curve read against it)
    "low_influence_bound",
}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _is_corrhit(module: str | None, level: int) -> bool:
    return level > 0 or module == "corrhit" or (module or "").startswith("corrhit.")


def referenced_names(path: Path) -> set[str]:
    """Exported-name candidates that `path` reads as a corrhit name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    own = set()  # bare names bound to corrhit objects in this file
    aliases = set()  # names bound to corrhit modules
    if path.parent == PACKAGE:
        own |= {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "corrhit" or alias.name.startswith("corrhit."):
                    aliases.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and _is_corrhit(node.module, node.level):
            for alias in node.names:
                bound = alias.asname or alias.name
                (aliases if alias.name in modules else own).add(bound)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Attribute) and base.attr in modules:
                base = base.value  # corrhit.fourier.analyze
            if isinstance(base, ast.Name) and base.id in aliases:
                found.add(node.attr)
    return found


def reached_names() -> set[str]:
    assert len(CALLERS) > len(list(PACKAGE.glob("*.py"))), "caller files went missing"
    return set().union(*(referenced_names(p) for p in CALLERS))


def test_every_exported_name_has_a_caller():
    assert sorted(exported_names() - reached_names() - EXEMPT) == []


def test_exemptions_are_exported_and_still_uncalled():
    """An exempt name that gains a caller, or leaves the package, leaves the
    list too."""
    assert EXEMPT <= exported_names()
    assert EXEMPT & reached_names() == set()
