"""The library holds only what the verifier runs.

Every top-level function and class under src/bgsplit must be named
somewhere else in the library (its own module counts, its own body does
not), in the CLI or in the benchmark's child program.  Package
`__init__` files do not count: a re-export is not a use.  Code that only
the tests call belongs in the tests' oracle modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(tree: ast.AST) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unreferenced(root: Path) -> list[str]:
    """`module:name` for every top-level def under root/src/bgsplit that nothing else names."""
    modules = {
        path: [(top, _names(top)) for top in ast.parse(path.read_text()).body]
        for path in sorted((root / "src" / "bgsplit").rglob("*.py"))
        if path.name != "__init__.py"
    }
    whole = {path: set().union(*(names for _, names in body)) for path, body in modules.items()}
    outside = _names(ast.parse((root / "bench" / "child.py").read_text()))
    found = []
    for path, body in modules.items():
        elsewhere = outside.union(*(names for other, names in whole.items() if other != path))
        for top, _ in body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if top.name not in elsewhere and not any(top.name in names for other, names in body if other is not top):
                found.append(f"{path.relative_to(root).as_posix()}:{top.name}")
    return found


def test_every_library_definition_is_used_by_the_library_cli_or_benchmark():
    assert unreferenced(ROOT) == []


def test_the_scan_sees_a_test_only_helper(tmp_path):
    src = tmp_path / "src" / "bgsplit"
    src.mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (src / "__init__.py").write_text("from .lib import helper\n")
    (src / "lib.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return n and recursive(n - 1)\n\n\n"
        "def helper():\n    return used()\n\n\n"
        "class Report:\n    pass\n"
    )
    (src / "cli.py").write_text("from .lib import Report\n")
    (tmp_path / "bench" / "child.py").write_text("")
    assert unreferenced(tmp_path) == ["src/bgsplit/lib.py:recursive", "src/bgsplit/lib.py:helper"]
