"""Source-level rules for the package, checked on its syntax trees.

No `assert` statements: `python -O` strips them, so a correctness check
written as one silently stops checking. And `analysis` may use other
modules only through their public names, so a helper can change shape
inside its own module without breaking the searches.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linewiener"


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_analysis_imports_only_public_names():
    # `from . import _fast` names a module, not a private helper
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(parsed(PACKAGE / "analysis.py"))
        if isinstance(node, ast.ImportFrom) and node.module is not None
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
