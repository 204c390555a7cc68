"""Source-level rules for the package, checked on its syntax trees.

No `assert` statements: `python -O` strips them, so a correctness check
written as one silently stops checking. And `analysis` may use other
modules only through their public names, so a helper can change shape
inside its own module without breaking the searches. And `cli` writes
every report through `reporting.render`, so the choice between text, JSON
and CSV is made in one place.
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


def names_in(tree):
    """Every identifier a module mentions: names, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_cli_leaves_the_report_format_to_reporting():
    # `reporting.render` is the CLI's one output path; a renderer named in
    # cli.py would be a second place that decides the format
    renderers = {
        "JSON_SCHEMA",
        "render_json",
        "wiener_json",
        "wiener_csv",
        "report_json",
        "report_csv",
        "report_text",
        "checks_json",
        "checks_csv",
        "checks_text",
    }
    found = sorted(set(names_in(parsed(PACKAGE / "cli.py"))) & renderers)
    assert found == []
