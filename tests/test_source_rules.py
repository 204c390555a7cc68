"""Source-level rules for the package, checked on its syntax trees.

No `assert` statements: `python -O` strips them, so a correctness check
written as one silently stops checking. No bare `ArithmeticError` either:
every internal cross-check raises `CrossCheckError`, which the CLI reports
with exit code 2. And every module may use the
others only through their public names, so a helper can change shape
inside its own module without breaking its callers. And `cli` writes
every report through `reporting.render`, so the choice between text, JSON
and CSV is made in one place. And no module imports `multiprocessing`
or `pickle`: `--jobs` workers are bare forks over pipes that carry
marshalled builtins alone. And the two O(n) kernels of
`_fast`, `wiener_tree_layout` and `wiener2_tree_layout`, never call
`layout_parents`: the k = 1 sweeps of `verify` take W of every tree from
the table sums of `analysis._tables`, the min-R_2 search confirms its
argmins with both, and each reads the level sequence in one reversed pass
with no parent decode. And `enumeration` has one generator that walks
layouts: plain and filtered streams both take its one skip rule. And no
function in `analysis` walks that stream: every exhaustive sweep reads
`_tables`. And the free-tree count is checked in two places only: the
k = 1 table sweep `_tree_scores`, which counts its own trees, and
`min_r2_search`. And `graphs`, home of the BFS oracle,
imports no module of the package but `errors`. And no module but
`graphs` constructs a `BudgetExceededError`: every overrun comes from
`graphs.check_step_size`, the one rule `graphs.line_iterates` grows by,
so its step numbering holds everywhere. And `cli` names no check
record, budget check or tree family of the `verify` bundles: their
bounds and budget pre-checks live in `analysis.verify_plan` alone. And
every child process a
test starts through `subprocess.Popen` or `subprocess.run` is handed its
environment: the package reaches it only through `PYTHONPATH`, which
pytest's own `pythonpath` setting does not set. And no function takes a
`swept` or `sweeps` parameter: the bundles of `verify` share their BFS
and k = 1 sweeps through one `analysis.sweep_once()` scope, not through a
memo handed from call to call. And every check of the `paper-numbers`,
`lemmas` and `thm4` bundles passes by one rule: each `_check` call in
their functions takes an `_agree(...)` call, over (value, expected)
pairs, as its `ok`. And neither `verify_plan`, its `_runner`, nor the
`paper-numbers`, `lemmas` and `thm4` bundle functions call
`iterated_line_graph` or `line_iterates`: they reach every line graph
through the `sweep_once()` scope's growth, `_grown`, so the plan's budget
check is the growth of what the bundles sweep, and no pre-check that
restates which graph is the largest can come back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "linewiener"


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


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem
)
def test_modules_import_only_public_names(path):
    # `from . import _fast` names a module, not a private helper
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(parsed(path))
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


def test_cross_checks_raise_cross_check_error():
    # the CLI maps LineWienerError to exit 2; a bare ArithmeticError from a
    # failed cross-check would end in a traceback instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "ArithmeticError"
        in (
            getattr(node.exc, "id", None),
            getattr(getattr(node.exc, "func", None), "id", None),
        )
    ]
    assert found == []


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


def imported_modules(tree):
    """(line, module) of every module an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            yield node.lineno, node.module


def package_modules(tree):
    """(line, module) of every module of this package an import names:
    `from .x import y` and `from linewiener.x import y` name x, and
    `from . import x` and `from linewiener import x` name x itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "linewiener":
                    yield node.lineno, rest.partition(".")[0] or top
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                top, _, module = module.partition(".")
                if top != "linewiener":
                    continue
            if module:
                yield node.lineno, module.partition(".")[0]
            else:
                for alias in node.names:
                    yield node.lineno, alias.name


def test_graphs_imports_no_package_module_but_errors():
    # wiener_index is the BFS oracle that _fast, formulas and the tree
    # kernels are checked against, so it may never come to depend on them
    found = [
        f"graphs.py:{line}: {module}"
        for line, module in package_modules(parsed(PACKAGE / "graphs.py"))
        if module != "errors"
    ]
    assert found == []


def test_budget_errors_are_raised_by_graphs_alone():
    # a second place that builds one could number the steps its own way,
    # as a re-raise in ratio_rk once did
    found = sorted(
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "graphs"
        for top in parsed(path).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "BudgetExceededError" in names_in(node.func)
    )
    assert found == []


def test_cli_holds_no_verify_plan():
    # a check line, a budget check or a family built in cli.py would be a
    # second copy of what analysis.verify_plan knows of a bundle
    plan = {
        "CheckResult",
        "BudgetExceededError",
        "Spider",
        "BalancedQuipu",
        "Path",
        "Star",
    }
    found = sorted(set(names_in(parsed(PACKAGE / "cli.py"))) & plan)
    assert found == []


def test_no_module_imports_multiprocessing():
    # importing it costs more than the forks, pipes and exits it would
    # manage for a `--jobs` search; and no pickle either: a worker sends
    # back marshalled builtins alone, its exception as text
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in imported_modules(parsed(path))
        if module.partition(".")[0] in ("multiprocessing", "pickle")
    ]
    assert found == []


def test_tree_kernels_decode_no_parent_array():
    # layout_graph and layout_masks decode one too, through layout_parents
    decoders = {"layout_parents", "layout_graph", "layout_masks"}
    functions = {
        node.name: node
        for node in parsed(PACKAGE / "_fast.py").body
        if isinstance(node, ast.FunctionDef)
    }
    found = {
        kernel: sorted(set(names_in(functions[kernel])) & decoders)
        for kernel in ("wiener_tree_layout", "wiener2_tree_layout")
    }
    assert found == {"wiener_tree_layout": [], "wiener2_tree_layout": []}


def test_enumeration_has_one_layout_walker():
    # free_trees yields graphs, decoded from that walker's layouts
    generators = [
        node.name
        for node in ast.walk(parsed(PACKAGE / "enumeration.py"))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(inner, (ast.Yield, ast.YieldFrom)) for inner in ast.walk(node)
        )
    ]
    walkers = [name for name in generators if name != "free_trees"]
    assert len(walkers) == 1, walkers


def test_analysis_walks_no_free_tree_stream():
    # the search and the k = 1 sweeps read one table, so a stream walk in
    # analysis would be a second tree source to keep in step with it
    streams = {"free_tree_layouts", "free_trees"}
    found = sorted(
        f"{function.name}: {name}"
        for function in ast.walk(parsed(PACKAGE / "analysis.py"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        for name in sorted(set(names_in(node.func)) & streams)
    )
    assert found == []


def test_tree_count_is_checked_by_the_two_sweeps_alone():
    # a sweep over _tree_scores inherits its count check; a new sweep that
    # counts its own trees would be a second way to do it
    found = sorted(
        f"{path.stem}.{function.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in parsed(path).body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and "_check_tree_count" in names_in(node.func)
    )
    assert found == ["analysis._tree_scores", "analysis.min_r2_search"]


def test_tests_hand_every_child_process_its_environment():
    # a child started without env= finds the package only when the caller
    # happens to export PYTHONPATH
    calls = [
        (path.name, node)
        for path in sorted(TESTS.rglob("*.py"))
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("Popen", "run")
        and getattr(node.func.value, "id", None) == "subprocess"
    ]
    assert calls
    found = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if "env" not in {keyword.arg for keyword in node.keywords}
    ]
    assert found == []


def test_no_function_takes_a_sweep_memo():
    found = [
        f"{path.name}:{node.lineno} {node.arg}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.arg) and node.arg in ("swept", "sweeps")
    ]
    assert found == []


def called(node, name):
    """Whether node is a call of the bare name `name`."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


def test_closed_form_bundles_pass_by_agree_alone():
    # a check that hand-writes its own comparison chain is a second pass
    # rule beside _agree's, and one that may compare nothing yet pass
    bundles = (
        "worked_example_checks",
        "closed_form_oracle_checks",
        "near_balanced_checks",
    )
    functions = {
        node.name: node
        for node in parsed(PACKAGE / "analysis.py").body
        if isinstance(node, ast.FunctionDef)
    }
    found = {}
    for name in bundles:
        checks = [
            node for node in ast.walk(functions[name]) if called(node, "_check")
        ]
        oks = [
            call.args[1] if len(call.args) > 1
            else next(k.value for k in call.keywords if k.arg == "ok")
            for call in checks
        ]
        found[name] = [
            ast.unparse(ok) for ok in oks if not called(ok, "_agree")
        ] if checks else ["no _check call"]
    assert found == dict.fromkeys(bundles, [])


def test_verify_plan_and_bundles_grow_only_through_the_scope():
    # a direct growth here would be a budget pre-check of its own beside
    # the scope's, or a second growth of a graph the plan already grew
    growers = {"iterated_line_graph", "line_iterates"}
    checked = (
        "verify_plan",
        "_runner",
        "worked_example_checks",
        "closed_form_oracle_checks",
        "near_balanced_checks",
    )
    functions = {
        node.name: node
        for node in parsed(PACKAGE / "analysis.py").body
        if isinstance(node, ast.FunctionDef)
    }
    found = {
        name: sorted(
            grower
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call)
            for grower in set(names_in(node.func)) & growers
        )
        for name in checked
    }
    assert found == dict.fromkeys(checked, [])
