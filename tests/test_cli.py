"""End-to-end command-line behavior through main(argv)."""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from linewiener.cli import main
from linewiener.errors import CrossCheckError, SearchLimitError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fraction_of(blob):
    return Fraction(int(blob["num"]), int(blob["den"]))


def test_wiener_text_output(capsys):
    code, out, err = run(capsys, "wiener", "--family", "path:22")
    assert code == 0
    assert err == ""
    assert out.strip() == "1771"


def test_wiener_trivial_path(capsys):
    code, out, _ = run(capsys, "wiener", "--family", "path:1")
    assert code == 0
    assert out.strip() == "0"


def test_wiener_json(capsys):
    code, out, _ = run(capsys, "wiener", "--family", "spider:7,7,7", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "wiener"
    assert payload["order"] == 22
    assert payload["wiener"] == 1428


def test_ratio_json_is_exact(capsys):
    code, out, _ = run(
        capsys, "ratio", "--family", "spider:7,7,7", "-k", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["wiener_k"] == [1428, 1197, 1071]
    assert fraction_of(payload["r_k"][2]) == Fraction(3, 4)
    assert fraction_of(payload["path_r2"]) == Fraction(190, 253)
    assert payload["beats_path"] is True


def test_line_emits_graph6(capsys):
    code, out, _ = run(
        capsys, "line", "--family", "path:4", "-k", "1", "--format", "graph6"
    )
    assert code == 0
    assert out == "Bg\n"


def test_family_edge_list(capsys):
    code, out, _ = run(capsys, "family", "spider:1,1,1")
    assert code == 0
    assert out == "0 1\n0 2\n0 3\n"


def test_file_input_with_sniffing(tmp_path, capsys):
    edges = tmp_path / "tree.txt"
    edges.write_text("0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "wiener", "--file", str(edges))
    assert code == 0
    assert out.strip() == "10"
    g6 = tmp_path / "tree.g6"
    g6.write_bytes(b"Ch\n")
    code, out, _ = run(capsys, "wiener", "--file", str(g6))
    assert code == 0
    assert out.strip() == "10"
    # override beats sniffing
    code, out, _ = run(
        capsys, "wiener", "--file", str(g6), "--input-format", "edge-list"
    )
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    fake = io.TextIOWrapper(io.BytesIO(b"0 1\n1 2\n"))
    monkeypatch.setattr(sys, "stdin", fake)
    code, out, _ = run(capsys, "wiener", "--file", "-")
    assert code == 0
    assert out.strip() == "4"


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "7")
    assert code == 0
    assert len(out.splitlines()) == 11


def test_enumerate_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "8", "--max-degree", "2")
    assert code == 0
    assert len(out.splitlines()) == 1


def test_scan_reports_thresholds(capsys):
    code, out, _ = run(capsys, "scan", "--case", "i", "--a-range", "2..9")
    assert code == 0
    assert "smallest passing a: 7" in out
    # L^2(U_1000) would outgrow the default budget; the closed forms
    # build no graph, so the whole range runs
    code, out, _ = run(capsys, "scan", "--case", "ua", "--a-range", "2..1000")
    assert code == 0
    assert "smallest passing a: 10" in out
    assert out.count("a=") == 999


# each argv carries an option that its command does not take: scan never
# took a budget or a stop flag, and enumerate no longer takes --stripe
@pytest.mark.parametrize(
    "flag",
    [
        ["scan", "--case", "ua", "--a-range", "2..12", "--budget", "1000"],
        ["scan", "--case", "ua", "--a-range", "2..12", "--stop-at-first"],
        ["enumerate", "--n", "7", "--stripe", "1/3"],
    ],
)
def test_scan_takes_no_budget_or_stop_flag(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(flag)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_ua_past_the_budget_fails_without_being_built(capsys, monkeypatch):
    # U_100000 has about 10^10 vertices: its order alone must refuse it,
    # before it is built or its ratio is evaluated
    import linewiener.cli as cli

    def refuse(*args):
        raise AssertionError(f"worked on {args} before the budget check")

    monkeypatch.setattr(cli.analysis, "build", refuse)
    monkeypatch.setattr(cli.analysis, "subdivided_quipu_beats_path", refuse)
    code, out, err = run(
        capsys, "verify", "thm5", "--a", "100000", "--budget", "1000000"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: line graph iteration 1 would need 10000299999 vertices, "
        "budget is 1000000\n"
    )


def test_every_iteration_path_stops_at_the_same_step(capsys, tmp_path):
    # line, ratio, iterated_line_graph and line_iterates hold each step
    # to one rule: at, below and above every step's size,
    # each stops at the same step with the same message, the one the
    # sizes of the iterates themselves give
    from linewiener import Graph, build, parse_family
    from linewiener.errors import BudgetExceededError
    from linewiener.graphs import iterated_line_graph, line_graph, line_iterates

    def error(call, *args):
        try:
            call(*args)
        except BudgetExceededError as exc:
            return str(exc)
        return None

    cycle = tmp_path / "c5.txt"
    cycle.write_text("".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
    sources = {
        ("--family", "complete:5"): build(parse_family("complete:5")),
        ("--file", str(cycle)): Graph(5, [(i, (i + 1) % 5) for i in range(5)]),
        ("--family", "spider:3,3,3"): build(parse_family("spider:3,3,3")),
        ("--family", "path:6"): build(parse_family("path:6")),
    }
    # line and ratio size a --family spec before they build it, by the
    # same rule
    for spec in ("spider:7,7,7", "complete:10", "ua:5"):
        sources["--family", spec] = build(parse_family(spec))
    for source, g in sources.items():
        iterates = [g]
        for _ in range(3):
            iterates.append(line_graph(iterates[-1]))
        # step i builds L^i: |E(L^(i-1))| vertices, |E(L^i)| edges
        sizes = [(h.edge_count, l.edge_count) for h, l in zip(iterates, iterates[1:])]
        for k in (1, 2, 3):
            budgets = {b for step in sizes[:k] for s in step for b in (s - 1, s, s + 1)}
            for budget in sorted(b for b in budgets if b >= 1):
                over = [
                    (step, s)
                    for step, sizes_at in enumerate(sizes[:k], 1)
                    for s in sizes_at
                    if s > budget
                ]
                expected = None
                if over:
                    step, s = over[0]
                    expected = (
                        f"line graph iteration {step} would need {s} "
                        f"vertices, budget is {budget}"
                    )
                case = (source, k, budget)
                assert error(iterated_line_graph, g, k, budget) == expected, case
                assert error(lambda: list(line_iterates(g, k, budget))) == expected
                for command in ("line", "ratio"):
                    code, out, err = run(
                        capsys, command, *source, "-k", str(k), "--budget", str(budget)
                    )
                    if expected is None:
                        assert (code, err) == (0, ""), (command, case)
                    else:
                        assert (code, out, err) == (2, "", f"error: {expected}\n"), (
                            command, case
                        )


@pytest.mark.parametrize("command, k", [("line", 1), ("ratio", 2)])
def test_family_past_the_budget_fails_without_being_built(
    capsys, monkeypatch, command, k
):
    # U_5000 has 25,015,000 vertices and the star 10^9: each spec alone
    # must refuse its graph
    import linewiener.cli as cli

    def refuse(*args):
        raise AssertionError(f"built {args} before the budget check")

    monkeypatch.setattr(cli, "build", refuse)
    for spec, edges in (("ua:5000", 25014999), ("star:1000000000", 999999999)):
        argv = ("--family", spec, "-k", str(k), "--budget", "10")
        assert run(capsys, command, *argv) == (
            2,
            "",
            f"error: line graph iteration 1 would need {edges} vertices, "
            "budget is 10\n",
        ), spec


@pytest.mark.parametrize("command, k, least", [("line", -1, 0), ("ratio", 0, 1)])
def test_bad_k_is_refused_before_the_graph_is_loaded(
    capsys, monkeypatch, command, k, least
):
    # a bad -k is refused before U_2000, 4,006,000 vertices, is built
    import linewiener.cli as cli

    def refuse(*args):
        raise AssertionError(f"built {args} before -k was checked")

    monkeypatch.setattr(cli, "build", refuse)
    assert run(capsys, command, "--family", "ua:2000", "-k", str(k)) == (
        2,
        "",
        f"error: -k must be >= {least}, got {k}\n",
    )


def test_ua_budget_check_predicts_the_line_graph_sizes():
    # the check reads the sizes of L(U_a) and L^2(U_a) off a alone; it
    # must fail exactly where growing L^2 of the built U_a fails, with the
    # same error
    from linewiener import SubdividedQuipu, build
    from linewiener.analysis import _check_ua_budget
    from linewiener.errors import BudgetExceededError
    from linewiener.graphs import iterated_line_graph

    def error(check, *args):
        try:
            check(*args)
        except BudgetExceededError as exc:
            return str(exc)
        return None

    for a in range(2, 25):
        g = build(SubdividedQuipu(a))
        n = g.vertex_count
        for size in (n - 1, a * a + 4 * a - 2, a * a + 9 * a - 4):
            for budget in (size - 1, size, size + 1):
                expected = error(iterated_line_graph, g, 2, budget)
                assert error(_check_ua_budget, a, budget) == expected, (
                    a, budget
                )


def test_verify_thm5_builds_ua_once(capsys, monkeypatch):
    import linewiener.analysis as analysis
    import linewiener.cli as cli
    from linewiener import SubdividedQuipu

    builds = []
    for module in (analysis, cli):
        made = module.build

        def counted(spec, made=made):
            builds.append(spec)
            return made(spec)

        monkeypatch.setattr(module, "build", counted)
    code, out, _ = run(capsys, "verify", "thm5", "--a", "12")
    assert code == 0
    assert "[PASS] R2(U_12)" in out
    assert builds.count(SubdividedQuipu(12)) == 1


def test_thm5_bfs_catches_a_wrong_closed_form(capsys, monkeypatch):
    import linewiener.analysis as analysis

    right = analysis.d2_ua
    monkeypatch.setattr(analysis, "d2_ua", lambda a: right(a) + 1)
    code, out, err = run(capsys, "verify", "thm5", "--a", "12")
    assert code == 2
    assert out == ""
    assert err.startswith("error: U_12: W = ")
    assert "by BFS" in err and "by the closed forms" in err
    with pytest.raises(CrossCheckError):
        analysis.subdivided_quipu_beats_path(12)


def test_scan_all_cases(capsys):
    code, out, _ = run(capsys, "scan", "--case", "all", "--a-range", "2..8")
    assert code == 0
    assert out.count("family case") == 3


@pytest.mark.parametrize("case", ["ua", "i"])
def test_scan_json_is_one_scan_set_for_every_case(capsys, case):
    code, out, _ = run(
        capsys, "scan", "--case", case, "--a-range", "2..5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "scan-set"
    assert [scan["family_case"] for scan in payload["scans"]] == [case]


def test_search_text_and_jobs_determinism(capsys):
    code, first, _ = run(capsys, "search", "min-r2", "--n", "10")
    assert code == 0
    assert "min R_2 = 28/55" in first
    assert "trees scanned: 106" in first
    code, second, _ = run(capsys, "search", "min-r2", "--n", "10", "--jobs", "3")
    assert code == 0
    assert second == first


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "min-r2", "--n", "9", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "search"
    assert payload["trees_scanned"] == 47
    assert len(payload["witnesses"]) == 1


def test_search_respects_limit(capsys):
    code, _, err = run(capsys, "search", "min-r2", "--n", "21")
    assert code == 2
    assert err == (
        "error: exhaustive search at order 21 exceeds the limit 20; "
        "pass a higher limit explicitly to run it\n"
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_cross_check_failure_exits_two(capfd, monkeypatch, jobs):
    # a wrong W_2 formula disagrees with the BFS on the first argmin; the
    # fault ends the command with a message, also when a worker raised it
    from linewiener import _fast

    formula = _fast.wiener2_tree_layout
    monkeypatch.setattr(
        _fast, "wiener2_tree_layout", lambda layout: formula(layout) + 1
    )
    code = main(["search", "min-r2", "--n", "8", "--jobs", jobs])
    out, err = capfd.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: W_2 = ") and err.count("\n") == 1, err


def test_verify_passing_bundles(capsys):
    code, out, _ = run(capsys, "verify", "paper-numbers", "limits")
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "everything")
    assert code == 2
    assert "unknown" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("thm5", "--a", "0"),
        ("lemmas", "--max-a", "0"),
        ("buckley", "--max-n", "0"),
        ("thm1", "--max-n", "0"),
        ("thm1", "--max-n", "3"),
    ],
)
def test_verify_rejects_bounds_it_cannot_run(capsys, argv):
    # a 0 is a value to validate, not a request for the default, and thm1
    # must not pass over an empty range of orders
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# the whole stderr of each refusal; `--a-range` is parsed when it is
# given, whatever bundles are selected
VERIFY_REFUSALS = {
    "thm5 --a 0": "thm5 needs --a >= 2, got 0",
    "buckley --max-n 21":
        "buckley needs --max-n <= 20 (the search limit), got 21",
    "thm4 --a-range 5..3": "thm4 needs --a-range 2 <= LO <= HI, got 5..3",
    "lemmas --max-a 1": "lemmas needs --max-a >= 2, got 1",
    "thm1 --max-n 3": "thm1 needs --max-n >= 4, got 3",
    "buckley buckley": "check named twice: buckley",
    "nope": "unknown check 'nope'; pick from paper-numbers, buckley, "
        "lemmas, thm4, limits, thm5, thm1",
    "thm5 --a 30 --budget 100":
        "line graph iteration 1 would need 989 vertices, budget is 100",
    "limits --a-range junk": "range must look like 2..30, got 'junk'",
}


@pytest.mark.parametrize("argv", list(VERIFY_REFUSALS))
def test_verify_refusals_keep_their_messages(capsys, argv):
    code, out, err = run(capsys, "verify", *argv.split())
    assert (code, out, err) == (2, "", f"error: {VERIFY_REFUSALS[argv]}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("buckley", "lemmas", "--max-a", "0"),
        ("thm1", "--max-n", "21"),
        ("buckley", "--max-n", "21"),
        ("buckley", "thm5", "--budget", "1000"),
        ("buckley", "paper-numbers", "--budget", "5"),
        ("thm1", "buckley", "thm1"),
        ("lemmas", "--budget", "5"),
        ("thm4", "--budget", "5"),
        ("buckley", "lemmas", "--budget", "5"),
        ("buckley", "thm4", "--budget", "5"),
        ("thm1", "--budget", "5"),
        ("buckley", "thm1", "--budget", "5"),
    ],
)
def test_verify_checks_every_bound_before_any_bundle_runs(
    capsys, monkeypatch, argv
):
    import linewiener.cli as cli

    calls = []
    for name in ("line_identity_checks", "star_minimizes_r1"):
        monkeypatch.setattr(
            cli.analysis, name, lambda *a, name=name, **k: calls.append(name)
        )
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert calls == []


def test_verify_sweeps_each_order_once_per_command(capsys, monkeypatch):
    # thm1 reads buckley's k = 1 sweeps of orders 4..12; the next command
    # sweeps afresh
    from linewiener import analysis

    orders = []
    scores = analysis._tree_scores
    monkeypatch.setattr(
        analysis, "_tree_scores", lambda n: orders.append(n) or scores(n)
    )
    for argv, swept in [
        (("buckley", "thm1"), range(2, 15)),
        (("thm1",), range(4, 13)),
        (("thm1", "buckley"), range(2, 15)),
        (("buckley", "thm1"), range(2, 15)),
    ]:
        orders.clear()
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0, out
        assert sorted(orders) == list(swept), argv
        assert len(orders) == len(set(orders)), argv


def test_verify_sweeps_each_graph_once_per_command(capsys, monkeypatch):
    # 301 distinct graphs go through the BFS oracle in `verify --a 30`:
    # spiders shared by paper-numbers, lemmas and thm4, and the star that
    # thm1 confirms as the argmin and measures again, are swept once; the
    # next command sweeps afresh
    from linewiener import analysis

    swept = []
    bfs = analysis.wiener_index
    monkeypatch.setattr(
        analysis, "wiener_index", lambda g: swept.append(g) or bfs(g)
    )
    for _ in range(2):
        swept.clear()
        code, out, _ = run(capsys, "verify", "--a", "30")
        assert code == 0, out
        assert len(swept) == len(set(swept)) == 301


def test_verify_confirms_a_reused_sweep_by_bfs(capsys, monkeypatch):
    # a lane value wrong inside a chunk of three or more, where the mask
    # BFS of the chunk's ends does not look: buckley reports its identity
    # failed, and thm1, reading that sweep, must still refuse the argmin
    from linewiener import _fast

    lanes = _fast.line_wiener_lanes

    def faulty(layouts):
        out = lanes(layouts)
        if len(out) > 2:
            out[len(out) // 2] = 0
        return out

    monkeypatch.setattr(_fast, "line_wiener_lanes", faulty)
    code, out, err = run(capsys, "verify", "buckley", "thm1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: W_1 = ")


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    from linewiener import CheckResult
    import linewiener.cli as cli

    monkeypatch.setattr(
        cli.analysis,
        "worked_example_checks",
        lambda budget: [CheckResult("rigged", False, "synthetic failure")],
    )
    code, out, _ = run(capsys, "verify", "paper-numbers")
    assert code == 1
    assert "[FAIL] rigged" in out


@pytest.mark.parametrize(
    "a_range, verdict, detail",
    [
        ("5..6", "PASS", "(a = 5..6)"),
        ("9..12", "FAIL", "(no spider built: the scan misses a = 2..8)"),
    ],
    ids=["5..6", "9..12"],
)
def test_thm4_oracle_names_the_spiders_it_built(
    capsys, a_range, verdict, detail
):
    # neither range holds a = 7, so the crossover check fails either way
    code, out, _ = run(capsys, "verify", "thm4", "--a-range", a_range)
    assert code == 1
    records = [line for line in out.splitlines() if "case record" in line]
    assert records == [
        f"[{verdict}] case {case}: case record = BFS on built spider {detail}"
        for case in ("i", "ii", "iii")
    ]


def test_budget_flag_and_env(capsys, monkeypatch):
    code, _, err = run(
        capsys, "ratio", "--family", "complete:10", "-k", "2", "--budget", "50"
    )
    assert code == 2
    assert "budget" in err
    monkeypatch.setenv("LINEWIENER_BUDGET", "50")
    code, _, err = run(capsys, "ratio", "--family", "complete:10", "-k", "2")
    assert code == 2
    # ratio grows one iterate at a time, yet names the iteration that is
    # past the budget as line does
    argv = ["--family", "complete:10", "-k", "2", "--budget", "400"]
    code, out, err = run(capsys, "ratio", *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: line graph iteration 2 would need 5400 vertices, "
        "budget is 400\n"
    )
    assert run(capsys, "line", *argv) == (2, "", err)
    # an explicit flag wins over the environment; L^2(K_10) needs 5400 edges
    code, out, _ = run(
        capsys, "ratio", "--family", "complete:10", "-k", "2", "--budget", "6000"
    )
    assert code == 0
    # the env value is only read by commands that iterate, and then validated
    monkeypatch.setenv("LINEWIENER_BUDGET", "not-a-number")
    code, _, err = run(capsys, "ratio", "--family", "path:6", "-k", "2")
    assert code == 2
    assert "LINEWIENER_BUDGET" in err


def test_bad_inputs_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "wiener", "--family", "ring:9")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "wiener", "--file", str(tmp_path / "missing.g6"))
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--n", "0")
    assert code == 2
    assert "n >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "min-r2", "--n", "8", "--min-degree3", "-2"),
        ("search", "min-r2", "--n", "8", "--max-degree", "-1"),
        ("search", "min-r2", "--n", "8", "--min-max-degree", "-3"),
        ("enumerate", "--n", "7", "--max-degree", "-1"),
        ("enumerate", "--n", "7", "--min-max-degree", "-1"),
        ("enumerate", "--n", "7", "--min-degree3", "-1"),
    ],
)
def test_negative_degree_bounds_exit_two_before_any_work(
    capsys, monkeypatch, argv
):
    # a negative bound would name a class the stream does not filter by
    import linewiener.cli as cli

    calls = []
    monkeypatch.setattr(
        cli.analysis, "min_r2_search", lambda *a, **k: calls.append(a)
    )
    monkeypatch.setattr(cli, "free_trees", lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[-2]} must be >= 0, got {argv[-1]}\n"
    assert calls == []


def test_ctrl_c_exits_130_with_one_line(capsys, monkeypatch):
    from linewiener import analysis

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(analysis, "min_r2_search", interrupted)
    code, out, err = run(capsys, "search", "min-r2", "--n", "10")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"


def assert_no_child_left():
    # this process has no child at all, live or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_share(monkeypatch, index, exc):
    """Make the search share `index` raise exc, in whichever process
    scans it; the other shares run as usual."""
    from linewiener import analysis

    scan = analysis._scan_block

    def faulty(args):
        if args[-2] == index:
            raise exc
        return scan(args)

    monkeypatch.setattr(analysis, "_scan_block", faulty)


def test_ctrl_c_with_workers_running_exits_130_and_leaves_no_child(
    capsys, monkeypatch
):
    # Ctrl-C lands while the parent scans its own share and the worker runs
    failing_share(monkeypatch, 0, KeyboardInterrupt)
    code, out, err = run(capsys, "search", "min-r2", "--n", "16", "--jobs", "2")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"
    assert_no_child_left()


@pytest.mark.parametrize(
    "exc",
    [
        CrossCheckError("share 1 is wrong"),
        # from outside the package: it once escaped main with exit 1
        MemoryError("share 1 ran out"),
        # neither could be pickled back: one holds a lambda, the other's
        # constructor wants two arguments where its args has one
        ValueError("bad share", lambda: None),
        SearchLimitError(30, 20),
    ],
    ids=["package", "memory", "dumps", "loads"],
)
def test_worker_error_keeps_its_cause(capfd, monkeypatch, exc):
    # a worker sends back the text of whatever its share raised, and the
    # parent raises it as CrossCheckError
    failing_share(monkeypatch, 1, exc)
    code = main(["search", "min-r2", "--n", "9", "--jobs", "2"])
    out, err = capfd.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: search worker 1 of 2 raised {exc!r}\n"
    assert_no_child_left()


def test_failed_fork_exits_two_and_leaves_no_child(capfd, monkeypatch):
    # the second of two forks fails: the first worker, the only one
    # started, is killed and reaped
    import errno

    fork = os.fork
    calls = []

    def flaky_fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", flaky_fork)
    code = main(["search", "min-r2", "--n", "12", "--jobs", "3"])
    out, err = capfd.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(calls) == 2
    assert_no_child_left()


def test_jobs_without_fork_is_refused_before_any_work(capsys, monkeypatch):
    failing_share(monkeypatch, 0, AssertionError("a share was scanned"))
    monkeypatch.delattr(os, "fork")
    code, out, err = run(capsys, "search", "min-r2", "--n", "9", "--jobs", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: jobs = 2 needs os.fork") and err.count("\n") == 1


# the job-1 worker kills itself before it can reply
_KILLED_WORKER = """
import os, signal, sys
from linewiener import analysis
from linewiener.cli import main

scan = analysis._scan_block

def dying(args):
    index = args[-2]
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return scan(args)

analysis._scan_block = dying
sys.exit(main(["search", "min-r2", "--n", "9", "--jobs", "2"]))
"""


def test_killed_worker_exits_two_without_hanging():
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WORKER],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        survivors = True
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            survivors = False
        proc.kill()
        proc.wait()
    assert proc.returncode == 2, err
    assert out == ""
    assert err.startswith("error: search worker 1 of 2 exited with code -9")
    assert err.count("\n") == 1, err
    # the command's session is empty: no worker outlived it
    assert not survivors


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_consumer_closing_early_is_not_an_error():
    # needs a real process: the failure mode is the interpreter's shutdown
    # flush of a broken stdout, which in-process main() never reaches
    proc = subprocess.Popen(
        [sys.executable, "-m", "linewiener.cli", "enumerate", "--n", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# sha256 of the exact stdout bytes; a refactor of the layout stream, the
# search or the reports must leave every one of these unchanged
GOLDEN_STDOUT = {
    "wiener --family spider:7,7,7":
        "411c7d21507b483dddae33a6d5b10c98a25a9c586cde5d97ee4a2b155dd3b09f",
    "wiener --family spider:7,7,7 --format json":
        "b5016aa7111d8f082dfc8202ca6dd5b789c609e4966b9b62a1698e9fd4e1a8c9",
    "wiener --family spider:7,7,7 --format csv":
        "8e6ad39e93643b508917ceca658865b53cdb16547314d70f0136f4d8ee2adb84",
    "ratio --family spider:7,7,7 -k 3 --format json":
        "b9c0e88e7f8843c2ac8883b7d7726a442034e4cc6e511842fb6e2fb468747464",
    "ratio --family path:2":
        "992df4f1707ec076cac816114a6e4f11342ac03070d0dea4924441d16e7d7182",
    "ratio --family path:2 --format json":
        "460b6fd7b3bb6893bc5e260c33851230c418ffba18425a7315475eee2d26dfd1",
    "ratio --family path:2 --format csv":
        "637f82c66aaf722efa70ed3c4e9c8490ce65e5560a1c2449e0d3a9889ca8e22e",
    "search min-r2 --n 6 --min-degree3 3":
        "61d84006e99c282ceeb930c9b10047004e6ffe9b61f0531dfc5ebea0ea6a4b2f",
    "search min-r2 --n 6 --min-degree3 3 --format json":
        "272ec76ab45a109c2a300ce661770c1bbe23ea52afa36f4ac93e545963cd9c4c",
    "search min-r2 --n 6 --min-degree3 3 --format csv":
        "75e721810236455771e3c39cd20a66e1a576350a01d802049eea3b969ab322c5",
    "search min-r2 --n 9 --format csv":
        "f4ab4dc5c8f8161c8a8fc0e285d16acb9227a3a21a2356a74c3e53520a8be734",
    "scan --case all --a-range 2..9":
        "33168cc1a5fae2ed9491c452fca4027a8aadb4a731822a351be915d6c8f114ec",
    "scan --case all --a-range 2..9 --format json":
        "487675756cf00637be760f944422f91cad691f8a491530520289b4f067f3979f",
    "scan --case iii --a-range 2..9 --format csv":
        "69ab51e85619572ac825074670bc0f9e2fe23686fd05a8bfccce86427fc7f992",
    "scan --case ua --a-range 2..5 --format json":
        "b30c61eeb0c3175157a4be209315a58890fafe0ff56cc518750b0d58d68ad60b",
    "scan --case ua --a-range 2..5 --format csv":
        "332435d81372fb779514c8dfea4c2f842149e62c393c4fab6e75d6c0cb089fc3",
    "verify paper-numbers limits --format json":
        "77d953b9775a06cf8dc19f05f5ca4d9408cc36a12d5cc70c93014d1343f6488b",
    "verify paper-numbers limits --format csv":
        "70f5554ea3706c4fb35e4da75c2c71da139f6a5894964bb9597d182b3d6e8717",
    "verify thm5 thm1 --a 12 --max-n 7":
        "0e7a1c1dd2041f0fdbc639c440321813909bc5438bba28296bde7b5d278ea7ff",
    "verify thm5 thm1 --a 12 --max-n 7 --format json":
        "877291ef43527560569eae980e47038fe5e90037c127aedc4ebf500b62ad8e07",
    "enumerate --n 9 --max-degree 3":
        "498a33496d0864457b58244d3e3ea6ae8a9b4c14d7f34a33070e400d9268fd4a",
    "search min-r2 --n 10":
        "981fed46df344c212c572714659c984d2472c47149936fcd7d0c43cfa824dcf0",
    "search min-r2 --n 12 --min-degree3 2 --jobs 2 --format json":
        "34f8bba0f49662e3b9d1e2e252c2fd8e516b28946dcb2428820b7f9362d29c22",
    "search min-r2 --n 15":
        "dcc6b459146e6231096a7982ef09f187bb9b61c724868228442baaef56753c1a",
    "search min-r2 --n 16 --max-degree 3 --jobs 3 --format json":
        "93fc9f93e9595b85ab43ba590f1e6ef5b02043e96e96eb78ce80d16bb79d928a",
    "scan --case ua --a-range 2..6":
        "8841a0f69c89cc7185bb18db1a6085f69fddeb66346b2eabed95c1d578afca0b",
    "verify --a 12":
        "e024d6a4c8a0cee27949251fd98d2173d32cf1fdd1dd3febdd7c8184eccf2b5a",
    # the benchmark's verify workload
    "verify --a 30":
        "02b3f85768f0db5a002193e3c33e4f5c2ea00e32bc81ba92c8585970960925b1",
    "verify --a 30 --format json":
        "a8b243a06bfc09899d5ca185111a031cb08afb47689600c7ddb37689698b073e",
    # the k = 1 sweeps over several chunks per order (15..17), and thm1's
    # argmins of every order it takes by default and beyond
    "verify buckley --max-n 17":
        "f7f1729f6256f6ff215044dd81ce4590160d7608278a95cd3a057fb33b87464c",
    "verify thm1 --max-n 14 --format json":
        "314177d44092dfee9f5da0b9e9f44697ca33056899a902c12cc4219d216393f5",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout_bytes(capsysbinary, command):
    code = main(command.split())
    captured = capsysbinary.readouterr()
    assert code == 0
    assert captured.err == b""
    assert hashlib.sha256(captured.out).hexdigest() == GOLDEN_STDOUT[command]


# runs in a `python -O` child, which strips every assert: a correctness
# check that lives in one would change these bytes or exit codes
_OPTIMIZED_GOLDEN = """
import contextlib, hashlib, io, json, sys
from linewiener.cli import main
out = {"optimize": sys.flags.optimize}
for command in json.load(sys.stdin):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(command.split())
    stdout.flush()
    digest = hashlib.sha256(stdout.buffer.getvalue()).hexdigest()
    out[command] = [code, stderr.getvalue(), digest]
sys.__stdout__.write(json.dumps(out))
"""


def child_env():
    """This environment with the package under test first on PYTHONPATH."""
    import linewiener

    src = os.path.dirname(os.path.dirname(linewiener.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_golden_stdout_bytes_under_optimize():
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_GOLDEN],
        input=json.dumps(sorted(GOLDEN_STDOUT)),
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got.pop("optimize") == 1
    assert got == {
        command: [0, "", digest] for command, digest in GOLDEN_STDOUT.items()
    }


def test_cli_import_leaves_multiprocessing_out():
    # only --jobs > 1 needs worker processes, only JSON and CSV reports
    # need json and csv, and the records need no dataclasses: every
    # command skips what it does not use
    heavy = ["multiprocessing", "dataclasses", "json", "csv"]
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, linewiener.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # nor does a --jobs search: its workers are bare forks over pipes that
    # carry marshalled builtins alone, a worker's exception as its text
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from linewiener.cli import main; "
            "code = main(['search', 'min-r2', '--n', '9', '--jobs', '2']); "
            "print([m for m in ('multiprocessing', 'pickle') if m in sys.modules]); "
            "sys.exit(code)",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trees scanned: 47" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"
