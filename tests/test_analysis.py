"""Ratio reports, threshold scans, exhaustive searches, and check bundles."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from linewiener import (
    BalancedQuipu,
    BudgetExceededError,
    CrossCheckError,
    Graph,
    ParameterError,
    SearchLimitError,
    Spider,
    SubdividedQuipu,
    beats_path,
    build,
    canonical_code,
    closed_form_oracle_checks,
    d2_quipu,
    d2_spider,
    d2_ua,
    free_trees,
    iterated_line_graph,
    limit_quotient_checks,
    line_identity_checks,
    line_wiener_tree_identity,
    min_r2_search,
    near_balanced_checks,
    parse_family,
    r2_path,
    ratio_rk,
    star_minimizes_r1,
    subdivided_quipu_beats_path,
    subdivided_quipu_deviation,
    subdivided_quipu_scan,
    threshold_scan,
    verify_plan,
    w_quipu,
    w_spider,
    w_ua,
    wiener_index,
    worked_example_checks,
)
from linewiener.enumeration import layout_graph, layout_parents

from oracles import (
    level_sequence,
    naive_line_graph,
    naive_wiener,
    parent_array_wiener,
    parent_array_wiener2,
    random_graph,
    random_tree,
)


def tree(text):
    return build(parse_family(text))


def test_ratio_report_for_the_benchmark_path():
    report = ratio_rk(tree("path:22"), 2)
    assert report.order == 22
    assert report.is_tree
    assert report.wiener_k == (1771, 1540, 1330)
    assert report.d2 == 441
    assert report.r_k == (Fraction(1), Fraction(20, 23), Fraction(190, 253))
    assert report.path_r2 == Fraction(190, 253)
    assert report.beats_path is False  # ties do not count


def test_ratio_report_for_the_counterexample_spider():
    report = ratio_rk(tree("spider:7,7,7"), 2)
    # the middle value is the tree identity at work: 1428 - C(22,2) = 1197
    assert report.wiener_k == (1428, 1197, 1071)
    assert report.d2 == 357
    assert report.r_k[2] == Fraction(3, 4)
    assert report.beats_path is True


def test_ratio_report_handles_vanishing_iterates():
    report = ratio_rk(tree("path:3"), 3)
    assert report.wiener_k == (4, 1, 0, None)
    assert report.r_k == (Fraction(1), Fraction(1, 4), Fraction(0), None)
    report = ratio_rk(tree("path:2"), 2)
    assert report.wiener_k == (1, 0, None)
    assert report.d2 is None
    assert report.path_r2 is None
    assert report.beats_path is None


def test_ratio_report_on_a_cycle():
    # cycles are line-graph fixed points, so every ratio is 1
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    report = ratio_rk(c5, 3)
    assert not report.is_tree
    assert report.wiener_k == (15, 15, 15, 15)
    assert set(report.r_k) == {Fraction(1)}
    assert report.beats_path is False


def test_ratio_respects_budget():
    k40 = Graph(40, [(u, v) for u in range(40) for v in range(u + 1, 40)])
    with pytest.raises(BudgetExceededError):
        ratio_rk(k40, 2, budget=100)
    # L(K_10) has 45 vertices and 360 edges, L^2(K_10) 5400 edges: the
    # second iteration is past the budget, as iterated_line_graph says
    k10 = tree("complete:10")
    with pytest.raises(BudgetExceededError) as grown:
        ratio_rk(k10, 2, budget=400)
    assert (grown.value.step, grown.value.predicted) == (2, 5400)
    with pytest.raises(BudgetExceededError) as direct:
        iterated_line_graph(k10, 2, budget=400)
    assert str(grown.value) == str(direct.value)


@pytest.mark.parametrize(
    "call, family, budget",
    [
        (lambda g, budget: subdivided_quipu_beats_path(30, budget), "ua:30", 1000),
        (beats_path, "spider:7,7,7", 10),
        (lambda g, budget: ratio_rk(g, 2, budget), "spider:7,7,7", 10),
    ],
    ids=["subdivided_quipu_beats_path", "beats_path", "ratio_rk"],
)
def test_budget_overruns_raise_before_any_sweep(monkeypatch, call, family, budget):
    # each call checks the budget of the line graphs it grows before it
    # sweeps g, and raises what iterated_line_graph(g, 2, budget) raises
    from linewiener import analysis

    g = tree(family)
    swept = []
    monkeypatch.setattr(analysis, "wiener_index", swept.append)
    with pytest.raises(BudgetExceededError) as raised:
        call(g, budget)
    with pytest.raises(BudgetExceededError) as direct:
        iterated_line_graph(g, 2, budget)
    assert swept == []
    assert str(raised.value) == str(direct.value)


def test_beats_path_crossover():
    assert beats_path(tree("spider:7,7,7"))
    assert not beats_path(tree("spider:6,6,6"))
    assert not beats_path(tree("path:22"))


def test_threshold_scan_finds_seven():
    for case in ("i", "ii", "iii"):
        report = threshold_scan(case, 2, 12)
        assert report.family_case == case
        assert report.smallest_passing_a == 7
        assert len(report.per_a_gap) == 11
        for a, gap in report.per_a_gap:
            assert (gap > 0) == (a >= 7), (case, a)


def test_threshold_scan_validation():
    with pytest.raises(ParameterError):
        threshold_scan("iv", 2, 5)
    with pytest.raises(ParameterError):
        threshold_scan("i", 5, 2)
    with pytest.raises(ParameterError):
        threshold_scan("i", 1, 5)


def test_subdivided_quipu_scan_finds_ten():
    report = subdivided_quipu_scan(2, 12)
    assert report.family_case == "ua"
    assert report.smallest_passing_a == 10
    for a, gap in report.per_a_gap:
        assert (gap > 0) == (a >= 10), a


def test_ua_scan_and_deviation_build_no_graph(monkeypatch):
    # U_a is a closed-form family: only verify thm5 builds it, for its
    # one BFS confirmation
    import linewiener.analysis as analysis

    def refuse(*args, **kwargs):
        raise AssertionError(f"built or searched a graph: {args}")

    for name in ("build", "wiener_index", "iterated_line_graph"):
        monkeypatch.setattr(analysis, name, refuse)
    report = subdivided_quipu_scan(2, 1000)
    assert report.smallest_passing_a == 10
    assert len(report.per_a_gap) == 999
    row = subdivided_quipu_deviation(60)
    assert (row.w_ua, row.d2_ua) == (w_ua(60), d2_ua(60))


def test_ua_past_the_budget_is_refused_before_it_is_built(monkeypatch):
    # U_100000 has about 10^10 vertices: a library call refuses it by its
    # order alone, as `verify thm5` does
    import linewiener.analysis as analysis

    def refuse(*args):
        raise AssertionError(f"built {args} before the budget check")

    monkeypatch.setattr(analysis, "build", refuse)
    with pytest.raises(BudgetExceededError) as raised:
        subdivided_quipu_beats_path(100000)
    assert str(raised.value) == (
        "line graph iteration 1 would need 10000299999 vertices, "
        "budget is 1000000"
    )


def test_subdivided_quipu_beats_path_at_fifty():
    check = subdivided_quipu_beats_path(50)
    assert check.n == 2650
    assert check.holds
    assert check.r2_ua == Fraction(232566449, 233998725)
    assert check.r2_path == r2_path(2650)


def test_subdivided_quipu_deviations_shrink():
    rows = [subdivided_quipu_deviation(a) for a in (6, 10, 14)]
    for row in rows:
        assert row.w_dev == Fraction(3 * row.w_ua, 2 * row.a**5) - 1
        assert row.d2_dev == Fraction(6 * row.d2_ua, row.a**4) - 1
    for prev, cur in zip(rows, rows[1:]):
        assert abs(cur.w_dev) < abs(prev.w_dev)
        assert abs(cur.d2_dev) < abs(prev.d2_dev)


def test_layout_wiener_against_oracle():
    # the sweeps read trees straight off the level sequence: W by edge
    # cuts, W(L) and the search's argmin confirmations of W(L^2) by the
    # bitmask kernels, so pin each kernel to graphs and the naive oracle
    from linewiener._fast import (
        layout_masks,
        line_masks,
        wiener_masks,
        wiener_tree_layout,
    )
    from linewiener.enumeration import free_tree_layouts, layout_graph
    from linewiener.graphs import iterated_line_graph, wiener_index

    def masks_of(g):
        return [sum(1 << u for u in nbrs) for nbrs in g.adjacency]

    for n in range(1, 11):
        for layout in free_tree_layouts(n):
            g = layout_graph(layout)
            assert wiener_tree_layout(layout) == naive_wiener(g)
            masks = layout_masks(layout)
            assert masks == masks_of(g)
            for k in range(3):
                h = iterated_line_graph(g, k)
                assert masks == masks_of(h), (layout, k)
                if h.vertex_count:
                    assert wiener_masks(masks) == wiener_index(h), (layout, k)
                masks = line_masks(masks)
    assert wiener_masks([0, 0]) == -1
    assert wiener_masks([0b010, 0b001, 0]) == -1


def test_wiener2_formula_against_mask_bfs():
    from linewiener._fast import (
        layout_masks,
        line_masks,
        wiener2_tree_layout,
        wiener_masks,
    )
    from linewiener.enumeration import free_tree_layouts

    for n in range(1, 15):
        for layout in free_tree_layouts(n):
            masks = line_masks(line_masks(layout_masks(layout)))
            assert wiener2_tree_layout(layout) == wiener_masks(masks), layout


def test_mask_kernels_beyond_trees():
    # complete, cycle and seeded random graphs of up to 12 vertices, with
    # cycles and dense neighborhoods no tree iterate of order <= 10 has
    from linewiener._fast import line_masks, wiener_masks
    from linewiener.graphs import is_connected, line_graph, wiener_index

    def masks_of(g):
        return [sum(1 << u for u in nbrs) for nbrs in g.adjacency]

    def cycle(n):
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])

    rng = random.Random(1919)
    cases = [tree("complete:5")] + [cycle(n) for n in range(3, 13)]
    cases += [random_graph(rng, rng.randrange(2, 13), rng.uniform(0.15, 0.9))
              for _ in range(200)]
    # two disjoint 4-cycles, the second on the highest bits
    cases.append(Graph(8, [(i, (i + 1) % 4 + i // 4 * 4) for i in range(8)]))
    split = Counter(is_connected(g) for g in cases)
    assert split[True] > 50 and split[False] > 20, split
    for g in cases:
        masks = masks_of(g)
        h = line_graph(g)
        assert line_masks(masks) == masks_of(h), g
        for graph in (g, h):
            if graph.vertex_count:
                expected = wiener_index(graph) if is_connected(graph) else -1
                assert wiener_masks(masks_of(graph)) == expected, graph


def test_tree_kernels_against_parent_array_oracles():
    from linewiener._fast import wiener2_tree_layout, wiener_tree_layout
    from linewiener.enumeration import free_tree_layouts

    for n in range(1, 16):
        for layout in free_tree_layouts(n):
            assert wiener_tree_layout(layout) == parent_array_wiener(layout)
            assert wiener2_tree_layout(layout) == parent_array_wiener2(layout)


def seeded_random_trees():
    """(tree, its layout from a random root) at orders 3..40 and up to 300,
    deep enough that the kernels' levels run far."""
    rng = random.Random(20)
    orders = list(range(3, 41)) + [60, 100, 150, 200, 250, 300]
    for n in orders:
        g = random_tree(rng, n)
        yield g, level_sequence(g, rng.randrange(n))


def test_wiener2_formula_against_graph_bfs_on_random_trees():
    from linewiener._fast import wiener2_tree_layout
    from linewiener.graphs import iterated_line_graph, wiener_index

    for g, layout in seeded_random_trees():
        expected = wiener_index(iterated_line_graph(g, 2))
        assert wiener2_tree_layout(layout) == expected, g.vertex_count


def test_wiener_tree_layout_against_graph_bfs_on_random_trees():
    from linewiener._fast import wiener_tree_layout
    from linewiener.graphs import wiener_index

    for g, layout in seeded_random_trees():
        assert wiener_tree_layout(layout) == wiener_index(g), g.vertex_count


def test_tree_kernels_on_tiny_trees_and_a_path_rooted_at_one_end():
    # L^2 of a tree on 1 or 2 vertices has no vertex, and its W reads 0;
    # a path rooted at one end puts its last vertex at level n - 1
    from linewiener._fast import wiener2_tree_layout, wiener_tree_layout
    from linewiener.graphs import iterated_line_graph, wiener_index

    for n in (1, 2, 3, 4, 50, 300):
        layout = list(range(n))
        path = tree(f"path:{n}")
        assert wiener_tree_layout(layout) == wiener_index(path), n
        l2 = iterated_line_graph(path, 2)
        expected = wiener_index(l2) if l2.vertex_count else 0
        assert wiener2_tree_layout(layout) == expected, n


def test_wiener2_formula_against_closed_forms():
    # the spider and quipu sweeps of closed_form_oracle_checks
    from linewiener._fast import wiener2_tree_layout

    def formula(spec):
        return wiener2_tree_layout(level_sequence(build(spec)))

    for arms in combinations_with_replacement(range(2, 9), 3):
        expected = w_spider(*arms) - d2_spider(*arms)
        assert formula(Spider(*arms)) == expected, arms
    for a in range(2, 9):
        assert formula(BalancedQuipu(a)) == w_quipu(a) - d2_quipu(a), a


def test_wiener2_formula_against_subdivided_quipu_bfs():
    from linewiener._fast import wiener2_tree_layout

    for a in range(2, 21):
        g = build(SubdividedQuipu(a))
        bfs = wiener_index(iterated_line_graph(g, 2))
        assert wiener2_tree_layout(level_sequence(g)) == bfs, a


def test_search_runs_the_bfs_only_on_running_argmins(monkeypatch):
    # the search confirms only the argmins left after the shares merge;
    # the path is the unique minimizer at these orders, so its
    # confirmation is the only BFS of the search
    from linewiener import _fast

    calls = []
    bfs = _fast.wiener_masks
    monkeypatch.setattr(
        _fast, "wiener_masks", lambda masks: calls.append(1) or bfs(masks)
    )
    for n in (8, 12, 15):
        del calls[:]
        report = min_r2_search(n)
        assert report.witnesses == (canonical_code(tree(f"path:{n}")),)
        assert len(calls) == 1, n


@pytest.mark.parametrize("jobs", [1, 2])
def test_search_confirms_each_argmin_by_bfs(monkeypatch, jobs):
    from linewiener import _fast

    formula = _fast.wiener2_tree_layout
    monkeypatch.setattr(
        _fast, "wiener2_tree_layout", lambda layout: formula(layout) + 1
    )
    with pytest.raises(ArithmeticError):
        min_r2_search(8, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_search_confirms_the_w_of_each_argmin_by_bfs(monkeypatch, jobs):
    # a wrong edge-cut W shifts every ratio alike, so only the BFS on the
    # kept trees can see it
    from linewiener import _fast

    cuts = _fast.wiener_tree_layout
    monkeypatch.setattr(
        _fast, "wiener_tree_layout", lambda layout: cuts(layout) + 1
    )
    with pytest.raises(CrossCheckError, match=r"^W = \d+ by edge cuts"):
        min_r2_search(8, jobs=jobs)


def test_search_builds_the_branch_table_once(monkeypatch):
    # the shares send back their argmins as table coordinates, which the
    # merge spells from the tables it built, so none is built a second time
    from linewiener import analysis

    builds = []
    tables = analysis._tables
    monkeypatch.setattr(
        analysis,
        "_tables",
        lambda *args: builds.append(args) or tables(*args),
    )
    for jobs in (1, 2):
        del builds[:]
        report = min_r2_search(12, jobs=jobs)
        assert report.witnesses == (canonical_code(tree("path:12")),)
        assert builds == [(12, None, None)], jobs


def test_search_workers_take_the_branch_table_from_the_fork(monkeypatch):
    # the rows and forests are built before the fork, so no worker builds
    # its own
    import os

    from linewiener import analysis

    here = os.getpid()
    tables = analysis._tables

    def parent_only(*args):
        if os.getpid() != here:
            raise CrossCheckError("a worker built _tables")
        return tables(*args)

    monkeypatch.setattr(analysis, "_tables", parent_only)
    assert min_r2_search(12, jobs=2) == min_r2_search(12)


def test_search_forks_no_more_shares_than_top_level_choices(monkeypatch):
    # order 6 has 4 branch rows (sizes 1, 2, 3, 3), one top-level choice
    # each, so jobs = 9 makes 4 shares: this process and 3 forks. Under
    # min_degree3_count = 3, order 8 keeps 5 of its 8 rows (the only row
    # of size 4 left is the one over a cherry), so 5 shares
    import os

    from linewiener.analysis import _tables

    fork = os.fork
    forks = []

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert min_r2_search(6, jobs=9) == min_r2_search(6)
    assert len(forks) == 3
    del forks[:]
    lone = min_r2_search(8, min_degree3_count=3)
    assert min_r2_search(8, jobs=9, min_degree3_count=3) == lone
    rows = _tables(8, None, 3)[0]
    assert len(rows) == 5 < len(_tables(8, None, None)[0])
    assert len(forks) == len(rows) - 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_search_keeps_every_tied_tree(monkeypatch, jobs):
    # with C(d, 2) = 0 no vertex carries a wedge, so the walk scores
    # W(L^2) = 0 on every tree: each tree ties the running minimum 0/W and
    # must reach _keep_min, survive the merge and be spelled from the
    # coordinates its share found; that layout's code stands in for its
    # confirmation
    from linewiener import analysis

    monkeypatch.setattr(analysis, "comb", lambda n, k: 0)
    monkeypatch.setattr(
        analysis,
        "_witness_code",
        lambda layout, w, wk: canonical_code(layout_graph(layout)),
    )
    report = min_r2_search(8, jobs=jobs)
    everything = sorted(canonical_code(g) for g in free_trees(8))
    assert report.min_ratio == 0
    assert report.trees_scanned == 23
    assert report.witnesses == tuple(everything)


def scored_by_the_walk(monkeypatch, n):
    """(W, W_2) of every tree the centroid walk scores at order n: the
    running minimum is held at 0/0, which every score ties, so each tree
    reaches _keep_min with its own values."""
    from linewiener import analysis

    scores = []

    def record(best, wk, w, layouts):
        scores.append((w, wk))
        best[:2] = 0, 0

    monkeypatch.setattr(analysis, "_keep_min", record)
    rows, forests = analysis._tables(n, None, None)
    scanned = analysis._scan_block((n, None, None, rows, forests, 0, 1))[0]
    assert scanned == len(scores), n
    return Counter(scores)


def test_centroid_walk_scores_every_tree_as_the_stream_kernels_do(monkeypatch):
    from linewiener._fast import wiener2_tree_layout, wiener_tree_layout
    from linewiener.enumeration import free_tree_layouts

    for n in range(2, 15):
        expected = Counter(
            (wiener_tree_layout(layout), wiener2_tree_layout(layout))
            for layout in free_tree_layouts(n)
        )
        assert scored_by_the_walk(monkeypatch, n) == expected, n


def rooted_code(layout):
    """Sorted-parentheses code of a layout's tree rooted at vertex 0:
    equal codes iff the rooted trees are isomorphic."""
    parent = layout_parents(layout)
    below = [[] for _ in layout]
    for v in range(len(layout) - 1, 0, -1):
        below[parent[v]].append("(" + "".join(sorted(below[v])) + ")")
    return "(" + "".join(sorted(below[0])) + ")"


def forest_rows(rows, forests, m, j):
    """The rows of entry j of forests[m], largest first, by its links."""
    picks = []
    while m:
        r, j = forests[m][j][:2]
        picks.append(r)
        m -= rows[r][0]
    return picks


def row_layout(rows, forests, i):
    """The level sequence of row i, root at level 0, by its links."""
    size, *_, j = rows[i]
    return [0] + [
        level + 1
        for kid in forest_rows(rows, forests, size - 1, j)
        for level in row_layout(rows, forests, kid)
    ]


@pytest.mark.parametrize("most, need", [(None, None), (3, None), (None, 4)])
def test_speller_spells_each_row_and_forest_as_its_links_read(most, need):
    # the search's argmins and the k = 1 sweeps' trees are all spelled by
    # _speller; here it is pinned to the walks above, entry by entry, the
    # order of a forest's rows included
    from linewiener.analysis import _speller, _tables

    rows, forests = _tables(16, most, need)
    raised, spelled = _speller(rows, forests)
    hung = [
        bytes(level + 1 for level in row_layout(rows, forests, i))
        for i in range(len(rows))
    ]
    assert [raised(i) for i in range(len(rows))] == hung
    for m, made in enumerate(forests):
        for e in range(len(made)):
            run = forest_rows(rows, forests, m, e)
            assert spelled(m, e) == b"".join(hung[r] for r in run), (m, e)


# rooted trees on m vertices, m = 1..10 (OEIS A000081)
ROOTED_TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_branch_table_holds_each_rooted_tree_once_with_its_summary():
    # row i as a tree of its own: the vertex above, then the branch; at
    # order 20 the rows reach size 10
    from linewiener._fast import wiener2_tree_layout, wiener_tree_layout
    from linewiener.analysis import _tables

    n = 20
    rows, forests = _tables(n, None, None)
    sizes = [row[0] for row in rows]
    assert sizes == sorted(sizes)
    assert [sizes.count(m) for m in range(1, 11)] == ROOTED_TREE_COUNTS
    codes = set()
    for i, (size, w, s, a, a2, d3, top, j) in enumerate(rows):
        kids = forest_rows(rows, forests, size - 1, j)
        assert sum(rows[kid][0] for kid in kids) == size - 1
        assert kids == sorted(kids, reverse=True)
        layout = row_layout(rows, forests, i)
        codes.add(rooted_code(layout))
        assert len(layout) == size
        hung = [0] + [level + 1 for level in layout]
        g = layout_graph(hung)
        # the vertex above adds p, its distance sum to the branch, to W
        p = wiener_tree_layout(hung) - wiener_tree_layout(layout)
        assert w == wiener_tree_layout(layout) + p * (n - size)
        assert wiener2_tree_layout(hung) == s * (a + s - size + 1) - a2
        degrees = [g.degree(v) for v in range(1, size + 1)]
        assert (d3, top) == (degrees.count(3), max(degrees))
    assert len(codes) == len(rows)
    capped, capped_forests = _tables(n, 3, None)
    assert all(row[6] <= 3 for row in capped)
    assert {
        rooted_code(row_layout(capped, capped_forests, i))
        for i in range(len(capped))
    } == {
        rooted_code(row_layout(rows, forests, i))
        for i, row in enumerate(rows)
        if row[6] <= 3
    }
    assert len(capped) == len([row for row in rows if row[6] <= 3])


def forest_runs(n, rows):
    """Every non-increasing run of branch rows that can hang from a
    centroid of an order-n tree beside a branch at least as large as its
    largest row, by a walk of its own."""
    big = (n - 1) // 2
    fits = [i for i, row in enumerate(rows) if row[0] <= big]

    def extend(run, last, total):
        if run:
            yield run
        for r in fits:
            size = rows[r][0]
            # the run's largest row is its first
            largest = rows[run[0]][0] if run else size
            if r <= last and total + size + largest <= n - 1:
                yield from extend(run + (r,), r, total + size)

    yield from extend((), len(rows), 0)


@pytest.mark.parametrize(
    "most, need", [(None, None), (3, None), (4, 2), (None, 3)]
)
def test_forest_table_holds_each_forest_once_with_its_summary(most, need):
    # a row is made only over a forest that passed the bounds, so the
    # runs expected are those of the rows the tables kept
    from linewiener.analysis import _tables

    for n in range(2, 17):
        rows, forests = _tables(n, most, need)
        expected = set()
        for run in forest_runs(n, rows):
            m = sum(rows[r][0] for r in run)
            d3 = sum(rows[r][5] for r in run)
            # the root's degree, and the degree-3 vertices beside the run
            if len(run) + 1 <= (most or n):
                if d3 + (n - m) // 2 >= (need or 0):
                    expected.add(run)
        seen = []
        for m, made in enumerate(forests):
            assert made == sorted(made, key=lambda entry: entry[0]), (n, m)
            for j, entry in enumerate(made):
                run = forest_rows(rows, forests, m, j)
                if m:
                    seen.append(tuple(run))
                k = len(run)
                parts = [rows[r] for r in run]
                assert entry[2:] == (
                    k,
                    sum(row[1] for row in parts),
                    sum(row[2] for row in parts) + k * (k + 1) // 2,
                    sum(row[3] for row in parts),
                    sum(row[4] for row in parts),
                    sum(row[5] for row in parts) + (k == 2),
                    max([row[6] for row in parts] + [k + 1]),
                ), (n, m, j)
        assert Counter(seen) == Counter(expected), (n, most, need)


@pytest.mark.parametrize("most, need", [(None, None), (3, None), (None, 3)])
def test_rows_follow_the_order_of_their_kids_forests(most, need):
    # the scan pairs a row b of size n/2 with the entries of
    # forests[n/2 - 1] up to b's own link (the other centroid's kids,
    # a <= b), which meets each pair once as the rows of that size link
    # to those entries one to one, in their order
    from linewiener.analysis import _tables

    for n in range(4, 17):
        rows, forests = _tables(n, most, need)
        for m in range(1, n // 2 + 1):
            links = [row[7] for row in rows if row[0] == m]
            assert links == list(range(len(forests[m - 1]))), (n, m)


def test_min_degree3_pruning_keeps_every_tree_that_passes():
    from linewiener.enumeration import free_tree_layouts

    for n in range(4, 15):
        for need in range((n - 2) // 2 + 2):
            expected = sum(
                1 for _ in free_tree_layouts(n, min_degree3_count=need)
            )
            report = min_r2_search(n, min_degree3_count=need)
            assert report.trees_scanned == expected, (n, need)


def test_search_shares_give_identical_reports():
    # the walk's top-level choices, numbered mod K, partition the trees;
    # K = 7 exceeds the choices at the small orders, so fewer shares run
    from linewiener.reporting import report_text

    from test_enumeration import DEGREE_FILTERS

    for n in range(4, 13):
        for kwargs in [{}] + DEGREE_FILTERS:
            lone = min_r2_search(n, **kwargs)
            for jobs in (2, 3, 7):
                multi = min_r2_search(n, jobs=jobs, **kwargs)
                assert multi == lone, (n, kwargs, jobs)
                assert report_text(multi) == report_text(lone), (n, kwargs, jobs)


def test_search_result_at_twenty_is_the_path():
    report = min_r2_search(20)
    assert report.trees_scanned == 823065
    assert report.min_ratio == Fraction(51, 70) == r2_path(20)
    assert report.witnesses == (canonical_code(tree("path:20")),)


def test_path_is_the_lone_min_r2_tree_below_order_22():
    # with criterion 10's spider at order 22, this makes 22 the least order
    # where the path fails to minimize R_2
    for n in range(4, 22):
        report = min_r2_search(n, limit=21)
        assert report.min_ratio == r2_path(n), n
        assert report.witnesses == (canonical_code(tree(f"path:{n}")),), n


def brute_force_min_r2(n, keep=lambda g: True):
    best = None
    witnesses = []
    for g in free_trees(n):
        if not keep(g):
            continue
        w = naive_wiener(g)
        w2 = naive_wiener(naive_line_graph(naive_line_graph(g)))
        ratio = Fraction(w2, w)
        if best is None or ratio < best:
            best = ratio
            witnesses = [canonical_code(g)]
        elif ratio == best:
            witnesses.append(canonical_code(g))
    return best, tuple(sorted(witnesses))


def test_search_matches_brute_force():
    for n in (4, 7, 9, 10):
        report = min_r2_search(n)
        best, witnesses = brute_force_min_r2(n)
        assert report.min_ratio == best
        assert report.witnesses == witnesses
        assert report.order == n


def test_search_result_at_ten_is_the_path():
    report = min_r2_search(10)
    assert report.min_ratio == Fraction(28, 55) == r2_path(10)
    assert report.witnesses == (canonical_code(tree("path:10")),)
    assert report.trees_scanned == 106
    assert report.class_description == "all trees"


def test_search_with_filters():
    keep = lambda g: max(g.degree(v) for v in range(g.vertex_count)) <= 3
    report = min_r2_search(9, max_degree=3)
    best, witnesses = brute_force_min_r2(9, keep)
    assert report.min_ratio == best
    assert report.witnesses == witnesses
    assert report.trees_scanned == sum(1 for g in free_trees(9) if keep(g))


@pytest.mark.parametrize(
    "keyword", ["max_degree", "min_max_degree", "min_degree3_count"]
)
def test_negative_degree_bounds_are_refused_at_the_call(monkeypatch, keyword):
    # a negative bound would name an empty or unfiltered class; the library
    # refuses it before any stream walk or table build, as the CLI does
    import linewiener.analysis as analysis
    import linewiener.enumeration as enumeration
    from linewiener.enumeration import free_tree_layouts

    def refuse(*args):
        raise AssertionError(f"walked the stream or built the tables: {args}")

    monkeypatch.setattr(analysis, "_tables", refuse)
    monkeypatch.setattr(enumeration, "_walk", refuse)
    for call in (min_r2_search, free_tree_layouts, free_trees):
        with pytest.raises(ParameterError, match=f"^{keyword} must be >= 0, got -1$"):
            call(10, **{keyword: -1})


def test_search_jobs_do_not_change_the_report():
    lone = min_r2_search(10)
    multi = min_r2_search(10, jobs=3)
    assert lone == multi
    # each job walks its own top-level choices of the centroid walk, and
    # the filters prune within them; the merged reports must agree
    cases = (
        (14, {"min_degree3_count": 2}),
        (13, {}),
        (16, {"min_degree3_count": 6}),
        (15, {"max_degree": 3, "min_degree3_count": 5}),
        # the search-filtered workload, and one like it two orders up
        (18, {"min_degree3_count": 7}),
        (20, {"min_degree3_count": 8}),
    )
    # the sizes of the two large streams, pinned in test_enumeration
    pinned_sizes = {18: 294, 20: 693}
    for n, kwargs in cases:
        reports = [min_r2_search(n, jobs=jobs, **kwargs) for jobs in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2], n
        if n in pinned_sizes:
            assert reports[0].trees_scanned == pinned_sizes[n], n
            continue
        # counted from the degrees of every decoded tree of the order
        degrees = ([g.degree(v) for v in range(n)] for g in free_trees(n))
        assert reports[0].trees_scanned == sum(
            max(deg) <= kwargs.get("max_degree", n)
            and deg.count(3) >= kwargs.get("min_degree3_count", 0)
            for deg in degrees
        ), n


def test_search_bounds():
    with pytest.raises(ParameterError):
        min_r2_search(3)
    with pytest.raises(SearchLimitError) as info:
        min_r2_search(21)
    assert (info.value.n, info.value.limit) == (21, 20)
    # explicit limit raises the ceiling
    report = min_r2_search(10, limit=10)
    assert report.trees_scanned == 106


def test_star_minimizes_r1_at_small_orders():
    for n in range(4, 10):
        assert star_minimizes_r1(n)


def w_one_too_large(tables):
    """_tables whose rows carry w + 1, so that the W of every tree a sweep
    reads off them is one too large."""

    def faulty(n, most, need):
        rows, forests = tables(n, most, need)
        return [(size, w + 1, *rest) for size, w, *rest in rows], forests

    return faulty


def test_star_check_confirms_the_w_of_each_argmin_by_bfs(monkeypatch):
    # a W one too large in the table shifts every R1 alike, so only the BFS
    # on the kept trees can see it
    from linewiener import analysis

    monkeypatch.setattr(analysis, "_tables", w_one_too_large(analysis._tables))
    with pytest.raises(CrossCheckError, match=r"^W = \d+ by BFS"):
        star_minimizes_r1(7)


def test_star_check_confirms_the_w1_of_each_argmin_by_bfs(monkeypatch):
    # a lane value wrong in the middle of the chunk, where the mask BFS of
    # the chunk's ends does not look, makes that tree the argmin
    from linewiener import _fast

    lanes = _fast.line_wiener_lanes

    def faulty(layouts):
        out = lanes(layouts)
        out[len(out) // 2] = 0
        return out

    monkeypatch.setattr(_fast, "line_wiener_lanes", faulty)
    with pytest.raises(CrossCheckError, match=r"^W_1 = \d+ by BFS"):
        star_minimizes_r1(7)


def test_line_wiener_tree_identity():
    for n in range(2, 11):
        assert line_wiener_tree_identity(n)


def test_identity_sweeps_refuse_orders_above_the_search_limit(monkeypatch):
    # refused at the call, before the sweep of any order
    from linewiener import analysis

    orders = []
    monkeypatch.setattr(
        analysis, "_tree_scores", lambda n: orders.append(n) or iter(())
    )
    for call in (line_identity_checks, line_wiener_tree_identity):
        with pytest.raises(SearchLimitError) as info:
            call(21)
        assert (info.value.n, info.value.limit) == (21, 20)
    assert orders == []


def test_fixed_limit_refusals_ask_for_no_other_limit():
    # the k = 1 sweeps take no limit, so their refusal names the limit
    # without asking for a higher one; the search, which takes one, asks
    for call in (line_identity_checks, line_wiener_tree_identity, star_minimizes_r1):
        with pytest.raises(SearchLimitError) as info:
            call(21)
        assert (info.value.n, info.value.limit) == (21, 20)
        assert str(info.value) == (
            "exhaustive search at order 21 exceeds the limit 20"
        )
    with pytest.raises(SearchLimitError) as info:
        min_r2_search(21)
    assert str(info.value) == (
        "exhaustive search at order 21 exceeds the limit 20; "
        "pass a higher limit explicitly to run it"
    )


@pytest.mark.parametrize("fault", ["drop", "repeat"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_unfiltered_sweeps_check_the_tree_count(monkeypatch, fault, jobs):
    # a walk that drops or repeats a tree has the wrong free-tree count,
    # whichever tree it is, and also when only a worker's share is wrong:
    # the centroid scan, and the k = 1 sweeps that read the same table,
    # lose or double a branch or a forest (here the forest of n - 2 leaves
    # beside a leaf, which makes the star)
    from linewiener import analysis

    tables = analysis._tables

    def faulty_rows(n, most, need):
        rows, forests = tables(n, most, need)
        return (rows[:-1] if fault == "drop" else rows + rows[-1:]), forests

    def faulty_forests(n, most, need):
        rows, forests = tables(n, most, need)
        made = forests[n - 2]
        made[:1] = [] if fault == "drop" else made[:1] * 2
        return rows, forests

    for table in (faulty_rows, faulty_forests):
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_tables", table)
            # bounds that exclude no tree of order 8 leave it unfiltered
            for bounds in [
                {},
                {"min_degree3_count": 0},
                {"max_degree": 7},
                {"min_max_degree": 2},
            ]:
                with pytest.raises(
                    CrossCheckError, match="trees scanned at order 8"
                ):
                    min_r2_search(8, jobs=jobs, **bounds)
            with pytest.raises(CrossCheckError, match="trees scanned at order 7"):
                star_minimizes_r1(7)
            with pytest.raises(CrossCheckError, match="trees scanned at order 6"):
                line_wiener_tree_identity(6)


def test_tree_kernel_rejects_an_impossible_wiener_value(monkeypatch):
    # the mask BFS agrees, so only the sign check can see it
    from linewiener import _fast

    monkeypatch.setattr(_fast, "line_wiener_lanes", lambda ls: [-1] * len(ls))
    monkeypatch.setattr(_fast, "wiener_masks", lambda masks: -1)
    with pytest.raises(CrossCheckError, match=r"^W = \d+, W_1 = -1 for layout"):
        line_wiener_tree_identity(6)


def test_lane_kernel_equals_the_mask_bfs_on_every_layout():
    from linewiener._fast import line_wiener_lanes
    from linewiener.analysis import _masks_wk
    from linewiener.enumeration import free_tree_layouts

    for n in range(2, 15):
        layouts = list(free_tree_layouts(n))
        expected = [_masks_wk(layout, 1) for layout in layouts]
        assert line_wiener_lanes(layouts) == expected, n


def test_lane_kernel_against_graph_bfs_on_random_trees():
    # layouts from random roots, 40 trees of one order per call
    from linewiener._fast import line_wiener_lanes
    from linewiener.graphs import line_graph, wiener_index

    rng = random.Random(2018)
    for n in range(15, 41):
        layouts = [
            level_sequence(random_tree(rng, n), rng.randrange(n))
            for _ in range(40)
        ]
        expected = [
            wiener_index(line_graph(layout_graph(layout))) for layout in layouts
        ]
        assert line_wiener_lanes(layouts) == expected, n


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_tree_scores_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    from linewiener import analysis

    expected = [list(analysis._tree_scores(n)) for n in range(2, 11)]
    monkeypatch.setattr(analysis, "_CHUNK", chunk)
    assert [list(analysis._tree_scores(n)) for n in range(2, 11)] == expected


def test_lane_kernel_raises_when_a_lane_stalls():
    # tree 1's levels jump from 2 to 4, so vertex 3 has no parent there and
    # edge 3 is cut off; the BFS must stop with an error, so an alarm fails
    # the test if it spins
    import signal

    from linewiener import _fast

    def spins(signum, frame):
        raise TimeoutError("lane BFS still running after 10 s")

    previous = signal.signal(signal.SIGALRM, spins)
    signal.alarm(10)
    try:
        with pytest.raises(CrossCheckError, match="lane BFS stalls"):
            _fast.line_wiener_lanes(
                [[0, 1, 2, 3, 4], bytes([0, 1, 2, 4, 3]), [0, 1, 2, 3, 4]]
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ParameterError, match="one order"):
        _fast.line_wiener_lanes([[0, 1, 2, 3], [0, 1, 2]])


def test_buckley_sweep_runs_the_mask_bfs_on_chunk_ends_alone(monkeypatch):
    # the first and last tree of each chunk, which the bench tracer's
    # per-tree mask spans also read; every other tree is scored in lanes
    from linewiener import _fast, analysis
    from linewiener.enumeration import free_tree_count

    calls = []
    bfs = _fast.wiener_masks
    monkeypatch.setattr(
        _fast, "wiener_masks", lambda masks: calls.append(1) or bfs(masks)
    )
    [result] = line_identity_checks(max_n=14)
    assert result.ok
    chunks = sum(
        -(-free_tree_count(n) // analysis._CHUNK) for n in range(2, 15)
    )
    assert chunks <= len(calls) <= 2 * chunks


def test_buckley_check_takes_w_from_the_table_sums(monkeypatch):
    # W(T) and W(L(T)) come from different methods, so a fault in the
    # table's W sums alone breaks the identity
    from linewiener import analysis

    monkeypatch.setattr(analysis, "_tables", w_one_too_large(analysis._tables))
    [result] = line_identity_checks(max_n=8)
    assert not result.ok


def test_tree_scores_read_every_free_tree_once_off_the_table():
    # the table's trees are the stream's, up to isomorphism, each once, and
    # each is scored as the per-tree kernels score its own layout
    from linewiener._fast import wiener_tree_layout
    from linewiener.analysis import _masks_wk, _tree_scores
    from linewiener.enumeration import canonical_code, free_tree_layouts

    for n in range(2, 13):
        scores = list(_tree_scores(n))
        codes = [canonical_code(layout_graph(t)) for t, _, _ in scores]
        assert len(set(codes)) == len(codes), n
        assert sorted(codes) == sorted(
            canonical_code(layout_graph(t)) for t in free_tree_layouts(n)
        ), n
        for layout, w, w1 in scores:
            assert (w, w1) == (
                wiener_tree_layout(layout),
                _masks_wk(layout, 1),
            ), (n, list(layout))


def all_ok(results):
    assert results, "empty check bundle"
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    for r in results:
        assert r.detail
        assert r.ok, (r.name, r.detail)


def test_check_bundles_pass():
    all_ok(worked_example_checks())
    all_ok(closed_form_oracle_checks(max_a=4, max_path_n=20))
    all_ok(line_identity_checks(max_n=8))
    all_ok(near_balanced_checks(2, 10))
    all_ok(limit_quotient_checks())


def test_oracle_path_checks_fail_when_their_range_compares_nothing():
    def failed(max_path_n):
        results = closed_form_oracle_checks(2, max_path_n=max_path_n)
        return [r.name for r in results if not r.ok]

    assert failed(0) == ["path W closed form = BFS", "path R2 closed form = BFS"]
    assert failed(2) == ["path R2 closed form = BFS"]
    assert failed(3) == []


#: closed form -> (the one input it is made wrong at, the lemmas check that
#: compares it)
ORACLE_FORMS = {
    "w_spider": ((1, 2, 3), "spider W closed form = BFS"),
    "d2_spider": ((2, 3, 4), "spider D2 closed form = BFS"),
    "w_quipu": ((3,), "quipu W closed form = BFS"),
    "d2_quipu": ((3,), "quipu D2 closed form = BFS"),
    "w_path": ((5,), "path W closed form = BFS"),
    "r2_path": ((5,), "path R2 closed form = BFS"),
}


@pytest.mark.parametrize("form", sorted(ORACLE_FORMS))
def test_each_oracle_check_compares_the_form_it_names(monkeypatch, form):
    from linewiener import analysis

    wrong_at, name = ORACLE_FORMS[form]
    exact = getattr(analysis, form)
    monkeypatch.setattr(
        analysis, form, lambda *args: exact(*args) + (args == wrong_at)
    )
    results = closed_form_oracle_checks(4, max_path_n=10)
    assert [r.name for r in results if not r.ok] == [name]


@pytest.mark.parametrize("field", ["w", "d2"])
@pytest.mark.parametrize("case", ["i", "ii", "iii"])
def test_each_case_record_check_compares_its_own_case(monkeypatch, case, field):
    # one field of one case record made wrong at a = 5 fails that case's
    # record check alone; the scan reads the deficits, which stay exact
    from linewiener import analysis

    exact = analysis.balanced_spider_case

    def faulty(a, c):
        values = exact(a, c)
        if (a, c) != (5, case):
            return values
        fields = {name: getattr(values, name) for name in values.__match_args__}
        fields[field] += 1
        return type(values)(**fields)

    monkeypatch.setattr(analysis, "balanced_spider_case", faulty)
    results = near_balanced_checks(5, 7)
    assert [r.name for r in results if not r.ok] == [
        f"case {case}: case record = BFS on built spider"
    ]


#: (closed form, the worked input it is made wrong at) -> the
#: paper-numbers checks that read it there
WORKED_FORMS = {
    ("w_path", (22,)): ["W(P_22) = 1771"],
    ("path_deficit", (22,)): ["1 - R2(P_22) = 126/506"],
    ("w_spider", (7, 7, 7)): ["W(T_{7,7,7}) = 1428"],
    ("w_spider", (3, 4, 5)): ["W(T_{3,4,5}) = 304 and D2 = 113"],
    ("w_spider", (1, 1, 1)): ["W of the order-4 star = 9"],
    ("d2_spider", (7, 7, 7)): ["D2(T_{7,7,7}) = 357"],
    ("d2_spider", (3, 4, 5)): ["W(T_{3,4,5}) = 304 and D2 = 113"],
    ("w_quipu", (2,)): ["W(Q_2) = 68 and D2(Q_2) = 22"],
    ("d2_quipu", (2,)): ["W(Q_2) = 68 and D2(Q_2) = 22"],
    ("deficit_quotient", (7, "i")): [
        "deficit quotient of T_{7,7,7} vs P_22 = 253/252"
    ],
}


@pytest.mark.parametrize(
    "form, wrong_at", sorted(WORKED_FORMS), ids=lambda v: str(v)
)
def test_each_worked_number_check_compares_what_it_names(
    monkeypatch, form, wrong_at
):
    from linewiener import analysis

    exact = getattr(analysis, form)
    step = 1 if form.startswith(("w_", "d2_")) else Fraction(1, 1000)
    monkeypatch.setattr(
        analysis, form, lambda *args: exact(*args) + step * (args == wrong_at)
    )
    results = worked_example_checks()
    assert len(results) == 12
    assert [r.name for r in results if not r.ok] == WORKED_FORMS[form, wrong_at]


@pytest.mark.parametrize("case", ["i", "ii", "iii"])
def test_a_case_that_stops_beating_the_path_at_7_fails_its_three_checks(
    monkeypatch, case
):
    # the tree deficit of one case dropped below the path's at a = 7: the
    # scan sees its first positive gap at 8, the sign pattern breaks, and
    # the record no longer matches the BFS of the built spider
    from linewiener import analysis

    exact = analysis.balanced_spider_case

    def faulty(a, c):
        values = exact(a, c)
        if (a, c) != (7, case):
            return values
        fields = {name: getattr(values, name) for name in values.__match_args__}
        fields["one_minus_r2_tree"] = values.one_minus_r2_path - Fraction(1, 1000)
        return type(values)(**fields)

    monkeypatch.setattr(analysis, "balanced_spider_case", faulty)
    results = near_balanced_checks(5, 9)
    assert [r.name for r in results if not r.ok] == [
        f"case {case}: first a beating the path is 7",
        f"case {case}: gap > 0 exactly for a >= 7",
        f"case {case}: case record = BFS on built spider",
    ]


def test_oracle_checks_sweep_each_distinct_graph_once(monkeypatch):
    # L^2(P_n) is P_{n-2}, so the path loop sweeps P_1..P_60 and no L^2;
    # the 120 spiders, the L^2 of the 84 with arms >= 2, the 7 quipus and
    # their L^2 are all distinct
    from linewiener import analysis
    from linewiener.families import Path

    swept = []
    bfs = analysis.wiener_index
    monkeypatch.setattr(
        analysis, "wiener_index", lambda g: swept.append(g) or bfs(g)
    )
    all_ok(closed_form_oracle_checks(8))
    assert len(swept) == len(set(swept)) == 120 + 84 + 2 * 7 + 60
    assert {build(Path(n)) for n in range(1, 61)} <= set(swept)


def test_bundles_in_one_scope_share_their_sweeps(monkeypatch):
    # paper-numbers and thm4 at a = 7 both build T_{7,7,7} and its L^2,
    # and thm1 at order 8 reads buckley's k = 1 sweep of that order: inside
    # one sweep_once scope each is swept once, and with no scope open each
    # bundle sweeps them for itself
    from linewiener import analysis

    swept, orders = [], []
    bfs, scores = analysis.wiener_index, analysis._tree_scores
    monkeypatch.setattr(
        analysis, "wiener_index", lambda g: swept.append(g) or bfs(g)
    )
    monkeypatch.setattr(
        analysis, "_tree_scores", lambda n: orders.append(n) or scores(n)
    )
    spider = tree("spider:7,7,7")
    shared = {spider, iterated_line_graph(spider, 2)}

    def bundles():
        swept.clear()
        orders.clear()
        all_ok(worked_example_checks())
        all_ok(near_balanced_checks(7, 7))
        all_ok(line_identity_checks(8))
        assert star_minimizes_r1(8)
        return Counter(swept), Counter(orders)

    with analysis.sweep_once():
        graphs, k1 = bundles()
    assert set(graphs.values()) == set(k1.values()) == {1}
    assert shared <= set(graphs) and sorted(k1) == list(range(2, 9))
    graphs, k1 = bundles()
    assert {graphs[g] for g in shared} == {2} and k1[8] == 2


def test_path_r2_check_sweeps_the_l2_it_builds(monkeypatch):
    # an L^2 that is not P_{n-2} must be swept as itself, not read from
    # the path of order n - 2 swept before it
    from linewiener import analysis
    from linewiener.families import Path

    iterate = analysis.iterated_line_graph

    def one_step_for_paths(g, k, budget):
        n = g.vertex_count
        if g == build(Path(n)):
            return build(Path(n - 1))
        return iterate(g, k, budget)

    monkeypatch.setattr(analysis, "iterated_line_graph", one_step_for_paths)
    results = closed_form_oracle_checks(4, max_path_n=20)
    assert [r.name for r in results if not r.ok] == ["path R2 closed form = BFS"]


def test_oracle_bundles_build_every_l2_within_the_budget():
    # L^2(Q_8) has 116 edges, the largest L^2 of lemmas at max_a = 8;
    # L^2 of the case-iii spider at a = 8, arms 8, 9, 9, has 29
    with pytest.raises(BudgetExceededError):
        closed_form_oracle_checks(8, budget=115)
    all_ok(closed_form_oracle_checks(8, budget=116))
    with pytest.raises(BudgetExceededError):
        near_balanced_checks(2, 8, budget=28)
    all_ok(near_balanced_checks(2, 8, budget=29))


@pytest.mark.parametrize(
    "call, budget",
    [
        (worked_example_checks, 23),
        (lambda budget: closed_form_oracle_checks(8, budget=budget), 115),
        (lambda budget: near_balanced_checks(2, 8, budget), 28),
    ],
    ids=["worked_example_checks", "closed_form_oracle_checks",
         "near_balanced_checks"],
)
def test_bundles_check_their_budget_before_any_sweep(monkeypatch, call, budget):
    # each budget fits the first L^2 the bundle builds but not its largest:
    # the bundle grows line graphs within the budget alone, and refuses
    # before it sweeps any graph
    from linewiener import analysis, graphs

    swept, grown = [], []
    line_graph = graphs.line_graph

    def measured(h):
        built = line_graph(h)
        grown.append(max(built.vertex_count, built.edge_count))
        return built

    monkeypatch.setattr(graphs, "line_graph", measured)
    monkeypatch.setattr(analysis, "wiener_index", swept.append)
    with pytest.raises(BudgetExceededError):
        call(budget)
    assert swept == []
    assert grown and max(grown) <= budget


@pytest.mark.parametrize(
    "name, bounds",
    [
        ("paper-numbers", {}),
        ("lemmas", {"max_a": 3}),
        ("thm4", {"a_range": (2, 3)}),
        ("thm5", {"a": 4}),
        ("thm1", {"max_n": 6}),
    ],
)
def test_verify_plan_budget_is_exact(monkeypatch, name, bounds):
    # the plan refuses exactly the budgets below the largest step of any
    # line_graph call its bundle makes, sized as graphs.line_iterates
    # sizes it: |E| vertices and sum C(deg, 2) edges
    from linewiener import analysis, graphs
    from linewiener.graphs import predicted_line_edge_count

    steps = []
    grow = graphs.line_graph

    def measured(h):
        steps.append(max(h.edge_count, predicted_line_edge_count(h)))
        return grow(h)

    monkeypatch.setattr(graphs, "line_graph", measured)
    monkeypatch.setattr(analysis, "line_graph", measured)
    (run,) = verify_plan([name], **bounds)
    assert run()
    largest = max(steps)
    with pytest.raises(BudgetExceededError):
        verify_plan([name], largest - 1, **bounds)
    (run,) = verify_plan([name], largest, **bounds)
    assert run()
