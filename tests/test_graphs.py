"""Graph construction, Wiener indices, and the line-graph operator."""

from __future__ import annotations

import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from linewiener import (
    BudgetExceededError,
    CrossCheckError,
    DisconnectedGraphError,
    EmptyGraphError,
    Graph,
    GraphFormatError,
    LineWienerError,
    SubdividedQuipu,
    build,
    d2_ua,
    degree_sequence,
    is_connected,
    is_tree,
    iterated_line_graph,
    line_graph,
    line_iterates,
    parse_family,
    predicted_line_edge_count,
    w_ua,
    wiener_index,
)

from oracles import naive_line_graph, naive_wiener, random_graph, random_tree


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return Graph(n, [(0, i) for i in range(1, n)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_construction_normalizes_edges():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(2, 1), (1, 0), (1, 2)])  # reversed and duplicated
    assert a == b
    assert hash(a) == hash(b)
    assert a.edge_count == 2
    assert a.adjacency == ((1,), (0, 2), (1,))


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphFormatError):
        Graph(-1)


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.vertex_count = 5


def test_edges_are_lexicographic():
    g = Graph(4, [(2, 3), (0, 2), (0, 1), (1, 3)])
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_degree_sequence_sorted():
    assert degree_sequence(star(5)) == [1, 1, 1, 1, 4]
    assert degree_sequence(Graph(3)) == [0, 0, 0]


def test_connectivity_and_tree_predicates():
    assert is_connected(path(1))
    assert not is_connected(Graph(0))
    assert not is_connected(Graph(2))
    assert is_tree(path(1))
    assert is_tree(star(7))
    assert not is_tree(cycle(4))
    assert not is_tree(Graph(3, [(0, 1)]))
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))


def test_wiener_known_values():
    # path: sum of i*(n-i); star: (n-1)^2; cycle: n^3/8 or n(n^2-1)/8; K_n: C(n,2)
    assert wiener_index(path(1)) == 0
    assert wiener_index(path(2)) == 1
    assert wiener_index(path(4)) == 10
    assert wiener_index(star(6)) == 25
    assert wiener_index(cycle(5)) == 15
    assert wiener_index(cycle(6)) == 27
    assert wiener_index(complete(7)) == 21


def test_wiener_undefined_cases():
    with pytest.raises(EmptyGraphError):
        wiener_index(Graph(0))
    with pytest.raises(DisconnectedGraphError):
        wiener_index(Graph(2))
    with pytest.raises(DisconnectedGraphError):
        wiener_index(Graph(4, [(0, 1), (2, 3)]))


def test_wiener_sweep_raises_when_a_reach_never_fills(monkeypatch):
    # past a connectivity check that lies, vertex 2's reach stays empty;
    # the sweep must stop with an error, so an alarm fails the test if it
    # spins
    import signal

    from linewiener import graphs

    def spins(signum, frame):
        raise TimeoutError("Wiener sweep still running after 10 s")

    monkeypatch.setattr(graphs, "is_connected", lambda g: True)
    previous = signal.signal(signal.SIGALRM, spins)
    signal.alarm(10)
    try:
        with pytest.raises(CrossCheckError, match="still open after 3 rounds"):
            wiener_index(Graph(3, [(0, 1)]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_wiener_matches_oracle_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(40):
        t = random_tree(rng, rng.randrange(2, 24))
        assert wiener_index(t) == naive_wiener(t)
    for _ in range(60):
        _assert_wiener_matches_oracle(
            random_graph(rng, rng.randrange(2, 14), rng.uniform(0.2, 0.9))
        )


def _assert_wiener_matches_oracle(g):
    expected = naive_wiener(g)
    if expected < 0:
        with pytest.raises(DisconnectedGraphError):
            wiener_index(g)
    else:
        assert wiener_index(g) == expected, g


def _wiener_sweep_cases():
    """Seeded graphs of order up to 60 for the bitset sweep: sparse
    near-trees, dense graphs, forests, and graphs whose last vertex (the
    highest bit) is isolated."""
    rng = random.Random(1010)
    cases = []
    for _ in range(30):
        n = rng.randrange(2, 61)
        t = random_tree(rng, n)
        extra = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(4))]
        cases.append(Graph(n, [*t.edges(), *extra]))
        cut = list(t.edges())
        del cut[rng.randrange(len(cut))]
        cases.append(Graph(n, cut))
    for _ in range(30):
        n = rng.randrange(2, 61)
        cases.append(random_graph(rng, n, rng.uniform(0.1, 0.9)))
        g = random_graph(rng, n - 1, rng.uniform(0.3, 0.9))
        cases.append(Graph(n, g.edges()))
    return cases


def test_wiener_sweep_matches_oracle_on_seeded_graphs():
    cases = _wiener_sweep_cases()
    assert any(naive_wiener(g) < 0 for g in cases)
    assert any(naive_wiener(g) > 0 and g.edge_count > g.vertex_count for g in cases)
    for g in cases:
        _assert_wiener_matches_oracle(g)


def test_wiener_sweep_on_long_diameters_and_complete_graphs():
    # paths and cycles run the most rounds: P_200 takes 199, C_200 takes 100
    for n in [*range(1, 41), 63, 64, 65, 99, 100, 101, 128, 199, 200]:
        _assert_wiener_matches_oracle(path(n))
        if n >= 3:
            _assert_wiener_matches_oracle(cycle(n))
    for n in range(1, 31):
        k = complete(n)
        assert wiener_index(k) == n * (n - 1) // 2 == naive_wiener(k)


@pytest.mark.parametrize("width", [1, 3, 7])
def test_wiener_sweep_blocks_of_sources(monkeypatch, width):
    # narrow blocks put every order here past one block, with a short last
    from linewiener import graphs

    monkeypatch.setattr(graphs, "_SWEEP_SOURCES", width)
    for g in _wiener_sweep_cases() + [path(23), cycle(30), complete(9)]:
        _assert_wiener_matches_oracle(g)
    assert wiener_index(Graph(1)) == 0
    disconnected = [
        # two paths
        Graph(9, [*path(4).edges(), *((u + 4, v + 4) for u, v in path(5).edges())]),
        # an isolated vertex beside a path
        Graph(10, [(u + 1, v + 1) for u, v in path(9).edges()]),
        # the first block of sources, 0..width - 1, lies wholly in P_8
        Graph(12, [*path(8).edges(), (8, 9), (9, 10), (10, 11), (11, 8)]),
    ]
    for g in disconnected:
        with pytest.raises(DisconnectedGraphError):
            wiener_index(g)


@pytest.mark.parametrize("width", [1, 3, 7, 4096])
def test_wiener_sweep_on_the_subdivided_quipus_and_their_l2(monkeypatch, width):
    # the shapes thm5 sweeps: leaves, long degree-2 arms and hubs, in U_a
    # and in L^2(U_a), whose rows cross block boundaries at narrow widths
    from linewiener import graphs

    monkeypatch.setattr(graphs, "_SWEEP_SOURCES", width)
    for a in range(2, 11):
        g = build(SubdividedQuipu(a))
        l2 = iterated_line_graph(g, 2)
        w, w2 = wiener_index(g), wiener_index(l2)
        assert (w, w2) == (naive_wiener(g), naive_wiener(l2)), a
        assert (w, w - w2) == (w_ua(a), d2_ua(a)), a


def _distances(g):
    """All-pairs distances of a connected graph by plain BFS."""
    rows = []
    for source in range(g.vertex_count):
        dist = [None] * g.vertex_count
        dist[source] = 0
        frontier = [source]
        while frontier:
            frontier_next = []
            for u in frontier:
                for v in g.adjacency[u]:
                    if dist[v] is None:
                        dist[v] = dist[u] + 1
                        frontier_next.append(v)
            frontier = frontier_next
        rows.append(dist)
    return rows


@pytest.mark.parametrize("width", [1, 3, 7, 4096])
def test_wiener_sweep_reads_each_vertex_once_per_round_until_it_fills(
    monkeypatch, width
):
    # Each visit of a vertex takes one popcount, of the reach it computed.
    # Each block of sources S visits v in round 1 and in round d > 1 while
    # v's reach of round d - 1 is not full, so max(1, the distance from v to
    # its farthest source in S) times, and its visit of round d sees the
    # sources within d of v. A vertex visited again in a round, or kept once
    # its reach fills, makes a visit past that multiset. The popcounts are
    # read as the profiler's calls of int.bit_count in wiener_index's frame.
    from linewiener import graphs

    monkeypatch.setattr(graphs, "_SWEEP_SOURCES", width)
    code = graphs.wiener_index.__code__
    rng = random.Random(24)
    cases = [Graph(1), path(2), path(9), cycle(10), star(6), complete(5)]
    # both connected
    cases += [random_tree(rng, 20), random_graph(rng, 12, 0.5)]
    for g in cases:
        n = g.vertex_count
        dist = _distances(g)
        blocks = []
        for first in range(0, n, width):
            sources = range(first, min(first + width, n))
            visits = Counter()
            for v in range(n):
                farthest = max(dist[s][v] for s in sources)
                for d in range(1, max(1, farthest) + 1):
                    ball = sum(1 << s - first for s in sources if dist[s][v] <= d)
                    visits[ball] += 1
            blocks.append(visits)
        expected = sum(block.total() for block in blocks)
        seen = []

        def popcounts(frame, event, arg):
            if (
                event == "c_call"
                and frame.f_code is code
                and getattr(arg, "__name__", None) == "bit_count"
            ):
                seen.append(arg.__self__)
                if len(seen) > expected:
                    raise AssertionError(f"more than {expected} visits in {g}")

        previous = sys.getprofile()
        sys.setprofile(popcounts)
        try:
            w = wiener_index(g)
        finally:
            sys.setprofile(previous)
        assert w == sum(map(sum, dist)) // 2
        for block in blocks:
            size = block.total()
            assert Counter(seen[:size]) == block, g
            del seen[:size]
        assert seen == [], g


def test_wiener_sweep_past_one_block_of_sources():
    # 4096 sources per block: orders 4097 and 4225 take two blocks
    n = 4097
    assert wiener_index(star(n)) == (n - 1) ** 2
    a = b = 65
    grid = Graph(
        a * b,
        [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
        + [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)],
    )
    # W(G x H) = |H|^2 W(G) + |G|^2 W(H), and W(P_k) = C(k + 1, 3)
    w_path = (a + 1) * a * (a - 1) // 6
    assert wiener_index(grid) == 2 * b * b * w_path


def test_wiener_sweep_matches_networkx():
    nx = pytest.importorskip("networkx")
    cases = _wiener_sweep_cases() + [path(200), cycle(200), complete(12)]
    for g in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges())
        expected = nx.wiener_index(h)
        if expected == float("inf"):
            with pytest.raises(DisconnectedGraphError):
                wiener_index(g)
        else:
            assert wiener_index(g) == expected, g


def test_line_graph_small_cases():
    assert line_graph(path(4)) == path(3)
    assert line_graph(star(4)) == complete(3)
    assert line_graph(Graph(5)) == Graph(0)
    assert line_graph(path(2)) == Graph(1)
    # cycles are fixed points up to relabeling: connected and 2-regular
    lc = line_graph(cycle(6))
    assert degree_sequence(lc) == [2] * 6
    assert is_connected(lc)


def _assert_same_graph(got, expected):
    # a trusted construction must match the checked one in every slot
    assert got.vertex_count == expected.vertex_count
    assert got.adjacency == expected.adjacency
    assert got.edge_count == expected.edge_count
    assert hash(got) == hash(expected)


def test_line_graph_matches_oracle_on_random_inputs():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 12), rng.uniform(0.1, 0.9))
        _assert_same_graph(line_graph(g), naive_line_graph(g))


def test_line_graph_equals_the_checked_construction_on_verify_graphs(
    monkeypatch, capsys
):
    # every line graph `verify --a 12` builds, against Graph(n, pairs) with
    # one pair per two edges at a vertex
    from linewiener import analysis, cli, graphs

    built = []
    trusted = graphs.line_graph

    def recorded(g):
        h = trusted(g)
        built.append((g, h))
        return h

    monkeypatch.setattr(graphs, "line_graph", recorded)
    monkeypatch.setattr(analysis, "line_graph", recorded)
    assert cli.main(["verify", "--a", "12"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert len(built) > 300
    for g, h in built:
        incident = [[] for _ in g.adjacency]
        for e, (u, v) in enumerate(g.edges()):
            incident[u].append(e)
            incident[v].append(e)
        pairs = (pair for ids in incident for pair in combinations(ids, 2))
        _assert_same_graph(h, Graph(g.edge_count, pairs))


def test_predicted_line_edge_count():
    rng = random.Random(99)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 12), rng.uniform(0.1, 0.9))
        assert predicted_line_edge_count(g) == line_graph(g).edge_count


def test_iterated_line_graph_basics():
    g = path(6)
    assert iterated_line_graph(g, 0) == g
    assert iterated_line_graph(g, 2) == line_graph(line_graph(g))
    assert iterated_line_graph(g, 5) == path(1)
    with pytest.raises(ValueError):
        iterated_line_graph(g, -1)
    # bad input is a package error, and line_iterates refuses it at the
    # call, before any iterate is asked for
    with pytest.raises(LineWienerError):
        iterated_line_graph(g, -1)
    with pytest.raises(LineWienerError):
        line_iterates(g, -1)
    assert list(line_iterates(g, 0)) == []
    assert list(line_iterates(g, 3)) == [path(5), path(4), path(3)]


def test_iterates_of_short_paths_vanish():
    # L(P_2) is a single vertex, one more application gives the empty graph
    assert iterated_line_graph(path(2), 2) == Graph(0)
    with pytest.raises(EmptyGraphError):
        wiener_index(iterated_line_graph(path(3), 3))


def test_budget_stops_runaway_growth():
    with pytest.raises(BudgetExceededError) as info:
        iterated_line_graph(complete(5), 3, budget=50)
    err = info.value
    # K_5 passes step 1 (10 vertices, 30 edges); L(K_5) is 6-regular on 10
    # vertices, so step 2 predicts 10*C(6,2) = 150 line edges
    assert (err.predicted, err.budget, err.step) == (150, 50, 2)


def test_budget_allows_exact_fit():
    g = complete(5)
    assert iterated_line_graph(g, 1, budget=30).vertex_count == 10


def budget_error(call):
    """(message, predicted, budget, step) of the BudgetExceededError that
    call raises, or None."""
    try:
        call()
    except BudgetExceededError as exc:
        return str(exc), exc.predicted, exc.budget, exc.step
    return None


def test_check_line_budget_matches_iterated_line_graph():
    families = {
        "ua:30": (989, 1018, 1166),
        "spider:7,7,7": (21, 21, 24),
        "qa:2": (7, 8, 14),
        "spider:3,4,5": None,
        "quipu:3;1,2,3": None,
        "star:9": None,
        "path:4": None,
    }
    graphs = []
    for text, sizes in families.items():
        g = build(parse_family(text))
        graphs.append(g)
        if sizes is not None:
            # |V(L)|, |V(L^2)| and |E(L^2)|: the sizes the budget is held to
            l2 = iterated_line_graph(g, 2)
            assert (g.edge_count, l2.vertex_count, l2.edge_count) == sizes, text
    rng = random.Random(5150)
    while len(graphs) < 40:
        g = random_graph(rng, rng.randrange(2, 11), rng.choice((0.3, 0.5, 0.8)))
        if is_connected(g):
            graphs.append(g)
    for g in graphs:
        l1 = line_graph(g)
        sizes = (g.edge_count, l1.edge_count, line_graph(l1).edge_count)
        budgets = set(range(1, 12))
        budgets.update(b for s in sizes for b in (s - 1, s, s + 1) if b >= 1)
        # step i is held to |V| and then |E| of L^i, the sizes just grown
        steps = [(1, sizes[0]), (1, sizes[1]), (2, sizes[1]), (2, sizes[2])]
        for k in (0, 1, 2):
            for budget in sorted(budgets):
                over = [(step, s) for step, s in steps if step <= k and s > budget]
                expected = None
                if over:
                    step, s = over[0]
                    expected = (
                        f"line graph iteration {step} would need {s} vertices, "
                        f"budget is {budget}",
                        s,
                        budget,
                        step,
                    )
                got = budget_error(lambda: iterated_line_graph(g, k, budget))
                assert got == expected, (g, k, budget)
