"""Simple undirected graphs, the line-graph operator, and exact Wiener indices.

Graphs are immutable adjacency-list values with 0-based vertex indices and
sorted neighbor tuples. All arithmetic uses Python integers, so Wiener sums
never wrap no matter how large the graph gets.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    BudgetExceededError,
    CrossCheckError,
    DisconnectedGraphError,
    EmptyGraphError,
    GraphFormatError,
    ParameterError,
)

#: Vertex budget applied by iterated_line_graph when none is given. Line
#: graphs of dense graphs grow fast (L^2(K_n) is already Theta(n^3) vertices),
#: so unbounded iteration can exhaust memory before any useful output.
DEFAULT_BUDGET = 10**6

# Sources per sweep of wiener_index. A sweep holds two lists of n ints of
# this many bits and one small tuple per vertex, its row, so memory grows as
# n rather than n^2; graphs of up to this order, L^2(U_a) for a <= 62 among
# them, take a single sweep.
_SWEEP_SOURCES = 4096


class Graph:
    """Immutable simple undirected graph.

    `vertex_count` is the number of vertices; `adjacency` holds one sorted
    tuple of neighbor indices per vertex. Construction normalizes the edge
    list (orientation and duplicates), so two graphs built from the same edge
    set compare equal.
    """

    __slots__ = ("vertex_count", "adjacency", "edge_count")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphFormatError(
                    f"edge ({u}, {v}) references a vertex >= {vertex_count}"
                )
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "adjacency", tuple(tuple(nbrs) for nbrs in adj))
        object.__setattr__(self, "edge_count", len(seen))

    @classmethod
    def _trusted(
        cls, vertex_count: int, adjacency: tuple[tuple[int, ...], ...], edge_count: int
    ) -> Graph:
        """A graph from sorted neighbor tuples its maker vouches for, with no
        range check, de-duplication or sort."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "adjacency", adjacency)
        object.__setattr__(g, "edge_count", edge_count)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, edges={self.edge_count})"


def degree_sequence(g: Graph) -> list[int]:
    """Vertex degrees in ascending order."""
    return sorted(len(nbrs) for nbrs in g.adjacency)


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0. Empty graphs are
    reported not connected."""
    n = g.vertex_count
    if n == 0:
        return False
    adj = g.adjacency
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def is_tree(g: Graph) -> bool:
    """Connected with exactly n-1 edges."""
    return g.edge_count == g.vertex_count - 1 and is_connected(g)


def wiener_index(g: Graph) -> int:
    """Exact Wiener index: sum of d(u, v) over unordered vertex pairs,
    computed by level-synchronous sweeps that serve many sources at once.

    A sweep takes a block S of up to 4096 sources. ``reach[v]`` is a bitset
    of the sources in S within distance d of v. Round d adds |S| - |reach[v]|,
    the sources still farther than d from v, for each v; summed over all
    rounds, each pair (s, v) is counted d(s, v) times. Round 0 is the closed
    form n|S| - |S|: each source reaches only itself. Round 1 ORs each
    source's own bit into its neighbors' reaches, in place, and then visits
    every vertex once for its term.

    From round 2 on, v's reach is the union of its neighbors' reaches alone.
    This is exact for d >= 1: v lies within d of each neighbor, and any other
    source within d + 1 of v lies within d of the neighbor that starts a
    shortest path to it. A round visits the vertices whose reach is not yet
    full, kept as rows split by degree, each class in its own loop:
    (v, a, c) for degree 2 costs one OR, (v, a) for a leaf none, and
    (v, nbrs) for any other degree one OR per neighbor. The new reach goes
    to a copy, so that no round-d reach is overwritten while it is still
    read. Each visit takes one popcount, which gives v's term and tells
    whether v is full; a row is kept for the next round only while it is
    not. A round costs at most 2m ORs of |S|-bit ints, so a graph of
    diameter D costs about D * 2m of them per block: far below one BFS per
    vertex when D << n, and worst on paths. Memory stays at two lists of n
    such ints and one small row per vertex.

    Raises EmptyGraphError for 0 vertices and DisconnectedGraphError when any
    distance is infinite; neither case has a defined value here. A block
    still open after n rounds, more than any connected graph needs, raises
    CrossCheckError instead of looping forever.
    """
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("Wiener index of the empty graph is undefined")
    if not is_connected(g):
        raise DisconnectedGraphError(
            "Wiener index is undefined for disconnected graphs"
        )
    adj = g.adjacency
    chains, leaves, hubs = [], [], []
    for v, nbrs in enumerate(adj):
        if len(nbrs) == 2:
            chains.append((v, *nbrs))
        elif len(nbrs) == 1:
            leaves.append((v, *nbrs))
        else:
            hubs.append((v, nbrs))
    total = 0
    for first in range(0, n, _SWEEP_SOURCES):
        width = min(_SWEEP_SOURCES, n - first)
        reach = [0] * n
        for i in range(width):
            reach[first + i] |= 1 << i
            for u in adj[first + i]:
                reach[u] |= 1 << i
        total += n * width - width
        # round 1's visits: the term of each vertex, and the rows still open
        chain, leaf, hub = rows = [], [], []
        for kept, every in zip(rows, (chains, leaves, hubs)):
            for row in every:
                k = width - reach[row[0]].bit_count()
                if k:
                    total += k
                    kept.append(row)
        # connected, so every reach fills within D < n rounds
        rounds = 1
        while chain or leaf or hub:
            rounds += 1
            if rounds > n:
                raise CrossCheckError(
                    f"Wiener sweep of {g!r} still open after {n} rounds"
                )
            grown = reach[:]
            rows, chain = chain, []
            for row in rows:
                v, a, c = row
                b = reach[a] | reach[c]
                grown[v] = b
                k = width - b.bit_count()
                if k:
                    total += k
                    chain.append(row)
            rows, leaf = leaf, []
            for row in rows:
                v, a = row
                b = reach[a]
                grown[v] = b
                k = width - b.bit_count()
                if k:
                    total += k
                    leaf.append(row)
            rows, hub = hub, []
            for row in rows:
                v, nbrs = row
                b = 0
                for u in nbrs:
                    b |= reach[u]
                grown[v] = b
                k = width - b.bit_count()
                if k:
                    total += k
                    hub.append(row)
            reach = grown
    return total // 2


def line_graph(g: Graph) -> Graph:
    """Line graph L(g): one vertex per edge of g, ordered lexicographically
    by endpoint pair; vertices adjacent iff the edges share an endpoint.

    The empty graph and edgeless graphs map to the empty graph. The
    neighbors of edge e = uv are the edges at u and at v other than e; two
    edges of a simple graph share at most one endpoint, so merging the two
    sorted lists of incident edges and dropping e's two copies gives e's
    sorted neighbor tuple with no repeats, and L(g) needs none of the
    general constructor's checks.
    """
    ends = list(g.edges())
    incident: list[list[int]] = [[] for _ in g.adjacency]
    for e, (u, v) in enumerate(ends):
        incident[u].append(e)
        incident[v].append(e)
    adjacency = []
    for e, (u, v) in enumerate(ends):
        nbrs = incident[u] + incident[v]
        nbrs.sort()
        nbrs.remove(e)
        nbrs.remove(e)
        adjacency.append(tuple(nbrs))
    return Graph._trusted(len(ends), tuple(adjacency), predicted_line_edge_count(g))


def predicted_line_edge_count(g: Graph) -> int:
    """Number of edges L(g) will have: sum over vertices of C(deg, 2).

    This is also the vertex count of L(L(g)), the quantity that blows up
    under iteration.
    """
    return sum(d * (d - 1) // 2 for d in map(len, g.adjacency))


def check_step_size(predicted: int, step: int, budget: int) -> None:
    """Raise BudgetExceededError if line graph iteration `step` would need
    `predicted` vertices or edges, more than `budget`. line_iterates holds
    every step it grows to this rule; a caller that knows a step's size
    without a build holds it to the same one."""
    if predicted > budget:
        raise BudgetExceededError(predicted, budget, step)


def line_iterates(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> Iterator[Graph]:
    """L(g), ..., L^k(g), each the line graph of the one before. Before
    line_graph builds step i, counted from g, the step's size must pass
    `budget` (check_step_size): first its vertices, the edges of the graph
    before, then its edges, sum C(deg, 2) over that graph. An overrun
    raises BudgetExceededError in place of a runaway allocation; this is
    the one rule every iterate is grown by. `k` is checked at the call."""
    if k < 0:
        raise ParameterError(f"k must be nonnegative, got {k}")
    return _grow(g, k, budget)


def _grow(g: Graph, k: int, budget: int) -> Iterator[Graph]:
    for step in range(1, k + 1):
        check_step_size(g.edge_count, step, budget)
        check_step_size(predicted_line_edge_count(g), step, budget)
        g = line_graph(g)
        yield g


def iterated_line_graph(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> Graph:
    """k-fold line graph L^k(g), the last of line_iterates(g, k, budget);
    k = 0 returns g unchanged."""
    for g in line_iterates(g, k, budget):
        pass
    return g
