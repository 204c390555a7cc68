"""Simple undirected graphs, the line-graph operator, and exact Wiener indices.

Graphs are immutable adjacency-list values with 0-based vertex indices and
sorted neighbor tuples. All arithmetic uses Python integers, so Wiener sums
never wrap no matter how large the graph gets.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    EmptyGraphError,
    GraphFormatError,
)

#: Vertex budget applied by iterated_line_graph when none is given. Line
#: graphs of dense graphs grow fast (L^2(K_n) is already Theta(n^3) vertices),
#: so unbounded iteration can exhaust memory before any useful output.
DEFAULT_BUDGET = 10**6


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
    computed by breadth-first search from every vertex.

    Raises EmptyGraphError for 0 vertices and DisconnectedGraphError when any
    distance is infinite; neither case has a defined value here.
    """
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("Wiener index of the empty graph is undefined")
    adj = g.adjacency
    total = 0
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = [src]
        push = queue.append
        acc = 0
        # queue grows while being iterated; Python list iterators follow it
        for u in queue:
            d = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = d
                    acc += d
                    push(v)
        if src == 0 and len(queue) != n:
            raise DisconnectedGraphError(
                "Wiener index is undefined for disconnected graphs"
            )
        total += acc
    return total // 2


def _graph_from_sorted_adjacency(adj: list[list[int]]) -> Graph:
    # bypass edge normalization; adj is already symmetric, sorted, loop-free
    g = object.__new__(Graph)
    object.__setattr__(g, "vertex_count", len(adj))
    object.__setattr__(g, "adjacency", tuple(tuple(nbrs) for nbrs in adj))
    object.__setattr__(g, "edge_count", sum(len(nbrs) for nbrs in adj) // 2)
    return g


def line_graph(g: Graph) -> Graph:
    """Line graph L(g): one vertex per edge of g, ordered lexicographically
    by endpoint pair; vertices adjacent iff the edges share an endpoint.

    The empty graph and edgeless graphs map to the empty graph. Edges
    sharing an endpoint form cliques; every adjacent pair shares exactly one
    endpoint in a simple graph, so each line-graph edge is generated once.
    """
    adj = g.adjacency
    n = len(adj)
    incident: list[list[int]] = [[] for _ in range(n)]
    m = 0
    for u in range(n):
        iu = incident[u]
        for v in adj[u]:
            if v > u:
                iu.append(m)
                incident[v].append(m)
                m += 1
    ladj: list[list[int]] = [[] for _ in range(m)]
    for ids in incident:
        k = len(ids)
        for x in range(k - 1):
            a = ids[x]
            la = ladj[a]
            for y in range(x + 1, k):
                b = ids[y]
                la.append(b)
                ladj[b].append(a)
    for nbrs in ladj:
        nbrs.sort()
    return _graph_from_sorted_adjacency(ladj)


def predicted_line_edge_count(g: Graph) -> int:
    """Number of edges L(g) will have: sum over vertices of C(deg, 2).

    This is also the vertex count of L(L(g)), the quantity that blows up
    under iteration.
    """
    return sum(d * (d - 1) // 2 for d in map(len, g.adjacency))


def iterated_line_graph(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> Graph:
    """k-fold line graph L^k(g); k = 0 returns g unchanged.

    Before each application the predicted size of the result is checked
    against `budget` (a vertex limit): the result has |E(g)| vertices and
    sum C(deg, 2) edges, and the latter is the vertex count one application
    later. Exceeding either raises BudgetExceededError rather than
    attempting a runaway allocation.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    current = g
    for step in range(1, k + 1):
        predicted_vertices = current.edge_count
        predicted_edges = predicted_line_edge_count(current)
        if predicted_vertices > budget:
            raise BudgetExceededError(predicted_vertices, budget, step)
        if predicted_edges > budget:
            raise BudgetExceededError(predicted_edges, budget, step)
        current = line_graph(current)
    return current
