"""Simple undirected graphs, the line-graph operator, and exact Wiener indices.

Graphs are immutable adjacency-list values with 0-based vertex indices and
sorted neighbor tuples. All arithmetic uses Python integers, so Wiener sums
never wrap no matter how large the graph gets.

wiener_index sums distances across bridges exactly and runs BFS sweeps only
inside the 2-edge-connected pieces that cutting every bridge leaves. A
bridge with s vertices on one side lies on the shortest path of exactly the
s(n - s) pairs it separates, and on no other; a pair's path crosses a piece
from the vertex where one end enters it to the vertex where the other does.
So with w_v the number of vertices that enter v's piece at v,

    W(G) = sum over bridges of s(n - s)
         + sum over pieces of sum_{u < v} w_u w_v d(u, v),

which for a tree is the bridge sum alone. Most graphs this package measures
are trees or close to one, L^2 of a tree among them, so almost all of their
distance is summed in closed form over long bridges.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Sequence

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

# Source copies per block of a wiener_index sweep. A sweep runs over the
# whole graph when it has no bridge, and else over each piece, where a
# source of weight w counts as w copies of one bit each, and every piece
# holds as many copies as the graph has vertices. A block holds two lists of
# one int of this many bits per swept vertex and one small tuple per vertex,
# its row, so memory grows as n rather than n^2; graphs of up to this order,
# L^2(U_a) for a <= 62 among them, take one block per sweep.
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
    """Exact Wiener index: sum of d(u, v) over unordered vertex pairs.

    A bridge is an edge whose removal disconnects the graph; cutting every
    bridge leaves the 2-edge-connected pieces. Give each vertex v of a
    piece the weight w_v: v itself plus every vertex beyond a bridge at v.
    Then, with s and n - s the vertex counts on a bridge's two sides,

        W(G) = sum over bridges of s(n - s)
             + sum over pieces P of sum_{u < v in P} w_u w_v d(u, v).

    Proof: the bridges join the pieces in a tree, since a cycle of them
    would put each on a cycle. So a path from x to y crosses every bridge
    on the tree path between their pieces, and a shortest one crosses each
    of those once and no other bridge: a path that left a piece over a
    bridge would have to come back over it. The s(n - s) pairs a bridge
    separates make the first sum. Inside each piece P it crosses, a
    shortest x-y path runs, by a shortest path of P, from the vertex where
    x's side enters P to the vertex where y's side does, and the entry
    vertex of x is x itself or the end in P of the bridge that leads
    towards x; so the pairs entering P at u and v number w_u w_v and each
    spends d(u, v) steps in P, none when u = v. That is the second sum. A
    tree has no piece of two or more vertices, so W(T) is the bridge sum
    alone.

    One breadth-first pass from vertex 0 checks connectivity and marks the
    loose vertices: those whose neighbors, but for the parent, are all
    their own children. Every bridge is the parent edge of a loose vertex:
    any other neighbor of c was reached before c's scan, so lies outside
    c's subtree and closes a cycle through c's parent edge. A graph with no
    loose vertex
    has no bridge, and _piece_sweep sweeps it whole with every weight 1. A
    graph whose every vertex but 0 is loose is a tree, its own BFS tree,
    and W is the sum of s(n - s) over its edges. Any other graph goes to
    _bridges, which tests the loose vertices' parent edges and sweeps each
    piece.

    Raises EmptyGraphError for 0 vertices and DisconnectedGraphError when any
    distance is infinite; neither case has a defined value here. A sweep
    still open after more rounds than any connected graph needs raises
    CrossCheckError instead of looping forever.
    """
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("Wiener index of the empty graph is undefined")
    adj = g.adjacency
    seen = [False] * n
    seen[0] = True
    parent = [0] * n
    queue = [0]
    loose = []
    for u in queue:
        nbrs = adj[u]
        # the neighbors reached before u's scan, its parent among them
        before = len(nbrs) + len(queue)
        for v in nbrs:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
        if before - len(queue) < 2 and u:
            loose.append(u)
    if len(queue) < n:
        raise DisconnectedGraphError(
            "Wiener index is undefined for disconnected graphs"
        )
    if not loose:
        return _piece_sweep(adj, [1] * n) // 2
    if len(loose) == n - 1:
        size = [1] * n
        total = 0
        for v in reversed(queue[1:]):
            s = size[v]
            size[parent[v]] += s
            total += s * (n - s)
        return total
    return _bridges(adj, queue, parent, loose)


def _bridges(
    adj: tuple[tuple[int, ...], ...],
    order: list[int],
    parent: list[int],
    loose: list[int],
) -> int:
    """W of a connected graph by its bridges and pieces, as wiener_index
    states it, from the BFS order, BFS tree and loose vertices that
    wiener_index found.

    The parent edge of a loose vertex c is a bridge exactly when no other
    edge leaves c's subtree, whose s = sub[c] vertices are then the bridge's
    far side; it adds s(n - s) to W, s to w_p and n - s to w_c. The
    vertices in the subtrees of loose vertices are numbered in a preorder
    of those subtrees, and every other vertex takes -1, so each subtree is
    an interval of numbers and an edge leaves c's subtree exactly when the
    number of its far end lies outside c's. A loose vertex's edges, to its
    parent and its children, stay inside the subtree of every loose vertex
    above it, so only the other vertices in those subtrees read their
    neighbors' numbers, each by one min and one max; the least and greatest
    number each subtree meets are gathered up the tree in reverse BFS
    order. A vertex in no such subtree is never read, so a few pendant
    vertices on a dense graph cost passes over its vertices, not its edges.

    A vertex lies in its parent's piece unless its parent edge is a bridge,
    and each piece of two or more vertices is swept on its own. A vertex of
    weight 1 meets no bridge, so all its neighbors are in its piece; a
    renumbered piece keeps only those at a heavier one. A piece of more
    than half the vertices keeps the graph's numbering, every vertex
    outside it of weight 0 (_piece_sweep says why that is exact), which
    spares renumbering most of the edges; any other is renumbered, its
    members in ascending order. With no bridge found, the graph is swept
    whole.
    """
    n = len(adj)
    # 2: loose; 1: in a loose vertex's subtree; 0: in none
    kind = [0] * n
    for v in loose:
        kind[v] = 2
    kids: dict[int, list[int]] = {}
    stack = []
    for v in order:
        if kind[v]:
            p = parent[v]
            if kind[p]:
                kids.setdefault(p, []).append(v)
            else:
                stack.append(v)
        elif kind[parent[v]]:
            kind[v] = 1
            kids.setdefault(parent[v], []).append(v)
    number = [-1] * n
    count = 0
    while stack:
        v = stack.pop()
        number[v] = count
        count += 1
        stack += kids.get(v, ())
    low = number[:]
    high = number[:]
    at = number.__getitem__
    for v in order:
        if kind[v] == 1:
            low[v] = min(map(at, adj[v]))
            high[v] = max(map(at, adj[v]))
    sub = [1] * n
    for v in reversed(order):
        if kind[v]:
            p = parent[v]
            sub[p] += sub[v]
            if low[v] < low[p]:
                low[p] = low[v]
            if high[v] > high[p]:
                high[p] = high[v]
    weight = [1] * n
    cut = [False] * n
    total = 0
    for c in loose:
        s = sub[c]
        if low[c] >= number[c] and high[c] < number[c] + s:
            cut[c] = True
            total += s * (n - s)
            weight[parent[c]] += s
            weight[c] += n - s
    if not total:
        return _piece_sweep(adj, [1] * n) // 2
    top = list(range(n))
    for v in order[1:]:
        if not cut[v]:
            top[v] = top[parent[v]]
    pieces: dict[int, list[int]] = {}
    for v in range(n):
        pieces.setdefault(top[v], []).append(v)
    rank = [0] * n
    twice = 0
    for head, members in pieces.items():
        if 2 * len(members) > n:
            # the largest piece keeps the graph's numbering, every vertex
            # outside it of weight 0
            inside = [0] * n
            for v in members:
                inside[v] = weight[v]
            twice += _piece_sweep(adj, inside)
        elif len(members) > 1:
            for i, v in enumerate(members):
                rank[v] = i
            rows = [
                tuple(map(rank.__getitem__, adj[v]))
                if weight[v] == 1
                else tuple(rank[u] for u in adj[v] if top[u] == head)
                for v in members
            ]
            twice += _piece_sweep(rows, [weight[v] for v in members])
    return total + twice // 2


def _piece_sweep(adj: Sequence[tuple[int, ...]], weights: list[int]) -> int:
    """Sum of w_u w_v d(u, v) over ordered vertex pairs of a connected
    graph, by bitset BFS from all its vertices at once: twice its W when
    every weight is 1. A vertex of weight 0 is no source and is never
    visited, so its reach holds at most the runs that round 1 ORs into it,
    those of its neighbors. A vertex outside a 2-edge-connected piece has
    at most one neighbor in it, across a bridge, which reads back only its
    own run; so a piece can be swept in its graph's numbering, with weight
    0 outside it.

    Source s stands for w_s copies of itself, one bit each, laid in runs
    end to end from source 0 and cut into blocks of up to 4096 copies, so a
    run may span blocks. ``reach[v]`` is a bitset of the block's copies
    whose source lies within distance d of v. Round d adds w_v times the
    copies still farther than d from v, for each v; summed over all rounds,
    each pair (s, v) is counted w_s w_v d(s, v) times. Round 0 is the
    closed form: a copy reaches only its own source. Round 1 ORs each run
    into its source's reach and its neighbors', in place, and then visits
    every vertex once for its term.

    From round 2 on, v's reach is the union of its neighbors' reaches alone.
    This is exact for d >= 1: v lies within d of each neighbor, and any other
    source within d + 1 of v lies within d of the neighbor that starts a
    shortest path to it. A round visits the vertices whose reach is not yet
    full, kept as rows in three classes, each in its own loop: of weight 1,
    (v, a, c) for degree 2 costs one OR and (v, nbrs) for any other degree
    one OR per neighbor; (v, nbrs, w_v) for a heavier vertex, which meets
    a bridge and so is rare, costs that and one multiply. The new reach
    goes to a copy, so that
    no round-d reach is overwritten while it is still read. Each visit takes
    one popcount, which gives v's term and tells whether v is full; a row is
    kept for the next round only while it is not. A round costs at most 2m
    ORs of block-wide ints, so a graph of diameter D costs about D * 2m of
    them per block. Memory stays at two lists of n such ints and one small
    row per vertex.

    The pieces of a graph of order n weigh n each, so a piece's reaches
    are no wider than a sweep of the whole graph, and it visits only its
    own vertices. A block still open after n rounds, more than any
    connected graph of order n needs, raises CrossCheckError.
    """
    n = len(adj)
    chains, hubs, heavy = [], [], []
    for v, nbrs in enumerate(adj):
        if weights[v] != 1:
            if weights[v]:
                heavy.append((v, nbrs, weights[v]))
        elif len(nbrs) == 2:
            chains.append((v, *nbrs))
        else:
            hubs.append((v, nbrs))
    # source s holds copies ends[s] - weights[s] .. ends[s] - 1
    ends = list(accumulate(weights))
    whole = ends[-1]
    total = 0
    s = 0
    for first in range(0, whole, _SWEEP_SOURCES):
        last = min(first + _SWEEP_SOURCES, whole)
        width = last - first
        reach = [0] * n
        total += whole * width
        # the runs that meet the block, as round 1 reaches them; round 0
        # leaves out each copy's own source
        while s < n:
            lo = ends[s] - weights[s]
            if lo >= last:
                break
            hi = ends[s]
            if lo < first:
                lo = first
            if hi > last:
                hi = last
            run = ((1 << hi - lo) - 1) << lo - first
            reach[s] |= run
            for u in adj[s]:
                reach[u] |= run
            total -= weights[s] * (hi - lo)
            if hi < ends[s]:
                # s runs on into the next block
                break
            s += 1
        # round 1's visits: the term of each vertex, and the rows still open
        chain, hub, held = rows = [], [], []
        for kept, every in zip(rows, (chains, hubs)):
            for row in every:
                k = width - reach[row[0]].bit_count()
                if k:
                    total += k
                    kept.append(row)
        for row in heavy:
            k = width - reach[row[0]].bit_count()
            if k:
                total += row[2] * k
                held.append(row)
        # connected, so every reach fills within D < n rounds
        rounds = 1
        while chain or hub or held:
            rounds += 1
            if rounds > n:
                size = len(chains) + len(hubs) + len(heavy)
                raise CrossCheckError(
                    f"Wiener sweep of a {size}-vertex piece still open after {n} rounds"
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
            rows, held = held, []
            for row in rows:
                v, nbrs, w = row
                b = 0
                for u in nbrs:
                    b |= reach[u]
                grown[v] = b
                k = width - b.bit_count()
                if k:
                    total += w * k
                    held.append(row)
            reach = grown
    return total


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
