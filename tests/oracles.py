"""Slow reference implementations the test suite trusts over the package.

Everything here favors obviousness over speed: dict adjacency, quadratic
scans, permutation brute force. When these disagree with the package, the
package is wrong.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Iterator

from linewiener import Graph
from linewiener.enumeration import layout_parents


def naive_wiener(g: Graph) -> int:
    """Sum of BFS distances over unordered pairs; -1 if disconnected."""
    n = g.vertex_count
    total = 0
    for source in range(n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != n:
            return -1
        total += sum(dist.values())
    return total // 2


def naive_line_graph(g: Graph) -> Graph:
    """Line graph straight from the definition, one edge pair at a time.

    Vertex i of the result is the i-th edge of g in lexicographic order,
    the same labeling the package promises.
    """
    edges = list(g.edges())
    adjacent = []
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a == c or a == d or b == c or b == d:
                adjacent.append((i, j))
    return Graph(len(edges), adjacent)


def prufer_tree(seq: tuple[int, ...], n: int) -> Graph:
    """Labeled tree on range(n) decoded from a Prufer sequence."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def all_labeled_trees(n: int) -> Iterator[Graph]:
    """Every labeled tree on range(n), one per Prufer sequence (n >= 2)."""
    if n == 1:
        yield Graph(1, [])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_tree(seq, n)


def isomorphism_count(g: Graph, h: Graph) -> int:
    """Number of adjacency-preserving bijections from g onto h."""
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return 0
    n = g.vertex_count
    h_edges = {frozenset(e) for e in h.edges()}
    g_edges = [frozenset(e) for e in g.edges()]
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(frozenset((perm[u], perm[v])) in h_edges for u, v in g_edges):
            count += 1
    return count


def random_tree(rng, n: int) -> Graph:
    """Uniform random labeled tree via a random Prufer sequence."""
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    return prufer_tree(seq, n)


def level_sequence(g: Graph, root: int = 0) -> list[int]:
    """Depth of each vertex of a tree, in the order a depth-first walk
    from `root` first reaches it: a preorder level sequence, the layout
    format the package's tree kernels read."""
    depth = {root: 0}
    out = []
    stack = [root]
    while stack:
        u = stack.pop()
        out.append(depth[u])
        for v in g.neighbors(u):
            if v not in depth:
                depth[v] = depth[u] + 1
                stack.append(v)
    return out


def parent_array_wiener(layout: list[int]) -> int:
    """W of a layout's tree from its decoded parent array: each edge
    contributes size * (n - size), with size the vertex count below it."""
    parent = layout_parents(layout)
    n = len(parent)
    size = [1] * n
    total = 0
    for i in range(n - 1, 0, -1):
        s = size[i]
        size[parent[i]] += s
        total += s * (n - s)
    return total


def parent_array_wiener2(layout: list[int]) -> int:
    """W(L^2) of a layout's tree from its decoded parent array, by the
    wedge formula sum over edges e of A_e * (S - A_e) + S * (S - n + 2):
    vertex v carries w_v = C(deg v, 2) wedges, S is their sum and A_e the
    sum of w below edge e."""
    parent = layout_parents(layout)
    n = len(parent)
    deg = [1] * n
    deg[0] = 0
    for i in range(1, n):
        deg[parent[i]] += 1
    below = [d * (d - 1) >> 1 for d in deg]
    s = sum(below)
    total = s * (s - n + 2)
    for i in range(n - 1, 0, -1):
        a = below[i]
        below[parent[i]] += a
        total += a * (s - a)
    return total


def random_graph(rng, n: int, p: float) -> Graph:
    """Erdos-Renyi graph, possibly disconnected."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)
