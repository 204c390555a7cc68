"""Free-tree enumeration and canonical tree codes.

`free_trees(n)` yields one representative per isomorphism class of trees on
n vertices, in a fixed order, using successor rules on preorder level
sequences (the Wright-Richmond-Odlyzko-McKay scheme; rooted successors are
Beyer-Hedetniemi). Cost per tree is amortized constant, which is what makes
order-20-plus sweeps feasible; generating labeled trees and de-duplicating
dies around order 12.

`canonical_code` gives a relabeling-invariant byte encoding (equal codes
iff isomorphic), used to de-duplicate search witnesses and to cross-check
the enumerator against independent generators.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Optional

from .errors import NotATreeError, ParameterError
from .graphs import Graph, _graph_from_sorted_adjacency, is_tree

# A layout is a preorder level sequence: layout[i] is the depth of vertex i,
# and each vertex's parent is the most recent earlier vertex one level up.
# This module is the only reader of the format: other code decodes a layout
# through layout_parents or layout_graph.


def _next_rooted_layout(layout: list[int], p: Optional[int] = None):
    """Successor of a rooted level sequence, or None after the last one."""
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    result = list(layout)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _split_layout(layout: list[int]):
    """First subtree of the root (as its own layout) and the remainder."""
    one_found = False
    m = None
    for i in range(len(layout)):
        if layout[i] == 1:
            if one_found:
                m = i
                break
            one_found = True
    if m is None:
        m = len(layout)
    left = [layout[i] - 1 for i in range(1, m)]
    rest = [0] + [layout[i] for i in range(m, len(layout))]
    return left, rest


def _next_free_layout(candidate: list[int]):
    """Nearest valid free-tree layout at or after `candidate`.

    A rooted layout represents a free tree exactly when the root's first
    subtree is no higher than the rest, with ties broken by size and then
    lexicographically; invalid candidates jump straight past the whole
    invalid block.
    """
    left, rest = _split_layout(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    successor = _next_rooted_layout(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_layout(successor)
        suffix = range(1, max(new_left) + 2)
        successor[-len(suffix):] = suffix
    return successor


def layout_parents(layout: list[int]) -> list[int]:
    """Parent of each vertex of a layout; the root's entry is -1."""
    n = len(layout)
    parent = [-1] * n
    last = [0] * n
    for i in range(1, n):
        level = layout[i]
        parent[i] = last[level - 1]
        last[level] = i
    return parent


def layout_graph(layout: list[int]) -> Graph:
    """The tree of a layout, vertex i at preorder position i."""
    parent = layout_parents(layout)
    adj: list[list[int]] = [[] for _ in parent]
    # increasing i keeps every list sorted: parent first, then children
    for i in range(1, len(parent)):
        p = parent[i]
        adj[p].append(i)
        adj[i].append(p)
    return _graph_from_sorted_adjacency(adj)


def _degree_filter(max_degree, min_max_degree, min_degree3_count):
    """Layout predicate for the degree filters, or None when none is set."""
    if max_degree is None and min_max_degree is None and min_degree3_count is None:
        return None

    def keep(layout: list[int]) -> bool:
        # every vertex but the root has one parent edge
        deg = [1] * len(layout)
        deg[0] = 0
        for p in layout_parents(layout)[1:]:
            deg[p] += 1
        top = max(deg)
        if max_degree is not None and top > max_degree:
            return False
        if min_max_degree is not None and top < min_max_degree:
            return False
        return min_degree3_count is None or deg.count(3) >= min_degree3_count

    return keep


def free_tree_layouts(
    n: int,
    *,
    max_degree: Optional[int] = None,
    min_max_degree: Optional[int] = None,
    min_degree3_count: Optional[int] = None,
    stripe: Optional[tuple[int, int]] = None,
) -> Iterator[list[int]]:
    """Level sequences of all free trees on n vertices, one per class.

    Deterministic: re-running yields the identical sequence. The first
    layout is the path rooted near its center, the last is the star.

    Filters restrict the stream without changing the order of survivors:
    `max_degree` keeps trees with every degree <= the bound,
    `min_max_degree` keeps trees whose largest degree reaches the bound,
    and `min_degree3_count` keeps trees with at least that many vertices
    of degree exactly 3.

    `stripe=(index, step)` yields only trees whose position in the
    unfiltered stream is congruent to index mod step. Stripes are disjoint,
    cover everything, and apply before filtering, so parallel consumers can
    run one stripe each and merge by position.
    """
    index, step = (0, 1) if stripe is None else stripe
    if step < 1 or not 0 <= index < step:
        raise ParameterError(
            f"stripe must be (index, step) with 0 <= index < step, got {stripe}"
        )
    if n < 1:
        raise ParameterError(f"free_tree_layouts needs n >= 1, got {n}")
    keep = _degree_filter(max_degree, min_max_degree, min_degree3_count)
    if n == 1:
        if index == 0 and (keep is None or keep([0])):
            yield [0]
        return
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    pos = 0
    while layout is not None:
        layout = _next_free_layout(layout)
        if pos % step == index and (keep is None or keep(layout)):
            yield layout
        pos += 1
        layout = _next_rooted_layout(layout)


def free_trees(
    n: int,
    *,
    max_degree: Optional[int] = None,
    min_max_degree: Optional[int] = None,
    min_degree3_count: Optional[int] = None,
    stripe: Optional[tuple[int, int]] = None,
) -> Iterator[Graph]:
    """All free trees on n vertices, one per isomorphism class: the
    `free_tree_layouts` stream, with the same filters and stripe, decoded
    into graphs."""
    layouts = free_tree_layouts(
        n,
        max_degree=max_degree,
        min_max_degree=min_max_degree,
        min_degree3_count=min_degree3_count,
        stripe=stripe,
    )
    yield from map(layout_graph, layouts)


# ------------------------------------------------------- canonical codes


def tree_centers(g: Graph) -> list[int]:
    """The one or two middle vertices, found by peeling leaves."""
    if not is_tree(g):
        raise NotATreeError("tree_centers requires a tree")
    n = g.vertex_count
    if n == 1:
        return [0]
    adj = g.adjacency
    deg = [len(nbrs) for nbrs in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def _rooted_code_and_aut(adj, root: int, banned: int) -> tuple[bytes, int]:
    """Canonical code and automorphism count of the subtree hanging from
    `root`, not crossing the `banned` neighbor (-1 to take the whole tree).

    Iterative on purpose: near-path trees would blow the recursion limit.
    """
    parent = [-2] * len(adj)
    parent[root] = banned
    order = [root]
    for v in order:
        pv = parent[v]
        for u in adj[v]:
            if u != pv:
                parent[u] = v
                order.append(u)
    code: list[bytes] = [b""] * len(adj)
    aut = 1
    for v in reversed(order):
        pv = parent[v]
        kids = sorted(code[u] for u in adj[v] if u != pv)
        run = 0
        prev = None
        for k in kids:
            if k == prev:
                run += 1
            else:
                aut *= factorial(run)
                prev = k
                run = 1
        aut *= factorial(run)
        code[v] = b"(" + b"".join(kids) + b")"
    return code[root], aut


def _code_and_aut(g: Graph) -> tuple[bytes, int]:
    """Canonical code and automorphism count of a tree, from its center."""
    centers = tree_centers(g)
    adj = g.adjacency
    if len(centers) == 1:
        return _rooted_code_and_aut(adj, centers[0], -1)
    c1, c2 = centers
    code1, aut1 = _rooted_code_and_aut(adj, c1, c2)
    code2, aut2 = _rooted_code_and_aut(adj, c2, c1)
    swap = 2 if code1 == code2 else 1
    return min(code1, code2) + max(code1, code2), aut1 * aut2 * swap


def canonical_code(g: Graph) -> bytes:
    """Relabeling-invariant encoding of a tree; equal iff isomorphic.

    Balanced parentheses of the tree rooted at its center, 2n bytes. A
    bicentral tree concatenates its two half codes in sorted order; that
    cannot collide with a centered tree's code, which is a single balanced
    unit.
    """
    return _code_and_aut(g)[0]


def automorphism_group_order(g: Graph) -> int:
    """|Aut(T)|, from multiplicities of identical child subtrees.

    Every automorphism fixes the center (or the central edge), so the
    count is the product over vertices of the factorials of repeated
    child-code multiplicities, doubled for a bicentral tree whose halves
    are isomorphic (the swap).
    """
    return _code_and_aut(g)[1]
