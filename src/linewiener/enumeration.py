"""Free-tree enumeration and canonical tree codes.

`free_trees(n)` yields one representative per isomorphism class of trees on
n vertices, in a fixed order, using successor rules on preorder level
sequences (the Wright-Richmond-Odlyzko-McKay scheme; rooted successors are
Beyer-Hedetniemi). Each step does O(n) list work: the successor is a
slice of the layout plus a repeated slice, and the free-tree test reads the
root's first subtree with one index and two max calls. These are C-level
list operations, so a step costs a few microseconds up to order 20. Only
one layout per class is ever built; generating labeled trees and
de-duplicating dies around order 12. The stream serves `enumerate` and
the tests: the exhaustive sweeps of `analysis` read their own table of
rooted forests instead.

One walker takes every stream, one layout per step, and has one skip
rule: the run of layouts that share a prefix is left in one step. A
degree filter names such a prefix once it rules out every layout sharing
it (a vertex's degree above a bound, or too much degree waste to leave
room for the required degree-3 vertices). A stream is sharded by slicing
its output by position, as in
`linewiener enumerate --n 22 | awk '(NR-1) % 8 == 3'`.

`canonical_code` gives a relabeling-invariant byte encoding (equal codes
iff isomorphic), used to de-duplicate search witnesses and to cross-check
the enumerator against independent generators.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Optional

from .errors import NotATreeError, ParameterError
from .graphs import Graph, is_tree

# A layout is a preorder level sequence: layout[i] is the depth of vertex i,
# and each vertex's parent is the most recent earlier vertex one level up.
# Outside this module a layout is decoded through layout_parents or
# layout_graph, except by the kernels of _fast that read the levels
# directly: the two O(n) ones and the lane BFS, which decodes a whole
# chunk of layouts at once.


def _next_rooted_layout(layout: list[int], p: int):
    """Successor of a rooted level sequence from pivot p, or None after
    the last one: the walk passes the last level above 1 (0 if none), the
    free-tree step an earlier one to leave an invalid block."""
    n = len(layout)
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    # the new suffix from p repeats layout[q:p]
    reps = (n - q) // (p - q)
    return layout[:p] + (layout[q:p] * reps)[: n - p]


def _first_subtree_end(layout: list[int]) -> int:
    """Index of the root's second child, or len(layout) if it has only one."""
    try:
        return layout.index(1, 2)
    except ValueError:
        return len(layout)


def _next_free_layout(candidate: list[int]):
    """Nearest valid free-tree layout at or after `candidate`.

    A rooted layout represents a free tree exactly when the root's first
    subtree (candidate[1:m], one level shallower as a layout of its own)
    is no higher than the rest (the root and candidate[m:]), with ties
    broken by size and then lexicographically; invalid candidates jump
    straight past the whole invalid block.
    """
    n = len(candidate)
    m = _first_subtree_end(candidate)
    left_height = max(candidate[1:m]) - 1
    rest_height = max(candidate[m:]) if m < n else 0
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if m - 1 > n - m + 1:
            valid = False
        elif m - 1 == n - m + 1:
            left = [level - 1 for level in candidate[1:m]]
            valid = left <= [0] + candidate[m:]
    if valid:
        return candidate
    successor = _next_rooted_layout(candidate, m - 1)
    if candidate[m - 1] > 2:
        top = max(successor[1:_first_subtree_end(successor)])
        successor[n - top:] = range(1, top + 1)
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
    return Graph(len(parent), ((parent[i], i) for i in range(1, len(parent))))


def _degree_filter(
    n: int,
    max_degree: Optional[int] = None,
    min_max_degree: Optional[int] = None,
    min_degree3_count: Optional[int] = None,
):
    """cut(layout) for the degree filters on trees of order n, or None.

    cut returns 0 when the layout's tree passes. Otherwise it returns a
    prefix length j such that every layout sharing layout[:j] fails; j = n
    condemns this layout alone. It is None when no filter is set.

    A vertex is closed once a later vertex sits at its level or shallower:
    from then on it has the same degree in every layout sharing the prefix.
    An open vertex's degree can only grow. So a prefix fails as soon as a
    degree exceeds `max_degree`, or as soon as the degree-3 budget is spent:
    n = 2 + 2 n_3 + waste, where waste sums d - 1 over every degree d other
    than 3, so n_3 >= t leaves at most n - 2 - 2t of waste. A prefix commits
    to the waste of its closed vertices and of its open vertices of degree
    4 or more; an open vertex of degree 1 or 2 may still reach 3.
    """
    if max_degree is None and min_max_degree is None and min_degree3_count is None:
        return None
    most = n if max_degree is None else max_degree
    least = 0 if min_max_degree is None else min_max_degree
    need3 = 0 if min_degree3_count is None else min_degree3_count
    budget = n - 2 - 2 * need3

    def cut(layout: list[int]) -> int:
        # layout_parents' decode, counting each parent edge as it is found;
        # last[0..depth] are the open vertices, one per level
        deg = [1] * n
        deg[0] = 0
        last = [0] * n
        depth = 0
        waste = 0
        for i in range(1, n):
            level = layout[i]
            if level <= depth:
                for v in last[level : depth + 1]:
                    if deg[v] == 2:
                        waste += 1
            parent = last[level - 1]
            d = deg[parent] + 1
            deg[parent] = d
            if d > 3:
                waste += 1 if d > 4 else 3
            if d > most or waste > budget:
                return i + 1
            last[level] = i
            depth = level
        top = max(deg)
        if top > most or top < least or deg.count(3) < need3:
            return n
        return 0

    return cut


def _path_layout(n: int) -> list[int]:
    """The path rooted near its center: the stream's first layout."""
    return list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))


def _walk(n: int, cut) -> Iterator[list[int]]:
    """The layouts of the free-tree stream that `cut` passes.

    The walk takes one layout per step and has one skip rule: when `cut`
    rules out the prefix layout[:j], the whole run of layouts that share
    it is left in one step, from the rooted successor of layout[:j] +
    [1, ...]. Without `cut` every layout passes. The free step may jump
    to an invalid layout, so a layout is walked only once it is its own
    free successor.
    """
    if n == 1:
        # no prefix for cut to rule out before the lone vertex
        if not (cut and cut([0])):
            yield [0]
        return
    candidate = _path_layout(n)
    while candidate is not None:
        layout = _next_free_layout(candidate)
        if layout is not candidate:
            candidate = layout
            continue
        j = cut(layout) if cut else 0
        if j:
            layout = layout[:j] + [1] * (n - j)
        else:
            yield layout
        p = n - 1
        while layout[p] == 1:
            p -= 1
        candidate = _next_rooted_layout(layout, p)


def check_degree_bounds(
    max_degree: Optional[int],
    min_max_degree: Optional[int],
    min_degree3_count: Optional[int],
) -> None:
    """Raise ParameterError, naming the keyword, for a negative degree
    bound: it would describe an empty or unfiltered class while a report
    named it as a filter."""
    bounds = {
        "max_degree": max_degree,
        "min_max_degree": min_max_degree,
        "min_degree3_count": min_degree3_count,
    }
    for name, value in bounds.items():
        if value is not None and value < 0:
            raise ParameterError(f"{name} must be >= 0, got {value}")


def free_tree_layouts(
    n: int,
    *,
    max_degree: Optional[int] = None,
    min_max_degree: Optional[int] = None,
    min_degree3_count: Optional[int] = None,
) -> Iterator[list[int]]:
    """Level sequences of all free trees on n vertices, one per class.

    Deterministic: re-running yields the identical sequence. The first
    layout is the path rooted near its center, the last is the star.

    Filters restrict the stream without changing the order of survivors:
    `max_degree` keeps trees with every degree <= the bound,
    `min_max_degree` keeps trees whose largest degree reaches the bound,
    and `min_degree3_count` keeps trees with at least that many vertices
    of degree exactly 3.

    The walk skips in one step every run of layouts that share a prefix
    which already rules the filters out: a vertex there above
    `max_degree`, or too many vertices of degree other than 3 to leave
    room for `min_degree3_count` of them. The layouts yielded are the
    same; only fewer are walked.

    `n` and the bounds are checked at the call, before the first layout.
    """
    if n < 1:
        raise ParameterError(f"free_tree_layouts needs n >= 1, got {n}")
    check_degree_bounds(max_degree, min_max_degree, min_degree3_count)
    cut = _degree_filter(n, max_degree, min_max_degree, min_degree3_count)
    return _walk(n, cut)


def free_tree_count(n: int) -> int:
    """Number of free trees on n vertices (OEIS A000055), exactly.

    Otter's formula over the rooted counts r(k) (A000081):
    t(n) = r(n) - (sum of r(i) r(n - i) over 0 < i < n, less r(n/2) for
    even n) / 2.
    """
    if n < 1:
        raise ParameterError(f"free_tree_count needs n >= 1, got {n}")
    # r(k + 1) = (sum over j <= k of s(j) r(k - j + 1)) / k, where s(j)
    # sums d r(d) over the divisors d of j
    r = [0, 1]
    s = [0]
    for k in range(1, n):
        s.append(sum(d * r[d] for d in range(1, k + 1) if k % d == 0))
        r.append(sum(s[j] * r[k - j + 1] for j in range(1, k + 1)) // k)
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


def free_trees(n: int, **filters: Optional[int]) -> Iterator[Graph]:
    """All free trees on n vertices, one per isomorphism class: the
    `free_tree_layouts` stream, with the same keyword filters, decoded into
    graphs."""
    return map(layout_graph, free_tree_layouts(n, **filters))


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
