"""Free-tree enumeration and canonical tree codes.

`free_trees(n)` yields one representative per isomorphism class of trees on
n vertices, in a fixed order, using successor rules on preorder level
sequences (the Wright-Richmond-Odlyzko-McKay scheme; rooted successors are
Beyer-Hedetniemi). Each step does O(n) list work: the successor is a
slice of the layout plus a repeated slice, and the free-tree test reads the
root's first subtree with one index and two max calls. These are C-level
list operations, so a step costs a few microseconds up to order 20. Only
one layout per class is ever built, which is what makes order-20-plus
sweeps feasible; generating labeled trees and de-duplicating dies around
order 12.

A block of the stream is a run of layouts that share the root's first
subtree; the stream splits into blocks for parallel consumers. One walker
takes every unstriped stream, one layout per step, and has one skip rule:
the run of layouts that share a prefix is left in one step. A degree
filter names such a prefix once it rules out every layout sharing it (a
vertex's degree above a bound, or too much degree waste to leave room
for the required degree-3 vertices), and a consumer names a block's
first subtree when the block is another consumer's. A prefix within a
block's first subtree condemns whole blocks; every consumer skips them
unnumbered and splits only the live blocks among themselves. Striped
streams count positions in the unfiltered stream and do not skip.

`canonical_code` gives a relabeling-invariant byte encoding (equal codes
iff isomorphic), used to de-duplicate search witnesses and to cross-check
the enumerator against independent generators.
"""

from __future__ import annotations

from itertools import filterfalse, islice
from math import factorial
from typing import Iterator, Optional

from .errors import NotATreeError, ParameterError
from .graphs import Graph, is_tree

# A layout is a preorder level sequence: layout[i] is the depth of vertex i,
# and each vertex's parent is the most recent earlier vertex one level up.
# Outside this module a layout is decoded through layout_parents or
# layout_graph, except by the two O(n) kernels of _fast, which read the
# levels directly.


def _next_rooted_layout(layout: list[int], p: Optional[int] = None):
    """Successor of a rooted level sequence, or None after the last one."""
    n = len(layout)
    if p is None:
        p = n - 1
        while layout[p] == 1:
            p -= 1
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


def _walk(n: int, index: int, count: int, cut) -> Iterator[list[int]]:
    """The layouts `cut` passes in the live blocks numbered index mod count.

    A block is a maximal run of consecutive layouts that share the root's
    first subtree layout[:m]. The walk takes one layout per step and has
    one skip rule: a prefix length j > 0 leaves the whole run of layouts
    that share layout[:j] in one step, from the rooted successor of
    layout[:j] + [1, ...]. j is the prefix `cut` rules out, or m when the
    layout opens a block that another share owns. A block whose first
    layout is cut at 0 < j <= m is dead: its run is whole blocks, and they
    get no number. Without `cut` every layout passes and every block lives.

    A block ends when the rooted step's pivot falls below m, or when the
    free step jumps, which it does with pivot m - 1. Off the stream a jump
    may land on an invalid layout, so a new block's first layout is the
    first that is its own free successor.
    """
    if n == 1:
        # one block, and no first subtree for cut to rule out before it
        if index == 0 and not (cut and cut([0])):
            yield [0]
        return
    candidate = _path_layout(n)
    m = 0  # the open block's first-subtree end, 0 between blocks
    block = -1
    while candidate is not None:
        layout = _next_free_layout(candidate)
        if layout is not candidate:
            candidate, m = layout, 0
            continue
        j = cut(layout) if cut else 0
        if not m:
            m = _first_subtree_end(layout)
            if not 0 < j <= m:
                block += 1
                if block % count != index:
                    j = m
        if j:
            layout = layout[:j] + [1] * (n - j)
        else:
            yield layout
        p = n - 1
        while layout[p] == 1:
            p -= 1
        if p < m:
            m = 0
        candidate = _next_rooted_layout(layout, p)


def _check_part(name: str, size: str, part) -> tuple[int, int]:
    """(index, size) of a stripe or block argument; None is (0, 1)."""
    index, count = (0, 1) if part is None else part
    if count < 1 or not 0 <= index < count:
        raise ParameterError(
            f"{name} must be (index, {size}) with 0 <= index < {size}, got {part}"
        )
    return index, count


def free_tree_layouts(
    n: int,
    *,
    max_degree: Optional[int] = None,
    min_max_degree: Optional[int] = None,
    min_degree3_count: Optional[int] = None,
    stripe: Optional[tuple[int, int]] = None,
    block: Optional[tuple[int, int]] = None,
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

    `block=(index, count)` splits the stream into blocks instead: maximal
    runs of consecutive layouts whose root has the same first subtree. It
    yields the live blocks whose number is congruent to index mod count, in
    stream order, and walks only those; the others are skipped in a few
    steps each. `block` and `stripe` cannot be combined.

    Without a stripe, the walk skips in one step every run of layouts that
    share a prefix which already rules the filters out: a vertex there
    above `max_degree`, or too many vertices of degree other than 3 to
    leave room for `min_degree3_count` of them. The layouts yielded are the
    same; only fewer are walked. A striped stream walks every layout. When
    such a prefix lies within a block's first subtree, its run is whole
    blocks, and these are dead: blocks are numbered among the live ones
    only, so the partition can depend on the filters. The blocks for one
    count are disjoint and together yield exactly the filtered stream.

    Arguments are checked at the call, before the first layout.
    """
    if stripe is not None and block is not None:
        raise ParameterError("give stripe or block, not both")
    s_index, step = _check_part("stripe", "step", stripe)
    b_index, count = _check_part("block", "count", block)
    if n < 1:
        raise ParameterError(f"free_tree_layouts needs n >= 1, got {n}")
    cut = _degree_filter(n, max_degree, min_max_degree, min_degree3_count)
    if step == 1:
        return _walk(n, b_index, count, cut)
    layouts = islice(_walk(n, 0, 1, None), s_index, None, step)
    return layouts if cut is None else filterfalse(cut, layouts)


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
