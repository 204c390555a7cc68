"""Tree kernels for the exhaustive sweeps over free trees.

Two kinds live here. The closed-form ones read a tree straight off its
preorder level sequence: `wiener_tree_layout` gives W(T) and
`wiener2_tree_layout` gives W(L^2(T)), each in one reversed pass over the
levels that keeps one running sum per level for the vertex still open
there, so neither decodes a parent array. The bitmask ones hold a graph
on n vertices as a list of n ints, where bit u of ``masks[v]`` says u and
v are adjacent, so BFS layers become mask operations and distance sums
come from ``int.bit_count``. The min-R_2 search and the `buckley` and
`thm1` checks of `verify` (k = 1) read their trees and their W from the
summaries of one table of branches and forests; the search runs both
kinds only to confirm its final argmins, and the k = 1 checks run one
lane-parallel BFS per chunk of trees (line_wiener_lanes), which decodes
the parents of the whole chunk from its level columns at once, and the
mask BFS on each chunk's first and last tree only. General-purpose code
goes through graphs.Graph instead, whose wiener_index runs bitset sweeps
from up to 4096 sources at once over the adjacency lists.
"""

from __future__ import annotations

from .enumeration import layout_parents
from .errors import CrossCheckError, ParameterError


def layout_masks(layout: list[int]) -> list[int]:
    """Masks straight from a preorder level sequence, skipping Graph."""
    parent = layout_parents(layout)
    masks = [0] * len(parent)
    for i in range(1, len(parent)):
        p = parent[i]
        masks[p] |= 1 << i
        masks[i] |= 1 << p
    return masks


def wiener_tree_layout(layout: list[int]) -> int:
    """Wiener index of a tree given as a preorder level sequence, in O(n).

    Each edge contributes s * (n - s), with s the vertex count of the
    subtree below it, so W = n * sum(s) - sum(s^2) over the non-root
    vertices; and sum(s) = sum(layout), since each vertex lies below as
    many edges as its depth. size[lv] gathers the subtree size of the
    vertex still open at level lv, the next one there in reverse preorder,
    whose children all come before it.
    """
    n = len(layout)
    size = [1] * n
    squares = 0
    for lv in layout[:0:-1]:
        s = size[lv]
        size[lv] = 1
        size[lv - 1] += s
        squares += s * s
    return n * sum(layout) - squares


def wiener2_tree_layout(layout: list[int]) -> int:
    """W(L^2(T)) of a tree given as a preorder level sequence, in O(n).

    A vertex of L^2(T) is a wedge: a vertex v of T with two of its d_v
    edges, so v carries w_v = C(d_v, 2) wedges and S = sum w_v in all.
    Two wedges at v are at distance 1 if they share an edge, else 2, which
    sums to w_v(w_v - 1) - d_v(d_v - 1)(d_v - 2)/2 at v. Wedges at u != v
    are at distance d(u, v) + 2, minus 1 for each that holds its edge
    toward the other vertex; over all such pairs that sums to
    sum_{u<v} w_u w_v d(u, v) + (S^2 - sum w_v^2) - (n - 2)S
    + sum (d_v - 1) w_v. The terms of each single vertex cancel, since
    (d_v - 2) w_v = d_v(d_v - 1)(d_v - 2)/2, which leaves

        W(L^2(T)) = sum over edges e of A_e * (S - A_e) + S * (S - n + 2)
                  = S * sum A_e - sum A_e^2 + S * (S - n + 2),

    with A_e the sum of w below e: the edge-cut sum of W with vertex
    weights w_v in place of 1. The second form needs S only at the end,
    so one reversed pass suffices, as in wiener_tree_layout. weight[lv]
    gathers A for the vertex still open at level lv, and count[lv] its
    children so far. A non-root vertex with c children has d = c + 1, so
    w = 1 + 2 + ... + c: the j-th child to arrive adds j. The root has
    d = c and so carries c fewer.
    """
    n = len(layout)
    count = [0] * n
    weight = [0] * n
    sum_a = sum_a2 = 0
    for lv in layout[:0:-1]:
        a = weight[lv]
        weight[lv] = count[lv] = 0
        up = lv - 1
        j = count[up] + 1
        count[up] = j
        weight[up] += a + j
        sum_a += a
        sum_a2 += a * a
    s = weight[0] - count[0]
    return s * sum_a - sum_a2 + s * (s - n + 2)


def wiener_masks(masks: list[int]) -> int:
    """Sum of pairwise distances, or -1 if the graph is disconnected.

    One BFS per source, which grows each layer from the frontier alone:
    the union of its vertices' masks, less the vertices already reached.
    """
    n = len(masks)
    full = (1 << n) - 1
    mask_of = {1 << v: m for v, m in enumerate(masks)}
    total = 0
    for s in range(n):
        frontier = masks[s]
        todo = full ^ ((1 << s) | frontier)
        # sum of distances as sum over d >= 1 of |{v: dist(s, v) >= d}|
        acc = n - 1
        while frontier and todo:
            acc += todo.bit_count()
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= mask_of[low]
                frontier ^= low
            frontier = nxt & todo
            todo ^= frontier
        # one full sweep proves connectivity for every later source
        if s == 0 and todo:
            return -1
        total += acc
    return total // 2


def line_masks(masks: list[int]) -> list[int]:
    """Masks of the line graph, in one pass over the edges.

    Edge ids follow lexicographic (u, v) order, matching
    graphs.line_graph's vertex numbering. An edge's line neighbors are
    the edges incident to either endpoint, less itself: in a simple graph
    it is the one edge at both, so an XOR of the two drops it alone.
    """
    incident = [0] * len(masks)
    ends = []
    for u, m in enumerate(masks):
        rest = m >> (u + 1) << (u + 1)
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            bit = 1 << len(ends)
            incident[u] |= bit
            incident[v] |= bit
            ends.append((u, v))
            rest ^= low
    return [incident[u] ^ incident[v] for u, v in ends]


def line_wiener_lanes(layouts) -> list[int]:
    """W(L(T)) of each tree of a chunk of same-order layouts, by one BFS.

    Layouts may be lists or bytes, of orders up to 256, since the levels
    travel as bytes. Bit t of every mask stands for tree t.
    Edge j (1 <= j < n) joins vertex j to its parent, the nearest earlier
    vertex one level up; (x, j, lanes) in pairs holds the trees in which x
    is j's parent, found for all lanes at once from the level columns. From
    each source edge s the BFS runs in every lane at once: a round steps
    the reached edges to their ends (at) and back, one step of L(T), after
    every lane has added the edges j > s it has not reached to its
    bit-sliced counter; so each unordered pair of edges is counted once,
    and the BFS stops once every edge after s is reached. A round that
    reaches nothing new while some lane has gaps left raises
    CrossCheckError: an edge with no parent, in a lane whose levels jump,
    is never reached from edge 1.
    """
    k, n = len(layouts), len(layouts[0])
    if any(len(t) != n for t in layouts):
        raise ParameterError("lane BFS needs layouts of one order")
    ones = (1 << k) - 1
    # byte t * n + x is the level of vertex x in tree t
    levels = b"".join(map(bytes, layouts))
    # hit[v] maps byte v to "1" and every other byte to "0"
    hit = [b"0" * v + b"1" + b"0" * (255 - v) for v in range(n)]
    # at_level[x][v]: the trees in which vertex x sits at level v
    at_level = []
    for x in range(n):
        # reversed, so that tree t is bit t of int(..., 2)
        column = levels[x::n][::-1]
        at_level.append({
            v: int(column.translate(hit[v]), 2) for v in range(n) if v in column
        })
    pairs = []
    for j in range(1, n):
        parents = {}
        for v, todo in at_level[j].items():
            # the lanes in todo still look for j's parent at level v - 1
            for x in range(j - 1, -1, -1):
                if lanes := todo & at_level[x].get(v - 1, 0):
                    parents[x] = parents.get(x, 0) | lanes
                    todo ^= lanes
                    if not todo:
                        break
        pairs += [(x, j, lanes) for x, lanes in parents.items()]
    # bit t of slices[b] is bit b of tree t's running distance sum
    slices = [0]
    for s in range(1, n - 1):
        reached = [0] * n
        reached[s] = ones
        while gaps := [ones ^ r for r in reached[s + 1 :] if r != ones]:
            for carry in gaps:
                for b, bits in enumerate(slices):
                    slices[b] = bits ^ carry
                    carry &= bits
                    if not carry:
                        break
                else:
                    slices.append(carry)
            at = reached[:]
            for x, j, lanes in pairs:
                at[x] |= reached[j] & lanes
            grown = at[:]
            for x, j, lanes in pairs:
                grown[j] |= at[x] & lanes
            grown[0] = 0
            if grown == reached:
                raise CrossCheckError(f"lane BFS stalls at order {n}")
            reached = grown
    rows = [format(bits, f"0{k}b") for bits in reversed(slices)]
    return [int("".join(bits), 2) for bits in zip(*rows)][::-1]
