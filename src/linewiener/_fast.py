"""Tree kernels for the sweeps over the free-tree stream.

Two kinds live here. The closed-form ones read a tree straight off its
preorder level sequence in one backward pass: `wiener_tree_layout` gives
W(T) and `wiener2_tree_layout` gives W(L^2(T)), each in O(n). The bitmask
ones hold a graph on n vertices as a list of n ints, where bit u of
``masks[v]`` says u and v are adjacent, so BFS layers become mask
operations and distance sums come from ``int.bit_count``. The searches
score every tree with the closed forms and run the mask BFS only to
confirm each running argmin; the `buckley` and `thm1` checks of `verify`
(k = 1) run the mask BFS on every tree. General-purpose code goes through
graphs.Graph instead, whose wiener_index runs bitset sweeps from up to
4096 sources at once over the adjacency lists.
"""

from __future__ import annotations

from .enumeration import layout_parents


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
    """Wiener index of a tree given as a preorder level sequence.

    Each edge contributes size * (n - size) with size the vertex count of
    the subtree below it, so no BFS is needed; a backward pass over the
    preorder suffices.
    """
    parent = layout_parents(layout)
    n = len(parent)
    size = [1] * n
    total = 0
    for i in range(n - 1, 0, -1):
        s = size[i]
        size[parent[i]] += s
        total += s * (n - s)
    return total


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

        W(L^2(T)) = sum over edges e of A_e * (S - A_e) + S * (S - n + 2),

    with A_e the sum of w below e: the edge-cut sum of wiener_tree_layout
    with vertex weights w_v in place of 1.
    """
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


def wiener_masks(masks: list[int]) -> int:
    """Sum of pairwise distances, or -1 if the graph is disconnected."""
    n = len(masks)
    full = (1 << n) - 1
    mask_of = {1 << v: m for v, m in enumerate(masks)}
    total = 0
    for s in range(n):
        ms = masks[s]
        seen = (1 << s) | ms
        frontier = ms
        # sum of distances as sum over d >= 1 of |{v: dist(s, v) >= d}|
        acc = n - 1
        while True:
            todo = full ^ seen
            if not todo:
                break
            tc = todo.bit_count()
            acc += tc
            # grow the layer from whichever side has fewer bits to walk
            if frontier.bit_count() <= tc:
                nxt = 0
                f = frontier
                while f:
                    low = f & -f
                    nxt |= mask_of[low]
                    f ^= low
                frontier = nxt & todo
            else:
                nxt = 0
                f = todo
                while f:
                    low = f & -f
                    if mask_of[low] & frontier:
                        nxt |= low
                    f ^= low
                frontier = nxt
            if not frontier:
                break
            seen |= frontier
        # one full sweep proves connectivity for every later source
        if s == 0 and seen != full:
            return -1
        total += acc
    return total // 2


def line_masks(masks: list[int]) -> list[int]:
    """Masks of the line graph; edge ids follow lexicographic (u, v) order,
    matching graphs.line_graph's vertex numbering."""
    n = len(masks)
    incident = [0] * n
    ends: list[int] = []
    eid = 0
    for u in range(n):
        rest = masks[u] >> (u + 1) << (u + 1)
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            bit = 1 << eid
            incident[u] |= bit
            incident[v] |= bit
            ends.append(v)
            eid += 1
            rest ^= low
    # an edge's line neighbors are everything incident to either endpoint
    lmask = [0] * eid
    eid = 0
    bit = 1
    for u in range(n):
        iu = incident[u]
        count = (masks[u] >> (u + 1)).bit_count()
        for _ in range(count):
            lmask[eid] = (iu | incident[ends[eid]]) ^ bit
            eid += 1
            bit <<= 1
    return lmask
