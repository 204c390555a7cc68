"""Bitmask graph kernels for the enumeration-search hot loops.

A graph on n vertices is held as a list of n ints, where bit u of
``masks[v]`` says u and v are adjacent. BFS layers become mask operations
and distance sums come from ``int.bit_count``, which is what lets a
million-tree sweep finish in minutes of pure Python. Only the searches use
this form; general-purpose code goes through graphs.Graph instead (for
large sparse graphs, plain adjacency BFS wins).
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
