"""Free-tree enumeration against a Prufer-decode oracle, plus canonical codes.

The stream oracle works in two layers: canonical_code is validated on its
own (relabeling invariance, brute-force isomorphism agreement), and then
the enumerated code set must equal the code set of every labeled tree from
every Prufer sequence. Together those pin completeness and uniqueness.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from collections import deque

import pytest

from linewiener import (
    Graph,
    NotATreeError,
    ParameterError,
    automorphism_group_order,
    build,
    canonical_code,
    free_trees,
    parse_family,
    tree_centers,
    write_graph,
)

from linewiener import enumeration
from linewiener.enumeration import free_tree_layouts, layout_graph

from oracles import all_labeled_trees, isomorphism_count, random_tree

# number of free trees on n vertices, n = 1..14
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]


def decoded_layouts(n, **kwargs):
    return map(layout_graph, free_tree_layouts(n, **kwargs))


# the stream contract (filters, validation) holds for the graphs
# and for the raw layouts they are decoded from
STREAMS = (free_trees, decoded_layouts)


def shuffled(rng, g):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])


def test_counts_match_known_sequence():
    for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
        if n <= 12:
            assert sum(1 for _ in free_trees(n)) == expected, n
    assert sum(1 for _ in free_trees(14)) == 3159


def test_every_yield_is_a_distinct_tree():
    seen = set()
    for g in free_trees(9):
        assert g.vertex_count == 9
        assert g.edge_count == 8
        code = canonical_code(g)
        assert code not in seen
        seen.add(code)
    assert len(seen) == 47


def test_stream_matches_prufer_oracle_code_sets():
    # one canonical code per isomorphism class, from both directions
    for n in range(1, 8):
        enumerated = {canonical_code(g) for g in free_trees(n)}
        labeled = {canonical_code(t) for t in all_labeled_trees(n)}
        assert enumerated == labeled, n


def test_stream_is_deterministic():
    first = [write_graph(g, "graph6") for g in free_trees(10)]
    second = [write_graph(g, "graph6") for g in free_trees(10)]
    assert first == second


# (count, sha256 of the layouts' bytes joined by b"|") per order; the pins
# were taken from the element-by-element successor, so a faster successor
# must reproduce the same layouts in the same order
PINNED_STREAMS = {
    1: (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
    2: (1, "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2"),
    3: (1, "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e"),
    4: (2, "b1075e989b9b7bbef5cd18073df56262520d4b0bcbf702378498ad79398aae04"),
    5: (3, "271ba4d78e04d44f95e84425430f82613decc236c29de4d540a6f1a2afe817df"),
    6: (6, "9d2e8b53cc8338e83df8e54fc8f7dc6c75830cefc18dd0935dd3e39d2ed299da"),
    7: (11, "75450930616747f72643abfbaf95a2995f9eeacce884b98467bba340a2210338"),
    8: (23, "7d81b51e0e575e0cbac1e208dd63924e8aaefac862cfbc32565cf33a99fb1f96"),
    9: (47, "bdbee123b3f01de1a0925e7bf8296d378168d32881f794335e42b3e194224059"),
    10: (106, "c5f711c4f25dd3aadb14456854d2038faf6843d8473c02e1a910443f4588cdbc"),
    11: (235, "86d46e5b563e479cb68563325ede8fadf569b2da0a743cd32ca9f1db1d25a1c7"),
    12: (551, "88c18debdafb9245760d0c8bbca0a804054f4eeb8747f0e87772be1b27f1e88c"),
    13: (1301, "53d46705798a007827501c386d3bf1721d98b7c696c0fc2ffcdb90a34bc07f26"),
    14: (3159, "2ae8b5882c4eec68900bbf3660bd1cc5c2f25b437226a021480ba4ec9e2a6e70"),
    15: (7741, "2587dcdbed462e789a5c20bc33642cc8fe735d20d1197d969f10391c9aff28c6"),
    16: (19320, "2fdc5dd69f06673d7e1718d2aaebb10324acf461fd359e429fea7ecb9b0af7dd"),
}


def stream_digest(layouts):
    chunks = [bytes(layout) for layout in layouts]
    return len(chunks), hashlib.sha256(b"|".join(chunks)).hexdigest()


def test_layout_stream_is_pinned():
    for n, pinned in PINNED_STREAMS.items():
        assert stream_digest(free_tree_layouts(n)) == pinned, n
    assert sum(1 for _ in free_tree_layouts(18)) == 123867
    # the filtered search workload's class, which the walk reaches by
    # skipping runs of layouts
    assert stream_digest(free_tree_layouts(18, min_degree3_count=7)) == (
        294,
        "2c0497ba20a8c9ca2067e0380e0b58b21526e79479d96f737319467cdea25fdf",
    )


def test_stripe_validation():
    for stream in STREAMS:
        # a bad order is refused at the call, before the first tree
        for n in (0, -1):
            with pytest.raises(ParameterError):
                stream(n)
        # the stream is never sliced: a stripe= keyword is refused, not
        # ignored, so no caller gets the whole stream for a slice of it
        for n in (1, 5):
            with pytest.raises(TypeError):
                list(stream(n, stripe=(0, 2)))


# filter sets of the stream contract: one filter at a time, then all three
DEGREE_FILTERS = (
    [{"max_degree": d} for d in (2, 3, 4)]
    + [{"min_max_degree": d} for d in (3, 5)]
    + [{"min_degree3_count": c} for c in (0, 1, 2, 3)]
    + [{"max_degree": 4, "min_max_degree": 3, "min_degree3_count": 1}]
)


def graph_degrees(g):
    return [g.degree(v) for v in range(g.vertex_count)]


def passes(deg, kwargs):
    return (
        max(deg) <= kwargs.get("max_degree", len(deg))
        and max(deg) >= kwargs.get("min_max_degree", 0)
        and deg.count(3) >= kwargs.get("min_degree3_count", 0)
    )


def test_degree_filters():
    for stream in STREAMS:
        # max degree 2 leaves exactly the path; min max degree n-1 the star
        for n in range(3, 10):
            only = list(stream(n, max_degree=2))
            assert len(only) == 1
            assert canonical_code(only[0]) == canonical_code(build(parse_family(f"path:{n}")))
            only = list(stream(n, min_max_degree=n - 1))
            assert len(only) == 1
            assert canonical_code(only[0]) == canonical_code(build(parse_family(f"star:{n}")))
        # order 1 has degree 0 and order 2 degree 1
        for n, top in ((1, 0), (2, 1)):
            assert len(list(stream(n, max_degree=top))) == 1
            assert list(stream(n, min_max_degree=top + 1)) == []
            assert list(stream(n, min_degree3_count=1)) == []
            assert len(list(stream(n, min_degree3_count=0))) == 1
    # every filter against the degrees of the decoded graph, one filter at
    # a time and then all three mixed
    for n in range(1, 13):
        full = list(decoded_layouts(n))
        for kwargs in DEGREE_FILTERS:
            expected = [g for g in full if passes(graph_degrees(g), kwargs)]
            for stream in STREAMS:
                assert list(stream(n, **kwargs)) == expected, (stream, n, kwargs)


def pruning_filters(n):
    # sets whose first-subtree bound skips blocks: n_3 <= (n - 2) / 2 in
    # every tree of order n, so these counts sit at or near the extreme
    t = max(0, (n - 2) // 2)
    u = max(0, (n - 4) // 2)
    return [
        {"min_degree3_count": t},
        {"min_degree3_count": u},
        {"max_degree": 3, "min_degree3_count": t},
        {"max_degree": 3, "min_degree3_count": u},
    ]


def test_filtered_stream_is_the_stream_filtered_by_graph_degrees():
    # the walk skips the runs of layouts a prefix rules out; what it yields
    # must be the unpruned stream, each layout decided from the degrees of
    # its decoded graph
    for n in range(1, 17):
        full = list(free_tree_layouts(n))
        degrees = [graph_degrees(layout_graph(layout)) for layout in full]
        for kwargs in DEGREE_FILTERS + pruning_filters(n):
            got = list(free_tree_layouts(n, **kwargs))
            assert got == [
                layout for layout, deg in zip(full, degrees) if passes(deg, kwargs)
            ], (n, kwargs)


def test_filtered_stream_is_pinned():
    # the search-filtered workload's stream, two more taken before the walk
    # skipped prefix runs, and one of order 22 taken before it skipped dead
    # blocks, runs of layouts sharing a first subtree the cut rules out
    pins = [
        (18, {"min_degree3_count": 7}, 294,
         "2c0497ba20a8c9ca2067e0380e0b58b21526e79479d96f737319467cdea25fdf"),
        (17, {"max_degree": 3}, 5098,
         "e294a0970bfcc85840c51f6b6ef4956761384d90f953d5706d7301b77a7db98a"),
        (20, {"min_degree3_count": 8}, 693,
         "1aeb304570618cfe25286b27324ec9c48c46fa7130ae23390353754b71b2de90"),
        (22, {"min_degree3_count": 9}, 1620,
         "35ddf4ceacf0f84e308d1739dc0588d4ae97a247dc1150cf3fd507b5f652a872"),
    ]
    for n, kwargs, size, digest in pins:
        pinned = (size, digest)
        assert stream_digest(free_tree_layouts(n, **kwargs)) == pinned, n


def test_filtered_stream_skips_blocks(monkeypatch):
    # every layout the walk visits is decoded by the degree cut; without
    # the prefix skips all 123,867 of order 18 would be, and a run of dead
    # blocks (layouts sharing a first subtree the cut rules out) costs one
    # call, not one a block
    calls = []
    degree_filter = enumeration._degree_filter

    def counting_filter(*args):
        cut = degree_filter(*args)

        def counting_cut(layout):
            calls.append(1)
            return cut(layout)

        return counting_cut

    monkeypatch.setattr(enumeration, "_degree_filter", counting_filter)
    assert sum(1 for _ in free_tree_layouts(18, min_degree3_count=7)) == 294
    assert 0 < len(calls) < 4000


def test_degree_cut_is_sound():
    # cut(layout) is 0 exactly when the tree passes, and a prefix length
    # j < n it returns is shared by no passing layout of the stream
    for n in range(1, 14):
        layouts = list(free_tree_layouts(n))
        degrees = [graph_degrees(layout_graph(layout)) for layout in layouts]
        for kwargs in DEGREE_FILTERS + pruning_filters(n):
            cut = enumeration._degree_filter(n, **kwargs)
            kept = [
                layout for layout, deg in zip(layouts, degrees) if passes(deg, kwargs)
            ]
            live = {tuple(layout[:j]) for layout in kept for j in range(1, n + 1)}
            for layout, deg in zip(layouts, degrees):
                j = cut(layout)
                assert (j == 0) == passes(deg, kwargs), (layout, kwargs)
                assert 0 <= j <= n, (layout, kwargs, j)
                assert j == 0 or tuple(layout[:j]) not in live, (layout, kwargs, j)


def test_free_tree_count_is_the_stream_size():
    for n in range(1, 19):
        assert enumeration.free_tree_count(n) == sum(
            1 for _ in free_tree_layouts(n)
        ), n
    counts = [enumeration.free_tree_count(n) for n in range(1, 15)]
    assert counts == FREE_TREE_COUNTS
    assert enumeration.free_tree_count(22) == 5623756
    assert enumeration.free_tree_count(23) == 14828074
    assert enumeration.free_tree_count(24) == 39299897
    with pytest.raises(ParameterError):
        enumeration.free_tree_count(0)


def test_canonical_code_shape():
    for n in (1, 2, 5, 9):
        for g in free_trees(n):
            code = canonical_code(g)
            assert len(code) == 2 * n
            assert code.count(b"("[0]) == n
            # balanced: depth never dips below zero
            depth = 0
            for byte in code:
                depth += 1 if byte == b"("[0] else -1
                assert depth >= 0
            assert depth == 0


def test_canonical_code_is_relabeling_invariant():
    rng = random.Random(404)
    for _ in range(60):
        t = random_tree(rng, rng.randrange(2, 20))
        assert canonical_code(shuffled(rng, t)) == canonical_code(t)


def test_canonical_code_separates_nonisomorphic_trees():
    trees = list(free_trees(7))
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            assert canonical_code(trees[i]) != canonical_code(trees[j])
            assert isomorphism_count(trees[i], trees[j]) == 0


def test_code_functions_reject_non_trees():
    cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    forest = Graph(4, [(0, 1), (2, 3)])
    for g in (cycle, forest):
        with pytest.raises(NotATreeError):
            canonical_code(g)
        with pytest.raises(NotATreeError):
            tree_centers(g)


def test_automorphism_order_against_brute_force():
    for n in range(1, 8):
        for g in free_trees(n):
            assert automorphism_group_order(g) == isomorphism_count(g, g), (
                n, canonical_code(g),
            )


def test_automorphism_order_known_families():
    assert automorphism_group_order(build(parse_family("path:2"))) == 2
    assert automorphism_group_order(build(parse_family("path:9"))) == 2
    assert automorphism_group_order(build(parse_family("star:8"))) == math.factorial(7)
    assert automorphism_group_order(build(parse_family("spider:2,2,2"))) == 6
    assert automorphism_group_order(build(parse_family("spider:2,2,3"))) == 2
    assert automorphism_group_order(Graph(1)) == 1


def test_cayley_identity_counts_labeled_trees():
    # sum over free trees of n!/|Aut| must equal n^(n-2); this catches a
    # missing or duplicated isomorphism class and a wrong group order at once
    for n in range(2, 11):
        total = sum(
            math.factorial(n) // automorphism_group_order(g)
            for g in free_trees(n)
        )
        assert total == n ** max(n - 2, 0), n


def eccentricities(g):
    out = []
    for source in range(g.vertex_count):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(max(dist.values()))
    return out


def test_tree_centers_minimize_eccentricity():
    rng = random.Random(77)
    for _ in range(40):
        t = random_tree(rng, rng.randrange(1, 16))
        ecc = eccentricities(t)
        best = min(ecc)
        assert tree_centers(t) == [v for v, e in enumerate(ecc) if e == best]


def test_tree_centers_small_cases():
    assert tree_centers(build(parse_family("path:5"))) == [2]
    assert tree_centers(build(parse_family("path:6"))) == [2, 3]
    assert tree_centers(build(parse_family("star:7"))) == [0]
    assert tree_centers(Graph(1)) == [0]
    assert tree_centers(Graph(2, [(0, 1)])) == [0, 1]
