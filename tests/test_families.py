"""Family specs: builders, orders, text forms, and parameter validation."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from linewiener import (
    BalancedQuipu,
    Complete,
    Graph,
    ParameterError,
    Path,
    Quipu,
    Spider,
    Star,
    SubdividedQuipu,
    build,
    degree_sequence,
    format_family,
    is_tree,
    parse_family,
    spec_order,
    wiener_index,
    write_graph,
)


def sample_specs():
    return [
        Path(1),
        Path(2),
        Path(22),
        Star(2),
        Star(9),
        Complete(1),
        Complete(6),
        Spider(1, 1, 1),
        Spider(2, 3, 4),
        Spider(7, 7, 7),
        Quipu((1,)),
        Quipu((3, 1, 4)),
        BalancedQuipu(2),
        BalancedQuipu(5),
        SubdividedQuipu(2),
        SubdividedQuipu(6),
    ]


def test_spec_order_matches_build():
    for spec in sample_specs():
        assert spec_order(spec) == build(spec).vertex_count, spec


def test_all_families_but_complete_are_trees():
    for spec in sample_specs():
        g = build(spec)
        if isinstance(spec, Complete) and spec.n >= 3:
            assert not is_tree(g)
        else:
            assert is_tree(g), spec


def test_exact_small_builds():
    assert build(Path(3)) == Graph(3, [(0, 1), (1, 2)])
    assert build(Star(4)) == Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert build(Spider(1, 1, 1)) == Graph(4, [(0, 1), (0, 2), (0, 3)])
    # one hub, pendant path of one vertex: a 4-star centered at spine vertex 1
    assert build(Quipu((1,))) == Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert build(Spider(2, 1, 1)) == Graph(
        5, [(0, 1), (1, 2), (0, 3), (0, 4)]
    )


# sha256 per family of "<spec> <order>\n" plus the edge list of every build
# in the sweep below; the documented labelings must not drift
BUILD_SHA256 = {
    "path": "16118a1a5bc95e42bfc49033268633c19358f5ec33be36774309dc06dc020e28",
    "star": "ffc2b671ed5e9f1976f10441aaf1251be94050958f5b903bbf486e9eae6b8dd3",
    "complete": "070be4ac0f29a3d3d3ead94ee0d51267d206d258981166e843357b482e75c11b",
    "spider": "2a4fdab39a68eb509c6a757147bd035f2923fb99c9d70c063a98c6b772f733cd",
    "quipu": "303e9e6559ef7667c15e25a7eccd68d10874d5946dc8102fc705d58db09838fb",
    "qa": "b57d4a6dbca0919ef60e443e83d2581812894aeefa8108af7d33a40c73a8c9d4",
    "ua": "e2bdb9399f571cd7b4e551e6f7a1df7c691104c45d0a72ed9ce7fed92cc78323",
}


def build_sweep():
    yield "path", [Path(n) for n in range(1, 30)]
    yield "star", [Star(n) for n in range(2, 30)]
    yield "complete", [Complete(n) for n in range(1, 9)]
    yield "spider", [
        Spider(*arms) for arms in itertools.product(range(1, 6), repeat=3)
    ]
    yield "quipu", [
        Quipu(heights)
        for k in (1, 2, 3)
        for heights in itertools.product(range(1, 4), repeat=k)
    ]
    yield "qa", [BalancedQuipu(a) for a in range(2, 9)]
    yield "ua", [SubdividedQuipu(a) for a in range(2, 12)]


def test_builds_are_pinned():
    found = {}
    for tag, specs in build_sweep():
        digest = hashlib.sha256()
        for spec in specs:
            g = build(spec)
            digest.update(f"{format_family(spec)} {g.vertex_count}\n".encode())
            digest.update(write_graph(g, "edge-list"))
        found[tag] = digest.hexdigest()
    assert found == BUILD_SHA256


def _checked_build(spec):
    """The family member through the checked Graph constructor, from the
    edge list of its documented labeling."""
    from linewiener.families import _tree_shape

    if isinstance(spec, Complete):
        n = spec.n
        return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))
    spine, hanging = _tree_shape(spec)
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for hubs, length, count in hanging:
        for hub in hubs:
            for _ in range(count):
                prev = hub
                for _ in range(length):
                    edges.append((prev, nxt))
                    prev = nxt
                    nxt += 1
    return Graph(nxt, edges)


def _same_graph(g, checked):
    assert g == checked
    assert g.adjacency == checked.adjacency
    assert g.edge_count == checked.edge_count
    for fmt in ("edge-list", "graph6"):
        assert write_graph(g, fmt) == write_graph(checked, fmt)


def test_trusted_builds_match_the_checked_constructor():
    # build and layout_graph skip the checked constructor's range check,
    # de-duplication and sort; each must give the graph it would have built
    from linewiener.enumeration import free_tree_layouts, layout_graph, layout_parents

    specs = [Path(n) for n in range(1, 30)] + [Star(n) for n in range(2, 30)]
    specs += [Complete(n) for n in range(1, 9)]
    specs += [Spider(*arms) for arms in itertools.product(range(1, 6), repeat=3)]
    specs += [BalancedQuipu(a) for a in range(2, 15)]
    specs += [SubdividedQuipu(a) for a in range(2, 15)]
    for spec in specs:
        _same_graph(build(spec), _checked_build(spec))
    layouts = 0
    for n in range(1, 11):
        for layout in free_tree_layouts(n):
            parent = layout_parents(layout)
            checked = Graph(n, ((parent[i], i) for i in range(1, n)))
            _same_graph(layout_graph(layout), checked)
            layouts += 1
    assert layouts == 201


def test_spider_wiener_ignores_arm_order():
    values = {
        wiener_index(build(Spider(*perm)))
        for perm in itertools.permutations((2, 3, 5))
    }
    assert len(values) == 1


def test_balanced_quipu_shape():
    a = 4
    g = build(BalancedQuipu(a))
    assert g.vertex_count == a * a + a + 2
    degrees = degree_sequence(g)
    assert degrees.count(3) == a          # hubs
    assert degrees.count(1) == a + 2      # path tips plus both spine ends
    assert degrees.count(2) == g.vertex_count - 2 * a - 2


def test_subdivided_quipu_shape():
    a = 5
    g = build(SubdividedQuipu(a))
    assert g.vertex_count == a * a + 3 * a
    degrees = degree_sequence(g)
    assert degrees.count(3) == a
    assert degrees.count(1) == a + 2
    # spine positions a..2a-1 are the hubs
    assert all(g.degree(v) == 3 for v in range(a, 2 * a))


def test_text_forms_round_trip():
    for spec in sample_specs():
        assert parse_family(format_family(spec)) == spec
    assert format_family(Spider(7, 7, 7)) == "spider:7,7,7"
    assert format_family(Quipu((4, 5, 6))) == "quipu:3;4,5,6"
    assert format_family(SubdividedQuipu(8)) == "ua:8"


def test_parse_is_forgiving_about_case_and_spaces():
    assert parse_family(" Path : 22 ") == Path(22)
    assert parse_family("SPIDER:2, 3, 4") == Spider(2, 3, 4)
    assert parse_family("quipu:2; 5,6") == Quipu((5, 6))


def test_parse_rejects_malformed_specs():
    bad = [
        "path",            # no colon
        "path:",           # no params
        "ring:5",          # unknown tag
        "spider:1,2",      # wrong arity
        "spider:1,2,3,4",
        "quipu:4,5,6",     # missing k
        "quipu:2;4,5,6",   # k disagrees with the list
        "path:x",
        "qa:2.5",
    ]
    for text in bad:
        with pytest.raises(ParameterError):
            parse_family(text)


def test_parameter_ranges():
    for ctor in (lambda: Path(0), lambda: Star(1), lambda: Complete(0),
                 lambda: Spider(0, 1, 1), lambda: Quipu(()), lambda: Quipu((0,)),
                 lambda: BalancedQuipu(1), lambda: SubdividedQuipu(1)):
        with pytest.raises(ParameterError):
            ctor()


def test_random_quipus_are_trees():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randrange(1, 6)
        heights = tuple(rng.randrange(1, 5) for _ in range(k))
        spec = Quipu(heights)
        g = build(spec)
        assert is_tree(g)
        assert g.vertex_count == spec_order(spec) == k + 2 + sum(heights)
