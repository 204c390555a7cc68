"""Edge-list and graph6 parsing, writing, and error reporting."""

from __future__ import annotations

import random

import pytest

from linewiener import Graph, GraphFormatError, read_graph, write_graph
from linewiener.graphio import normalize_format, sniff_format

from oracles import random_graph


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


# strings produced by the reference nauty tools for these graphs
KNOWN_GRAPH6 = [
    (path(4), b"Ch\n"),
    (Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), b"C~\n"),
    (Graph(5, [(i, (i + 1) % 5) for i in range(5)]), b"Dhc\n"),
    (Graph(6, [(0, i) for i in range(1, 6)]), b"Esa?\n"),
    (Graph(1), b"@\n"),
    (Graph(0), b"?\n"),
]


def test_graph6_known_strings():
    for g, expected in KNOWN_GRAPH6:
        assert write_graph(g, "graph6") == expected
        assert read_graph(expected, "graph6") == g


def test_graph6_round_trip_random():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(0, 30), rng.random())
        data = write_graph(g, "graph6")
        assert read_graph(data, "graph6") == g


def test_graph6_round_trip_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 20), rng.random())
        data = write_graph(g, "graph6")
        mirror = nx.from_graph6_bytes(data.strip())
        assert set(mirror.nodes) == set(range(g.vertex_count))
        assert {frozenset(e) for e in mirror.edges} == {
            frozenset(e) for e in g.edges()
        }


def test_graph6_header_and_long_orders():
    assert read_graph(b">>graph6<<Ch\n", "graph6") == path(4)
    # 63 crosses into the 3-byte order encoding
    for n in (62, 63, 100):
        g = path(n)
        assert read_graph(write_graph(g, "graph6"), "graph6") == g


def test_graph6_rejects_malformed_input():
    for data in (
        b"",
        b"C",          # truncated body
        b"Chh",        # trailing byte
        b"C\x1f",      # byte below the printable range
        b"Bh",         # P_3 with a nonzero padding bit
    ):
        with pytest.raises(GraphFormatError):
            read_graph(data, "graph6")
    # a second record is an error at its first byte, not silently dropped
    for data, offset in (
        (b"Ch\nC~\n", 3),
        (b"Ch\n\n  C~", 6),
        (b">>graph6<<Ch\r\nC~\r\n", 14),
    ):
        with pytest.raises(GraphFormatError) as info:
            read_graph(data, "graph6")
        assert info.value.offset == offset
    assert read_graph(b"Ch\n\n\n", "graph6") == path(4)


def test_edge_list_round_trip():
    g = Graph(6, [(0, 1), (0, 2), (2, 5), (3, 4), (4, 5)])
    data = write_graph(g, "edge-list")
    assert read_graph(data, "edge-list") == g


def test_edge_list_comments_and_blanks():
    text = "# header\n0 1\n\n  1 2  # trailing comment\n"
    assert read_graph(text, "edge-list") == path(3)


def test_edge_list_drops_trailing_isolated_vertices():
    # the format cannot express vertices above the highest index used
    g = Graph(5, [(0, 1)])
    assert read_graph(write_graph(g, "edge-list"), "edge-list") == Graph(2, [(0, 1)])


def test_edge_list_errors_carry_byte_offsets():
    with pytest.raises(GraphFormatError) as info:
        read_graph("0 1\n2 x\n", "edge-list")
    assert info.value.offset == 6
    for text in ("0\n", "0 1 2\n", "0 -1\n", "3 3\n"):
        with pytest.raises(GraphFormatError):
            read_graph(text, "edge-list")


def test_format_names():
    assert normalize_format("g6") == "graph6"
    assert normalize_format("edgelist") == "edge-list"
    with pytest.raises(GraphFormatError):
        normalize_format("dot")
    assert sniff_format("trees.g6") == "graph6"
    assert sniff_format("trees.G6") == "graph6"
    assert sniff_format("trees.txt") == "edge-list"
