"""The stretch tier: exact minimizer facts past the orders tier-1 reaches.

Each test re-derives one stored fact by an unpruned search, one order per
test, and is skipped unless LINEWIENER_STRETCH=1:

    LINEWIENER_STRETCH=1 PYTHONPATH=src python -m pytest tests/test_stretch.py
"""

from __future__ import annotations

import os
from fractions import Fraction

import pytest

from linewiener import Graph, build, canonical_code, min_r2_search, parse_family
from linewiener.enumeration import free_tree_layouts

pytestmark = pytest.mark.skipif(
    os.environ.get("LINEWIENER_STRETCH") != "1",
    reason="stretch tier: set LINEWIENER_STRETCH=1 to run",
)


def h_tree(a: int, b: int, c: int, d: int) -> Graph:
    """H a,b · c,d: two adjacent degree-3 vertices, vertex 0 carrying arms
    of a and b edges and vertex 1 arms of c and d, built edge by edge."""
    edges = [(0, 1)]
    top = 2
    for hub, length in ((0, a), (0, b), (1, c), (1, d)):
        prev = hub
        for _ in range(length):
            edges.append((prev, top))
            prev = top
            top += 1
    return Graph(top, edges)


#: order -> (exact min R2 over all trees, its one witness, free trees)
MINIMA = {
    23: (Fraction(155, 204), "spider:7,7,8", 14_828_074),
    24: (Fraction(1423, 1852), "spider:7,8,8", 39_299_897),
    25: (Fraction(45, 58), "spider:8,8,8", 104_636_890),
    26: (Fraction(1841, 2349), "spider:8,8,9", 279_793_450),
    27: (Fraction(1039, 1314), "spider:8,9,9", 751_065_460),
}

#: order -> (exact min R2 over trees of maximum degree <= 3, its one
#: witness, trees of that class)
MAX_DEGREE_3_MINIMA = {
    25: (Fraction(45, 58), "spider:8,8,8", 2_841_632),
    26: (Fraction(1841, 2349), "spider:8,8,9", 6_408_674),
    27: (Fraction(1039, 1314), "spider:8,9,9", 14_502_229),
    28: (Fraction(259, 325), "spider:9,9,9", 32_935_002),
    29: (Fraction(1101, 1372), h_tree(7, 6, 7, 7), 75_021_750),
}

#: the canonical code of H 7,6 · 7,7, the one order-29 witness
H_29 = b"(((((((()))))))((((((())))))))(((((((()))))))(((((()))))))"


def code_of(witness) -> bytes:
    """The canonical code of a witness: a family spec or a built Graph."""
    if isinstance(witness, str):
        witness = build(parse_family(witness))
    return canonical_code(witness)


@pytest.mark.parametrize("n", sorted(MINIMA))
def test_min_r2_over_all_trees(n):
    minimum, witness, trees = MINIMA[n]
    report = min_r2_search(n, jobs=2, limit=n)
    assert report.min_ratio == minimum
    assert report.witnesses == (code_of(witness),)
    assert report.trees_scanned == trees


@pytest.mark.parametrize("n", sorted(MAX_DEGREE_3_MINIMA))
def test_min_r2_over_trees_of_max_degree_3(n):
    minimum, witness, trees = MAX_DEGREE_3_MINIMA[n]
    report = min_r2_search(n, max_degree=3, jobs=2, limit=n)
    assert report.min_ratio == minimum
    assert report.witnesses == (code_of(witness),)
    assert report.trees_scanned == trees


def test_h_witness_code_is_the_built_h():
    assert code_of(MAX_DEGREE_3_MINIMA[29][1]) == H_29


def test_max_degree_3_class_size_by_the_filtered_stream():
    # a filtered search checks no tree count: pin one class size against
    # the layout stream's own degree filter
    n = 25
    trees = MAX_DEGREE_3_MINIMA[n][2]
    assert sum(1 for _ in free_tree_layouts(n, max_degree=3)) == trees
