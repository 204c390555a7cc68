"""The stretch tier: exact minimizer facts past the orders tier-1 reaches.

Each test re-derives one stored fact by an unpruned search, one order per
test, and is skipped unless LINEWIENER_STRETCH=1:

    LINEWIENER_STRETCH=1 PYTHONPATH=src python -m pytest tests/test_stretch.py
"""

from __future__ import annotations

import os
from fractions import Fraction

import pytest

from linewiener import build, canonical_code, min_r2_search, parse_family

pytestmark = pytest.mark.skipif(
    os.environ.get("LINEWIENER_STRETCH") != "1",
    reason="stretch tier: set LINEWIENER_STRETCH=1 to run",
)

#: order -> (exact min R2 over all trees, its one witness, free trees)
MINIMA = {
    23: (Fraction(155, 204), "spider:7,7,8", 14_828_074),
    24: (Fraction(1423, 1852), "spider:7,8,8", 39_299_897),
}


@pytest.mark.parametrize("n", sorted(MINIMA))
def test_min_r2_over_all_trees(n):
    minimum, witness, trees = MINIMA[n]
    report = min_r2_search(n, limit=n)
    assert report.min_ratio == minimum
    assert report.witnesses == (canonical_code(build(parse_family(witness))),)
    assert report.trees_scanned == trees
