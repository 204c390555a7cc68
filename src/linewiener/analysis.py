"""Ratio reports, path comparisons, threshold scans, and minimizer searches.

Everything that states an inequality states it exactly: comparisons go
through cross-multiplied big integers or `fractions.Fraction`, never
floats. The interesting thresholds sit close to equality (the spider
crossover lives strictly between a=6 and a=7), where rounding could flip
a verdict.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Optional

from . import _fast
from .enumeration import canonical_code, free_tree_layouts, layout_graph
from .errors import ParameterError, SearchLimitError
from .families import BalancedQuipu, Path, Spider, Star, SubdividedQuipu, build
from .formulas import (
    CASES,
    balanced_spider_case,
    d2_quipu,
    d2_spider,
    deficit_quotient,
    path_deficit,
    r2_path,
    spider_case_arms,
    w_path,
    w_quipu,
    w_spider,
)
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    is_tree,
    iterated_line_graph,
    line_graph,
    wiener_index,
)

DEFAULT_SEARCH_LIMIT = 20


@dataclass(frozen=True)
class WienerReport:
    """The Wiener index of one graph, with its order."""

    order: int
    wiener: int


@dataclass(frozen=True)
class RatioReport:
    """Exact Wiener data of a graph and its line-graph iterates.

    `wiener_k[k]` and `r_k[k]` are indexed by iteration count, with slot 0
    holding the graph itself (so wiener_k[0] = wiener and r_k[0] = 1). A
    slot is None from the point the iterate vanishes (no vertices left).
    `d2`, `path_r2` and `beats_path` are None when undefined: d2 needs a
    second iterate, the path benchmark needs order >= 3.
    """

    order: int
    is_tree: bool
    wiener: int
    wiener_k: tuple[Optional[int], ...]
    d2: Optional[int]
    r_k: tuple[Optional[Fraction], ...]
    path_r2: Optional[Fraction]
    beats_path: Optional[bool]


@dataclass(frozen=True)
class MinimizerReport:
    """Result of an exhaustive ratio minimization over trees of one order.

    `witnesses` holds the canonical codes of every argmin tree, sorted;
    `min_ratio` is None when the filtered class is empty. `trees_scanned`
    counts the trees that passed the filters and were evaluated.
    """

    order: int
    class_description: str
    min_ratio: Optional[Fraction]
    witnesses: tuple[bytes, ...]
    trees_scanned: int


@dataclass(frozen=True)
class ThresholdReport:
    """Per-parameter deficit gaps for a one-parameter tree family.

    Each row of `per_a_gap` is (a, (1 - R2(T_a)) - (1 - R2(P_n))) with n
    the order of T_a; positive gap means the family member beats the path.
    `smallest_passing_a` is the first scanned a with a positive gap, or
    None if the scan never saw one.
    """

    family_case: str
    smallest_passing_a: Optional[int]
    per_a_gap: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class SubdividedQuipuCheck:
    """R2 of the subdivided quipu U_a against the equal-order path."""

    a: int
    n: int
    r2_ua: Fraction
    r2_path: Fraction
    holds: bool


@dataclass(frozen=True)
class SubdividedQuipuDeviation:
    """How far W(U_a) and D2(U_a) sit from their leading terms.

    w_dev = W/((2/3)a^5) - 1 and d2_dev = D2/((1/6)a^4) - 1, exactly; both
    shrink like 1/a as a grows.
    """

    a: int
    w_ua: int
    d2_ua: int
    w_dev: Fraction
    d2_dev: Fraction


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail line of a verification bundle."""

    name: str
    ok: bool
    detail: str


def ratio_rk(g: Graph, k_max: int, budget: int = DEFAULT_BUDGET) -> RatioReport:
    """Exact W(L^k)/W for k = 0..k_max, plus the equal-order path benchmark.

    The graph must be connected with at least 2 vertices. Iterates are
    grown one step at a time under the same size budget as
    iterated_line_graph; once an iterate vanishes, later slots are None.
    """
    if g.vertex_count < 2:
        raise ParameterError(
            f"ratio report needs order >= 2, got {g.vertex_count}"
        )
    if k_max < 1:
        raise ParameterError(f"ratio report needs k_max >= 1, got {k_max}")
    w = wiener_index(g)
    wiener_k: list[Optional[int]] = [w]
    r_k: list[Optional[Fraction]] = [Fraction(1)]
    h = g
    for _ in range(k_max):
        # the line graph of an empty iterate is empty again
        h = iterated_line_graph(h, 1, budget)
        wk = wiener_index(h) if h.vertex_count else None
        wiener_k.append(wk)
        r_k.append(None if wk is None else Fraction(wk, w))
    d2 = None
    if k_max >= 2 and wiener_k[2] is not None:
        d2 = w - wiener_k[2]
    path = r2_path(g.vertex_count) if g.vertex_count >= 3 else None
    beats = None
    if path is not None and k_max >= 2 and r_k[2] is not None:
        beats = r_k[2] < path
    return RatioReport(
        order=g.vertex_count,
        is_tree=is_tree(g),
        wiener=w,
        wiener_k=tuple(wiener_k),
        d2=d2,
        r_k=tuple(r_k),
        path_r2=path,
        beats_path=beats,
    )


def _w_w2(g: Graph, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(W, W2) of a connected graph, both by direct BFS."""
    w = wiener_index(g)
    w2 = wiener_index(iterated_line_graph(g, 2, budget))
    return w, w2


def beats_path(g: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """Exact test of R2(G) < R2(P_n) at n = |V(G)|.

    Defined for any connected graph of order >= 3; the inequality is the
    tree comparison, so callers handing in non-trees should surface that
    (RatioReport.is_tree carries the flag).
    """
    if g.vertex_count < 3:
        raise ParameterError(
            f"path comparison needs order >= 3, got {g.vertex_count}"
        )
    w, w2 = _w_w2(g, budget)
    n = g.vertex_count
    # W2/W < (n-2)(n-3)/(n(n+1)), cross-multiplied
    return w2 * n * (n + 1) < (n - 2) * (n - 3) * w


def _gap_scan(
    family_case: str, a_lo: int, a_hi: int, gap_at, stop_at_first_pass=False
) -> ThresholdReport:
    """The rows gap_at(a) for a in [a_lo, a_hi] and the first positive one."""
    if a_lo < 2:
        raise ParameterError(f"scan needs a >= 2, got start {a_lo}")
    if a_hi < a_lo:
        raise ParameterError(f"empty scan range [{a_lo}, {a_hi}]")
    rows = []
    smallest = None
    for a in range(a_lo, a_hi + 1):
        gap = gap_at(a)
        rows.append((a, gap))
        if smallest is None and gap > 0:
            smallest = a
            if stop_at_first_pass:
                break
    return ThresholdReport(
        family_case=family_case,
        smallest_passing_a=smallest,
        per_a_gap=tuple(rows),
    )


def threshold_scan(case: str, a_lo: int, a_hi: int) -> ThresholdReport:
    """Deficit gap of the near-balanced spider case over a in [a_lo, a_hi]."""

    def gap_at(a):
        values = balanced_spider_case(a, case)
        return values.one_minus_r2_tree - values.one_minus_r2_path

    return _gap_scan(case, a_lo, a_hi, gap_at)


def _ua_w_w2(a: int, budget: int) -> tuple[int, int, int]:
    """(n, W, W2) of the subdivided quipu U_a, all by direct BFS."""
    g = build(SubdividedQuipu(a))
    return (g.vertex_count, *_w_w2(g, budget))


def subdivided_quipu_beats_path(
    a: int, budget: int = DEFAULT_BUDGET
) -> SubdividedQuipuCheck:
    """Compare R2(U_a) with R2(P_n) at n = a^2 + 3a, fully by oracle."""
    n, w, w2 = _ua_w_w2(a, budget)
    r2_ua = Fraction(w2, w)
    r2_pn = r2_path(n)
    return SubdividedQuipuCheck(
        a=a, n=n, r2_ua=r2_ua, r2_path=r2_pn, holds=r2_ua < r2_pn
    )


def subdivided_quipu_scan(
    a_lo: int,
    a_hi: int,
    budget: int = DEFAULT_BUDGET,
    stop_at_first_pass: bool = False,
) -> ThresholdReport:
    """Deficit gap of U_a over a range, as a ThresholdReport with tag "ua".

    The per-a work is a full BFS evaluation (order a^2+3a), so wide scans
    are slow; `stop_at_first_pass` cuts the scan at the first positive gap.
    """

    def gap_at(a):
        check = subdivided_quipu_beats_path(a, budget)
        return check.r2_path - check.r2_ua

    return _gap_scan("ua", a_lo, a_hi, gap_at, stop_at_first_pass)


def subdivided_quipu_deviation(
    a: int, budget: int = DEFAULT_BUDGET
) -> SubdividedQuipuDeviation:
    """Exact relative deviation of W(U_a), D2(U_a) from (2/3)a^5, (1/6)a^4."""
    _, w, w2 = _ua_w_w2(a, budget)
    d2 = w - w2
    w_dev = Fraction(3 * w, 2 * a**5) - 1
    d2_dev = Fraction(6 * d2, a**4) - 1
    return SubdividedQuipuDeviation(
        a=a, w_ua=w, d2_ua=d2, w_dev=w_dev, d2_dev=d2_dev
    )


# ------------------------------------------------------------ searches


def _describe_class(max_degree, min_max_degree, min_degree3_count) -> str:
    parts = []
    if max_degree is not None:
        parts.append(f"max degree <= {max_degree}")
    if min_max_degree is not None:
        parts.append(f"max degree >= {min_max_degree}")
    if min_degree3_count is not None:
        plural = "vertex" if min_degree3_count == 1 else "vertices"
        parts.append(f"at least {min_degree3_count} {plural} of degree 3")
    if not parts:
        return "all trees"
    return "trees with " + ", ".join(parts)


def _keep_min(best: list, wk: int, w: int, codes) -> None:
    """Fold the ratio wk/w into best = [best_wk, best_w, witness codes].

    A smaller ratio replaces the witnesses with codes(), an equal one adds
    codes() to them. codes is called only then, so a sweep computes the
    canonical codes of its running argmins alone.
    """
    best_wk, best_w, witnesses = best
    if best_w is None or wk * best_w < best_wk * w:
        best[:] = wk, w, list(codes())
    elif wk * best_w == best_wk * w:
        witnesses.extend(codes())


def _scan_stripe(args):
    """One stripe of a min W_k/W sweep; must stay picklable for Pool.

    Returns (scanned, best_wk, best_w, witness_codes); best values are None
    for an empty stripe. Witnesses are the codes of this stripe's argmins.
    """
    n, k, max_degree, min_max_degree, min_degree3_count, index, step = args
    scanned = 0
    best = [None, None, []]
    wiener_masks = _fast.wiener_masks
    wiener_tree_layout = _fast.wiener_tree_layout
    line_masks = _fast.line_masks
    layout_masks = _fast.layout_masks
    for layout in free_tree_layouts(
        n,
        max_degree=max_degree,
        min_max_degree=min_max_degree,
        min_degree3_count=min_degree3_count,
        stripe=(index, step),
    ):
        scanned += 1
        w = wiener_tree_layout(layout)
        it = layout_masks(layout)
        for _ in range(k):
            it = line_masks(it)
        wk = wiener_masks(it)
        if w <= 0 or wk < 0:
            raise ArithmeticError(f"W = {w}, W_{k} = {wk} for layout {layout}")
        _keep_min(best, wk, w, lambda: [canonical_code(layout_graph(layout))])
    return (scanned, *best)


def _min_ratio_scan(
    n: int,
    k: int,
    max_degree,
    min_max_degree,
    min_degree3_count,
    jobs: int,
):
    """Exhaustive min of W(L^k)/W over filtered trees of order n.

    Stripes partition the enumeration stream by position; merging their
    exact minima is associative, so any job count gives identical results.
    """
    args = [
        (n, k, max_degree, min_max_degree, min_degree3_count, i, jobs)
        for i in range(jobs)
    ]
    if jobs == 1:
        results = [_scan_stripe(args[0])]
    else:
        ctx = multiprocessing.get_context()
        with ctx.Pool(jobs) as pool:
            results = pool.map(_scan_stripe, args)
    scanned = 0
    best = [None, None, []]
    for part_scanned, part_wk, part_w, part_wit in results:
        scanned += part_scanned
        if part_w is not None:
            _keep_min(best, part_wk, part_w, lambda: part_wit)
    best_wk, best_w, witnesses = best
    ratio = None if best_w is None else Fraction(best_wk, best_w)
    return scanned, ratio, tuple(sorted(witnesses))


def _check_search_bounds(n: int, limit: int, jobs: int) -> None:
    if n < 4:
        raise ParameterError(f"search needs order >= 4, got {n}")
    if n > limit:
        raise SearchLimitError(n, limit)
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")


def min_r2_search(
    n: int,
    *,
    max_degree: Optional[int] = None,
    min_max_degree: Optional[int] = None,
    min_degree3_count: Optional[int] = None,
    jobs: int = 1,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> MinimizerReport:
    """Exact minimum of R2 over all (filtered) trees of order n.

    Exhaustive over the free-tree stream, so the order is capped: above
    `limit` the call fails rather than silently sampling, because a
    non-exhaustive minimum is worthless here. Raising the cap is the
    caller's explicit act.
    """
    _check_search_bounds(n, limit, jobs)
    scanned, ratio, witnesses = _min_ratio_scan(
        n, 2, max_degree, min_max_degree, min_degree3_count, jobs
    )
    return MinimizerReport(
        order=n,
        class_description=_describe_class(
            max_degree, min_max_degree, min_degree3_count
        ),
        min_ratio=ratio,
        witnesses=witnesses,
        trees_scanned=scanned,
    )


def star_minimizes_r1(
    n: int, *, jobs: int = 1, limit: int = DEFAULT_SEARCH_LIMIT
) -> bool:
    """Is the star the unique R1 minimizer among trees of order n?

    The star's own ratio and code are computed independently of the sweep
    (direct build and BFS) and compared with the exhaustive minimum and its
    full witness list, exactly.
    """
    _check_search_bounds(n, limit, jobs)
    _, ratio, witnesses = _min_ratio_scan(n, 1, None, None, None, jobs)
    star = build(Star(n))
    star_ratio = Fraction(wiener_index(line_graph(star)), wiener_index(star))
    return star_ratio == ratio and witnesses == (canonical_code(star),)


def line_wiener_tree_identity(n: int) -> bool:
    """W(L(T)) = W(T) - C(n,2) for every tree of order n."""
    if n < 2:
        raise ParameterError(f"identity check needs n >= 2, got {n}")
    shift = comb(n, 2)
    wiener_masks = _fast.wiener_masks
    line_masks = _fast.line_masks
    layout_masks = _fast.layout_masks
    for layout in free_tree_layouts(n):
        masks = layout_masks(layout)
        if wiener_masks(line_masks(masks)) != wiener_masks(masks) - shift:
            return False
    return True


# ------------------------------------------------- verification bundles


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def closed_form_oracle_checks(
    max_a: int = 8, max_path_n: int = 60
) -> list[CheckResult]:
    """Every closed form against direct build-then-BFS evaluation.

    Spider W over all 1 <= a <= b <= c <= max_a, spider D2 over the same
    range from 2 up (its formula needs arms >= 2), quipu forms over
    2 <= a <= max_a, and the path forms over n up to max_path_n.
    """
    if max_a < 2:
        raise ParameterError(f"oracle check needs max_a >= 2, got {max_a}")
    out = []
    arm_triples = list(combinations_with_replacement(range(1, max_a + 1), 3))
    bad_w = bad_d2 = d2_combos = 0
    for arms in arm_triples:
        spider = build(Spider(*arms))
        # d2_spider needs every arm >= 2; arms[0] is the shortest
        if arms[0] >= 2:
            d2_combos += 1
            w, w2 = _w_w2(spider)
            if d2_spider(*arms) != w - w2:
                bad_d2 += 1
        else:
            w = wiener_index(spider)
        if w_spider(*arms) != w:
            bad_w += 1
    out.append(
        _check(
            "spider W closed form = BFS",
            bad_w == 0,
            f"{len(arm_triples)} arm combos with 1 <= a <= b <= c <= {max_a}",
        )
    )
    out.append(
        _check(
            "spider D2 closed form = BFS",
            bad_d2 == 0,
            f"{d2_combos} arm combos with 2 <= a <= b <= c <= {max_a}",
        )
    )
    bad_w = bad_d2 = 0
    for a in range(2, max_a + 1):
        w, w2 = _w_w2(build(BalancedQuipu(a)))
        if w_quipu(a) != w:
            bad_w += 1
        if d2_quipu(a) != w - w2:
            bad_d2 += 1
    out.append(
        _check("quipu W closed form = BFS", bad_w == 0, f"a = 2..{max_a}")
    )
    out.append(
        _check("quipu D2 closed form = BFS", bad_d2 == 0, f"a = 2..{max_a}")
    )
    bad_w = bad_r2 = 0
    for n in range(1, max_path_n + 1):
        path = build(Path(n))
        if w_path(n) != wiener_index(path):
            bad_w += 1
        if n >= 3:
            w, w2 = _w_w2(path)
            if r2_path(n) != Fraction(w2, w):
                bad_r2 += 1
    out.append(
        _check("path W closed form = BFS", bad_w == 0, f"n = 1..{max_path_n}")
    )
    out.append(
        _check(
            "path R2 closed form = BFS",
            bad_r2 == 0,
            f"n = 3..{max_path_n}",
        )
    )
    return out


def line_identity_checks(max_n: int = 14) -> list[CheckResult]:
    """W(L(T)) = W(T) - C(n,2) over every tree of each order up to max_n."""
    if max_n < 2:
        raise ParameterError(f"identity check needs max_n >= 2, got {max_n}")
    bad = [n for n in range(2, max_n + 1) if not line_wiener_tree_identity(n)]
    return [
        _check(
            "W(L(T)) = W(T) - C(n,2) for all trees",
            not bad,
            f"orders 2..{max_n}, exhaustive"
            + (f"; fails at {bad}" if bad else ""),
        )
    ]


def near_balanced_checks(a_lo: int = 2, a_hi: int = 30) -> list[CheckResult]:
    """Near-balanced spider cases: closed forms against BFS for small a,
    sign pattern of the gap, and the realized crossover at a = 7."""
    out = []
    for case in CASES:
        report = threshold_scan(case, a_lo, a_hi)
        out.append(
            _check(
                f"case {case}: first a beating the path is 7",
                report.smallest_passing_a == 7,
                f"scan a = {a_lo}..{a_hi}, got {report.smallest_passing_a}",
            )
        )
        sign_ok = all(
            (gap > 0) == (a >= 7) for a, gap in report.per_a_gap
        )
        out.append(
            _check(
                f"case {case}: gap > 0 exactly for a >= 7",
                sign_ok,
                f"scan a = {a_lo}..{a_hi}",
            )
        )
        oracle_ok = True
        for a in range(max(2, a_lo), min(8, a_hi) + 1):
            values = balanced_spider_case(a, case)
            w, w2 = _w_w2(build(Spider(*spider_case_arms(a, case))))
            if values.w != w or values.d2 != w - w2:
                oracle_ok = False
            if values.one_minus_r2_tree != Fraction(w - w2, w):
                oracle_ok = False
            if values.one_minus_r2_path != path_deficit(values.n):
                oracle_ok = False
        out.append(
            _check(
                f"case {case}: case record = BFS on built spider",
                oracle_ok,
                "a = 2..8",
            )
        )
    return out


def limit_quotient_checks() -> list[CheckResult]:
    """Deficit quotient behavior for each case: below 1 at a=2, above 1 at
    a=7, within 1/100 of 15/14 at a=1000, and closing in on the limit as a
    steps 100 -> 1000."""
    out = []
    target = Fraction(15, 14)
    for case in CASES:
        q2 = deficit_quotient(2, case)
        q7 = deficit_quotient(7, case)
        q100 = deficit_quotient(100, case)
        q1000 = deficit_quotient(1000, case)
        ok = (
            q2 < 1 < q7
            and abs(q1000 - target) < Fraction(1, 100)
            and abs(q1000 - target) < abs(q100 - target)
        )
        out.append(
            _check(
                f"case {case}: quotient crosses 1 between a=2 and a=7, "
                "approaches 15/14",
                ok,
                f"q(2)={float(q2):.6f} q(7)={float(q7):.6f} "
                f"q(100)={float(q100):.8f} q(1000)={float(q1000):.8f}",
            )
        )
    return out


def worked_example_checks(budget: int = DEFAULT_BUDGET) -> list[CheckResult]:
    """The frozen worked numbers: every headline constant recomputed from
    scratch (closed form where one exists, BFS oracle everywhere)."""
    out = []
    out.append(
        _check("W(P_22) = 1771", w_path(22) == 1771 == wiener_index(build(Path(22))), "closed form and BFS")
    )
    out.append(
        _check(
            "1 - R2(P_22) = 126/506",
            path_deficit(22) == Fraction(126, 506),
            "closed form, reduced",
        )
    )
    spider777 = build(Spider(7, 7, 7))
    w, w2 = _w_w2(spider777, budget)
    out.append(
        _check(
            "W(T_{7,7,7}) = 1428",
            w_spider(7, 7, 7) == 1428 == w,
            "closed form and BFS",
        )
    )
    out.append(
        _check(
            "D2(T_{7,7,7}) = 357",
            d2_spider(7, 7, 7) == 357 == w - w2,
            "closed form and BFS",
        )
    )
    out.append(
        _check(
            "1 - R2(T_{7,7,7}) = 1/4",
            Fraction(w - w2, w) == Fraction(1, 4),
            "BFS",
        )
    )
    out.append(
        _check(
            "T_{7,7,7} beats P_22",
            beats_path(spider777, budget)
            and Fraction(1, 4) > Fraction(126, 506),
            "exact comparison at order 22",
        )
    )
    out.append(
        _check(
            "T_{6,6,6} does not beat P_19",
            not beats_path(build(Spider(6, 6, 6)), budget),
            "exact comparison at order 19",
        )
    )
    w345, w345_2 = _w_w2(build(Spider(3, 4, 5)), budget)
    out.append(
        _check(
            "W(T_{3,4,5}) = 304 and D2 = 113",
            w_spider(3, 4, 5) == 304 == w345
            and d2_spider(3, 4, 5) == 113 == w345 - w345_2,
            "closed form and BFS",
        )
    )
    out.append(
        _check(
            "W of the order-4 star = 9",
            w_spider(1, 1, 1) == 9 == wiener_index(build(Star(4))),
            "closed form and BFS",
        )
    )
    wq, wq2 = _w_w2(build(BalancedQuipu(2)), budget)
    out.append(
        _check(
            "W(Q_2) = 68 and D2(Q_2) = 22",
            w_quipu(2) == 68 == wq and d2_quipu(2) == 22 == wq - wq2,
            "closed form and BFS",
        )
    )
    case7 = balanced_spider_case(7, "i")
    out.append(
        _check(
            "case i at a=7: W=1428, D2=357, path deficit 126/506",
            case7.w == 1428
            and case7.d2 == 357
            and case7.one_minus_r2_path == Fraction(126, 506)
            and case7.n == 22,
            "case record",
        )
    )
    out.append(
        _check(
            "deficit quotient of T_{7,7,7} vs P_22 = 253/252",
            deficit_quotient(7, "i") == Fraction(253, 252),
            "exact",
        )
    )
    return out
