"""Ratio reports, path comparisons, threshold scans, and minimizer searches.

Everything that states an inequality states it exactly: comparisons go
through cross-multiplied big integers or `fractions.Fraction`, never
floats. The interesting thresholds sit close to equality (the spider
crossover lives strictly between a=6 and a=7), where rounding could flip
a verdict.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, islice
from math import comb
from operator import itemgetter
from typing import Iterator, Optional

from . import _fast
from ._record import Record
from .enumeration import (
    canonical_code,
    check_degree_bounds,
    free_tree_count,
    layout_graph,
)
from .errors import CrossCheckError, ParameterError
from .errors import SearchLimitError
from .families import BalancedQuipu, Path, Spider, Star, SubdividedQuipu, build
from .formulas import (
    CASES,
    balanced_spider_case,
    d2_quipu,
    d2_spider,
    d2_ua,
    deficit_quotient,
    path_deficit,
    r2_path,
    spider_case_arms,
    w_path,
    w_quipu,
    w_spider,
    w_ua,
)
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    check_step_size,
    is_tree,
    iterated_line_graph,
    line_graph,
    line_iterates,
    wiener_index,
)

DEFAULT_SEARCH_LIMIT = 20


class WienerReport(Record):
    """The Wiener index of one graph, with its order."""

    order: int
    wiener: int


class RatioReport(Record):
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


class MinimizerReport(Record):
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


class ThresholdReport(Record):
    """Per-parameter deficit gaps for a one-parameter tree family.

    Each row of `per_a_gap` is (a, (1 - R2(T_a)) - (1 - R2(P_n))) with n
    the order of T_a; positive gap means the family member beats the path.
    `smallest_passing_a` is the first scanned a with a positive gap, or
    None if the scan never saw one.
    """

    family_case: str
    smallest_passing_a: Optional[int]
    per_a_gap: tuple[tuple[int, Fraction], ...]


class SubdividedQuipuCheck(Record):
    """R2 of the subdivided quipu U_a against the equal-order path."""

    a: int
    n: int
    r2_ua: Fraction
    r2_path: Fraction
    holds: bool


class SubdividedQuipuDeviation(Record):
    """How far W(U_a) and D2(U_a) sit from their leading terms.

    w_dev = W/((2/3)a^5) - 1 and d2_dev = D2/((1/6)a^4) - 1, exactly; both
    shrink like 1/a as a grows.
    """

    a: int
    w_ua: int
    d2_ua: int
    w_dev: Fraction
    d2_dev: Fraction


class CheckResult(Record):
    """One named pass/fail line of a verification bundle."""

    name: str
    ok: bool
    detail: str


def ratio_rk(g: Graph, k_max: int, budget: int = DEFAULT_BUDGET) -> RatioReport:
    """Exact W(L^k)/W for k = 0..k_max, plus the equal-order path benchmark.

    The graph must be connected with at least 2 vertices. The iterates
    are line_iterates(g, k_max, budget), so a budget overrun stops at the
    step, with the message, that iterated_line_graph(g, k_max, budget)
    gives. L and L^2 are grown before g is swept, so an overrun at step 1
    or 2 raises before any sweep; each iterate is let go once swept. Once
    an iterate vanishes, later slots are None.
    """
    if g.vertex_count < 2:
        raise ParameterError(
            f"ratio report needs order >= 2, got {g.vertex_count}"
        )
    if k_max < 1:
        raise ParameterError(f"ratio report needs k_max >= 1, got {k_max}")

    def swept(h: Graph) -> Optional[int]:
        # the line graph of an empty iterate is empty again
        return wiener_index(h) if h.vertex_count else None

    iterates = line_iterates(g, k_max, budget)
    grown = list(islice(iterates, 2))
    w = wiener_index(g)
    wiener_k = [w]
    while grown:
        wiener_k.append(swept(grown.pop(0)))
    wiener_k += map(swept, iterates)
    r_k = [None if wk is None else Fraction(wk, w) for wk in wiener_k]
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


_SWEPT: ContextVar[dict] = ContextVar("swept")


@contextmanager
def sweep_once() -> Iterator[None]:
    """A scope that grows each line graph, sweeps each distinct graph by
    BFS, and the trees of each order at k = 1, once; a scope opened inside
    another reuses it. Each verification bundle runs in one (decorated
    with sweep_once()), so bundles in one scope share all three."""
    token = _SWEPT.set(_SWEPT.get({}))
    try:
        yield
    finally:
        _SWEPT.reset(token)


def _scoped(f):
    """f, run once per open sweep_once scope for each tuple of arguments,
    its result kept there; with no scope open, f runs at each call."""
    def once(*args):
        memo, key = _SWEPT.get({}), (f, *args)
        if key not in memo:
            memo[key] = f(*args)
        return memo[key]
    return once


@_scoped
def _bfs(g: Graph) -> int:
    """W of g by wiener_index, which runs BFS inside each 2-edge-connected
    piece and sums the distance across bridges exactly."""
    return wiener_index(g)


@_scoped
def _grown(g: Graph, k: int, budget: int) -> Graph:
    """iterated_line_graph(g, k, budget); another budget grows it anew."""
    return iterated_line_graph(g, k, budget)


def _w_w2(g: Graph, budget: int) -> tuple[int, int]:
    """(W, W2) of a connected graph, both by direct BFS (_bfs). L^2 is
    grown first (_grown), so a budget overrun raises before any sweep."""
    l2 = _grown(g, 2, budget)
    return _bfs(g), _bfs(l2)


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
    return Fraction(w2, w) < r2_path(g.vertex_count)


def _gap_scan(family_case: str, a_lo: int, a_hi: int, gap_at) -> ThresholdReport:
    """The rows gap_at(a) for a in [a_lo, a_hi] and the first positive one."""
    if a_lo < 2:
        raise ParameterError(f"scan needs a >= 2, got start {a_lo}")
    if a_hi < a_lo:
        raise ParameterError(f"empty scan range [{a_lo}, {a_hi}]")
    rows = [(a, gap_at(a)) for a in range(a_lo, a_hi + 1)]
    smallest = next((a for a, gap in rows if gap > 0), None)
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


def _check_ua_budget(a: int, budget: int) -> None:
    """Raise the BudgetExceededError that growing L^2(U_a) would raise,
    without building U_a. U_a has a hubs of degree 3 in a row, a + 2
    leaves and every other vertex of degree 2, so L(U_a) has a^2 + 3a - 1
    vertices and a^2 + 4a - 2 edges, and L^2(U_a) has a^2 + 9a - 4 edges."""
    sizes = (a * a + 3 * a - 1, a * a + 4 * a - 2, a * a + 9 * a - 4)
    for step, predicted in zip((1, 1, 2), sizes):
        check_step_size(predicted, step, budget)


def subdivided_quipu_beats_path(
    a: int, budget: int = DEFAULT_BUDGET
) -> SubdividedQuipuCheck:
    """Compare R2(U_a) with R2(P_n) at n = a^2 + 3a by the closed forms,
    confirmed by BFS on the built U_a: the one BFS of U_a left. An a whose
    L^2(U_a) is past `budget` is refused before U_a is built."""
    spec = SubdividedQuipu(a)
    _check_ua_budget(a, budget)
    g = build(spec)
    w, d2 = w_ua(a), d2_ua(a)
    bfs_w, bfs_w2 = _w_w2(g, budget)
    if (bfs_w, bfs_w - bfs_w2) != (w, d2):
        raise CrossCheckError(
            f"U_{a}: W = {bfs_w} and D2 = {bfs_w - bfs_w2} by BFS, "
            f"{w} and {d2} by the closed forms"
        )
    r2_ua = Fraction(w - d2, w)
    r2_pn = r2_path(g.vertex_count)
    return SubdividedQuipuCheck(
        a=a, n=g.vertex_count, r2_ua=r2_ua, r2_path=r2_pn, holds=r2_ua < r2_pn
    )


def subdivided_quipu_scan(a_lo: int, a_hi: int) -> ThresholdReport:
    """Deficit gap of U_a over a range, as a ThresholdReport with tag "ua".

    The gaps come from the closed forms alone, with no graph built, so the
    scan is instant at any a; `verify thm5` confirms the forms by BFS.
    """

    def gap_at(a):
        return Fraction(d2_ua(a), w_ua(a)) - path_deficit(a * a + 3 * a)

    return _gap_scan("ua", a_lo, a_hi, gap_at)


def subdivided_quipu_deviation(a: int) -> SubdividedQuipuDeviation:
    """Exact relative deviation of W(U_a), D2(U_a) from (2/3)a^5, (1/6)a^4,
    by the closed forms."""
    w, d2 = w_ua(a), d2_ua(a)
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


def _keep_min(best: list, wk: int, w: int, argmins: list) -> None:
    """Fold the ratio wk/w into best = [best_wk, best_w, argmins kept],
    which starts as [1, 0, []]: 1/0 lies above every ratio.

    A smaller ratio replaces the argmins kept with `argmins`, an equal one
    adds them.
    """
    best_wk, best_w, kept = best
    if wk * best_w < best_wk * w:
        best[:] = wk, w, argmins
    elif wk * best_w == best_wk * w:
        kept.extend(argmins)


def _masks_wk(layout: list[int], k: int) -> int:
    """W(L^k(T)) of a layout's tree by bitmask BFS on the k-th iterate."""
    it = _fast.layout_masks(layout)
    for _ in range(k):
        it = _fast.line_masks(it)
    return _fast.wiener_masks(it)


# trees per lane BFS in _tree_scores, as graphs._SWEEP_SOURCES per sweep
_CHUNK = 4096


def _tree_scores(n: int):
    """(layout, W(T), W(L(T))) of each free tree of order n, layout as bytes.

    The trees are those _scan_block scores: each row i of _tables beside
    each forest _beside gives it, spelled by _speller, with W = w_i + the
    forest's W, as in _scan_block. W(L(T)) comes from
    _fast.line_wiener_lanes, one lane-parallel BFS per chunk of up to
    _CHUNK trees. The first and last tree of each chunk are scored again
    by the mask BFS on their own line graphs (_masks_wk), which pins both
    ends of the lane order. Once the table is exhausted, it checks its own
    count of trees (_check_tree_count).
    """
    rows, forests = _tables(n, None, None)
    raised, spelled = _speller(rows, forests)
    trees = (
        (b"\x00" + raised(i) + spelled(n - 1 - size, e), w + tree[3])
        for i, (size, w, *_) in enumerate(rows)
        for e, tree in enumerate(_beside(n, i, rows, forests))
    )
    scanned = 0
    while chunk := list(islice(trees, _CHUNK)):
        layouts = [layout for layout, _ in chunk]
        lanes = _fast.line_wiener_lanes(layouts)
        for t in {0, len(chunk) - 1}:
            if (w1 := _masks_wk(layouts[t], 1)) != lanes[t]:
                raise CrossCheckError(
                    f"W_1 = {w1} by mask BFS, {lanes[t]} by the lanes "
                    f"for layout {list(layouts[t])}"
                )
        for (layout, w), w1 in zip(chunk, lanes):
            if w <= 0 or w1 < 0:
                raise CrossCheckError(
                    f"W = {w}, W_1 = {w1} for layout {list(layout)}"
                )
            yield layout, w, w1
        scanned += len(chunk)
    _check_tree_count(n, scanned)


# the bytes.translate table that adds 1 to every level
_UP = bytes(range(1, 256)) + b"\xff"


def _speller(rows, forests):
    """(raised, spelled): the level sequences of a _tables pair, as bytes,
    read off its links.

    raised(i) is row i's, raised one level to hang below a root: the
    row's root over its kids' forest. spelled(m, e) is entry e of
    forests[m]'s, its rows at level 1: its largest row raised, then the
    rest of the forest. Each is spelled at most once, by one
    concatenation of earlier ones, and kept while the two functions live.
    """

    @cache
    def raised(i):
        size, *_, j = rows[i]
        return (b"\x00" + spelled(size - 1, j)).translate(_UP)

    @cache
    def spelled(m, e):
        if not m:
            return b""
        r, j = forests[m][e][:2]
        return raised(r) + spelled(m - rows[r][0], j)

    return raised, spelled


def _tables(
    n: int, most: Optional[int], need: Optional[int]
) -> tuple[list[tuple], list[list[tuple]]]:
    """Every branch and forest a free tree of order n is built from.

    A branch is a rooted tree that hangs by an up edge from a vertex
    outside it, and every degree below counts that edge; a forest is a
    non-increasing run of branch rows. One pass over m = 1 .. n - 1 makes
    first the rows of size m, for m <= n / 2, one per entry j of
    forests[m - 1], in that order: a root over the forest, which holds its
    kids. Then it makes forests[m]: each forest of total size m whose
    largest row r has a size z <= (n - 1) / 2 with m + z <= n - 1, sorted
    by r, ascending; so the forests whose rows are all <= i form a prefix
    of forests[m]. Each is made in O(1) as r over the rest of the forest,
    entry j of forests[m - size_r], which lies in the prefix of r. So each
    rooted tree is one row, r(m) rows of size m (OEIS A000081), and each
    forest one entry. Entry j of forests[m] is

        (r, j, k, w, s, a, a2, d3, top),

    the sums over its k rows closed at a root of degree k + 1 (a
    centroid's beside its largest branch, or a row's with its up edge):
    w, a and a2 summed, s with the root's C(k + 1, 2) wedges, d3 with the
    root when k == 2, and top with the root's degree. Row i is

        (size, w, s, a, a2, d3, top, j),

    made from entry j of forests[size - 1]. Here w = W + p (n - size) is
    its W term at a root of an order-n tree, for W the branch's own Wiener
    index and p the distance sum from the vertex above to its vertices; s
    the sum of C(d, 2) over its vertices (its wedges), a and a2 the sums
    of A_e and A_e^2 over its edges, the up edge included, A_e being the
    wedges below e; d3 its count of degree-3 vertices and top its largest
    degree. Over its kids, with N = size - 1 below the root,
    W = sum (W_j - p_j n_j) + (1 + N) sum p_j and p = sum p_j + size, so
    w = sum w_j + size (n - size), and the up edge has A_e = s.

    A forest whose root degree k + 1 exceeds `most` is left out, as is one
    whose own degree-3 vertices (its root's not among them) cannot reach
    `need` with the at most (n - m) // 2 of the rest of the tree: wherever
    a forest of size m hangs from a root, the other n - m vertices, the
    root among them, make a subtree in which every vertex but the root has
    its full degree, so at most (n - m) // 2 of them have degree 3. A row
    needs its kids' forest, so both bounds reach the rows through it.
    """
    most = n if most is None else most
    need = need or 0
    big = (n - 1) // 2
    rows: list[tuple] = []
    # the empty forest, under a root of degree 1
    forests = [[(-1, 0, 0, 0, 0, 0, 0, 0, 1)]]
    for m in range(1, n):
        if m <= n // 2:
            for j, (*_, W, S, A, A2, d3, top) in enumerate(forests[m - 1]):
                w = W + m * (n - m)
                rows.append((m, w, S, A + S, A2 + S * S, d3, top, j))
        made = []
        for r, (size, w, s, a, a2, d3, top, _) in enumerate(rows):
            if size > min(big, m, n - 1 - m):
                break
            rest = forests[m - size]
            for j in range(bisect_right(rest, r, key=_largest)):
                _, _, k, W, S, A, A2, D3, TOP = rest[j]
                # the rest's root, of degree k + 1, gains the edge to r
                D3 += d3 - (k == 2)
                if k + 2 <= most and D3 + (n - m) // 2 >= need:
                    made.append((
                        r, j, k + 1, W + w,
                        S + s + comb(k + 2, 2) - comb(k + 1, 2),
                        A + a, A2 + a2, D3 + (k == 1), max(TOP, top, k + 2),
                    ))
        forests.append(made)
    return rows, forests


# the sort key of a forests entry: its largest row
_largest = itemgetter(0)


def _beside(n: int, i: int, rows, forests) -> list[tuple]:
    """The forests that row i hangs beside at the root of a free tree of
    order n, one tree each: a prefix of forests[n - 1 - size_i]. Either:
    - the root is the tree's centroid, i its largest branch, of size at
      most (n - 1)/2, and the forest's rows are <= i: a prefix of the
      forests of that size;
    - for even n, the tree has two centroids a and b, joined by an edge,
      whose branches away from each other have n/2 vertices each, a <= b.
      The root is a, i is b and the forest is a's kids: since the rows of
      size n/2 were made in the order of forests[n/2 - 1], a <= b holds
      for the entries up to b's own, another prefix.
    """
    size, *_, j = rows[i]
    made = forests[n - 1 - size]
    if 2 * size == n:
        return made[: j + 1]
    return made[: bisect_right(made, i, key=_largest)]


def _scan_block(args):
    """One job's share of the min W_2/W sweep, scored by centroid.

    args is (n, min_max_degree, min_degree3_count, rows, forests, index,
    jobs), with rows and forests the _tables of the search's bounds, built
    once by the search. Every free tree of order n, n >= 2, is a root
    over one row i and one of the forests _beside gives it. At a root
    with branches j, in a tree of order n,

        W = sum w_j,
        W(L^2) = S * (sum a_j - n + 2 + S) - sum a2_j,

    with S = sum s_j + C(c, 2) for c branches (the root's own wedges):
    _fast.wiener2_tree_layout's edge-cut formula, summed per branch. The
    forests hold their sums closed at the root, so each tree is scored in
    O(1) from the sums of row i and of one forest, in one flat loop per
    top-level choice.

    The top-level choices are the rows i, largest first; this share takes
    those numbered index mod jobs. Returns (scanned, best_wk, best_w,
    argmins), with best values 1 and 0 when no tree passes the filters. Each
    argmin is the int triple (i, r, j) of its tree: a root over row i,
    beside row r over entry j of the forests of the size left; the search
    spells them (_speller) once the shares merge. The degree filters are
    those of free_tree_layouts, None when unset, and are checked per tree;
    max_degree and the reach of min_degree3_count are already applied in
    the tables.
    """
    n, least, need, rows, forests, index, jobs = args
    best = [1, 0, []]
    best_wk, best_w = best[:2]
    scanned = 0
    least = least or 0
    need = need or 0
    filtered = least > 0 or need > 0
    for i in range(len(rows) - 1 - index, -1, -jobs):
        size, w, s, a, a2, d3, top, _ = rows[i]
        group = _beside(n, i, rows, forests)
        if filtered:
            group = [
                tree for tree in group
                if d3 + tree[7] >= need and max(top, tree[8]) >= least
            ]
        scanned += len(group)
        a -= n - 2
        for r, j, _, W, S, A, A2, _, _ in group:
            W += w
            S += s
            wk = S * (A + a + S) - A2 - a2
            if wk * best_w <= best_wk * W:
                _keep_min(best, wk, W, [(i, r, j)])
                best_wk, best_w = best[0], best[1]
    return (scanned, *best)


def _confirmed_code(layout: list[int], w: int, checks: list) -> bytes:
    """The canonical code of a swept argmin, once each (name, by_sweep,
    value, method) in checks and then W by BFS on its tree agree with the
    sweep; else CrossCheckError. On a tree wiener_index sums edge cuts, as
    the kernels do, so W is taken by the mask BFS (_masks_wk at k = 0),
    not from _bfs."""
    g = layout_graph(layout)
    checks = [*checks, ("W", w, _masks_wk(layout, 0), "BFS")]
    for name, by_sweep, value, method in checks:
        if value != by_sweep:
            raise CrossCheckError(
                f"{name} = {value} by {method}, {by_sweep} by the sweep "
                f"for layout {layout}"
            )
    return canonical_code(g)


def _witness_code(layout: list[int], w: int, wk: int) -> bytes:
    """_confirmed_code of a search argmin, with W by the edge-cut kernel
    and W_2 by the formula kernel and by the mask BFS checked first."""
    return _confirmed_code(layout, w, [
        ("W", w, _fast.wiener_tree_layout(layout), "edge cuts"),
        ("W_2", wk, _fast.wiener2_tree_layout(layout), "formula"),
        ("W_2", wk, _masks_wk(layout, 2), "mask BFS"),
    ])


def _scan_child(fd: int, args) -> None:
    """Body of a forked search worker; it never returns.

    Writes one marshalled reply to fd: _scan_block(args), or the text
    naming this worker and the exception that share raised. Then leaves
    by os._exit, so no caller's cleanup, exit handler or stdio flush runs
    in the child. The exit code is 0 only once the whole reply is written.
    """
    import marshal
    import os
    import signal

    code = 1
    try:
        # Ctrl-C reaches the whole process group; the parent alone handles
        # it and kills its workers
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            reply = _scan_block(args)
        except Exception as exc:
            reply = f"search worker {args[-2]} of {args[-1]} raised {exc!r}"
        view = memoryview(marshal.dumps(reply))
        while view:
            view = view[os.write(fd, view) :]
        code = 0
    finally:
        os._exit(code)


def _scan_in_workers(args: list) -> list:
    """_scan_block of every args entry: entry 0 in this process, each
    other one in a worker forked from it.

    Each worker writes its reply to its own pipe and exits; this process
    scans its own share first, then reads each pipe to EOF and reaps its
    worker. A worker's exception comes back as its text (_scan_child) and
    is raised here as CrossCheckError, as is a worker that exits without a
    complete reply (killed, say), once this process has finished its own
    share. Every worker still alive on the way out, by return, error,
    Ctrl-C or a failed fork, is killed and reaped. Needs os.fork, so
    POSIX only.
    """
    import marshal
    import os
    import signal

    jobs = len(args)
    if not hasattr(os, "fork"):
        raise ParameterError(
            f"jobs = {jobs} needs os.fork, which this platform lacks"
        )
    # a bare fork is safe because nothing here starts a thread, and it
    # spares each worker the package import a fresh interpreter would repeat
    workers = []  # [pid, read end], each None once reaped or closed
    try:
        # a Ctrl-C held off until each worker's pid is recorded can neither
        # leak a worker nor unwind a child's copy of this stack
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for job in args[1:]:
                receiver, sender = os.pipe()
                worker = [None, receiver]
                workers.append(worker)
                try:
                    worker[0] = os.fork()
                    if worker[0] == 0:
                        _scan_child(sender, job)
                finally:
                    # the worker now holds the only write end, so its exit
                    # reads as EOF here
                    os.close(sender)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [_scan_block(args[0])]
        for index, worker in enumerate(workers, 1):
            with open(worker[1], "rb") as pipe:
                worker[1] = None
                reply = pipe.read()
            _, status = os.waitpid(worker[0], 0)
            worker[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise CrossCheckError(
                    f"search worker {index} of {jobs} exited with code "
                    f"{code} before sending its result"
                )
            reply = marshal.loads(reply)
            if isinstance(reply, str):
                raise CrossCheckError(reply)
            results.append(reply)
        return results
    finally:
        for pid, receiver in workers:
            if receiver is not None:
                os.close(receiver)
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _check_tree_count(n: int, scanned: int) -> None:
    """An unfiltered sweep must see every free tree of order n exactly once."""
    expected = free_tree_count(n)
    if scanned != expected:
        raise CrossCheckError(
            f"{scanned} trees scanned at order {n}, but there are {expected}"
        )


def _check_order(n: int, low: int, what: str, limit) -> None:
    """ParameterError unless n >= low, SearchLimitError unless n <= limit.
    A limit of None is DEFAULT_SEARCH_LIMIT, which no caller of the k = 1
    sweeps can raise, so that error's text asks for no other limit."""
    if n < low:
        raise ParameterError(f"{what} >= {low}, got {n}")
    top = DEFAULT_SEARCH_LIMIT if limit is None else limit
    if n > top:
        exc = SearchLimitError(n, top)
        if limit is None:
            exc.args = (str(exc).partition(";")[0],)
        raise exc


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

    Exhaustive: the centroid scan of _scan_block scores every free tree
    of order n once, from branch and forest summaries, and only the trees
    left at the minimum are confirmed (_witness_code), each once. So the
    order is capped: above `limit` the call fails rather than silently
    sampling, because a non-exhaustive minimum is worthless here. Raising
    the cap is the caller's explicit act.

    The scan is split into `jobs` shares, its top-level choices numbered
    i mod jobs. Share 0 runs in this process, the others in forked
    workers (_scan_in_workers), and each returns its own argmins as
    coordinates in the tables, ints alone; the merged argmins are spelled
    once (_speller) before they are confirmed. Merging their exact minima
    is associative and the witnesses are sorted, so any job count gives
    identical results. An unfiltered search must have scanned exactly
    free_tree_count(n) trees, or it raises CrossCheckError before any
    argmin is confirmed; so must one whose bounds exclude no tree. The
    rows and forests (_tables) are built here, once, and reach the
    workers through the fork; each row is one top-level choice, so there
    are no more shares than rows.
    """
    _check_order(n, 4, "search needs order", limit)
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    check_degree_bounds(max_degree, min_max_degree, min_degree3_count)
    rows, forests = _tables(n, max_degree, min_degree3_count)
    jobs = min(jobs, max(1, len(rows)))
    args = [
        (n, min_max_degree, min_degree3_count, rows, forests, i, jobs)
        for i in range(jobs)
    ]
    results = [_scan_block(args[0])] if jobs == 1 else _scan_in_workers(args)
    scanned = 0
    best = [1, 0, []]
    for part_scanned, part_wk, part_w, part_argmins in results:
        scanned += part_scanned
        _keep_min(best, part_wk, part_w, part_argmins)
    # bounds that exclude no tree: at n >= 4 max degrees lie in 2..n - 1
    if max_degree is None or max_degree >= n - 1:
        if (min_max_degree or 0) <= 2 and (min_degree3_count or 0) <= 0:
            _check_tree_count(n, scanned)
    best_wk, best_w, argmins = best
    raised, spelled = _speller(rows, forests)
    layouts = [
        b"\x00" + raised(i) + raised(r)
        + spelled(n - 1 - rows[i][0] - rows[r][0], j)
        for i, r, j in argmins
    ]
    codes = [_witness_code(list(t), best_w, best_wk) for t in layouts]
    return MinimizerReport(
        order=n,
        class_description=_describe_class(
            max_degree, min_max_degree, min_degree3_count
        ),
        min_ratio=Fraction(best_wk, best_w) if best_w else None,
        witnesses=tuple(sorted(codes)),
        trees_scanned=scanned,
    )


@_scoped
def _k1_sweep(n: int) -> tuple:
    """(identity holds, best W_1, best W, argmin layouts) of order n.

    One pass of _tree_scores gives both k = 1 facts: whether W(L(T)) =
    W(T) - C(n,2) for every tree, and the exact minimum of W(L(T))/W(T)
    with all its argmins (_keep_min).
    """
    shift = comb(n, 2)
    holds = True
    best = [1, 0, []]
    best_w1, best_w = best[:2]
    for layout, w, w1 in _tree_scores(n):
        if w1 != w - shift:
            holds = False
        if w1 * best_w <= best_w1 * w:
            _keep_min(best, w1, w, [list(layout)])
            best_w1, best_w = best[0], best[1]
    return (holds, *best)


@sweep_once()
def star_minimizes_r1(n: int) -> bool:
    """Is the star the unique R1 minimizer among trees of order n?

    One sweep of the free trees (_k1_sweep) takes the exact minimum of
    W(L(T))/W(T) and all its argmins; each argmin's W(L(T)) and W are
    confirmed by wiener_index on its line graph and by BFS on its graph
    (_confirmed_code). The star's own ratio and code are computed
    independently of the sweep (direct build and wiener_index) and compared
    with that minimum and the full witness list, exactly. Each distinct
    graph goes to wiener_index once (_bfs), so the star argmin's line graph
    gives the star's W(L(T)). Raises CrossCheckError unless the sweep saw
    free_tree_count(n) trees.
    """
    _check_order(n, 4, "search needs order", None)
    _, best_w1, best_w, layouts = _k1_sweep(n)
    codes = []
    for layout in layouts:
        w1 = _bfs(line_graph(layout_graph(layout)))
        checks = [("W_1", best_w1, w1, "BFS")]
        codes.append(_confirmed_code(layout, best_w, checks))
    star = build(Star(n))
    star_ratio = Fraction(_bfs(line_graph(star)), _bfs(star))
    ratio = Fraction(best_w1, best_w)
    return star_ratio == ratio and codes == [canonical_code(star)]


def line_wiener_tree_identity(n: int) -> bool:
    """W(L(T)) = W(T) - C(n,2) for every tree of order n, from one sweep
    (_k1_sweep).

    Orders above DEFAULT_SEARCH_LIMIT raise SearchLimitError, as in
    star_minimizes_r1. Raises CrossCheckError unless the sweep saw
    free_tree_count(n) trees.
    """
    _check_order(n, 2, "identity check needs n", None)
    return _k1_sweep(n)[0]


# ------------------------------------------------- verification bundles

#: The verify bundles, in the order a bare `verify` runs them.
VERIFY_BUNDLES = (
    "paper-numbers", "buckley", "lemmas", "thm4", "limits", "thm5", "thm1"
)

# the defaults of the bundle functions, which verify_plan takes too
_IDENTITY_MAX_N = 14
_ORACLE_MAX_A, _ORACLE_PATH_N = 8, 60
_CASE_LO, _CASE_HI = 2, 30


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def _with_l2(spec, budget: int) -> Graph:
    """build(spec), its L^2 grown (_grown) before the next tree is built."""
    g = build(spec)
    _grown(g, 2, budget)
    return g


@_scoped
def _oracle_trees(max_a: int, max_path_n: int, budget: int) -> tuple:
    """closed_form_oracle_checks' spiders by arms, deep ones (arms >= 2)
    too, quipus by a, paths by n. Each swept L^2 is grown largest first
    (_with_l2): quipus, paths, deep spiders; a refusal takes O(max_a)."""
    quipus = {a: _with_l2(BalancedQuipu(a), budget) for a in range(max_a, 1, -1)}
    paths = {n: _with_l2(Path(n), budget) for n in range(max_path_n, 2, -1)}
    paths |= {n: build(Path(n)) for n in range(min(2, max_path_n), 0, -1)}
    arms = combinations_with_replacement(range(max_a, 1, -1), 3)
    deep = {cba[::-1]: _with_l2(Spider(*cba[::-1]), budget) for cba in arms}
    shallow = combinations_with_replacement(range(1, max_a + 1), 2)
    spiders = deep | {(1, b, c): build(Spider(1, b, c)) for b, c in shallow}
    return spiders, deep, quipus, paths


def _agree(pairs: list) -> bool:
    """The pass rule of every check of paper-numbers, lemmas and thm4: at
    least one (value, expected) pair, and every pair equal, so a range
    that compares nothing fails."""
    return bool(pairs) and all(value == expected for value, expected in pairs)


@sweep_once()
def closed_form_oracle_checks(
    max_a: int = _ORACLE_MAX_A,
    max_path_n: int = _ORACLE_PATH_N,
    budget: int = DEFAULT_BUDGET,
) -> list[CheckResult]:
    """Every closed form against direct build-then-BFS evaluation.

    Spider W over all 1 <= a <= b <= c <= max_a, spider D2 over the same
    range from 2 up (its formula needs arms >= 2), quipu forms over
    2 <= a <= max_a, and the path forms over n up to max_path_n. Every
    L^2 is grown within `budget` before the first sweep (_oracle_trees).
    Each check passes by _agree, so a range that compares nothing fails.

    Each distinct graph is swept once (_bfs), its W kept by the graph
    itself: L^2(P_n) is P_{n-2} vertex for vertex, so the path R2 check
    reads the W of a path swept before, while an L^2 that differs from
    every graph seen so far is swept on its own.
    """
    if max_a < 2:
        raise ParameterError(f"oracle check needs max_a >= 2, got {max_a}")
    spiders, deep, quipus, paths = _oracle_trees(max_a, max_path_n, budget)

    def bfs_l2(g: Graph) -> int:
        return _bfs(_grown(g, 2, budget))

    rows = [
        ("spider W",
         f"{len(spiders)} arm combos with 1 <= a <= b <= c <= {max_a}",
         [(w_spider(*abc), _bfs(g)) for abc, g in spiders.items()]),
        ("spider D2", f"{len(deep)} arm combos with 2 <= a <= b <= c <= {max_a}",
         [(d2_spider(*abc), _bfs(g) - bfs_l2(g)) for abc, g in deep.items()]),
        ("quipu W", f"a = 2..{max_a}",
         [(w_quipu(a), _bfs(g)) for a, g in quipus.items()]),
        ("quipu D2", f"a = 2..{max_a}",
         [(d2_quipu(a), _bfs(g) - bfs_l2(g)) for a, g in quipus.items()]),
        ("path W", f"n = 1..{max_path_n}",
         [(w_path(n), _bfs(g)) for n, g in paths.items()]),
        ("path R2", f"n = 3..{max_path_n}",
         [(r2_path(n), Fraction(bfs_l2(g), _bfs(g)))
          for n, g in paths.items() if n >= 3]),
    ]
    return [
        _check(f"{name} closed form = BFS", _agree(pairs), detail)
        for name, detail, pairs in rows
    ]


@sweep_once()
def line_identity_checks(max_n: int = _IDENTITY_MAX_N) -> list[CheckResult]:
    """W(L(T)) = W(T) - C(n,2) over every tree of each order up to max_n,
    which is refused above DEFAULT_SEARCH_LIMIT before any sweep."""
    _check_order(max_n, 2, "identity check needs max_n", None)
    bad = [n for n in range(2, max_n + 1) if not line_wiener_tree_identity(n)]
    return [
        _check(
            "W(L(T)) = W(T) - C(n,2) for all trees",
            not bad,
            f"orders 2..{max_n}, exhaustive"
            + (f"; fails at {bad}" if bad else ""),
        )
    ]


@_scoped
def _case_spiders(a_lo: int, a_hi: int, budget: int) -> dict:
    """The spiders of near_balanced_checks by (case, a), a in a_lo..a_hi
    and 2..8, each built with its L^2 (_with_l2), largest first."""
    built = range(min(8, a_hi), max(2, a_lo) - 1, -1)
    arms = {(c, a): spider_case_arms(a, c) for c in CASES[::-1] for a in built}
    return {key: _with_l2(Spider(*abc), budget) for key, abc in arms.items()}


@sweep_once()
def near_balanced_checks(
    a_lo: int = _CASE_LO, a_hi: int = _CASE_HI, budget: int = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Near-balanced spider cases: closed forms against BFS for each a of
    the scan in 2..8, failing if there is none (every L^2 grown before any
    sweep, each distinct graph swept once, as in closed_form_oracle_checks),
    sign pattern of the gap, and the realized crossover at a = 7; each
    check passes by _agree."""
    spiders = _case_spiders(a_lo, a_hi, budget)
    built = sorted({a for _, a in spiders})
    detail = f"a = {built[0]}..{built[-1]}" if built else (
        "no spider built: the scan misses a = 2..8"
    )
    scanned = f"scan a = {a_lo}..{a_hi}"
    rows = []
    for case in CASES:
        report = threshold_scan(case, a_lo, a_hi)
        first = report.smallest_passing_a
        record = []
        for a in built:
            values = balanced_spider_case(a, case)
            w, w2 = _w_w2(spiders[case, a], budget)
            record += [
                (values.w, w),
                (values.d2, w - w2),
                (values.one_minus_r2_tree, Fraction(w - w2, w)),
                (values.one_minus_r2_path, path_deficit(values.n)),
            ]
        rows += [
            (f"case {case}: first a beating the path is 7",
             f"{scanned}, got {first}", [(first, 7)]),
            (f"case {case}: gap > 0 exactly for a >= 7", scanned,
             [(gap > 0, a >= 7) for a, gap in report.per_a_gap]),
            (f"case {case}: case record = BFS on built spider", detail, record),
        ]
    return [
        _check(name, _agree(pairs), detail) for name, detail, pairs in rows
    ]


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


@_scoped
def _worked_examples(budget: int) -> list[Graph]:
    """The trees of worked_example_checks, each built with its L^2."""
    specs = Spider(7, 7, 7), Spider(6, 6, 6), Spider(3, 4, 5), BalancedQuipu(2)
    return [_with_l2(spec, budget) for spec in specs]


@sweep_once()
def worked_example_checks(budget: int = DEFAULT_BUDGET) -> list[CheckResult]:
    """The frozen worked numbers: every headline constant recomputed from
    scratch (closed form where one exists, BFS oracle everywhere, each
    distinct graph swept once, as in closed_form_oracle_checks), each
    check a row of (value, expected) pairs passing by _agree. Every L^2
    it sweeps is grown within `budget` before the first sweep."""
    spider777, spider666, spider345, quipu2 = _worked_examples(budget)
    w, w2 = _w_w2(spider777, budget)
    w345, w345_2 = _w_w2(spider345, budget)
    wq, wq2 = _w_w2(quipu2, budget)
    case7 = balanced_spider_case(7, "i")
    both = "closed form and BFS"
    rows = [
        ("W(P_22) = 1771", both,
         [(w_path(22), 1771), (_bfs(build(Path(22))), 1771)]),
        ("1 - R2(P_22) = 126/506", "closed form, reduced",
         [(path_deficit(22), Fraction(126, 506))]),
        ("W(T_{7,7,7}) = 1428", both, [(w_spider(7, 7, 7), 1428), (w, 1428)]),
        ("D2(T_{7,7,7}) = 357", both,
         [(d2_spider(7, 7, 7), 357), (w - w2, 357)]),
        ("1 - R2(T_{7,7,7}) = 1/4", "BFS",
         [(Fraction(w - w2, w), Fraction(1, 4))]),
        ("T_{7,7,7} beats P_22", "exact comparison at order 22",
         [(beats_path(spider777, budget), True),
          (Fraction(1, 4) > Fraction(126, 506), True)]),
        ("T_{6,6,6} does not beat P_19", "exact comparison at order 19",
         [(beats_path(spider666, budget), False)]),
        ("W(T_{3,4,5}) = 304 and D2 = 113", both,
         [(w_spider(3, 4, 5), 304), (w345, 304),
          (d2_spider(3, 4, 5), 113), (w345 - w345_2, 113)]),
        ("W of the order-4 star = 9", both,
         [(w_spider(1, 1, 1), 9), (_bfs(build(Star(4))), 9)]),
        ("W(Q_2) = 68 and D2(Q_2) = 22", both,
         [(w_quipu(2), 68), (wq, 68), (d2_quipu(2), 22), (wq - wq2, 22)]),
        ("case i at a=7: W=1428, D2=357, path deficit 126/506", "case record",
         [(case7.w, 1428), (case7.d2, 357),
          (case7.one_minus_r2_path, Fraction(126, 506)), (case7.n, 22)]),
        ("deficit quotient of T_{7,7,7} vs P_22 = 253/252", "exact",
         [(deficit_quotient(7, "i"), Fraction(253, 252))]),
    ]
    return [
        _check(name, _agree(pairs), detail) for name, detail, pairs in rows
    ]


def _bound(value, default: int, low: int, what: str, high=None) -> int:
    """A verify bound: `value`, or `default` when it is None, at least
    `low` and, when `high` is given, at most that search limit."""
    value = default if value is None else value
    if value < low:
        raise ParameterError(f"{what} >= {low}, got {value}")
    if high is not None and value > high:
        raise ParameterError(
            f"{what} <= {high} (the search limit), got {value}"
        )
    return value


def verify_plan(
    names, budget: int = DEFAULT_BUDGET, *,
    max_n=None, max_a=None, a_range=None, a=None
) -> list:
    """The runners of the named VERIFY_BUNDLES, in order, each returning
    its bundle's CheckResults, once every bundle has passed its checks: a
    known name, named once; bounds in range (max_n of buckley and thm1,
    max_a of lemmas, a_range (lo, hi) of thm4, a of thm5; None takes the
    default; errors name the `verify` flags); and the budget, by growing
    each L^2 paper-numbers, lemmas, thm4 sweep (once, inside the caller's
    sweep_once()) and sizing thm1's and thm5's largest line graph."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ParameterError(f"check named twice: {', '.join(repeated)}")
    return [_runner(name, budget, max_n, max_a, a_range, a) for name in names]


def _runner(name: str, budget: int, max_n, max_a, a_range, a):
    """The runner of one bundle of verify_plan, once it is checked."""
    if name == "paper-numbers":
        _worked_examples(budget)
        return lambda: worked_example_checks(budget)
    if name == "buckley":
        top = _bound(
            max_n, _IDENTITY_MAX_N, 2, "buckley needs --max-n", DEFAULT_SEARCH_LIMIT
        )
        return lambda: line_identity_checks(top)
    if name == "lemmas":
        top = _bound(max_a, _ORACLE_MAX_A, 2, "lemmas needs --max-a")
        _oracle_trees(top, _ORACLE_PATH_N, budget)
        return lambda: closed_form_oracle_checks(top, budget=budget)
    if name == "thm4":
        lo, hi = a_range or (_CASE_LO, _CASE_HI)
        if lo < 2 or hi < lo:
            raise ParameterError(
                f"thm4 needs --a-range 2 <= LO <= HI, got {lo}..{hi}"
            )
        _case_spiders(lo, hi, budget)
        return lambda: near_balanced_checks(lo, hi, budget)
    if name == "limits":
        return lambda: limit_quotient_checks()
    if name == "thm5":
        a = _bound(a, 50, 2, "thm5 needs --a")
        _check_ua_budget(a, budget)

        def thm5():
            r = subdivided_quipu_beats_path(a, budget)
            line = f"R2(U_{a}) < R2(path of order {r.n})"
            return [_check(line, r.holds, f"R2(U_a)={r.r2_ua} vs {r.r2_path}")]

        return thm5
    if name == "thm1":
        top = _bound(max_n, 12, 4, "thm1 needs --max-n", DEFAULT_SEARCH_LIMIT)
        # L(star) is the largest L of a tree: top - 1 vertices, most edges
        for predicted in (top - 1, comb(top - 1, 2)):
            check_step_size(predicted, 1, budget)

        def thm1():
            bad = [n for n in range(4, top + 1) if not star_minimizes_r1(n)]
            line = "star uniquely minimizes R1 among trees"
            fails = f"; fails at {bad}" if bad else ""
            return [_check(line, not bad, f"n = 4..{top}{fails}")]

        return thm1
    raise ParameterError(
        f"unknown check {name!r}; pick from {', '.join(VERIFY_BUNDLES)}"
    )
