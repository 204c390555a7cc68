"""Command-line interface.

Subcommands: wiener, line, ratio, family, enumerate, scan, verify, search.
Reports go to stdout (text by default, --format json|csv for machines),
diagnostics to stderr. Exit codes: 0 success, 1 a verification check
failed, 2 bad usage or invalid input (including budget and search-limit
refusals).

Graphs come from --family spec text (e.g. spider:7,7,7) or --file (edge
list or graph6, sniffed from the extension; "-" reads stdin). The iterate
size budget defaults to the LINEWIENER_BUDGET environment variable when
set.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import analysis, reporting
from .enumeration import free_trees
from .errors import LineWienerError, ParameterError
from .families import build, parse_family
from .graphio import read_graph, sniff_format, write_graph
from .graphs import DEFAULT_BUDGET, Graph, iterated_line_graph, wiener_index

BUDGET_ENV = "LINEWIENER_BUDGET"

_GRAPH_FORMATS = ("edge-list", "graph6")
_REPORT_FORMATS = ("text", "json", "csv")

VERIFY_CHECKS = (
    "paper-numbers",
    "buckley",
    "lemmas",
    "thm4",
    "limits",
    "thm5",
    "thm1",
)


def _parse_pair(text: str, sep: str, what: str, example: str) -> tuple[int, int]:
    """Two ints joined by `sep`, as in `example` ("2..30", "0/4")."""
    first, found, second = text.partition(sep)
    try:
        if not found:
            raise ValueError
        return int(first), int(second)
    except ValueError:
        raise ParameterError(
            f"{what} must look like {example}, got {text!r}"
        ) from None


def _a_range(args, default_hi: int) -> tuple[int, int]:
    """--a-range, or 2..default_hi when it is not given."""
    if not args.a_range:
        return 2, default_hi
    return _parse_pair(args.a_range, "..", "range", "2..30")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--family",
        metavar="SPEC",
        help="family spec text, e.g. path:22, spider:7,7,7, ua:50",
    )
    group.add_argument(
        "--file",
        metavar="PATH",
        help="graph file (edge list or graph6); '-' reads stdin",
    )
    parser.add_argument(
        "--input-format",
        choices=_GRAPH_FORMATS,
        help="force the --file format instead of sniffing the extension",
    )


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        metavar="N",
        help="max vertices/edges allowed for any line-graph iterate "
        f"(default {DEFAULT_BUDGET}, or ${BUDGET_ENV})",
    )


def _add_format(parser: argparse.ArgumentParser, choices, what: str) -> None:
    parser.add_argument(
        "--format",
        choices=choices,
        default=choices[0],
        help=f"{what} format (default {choices[0]})",
    )


def _add_degree_filters(parser: argparse.ArgumentParser, verb: str) -> None:
    parser.add_argument(
        "--max-degree", type=int, help=f"{verb} trees with max degree <= D"
    )
    parser.add_argument(
        "--min-max-degree", type=int, help=f"{verb} trees with max degree >= D"
    )
    parser.add_argument(
        "--min-degree3",
        type=int,
        metavar="M",
        help=f"{verb} trees with at least M vertices of degree exactly 3",
    )


def _degree_filters(args) -> dict:
    """The degree filter flags as keyword arguments of the tree stream."""
    return {
        "max_degree": args.max_degree,
        "min_max_degree": args.min_max_degree,
        "min_degree3_count": args.min_degree3,
    }


def _load_graph(args) -> Graph:
    if args.family is not None:
        return build(parse_family(args.family))
    if args.file == "-":
        data = sys.stdin.buffer.read()
        fmt = args.input_format or "edge-list"
    else:
        with open(args.file, "rb") as fh:
            data = fh.read()
        fmt = args.input_format or sniff_format(args.file)
    return read_graph(data, fmt)


def _budget_of(args) -> int:
    """--budget, else $LINEWIENER_BUDGET, else DEFAULT_BUDGET."""
    if getattr(args, "budget", None) is not None:
        if args.budget < 1:
            raise ParameterError(f"budget must be >= 1, got {args.budget}")
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise ParameterError(
            f"{BUDGET_ENV} must be a positive integer, got {raw!r}"
        ) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linewiener",
        description="Exact Wiener indices of iterated line graphs: compute, "
        "compare against the path, scan families, search tree space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wiener", help="Wiener index of a graph")
    _add_graph_source(p)
    _add_format(p, _REPORT_FORMATS, "report")

    p = sub.add_parser("line", help="emit the k-th iterated line graph")
    _add_graph_source(p)
    p.add_argument("-k", type=int, default=1, help="iterations (default 1)")
    _add_budget(p)
    _add_format(p, _GRAPH_FORMATS, "graph output")

    p = sub.add_parser(
        "ratio", help="W, W_k, R_k report with the equal-order path benchmark"
    )
    _add_graph_source(p)
    p.add_argument("-k", type=int, default=2, help="max iteration (default 2)")
    _add_budget(p)
    _add_format(p, _REPORT_FORMATS, "report")

    p = sub.add_parser("family", help="build a family member and emit it")
    p.add_argument("spec", help="family spec text, e.g. quipu:3;4,5,6")
    _add_format(p, _GRAPH_FORMATS, "graph output")

    p = sub.add_parser(
        "enumerate", help="stream all free trees of an order as graph6 lines"
    )
    p.add_argument("--n", type=int, required=True, help="tree order")
    _add_degree_filters(p, "keep")
    p.add_argument(
        "--stripe",
        metavar="I/K",
        help="emit only stream positions congruent to I mod K",
    )

    p = sub.add_parser(
        "scan",
        help="deficit gap of a spider case (i/ii/iii) or the ua family "
        "over a parameter range",
    )
    p.add_argument(
        "--case",
        choices=("i", "ii", "iii", "all", "ua"),
        required=True,
    )
    p.add_argument(
        "--a-range",
        metavar="LO..HI",
        help="parameter range (default 2..30, ua default 2..50)",
    )
    p.add_argument(
        "--stop-at-first",
        action="store_true",
        help="ua only: stop scanning at the first a that beats the path",
    )
    _add_budget(p)
    _add_format(p, _REPORT_FORMATS, "report")

    p = sub.add_parser(
        "verify",
        help="run verification bundles; exit 0 iff every check passes",
    )
    p.add_argument(
        "checks",
        nargs="*",
        metavar="CHECK",
        help=f"subset of {', '.join(VERIFY_CHECKS)} (default: all)",
    )
    p.add_argument("--max-n", type=int, help="buckley/thm1 order bound")
    p.add_argument("--max-a", type=int, help="lemmas parameter bound (default 8)")
    p.add_argument(
        "--a-range", metavar="LO..HI", help="thm4 scan range (default 2..30)"
    )
    p.add_argument("--a", type=int, help="thm5 parameter (default 50)")
    _add_budget(p)
    _add_format(p, _REPORT_FORMATS, "report")

    p = sub.add_parser(
        "search", help="exhaustive exact minimization over trees of an order"
    )
    p.add_argument("mode", choices=("min-r2",))
    p.add_argument("--n", type=int, required=True, help="tree order")
    _add_degree_filters(p, "only")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--limit",
        type=int,
        default=analysis.DEFAULT_SEARCH_LIMIT,
        help="refuse orders above this exhaustiveness cap "
        f"(default {analysis.DEFAULT_SEARCH_LIMIT})",
    )
    _add_format(p, _REPORT_FORMATS, "report")

    return parser


def _cmd_wiener(args) -> int:
    g = _load_graph(args)
    report = analysis.WienerReport(order=g.vertex_count, wiener=wiener_index(g))
    sys.stdout.write(reporting.render(report, args.format))
    return 0


def _cmd_line(args) -> int:
    g = _load_graph(args)
    if args.k < 0:
        raise ParameterError(f"-k must be >= 0, got {args.k}")
    h = iterated_line_graph(g, args.k, _budget_of(args))
    sys.stdout.buffer.write(write_graph(h, args.format))
    return 0


def _cmd_ratio(args) -> int:
    g = _load_graph(args)
    report = analysis.ratio_rk(g, args.k, _budget_of(args))
    sys.stdout.write(reporting.render(report, args.format))
    return 0


def _cmd_family(args) -> int:
    g = build(parse_family(args.spec))
    sys.stdout.buffer.write(write_graph(g, args.format))
    return 0


def _cmd_enumerate(args) -> int:
    stripe = _parse_pair(args.stripe, "/", "stripe", "0/4") if args.stripe else None
    out = sys.stdout.buffer
    for t in free_trees(args.n, **_degree_filters(args), stripe=stripe):
        out.write(write_graph(t, "graph6"))
    return 0


def _cmd_scan(args) -> int:
    budget = _budget_of(args)
    if args.case == "ua":
        lo, hi = _a_range(args, 50)
        scanned = analysis.subdivided_quipu_scan(
            lo, hi, budget, stop_at_first_pass=args.stop_at_first
        )
    else:
        if args.stop_at_first:
            raise ParameterError("--stop-at-first only applies to --case ua")
        lo, hi = _a_range(args, 30)
        cases = ("i", "ii", "iii") if args.case == "all" else (args.case,)
        scanned = [analysis.threshold_scan(case, lo, hi) for case in cases]
    sys.stdout.write(reporting.render(scanned, args.format))
    return 0


def _bound(value: Optional[int], default: int, low: int, what: str) -> int:
    """A verify bound: the flag's value, or `default` when it is not given."""
    value = default if value is None else value
    if value < low:
        raise ParameterError(f"{what} >= {low}, got {value}")
    return value


def _verify_bundle(name: str, args, budget: int):
    """The runner of one verify bundle, once its bounds have passed, so
    that a bad bound fails before any bundle's work is spent."""
    if name == "paper-numbers":
        return lambda: analysis.worked_example_checks(budget)
    if name == "buckley":
        max_n = _bound(args.max_n, 14, 2, "buckley needs --max-n")
        return lambda: analysis.line_identity_checks(max_n)
    if name == "lemmas":
        max_a = _bound(args.max_a, 8, 2, "lemmas needs --max-a")
        return lambda: analysis.closed_form_oracle_checks(max_a)
    if name == "thm4":
        lo, hi = _a_range(args, 30)
        if lo < 2 or hi < lo:
            raise ParameterError(
                f"thm4 needs --a-range 2 <= LO <= HI, got {lo}..{hi}"
            )
        return lambda: analysis.near_balanced_checks(lo, hi)
    if name == "limits":
        return lambda: analysis.limit_quotient_checks()
    if name == "thm5":
        a = _bound(args.a, 50, 2, "thm5 needs --a")

        def thm5():
            result = analysis.subdivided_quipu_beats_path(a, budget)
            return [
                analysis.CheckResult(
                    name=f"R2(U_{a}) < R2(path of order {result.n})",
                    ok=result.holds,
                    detail=f"R2(U_a)={reporting.rational_text(result.r2_ua)} "
                    f"vs {reporting.rational_text(result.r2_path)}",
                )
            ]

        return thm5
    if name == "thm1":
        top = _bound(args.max_n, 12, 4, "thm1 needs --max-n")
        if top > analysis.DEFAULT_SEARCH_LIMIT:
            raise ParameterError(
                f"thm1 needs --max-n <= {analysis.DEFAULT_SEARCH_LIMIT} "
                f"(the search limit), got {top}"
            )

        def thm1():
            failures = [
                n for n in range(4, top + 1) if not analysis.star_minimizes_r1(n)
            ]
            return [
                analysis.CheckResult(
                    name="star uniquely minimizes R1 among trees",
                    ok=not failures,
                    detail=f"n = 4..{top}"
                    + (f"; fails at {failures}" if failures else ""),
                )
            ]

        return thm1
    raise ParameterError(
        f"unknown check {name!r}; pick from {', '.join(VERIFY_CHECKS)}"
    )


def _cmd_verify(args) -> int:
    selected = tuple(args.checks) if args.checks else VERIFY_CHECKS
    budget = _budget_of(args)
    runners = [_verify_bundle(name, args, budget) for name in selected]
    checks = [check for run in runners for check in run()]
    sys.stdout.write(reporting.render(checks, args.format))
    return 0 if all(c.ok for c in checks) else 1


def _cmd_search(args) -> int:
    report = analysis.min_r2_search(
        args.n, **_degree_filters(args), jobs=args.jobs, limit=args.limit
    )
    sys.stdout.write(reporting.render(report, args.format))
    return 0


_COMMANDS = {
    "wiener": _cmd_wiener,
    "line": _cmd_line,
    "ratio": _cmd_ratio,
    "family": _cmd_family,
    "enumerate": _cmd_enumerate,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "search": _cmd_search,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # keep the shutdown flush of the broken stream from dying too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (LineWienerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
