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
from .families import Complete, build, parse_family, spec_order
from .graphio import read_graph, sniff_format, write_graph
from .graphs import DEFAULT_BUDGET, Graph, check_step_size, iterated_line_graph
from .graphs import wiener_index

BUDGET_ENV = "LINEWIENER_BUDGET"

_GRAPH_FORMATS = ("edge-list", "graph6")
_REPORT_FORMATS = ("text", "json", "csv")


def _a_range(args, default: Optional[tuple[int, int]]):
    """--a-range as (LO, HI), or `default` when it is not given."""
    if not args.a_range:
        return default
    try:
        lo, hi = map(int, args.a_range.split(".."))
    except ValueError:
        raise ParameterError(
            f"range must look like 2..30, got {args.a_range!r}"
        ) from None
    return lo, hi


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
    """The degree filter flags as keyword arguments of the tree stream.

    A negative bound is refused: it would describe an empty or unfiltered
    class while the report named it as a filter.
    """
    bounds = [
        ("max_degree", "--max-degree", args.max_degree),
        ("min_max_degree", "--min-max-degree", args.min_max_degree),
        ("min_degree3_count", "--min-degree3", args.min_degree3),
    ]
    for _, flag, value in bounds:
        if value is not None and value < 0:
            raise ParameterError(f"{flag} must be >= 0, got {value}")
    return {name: value for name, _, value in bounds}


def _load_graph(args, k: int) -> Graph:
    """The --family or --file graph. A --family graph to be iterated k >= 1
    times is sized first: L(g) has one vertex per edge of g, so step 1's
    first budget check needs no build."""
    if args.family is not None:
        spec = parse_family(args.family)
        if k >= 1:
            n = spec_order(spec)
            edges = n * (n - 1) // 2 if isinstance(spec, Complete) else n - 1
            check_step_size(edges, 1, _budget_of(args))
        return build(spec)
    if args.file == "-":
        data = sys.stdin.buffer.read()
        fmt = args.input_format or "edge-list"
    else:
        with open(args.file, "rb") as fh:
            data = fh.read()
        fmt = args.input_format or sniff_format(args.file)
    return read_graph(data, fmt)


def _iterations(args, least: int) -> int:
    """-k, refused below `least` before any graph is loaded."""
    if args.k < least:
        raise ParameterError(f"-k must be >= {least}, got {args.k}")
    return args.k


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
    _add_format(p, _REPORT_FORMATS, "report")

    p = sub.add_parser(
        "verify",
        help="run verification bundles; exit 0 iff every check passes",
    )
    p.add_argument(
        "checks",
        nargs="*",
        metavar="CHECK",
        help=f"subset of {', '.join(analysis.VERIFY_BUNDLES)} (default: all)",
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
    g = _load_graph(args, 0)
    report = analysis.WienerReport(order=g.vertex_count, wiener=wiener_index(g))
    sys.stdout.write(reporting.render(report, args.format))
    return 0


def _cmd_line(args) -> int:
    k = _iterations(args, 0)
    h = iterated_line_graph(_load_graph(args, k), k, _budget_of(args))
    sys.stdout.buffer.write(write_graph(h, args.format))
    return 0


def _cmd_ratio(args) -> int:
    k = _iterations(args, 1)
    report = analysis.ratio_rk(_load_graph(args, k), k, _budget_of(args))
    sys.stdout.write(reporting.render(report, args.format))
    return 0


def _cmd_family(args) -> int:
    g = build(parse_family(args.spec))
    sys.stdout.buffer.write(write_graph(g, args.format))
    return 0


def _cmd_enumerate(args) -> int:
    out = sys.stdout.buffer
    for t in free_trees(args.n, **_degree_filters(args)):
        out.write(write_graph(t, "graph6"))
    return 0


def _cmd_scan(args) -> int:
    if args.case == "ua":
        scanned = [analysis.subdivided_quipu_scan(*_a_range(args, (2, 50)))]
    else:
        lo, hi = _a_range(args, (2, 30))
        cases = ("i", "ii", "iii") if args.case == "all" else (args.case,)
        scanned = [analysis.threshold_scan(case, lo, hi) for case in cases]
    sys.stdout.write(reporting.render(scanned, args.format))
    return 0


def _cmd_verify(args) -> int:
    runners = analysis.verify_plan(
        args.checks or analysis.VERIFY_BUNDLES,
        _budget_of(args),
        max_n=args.max_n,
        max_a=args.max_a,
        a_range=_a_range(args, None),
        a=args.a,
    )
    # the bundles share their sweeps, within this command alone
    with analysis.sweep_once():
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
    except KeyboardInterrupt:
        # the search has already killed and reaped its --jobs workers
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
