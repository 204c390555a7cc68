"""Traced layer suite: per-layer metrics of the linewiener benchmark.

The layers are the modules of src/linewiener (graphio is left out: no
workload reads graph files). Tracing lives here, not in the program: a
Tracer rebinds every public function of each layer, in every linewiener
module that refers to it, to a wrapper that records a span (name, parent,
start, end, result size). A generator function gets one span per item it
yields. Spans are kept in memory and summarised when a replay ends. Only
the process that installed the wrappers records; forked Pool workers run
the original code, so their work shows as the parent's wait in
`analysis.min_r2_search`.

The suite replays each workload's CLI command in-process through
`cli.main`, traced, and reads the stage costs off the spans. The workloads
that were asked for also report each layer's self time, and are replayed
untraced just before, which gives the tracing overhead. Direct
probes of public functions, untraced, give the costs no replay isolates:
the layout walk, the filtered stream, canonical codes, a one-job search
and report rendering. Every replay and probe result is checked.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS = ("cli", "analysis", "enumeration", "_fast", "graphs", "families",
          "formulas", "reporting")

# analysis function called by `verify` -> the bundle it implements
BUNDLES = {
    "worked_example_checks": "paper-numbers",
    "line_identity_checks": "buckley",
    "closed_form_oracle_checks": "lemmas",
    "near_balanced_checks": "thm4",
    "limit_quotient_checks": "limits",
    "subdivided_quipu_beats_path": "thm5",
    "star_minimizes_r1": "thm1",
}

RENDER_REPEATS = 50
CODE_REPEATS = 5


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def metric_layer(module: str) -> str:
    """Metric names must start with a letter, so `_fast` reports as `fast`."""
    return module.lstrip("_")


class Tracer:
    """In-memory spans around every public function of the layers."""

    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start_ns, end_ns, size)
        self.stack = [-1]
        self.pid = os.getpid()
        self.last_args: dict = {}
        self._patches: list = []

    def wrap(self, name, func):
        spans, stack, last_args, pid = self.spans, self.stack, self.last_args, self.pid
        clock, getpid = time.perf_counter_ns, os.getpid

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def traced_items(*args, **kwargs):
                items = func(*args, **kwargs)
                if getpid() != pid:
                    yield from items
                    return
                while True:
                    i = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(i)
                    t0 = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        spans[i] = (name, parent, t0, clock(), 0)
                        stack.pop()
                    yield item
            return traced_items

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if getpid() != pid:
                return func(*args, **kwargs)
            last_args[name] = args
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans[i] = (name, parent, t0, clock(), 0)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            size = (len(result) if type(result) is list
                    else getattr(result, "vertex_count", 0))
            spans[i] = (name, parent, t0, t1, size)
            return result
        return traced

    def install(self) -> None:
        import linewiener

        modules = [linewiener] + [
            importlib.import_module(f"linewiener.{m.name}")
            for m in pkgutil.iter_modules(linewiener.__path__)
        ]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"linewiener.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{metric_layer(layer)}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def take(self) -> list:
        out = self.spans[:]
        del self.spans[:]
        return out


def by_name(spans) -> dict[str, list]:
    """span name -> [calls, total s, self s]; self time excludes the
    spans nested directly inside."""
    child = [0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, _, t0, t1, _) in enumerate(spans):
        row = out[name]
        row[0] += 1
        row[1] += (t1 - t0) / 1e9
        row[2] += (t1 - t0 - child[i]) / 1e9
    return dict(out)


def self_times(spans) -> dict[str, float]:
    """Seconds each layer spent outside the spans nested in its own."""
    out = {metric_layer(layer): 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in by_name(spans).items():
        out[layer_of(name)] += self_s
    return out


def bundles(spans) -> list:
    """The verify bundle each span runs under (None outside bundles)."""
    out = [None] * len(spans)
    for i, (name, parent, *_) in enumerate(spans):
        if parent < 0:
            continue
        if spans[parent][1] < 0:
            out[i] = BUNDLES.get(name.split(".", 1)[1])
        else:
            out[i] = out[parent]
    return out


def mean_us(spans) -> float:
    return statistics.fmean(t1 - t0 for _, _, t0, t1, _ in spans) / 1e3


def replay(workload):
    """Run the workload's command through cli.main in this process."""
    from linewiener import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(list(workload.argv))
        seconds = time.perf_counter() - t0
    return code, buf.getvalue(), seconds


def search_stage_metrics(spans) -> dict:
    """Per-tree costs of the k=2 evaluation; line_masks alternates L, L^2."""
    named = defaultdict(list)
    for s in spans:
        named[s[0]].append(s)
    lines = named["fast.line_masks"]
    l1, l2 = lines[0::2], lines[1::2]
    return {
        "fast.wiener_tree_layout_us": (mean_us(named["fast.wiener_tree_layout"]), "us"),
        "fast.layout_masks_us": (mean_us(named["fast.layout_masks"]), "us"),
        "fast.line_masks_l1_us": (mean_us(l1), "us"),
        "fast.line_masks_l2_us": (mean_us(l2), "us"),
        "fast.wiener_masks_l2_us": (mean_us(named["fast.wiener_masks"]), "us"),
        "fast.l2_vertices_per_tree": (statistics.fmean(s[4] for s in l2), "count"),
    }


def verify_stage_metrics(spans) -> dict:
    owner = bundles(spans)
    bundle_s = dict.fromkeys(BUNDLES.values(), 0.0)
    thm5 = defaultdict(list)
    buckley = defaultdict(list)
    for i, s in enumerate(spans):
        name, parent, t0, t1, _ = s
        if parent >= 0 and spans[parent][1] < 0 and owner[i]:
            bundle_s[owner[i]] += (t1 - t0) / 1e9
        if owner[i] == "thm5":
            thm5[name].append(s)
        elif owner[i] == "buckley":
            buckley[name].append(s)
    layer_self = self_times(spans)
    out = {f"analysis.verify.{b}_s": (v, "s") for b, v in bundle_s.items()}
    out |= {
        "graphs.line_graph_s": (
            sum(t1 - t0 for _, _, t0, t1, _ in thm5["graphs.line_graph"]) / 1e9, "s"),
        "graphs.wiener_index_l2_s": (
            max(t1 - t0 for _, _, t0, t1, _ in thm5["graphs.wiener_index"]) / 1e9, "s"),
        "graphs.l2_vertices": (
            max(s[4] for s in thm5["graphs.iterated_line_graph"]), "count"),
        "fast.line_masks_k1_us": (mean_us(buckley["fast.line_masks"]), "us"),
        "fast.wiener_masks_k1_us": (mean_us(buckley["fast.wiener_masks"]), "us"),
        "families.build_ms": (layer_self["families"] * 1e3, "ms"),
        "formulas.closed_forms_ms": (layer_self["formulas"] * 1e3, "ms"),
    }
    return out


def render_all(report) -> None:
    from linewiener import reporting

    if isinstance(report, list):
        reporting.checks_text(report)
        reporting.render_json(reporting.checks_json(report))
        reporting.checks_csv(report)
    else:
        reporting.report_text(report)
        reporting.render_json(reporting.report_json(report))
        reporting.report_csv(report)


def timed(func, *args, **kwargs):
    t0 = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - t0


def run_suite(workloads: dict, selected: list, tally):
    """Replay and probe; returns ({workload: metrics}, detail for the record).

    `workloads` must hold `search-full`, `search-filtered` and `verify`.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from linewiener import analysis, cli, enumeration, reporting

    full, filtered, verify = (workloads[k] for k in
                              ("search-full", "search-filtered", "verify"))
    tracer = Tracer()
    stage: dict[str, tuple] = {}
    per_workload = {}
    reports = []
    detail = {}
    for w in (full, filtered, verify):
        if w in selected:
            code, stdout, untraced = replay(w)
            tally.gate(f"{w.name} untraced replay", w.check(code, stdout))
        tracer.install()
        try:
            code, stdout, seconds = replay(w)
        finally:
            tracer.uninstall()
        tally.gate(f"{w.name} traced replay", w.check(code, stdout))
        spans = tracer.take()
        detail[w.name] = {"spans": len(spans), "seconds": seconds,
                          "by_name": by_name(spans)}
        key = "reporting.checks_text" if w is verify else "reporting.report_text"
        reports.append(tracer.last_args.pop(key)[0])
        if w is full:
            stage |= search_stage_metrics(spans)
        elif w is filtered:
            stage["analysis.min_r2_search_jobs2_s"] = (
                sum(t1 - t0 for n, _, t0, t1, _ in spans
                    if n == "analysis.min_r2_search") / 1e9, "s")
        else:
            stage |= verify_stage_metrics(spans)
        if w in selected:
            layer_self = self_times(spans)
            metrics = {f"{layer}.self_s": (v, "s") for layer, v in layer_self.items()}
            metrics["trace.overhead_share"] = (seconds / untraced - 1, "ratio")
            metrics["trace.fast_enumeration_share"] = (
                (layer_self["fast"] + layer_self["enumeration"]) / seconds, "ratio")
            metrics["trace.spans"] = (len(spans), "count")
            per_workload[w.name] = metrics

    args = cli.build_parser().parse_args(list(filtered.argv))
    walked, seconds = timed(lambda: sum(1 for _ in enumeration.free_tree_layouts(args.n)))
    tally.gate("layout walk", None if walked == filtered.trees
               else f"{walked} layouts, expected {filtered.trees}")
    stage["enumeration.us_per_layout"] = (seconds / walked * 1e6, "us")

    filters = {"max_degree": args.max_degree, "min_max_degree": args.min_max_degree,
               "min_degree3_count": args.min_degree3}
    trees, seconds = timed(lambda: list(enumeration.free_trees(args.n, **filters)))
    tally.gate("filtered stream", None if len(trees) == filtered.expect.scanned
               else f"{len(trees)} trees, expected {filtered.expect.scanned}")
    stage["enumeration.filtered_us_per_tree"] = (seconds / len(trees) * 1e6, "us")

    per_code = []
    for _ in range(CODE_REPEATS):
        codes, seconds = timed(lambda: [enumeration.canonical_code(t) for t in trees])
        per_code.append(seconds / len(trees))
    witness = filtered.expect.witnesses[0].encode()
    tally.gate("canonical codes", None if witness in codes
               else "the search witness is not among the filtered trees")
    stage["enumeration.canonical_code_us"] = (statistics.median(per_code) * 1e6, "us")

    report, seconds = timed(analysis.min_r2_search, args.n, **filters, jobs=1)
    tally.gate("one-job search", filtered.check(0, reporting.report_text(report)))
    jobs2 = stage["analysis.min_r2_search_jobs2_s"][0]
    stage["analysis.min_r2_search_jobs1_s"] = (seconds, "s")
    stage["analysis.parallel_efficiency"] = (seconds / (args.jobs * jobs2), "ratio")

    t0 = time.perf_counter()
    for _ in range(RENDER_REPEATS):
        for r in reports:
            render_all(r)
    stage["reporting.render_us"] = (
        (time.perf_counter() - t0) / (RENDER_REPEATS * len(reports)) * 1e6, "us")

    out = {}
    for w in selected:
        metrics = per_workload[w.name] | stage
        out[w.name] = {name: {"median": v, "q1": v, "q3": v, "n": 1, "unit": unit}
                       for name, (v, unit) in sorted(metrics.items())}
    return out, detail
