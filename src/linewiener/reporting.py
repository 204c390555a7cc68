"""Report rendering: text for humans, JSON and CSV for machines.

Exact values never pass through floats. JSON carries each rational as
{"num": "...", "den": "..."} decimal strings; CSV prints "p/q" (bare "p"
for integers) because spreadsheets mangle big integers. Both formats are
versioned: JSON objects carry schema "linewiener/1", CSV starts with a
"# linewiener-csv/1 <kind>" comment line.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from fractions import Fraction
from typing import Optional, Union

from .analysis import (
    CheckResult,
    MinimizerReport,
    RatioReport,
    ThresholdReport,
    WienerReport,
)

JSON_SCHEMA = "linewiener/1"
CSV_SCHEMA = "linewiener-csv/1"

Rationalish = Union[int, Fraction, None]


def rational_text(x: Rationalish) -> str:
    """"p/q", with the "/q" dropped for integers; empty for None."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_json(x: Rationalish):
    """{"num", "den"} decimal strings, or None."""
    if x is None:
        return None
    if isinstance(x, int):
        return {"num": str(x), "den": "1"}
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _bool_text(b: Optional[bool]) -> str:
    if b is None:
        return ""
    return "true" if b else "false"


def _csv_lines(kind: str, header: list[str], rows: list[list[str]],
               comments: list[str] = ()) -> str:
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMA} {kind}\n")
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ----------------------------------------------------------- per-kind JSON

_KINDS = {
    WienerReport: "wiener",
    RatioReport: "ratio",
    MinimizerReport: "search",
    ThresholdReport: "scan",
}


def _json_value(value):
    """A field value in JSON form: rationals exact, codes as text."""
    if isinstance(value, Fraction):
        return rational_json(value)
    if isinstance(value, bytes):
        return value.decode("ascii")
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def _fields_json(obj) -> dict:
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj)}


def report_json(obj) -> dict:
    """Schema-stamped dict for any report type; json.dumps-ready.

    After `schema` and `kind` come the dataclass fields in order; only the
    (a, gap) rows of a scan become {"a", "gap"} objects.
    """
    kind = _KINDS.get(type(obj))
    if kind is None:
        raise TypeError(f"no JSON form for {type(obj).__name__}")
    payload = {"schema": JSON_SCHEMA, "kind": kind} | _fields_json(obj)
    if kind == "scan":
        payload["per_a_gap"] = [
            {"a": a, "gap": rational_json(gap)} for a, gap in obj.per_a_gap
        ]
    return payload


def checks_json(checks: list[CheckResult]) -> dict:
    return {
        "schema": JSON_SCHEMA,
        "kind": "verify",
        "ok": all(c.ok for c in checks),
        "checks": [_fields_json(c) for c in checks],
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ------------------------------------------------------------ per-kind CSV


def report_csv(obj) -> str:
    if isinstance(obj, WienerReport):
        return _csv_lines(
            "wiener", ["order", "wiener"], [[str(obj.order), str(obj.wiener)]]
        )
    if isinstance(obj, RatioReport):
        comments = [
            f"order={obj.order}",
            f"is_tree={_bool_text(obj.is_tree)}",
            f"d2={rational_text(obj.d2)}",
            f"path_r2={rational_text(obj.path_r2)}",
            f"beats_path={_bool_text(obj.beats_path)}",
        ]
        rows = [
            [str(k), rational_text(wk), rational_text(rk)]
            for k, (wk, rk) in enumerate(zip(obj.wiener_k, obj.r_k))
        ]
        return _csv_lines("ratio", ["k", "wiener_k", "r_k"], rows, comments)
    if isinstance(obj, MinimizerReport):
        base = [
            str(obj.order),
            obj.class_description,
            rational_text(obj.min_ratio),
            str(obj.trees_scanned),
        ]
        rows = [base + [w.decode("ascii")] for w in obj.witnesses]
        if not rows:
            rows = [base + [""]]
        return _csv_lines(
            "search",
            ["order", "class_description", "min_ratio", "trees_scanned",
             "witness"],
            rows,
        )
    if isinstance(obj, ThresholdReport):
        comments = [
            f"family_case={obj.family_case}",
            f"smallest_passing_a={obj.smallest_passing_a}",
        ]
        rows = [[str(a), rational_text(gap)] for a, gap in obj.per_a_gap]
        return _csv_lines("scan", ["a", "gap"], rows, comments)
    raise TypeError(f"no CSV form for {type(obj).__name__}")


def checks_csv(checks: list[CheckResult]) -> str:
    rows = [[c.name, _bool_text(c.ok), c.detail] for c in checks]
    return _csv_lines("verify", ["check", "ok", "detail"], rows)


# ----------------------------------------------------------- per-kind text


def report_text(obj) -> str:
    if isinstance(obj, WienerReport):
        return f"{obj.wiener}\n"
    if isinstance(obj, RatioReport):
        lines = [
            f"order {obj.order} ({'tree' if obj.is_tree else 'not a tree'})",
            f"W = {obj.wiener}",
        ]
        for k in range(1, len(obj.wiener_k)):
            wk = obj.wiener_k[k]
            if wk is None:
                lines.append(f"W_{k} undefined (iterate vanished)")
            else:
                lines.append(
                    f"W_{k} = {wk}   R_{k} = {rational_text(obj.r_k[k])}"
                )
        if obj.d2 is not None:
            lines.append(f"D_2 = {obj.d2}")
        if obj.path_r2 is not None:
            lines.append(f"R_2(path of order {obj.order}) = "
                         f"{rational_text(obj.path_r2)}")
        if obj.beats_path is not None:
            verdict = "beats" if obj.beats_path else "does not beat"
            lines.append(f"{verdict} the path of its order")
        return "\n".join(lines) + "\n"
    if isinstance(obj, MinimizerReport):
        lines = [
            f"order {obj.order}, {obj.class_description}",
            f"trees scanned: {obj.trees_scanned}",
            f"min R_2 = {rational_text(obj.min_ratio) or 'undefined (empty class)'}",
            f"witnesses ({len(obj.witnesses)}):",
        ]
        lines += [f"  {w.decode('ascii')}" for w in obj.witnesses]
        return "\n".join(lines) + "\n"
    if isinstance(obj, ThresholdReport):
        lines = [
            f"family case {obj.family_case}",
            f"smallest passing a: {obj.smallest_passing_a}",
        ]
        lines += [
            f"  a={a}  gap = {rational_text(gap)}  ({float(gap):+.6f})"
            for a, gap in obj.per_a_gap
        ]
        return "\n".join(lines) + "\n"
    raise TypeError(f"no text form for {type(obj).__name__}")


def checks_text(checks: list[CheckResult]) -> str:
    lines = []
    for c in checks:
        mark = "PASS" if c.ok else "FAIL"
        lines.append(f"[{mark}] {c.name} ({c.detail})")
    lines.append(f"{sum(c.ok for c in checks)}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- dispatch


def render(obj, fmt: str) -> str:
    """`obj` as a `fmt` ("text", "json" or "csv") report: the CLI's one
    output path.

    `obj` is a report, a list of CheckResult (one verify run), or a list of
    ThresholdReport (a scan set: one "scan-set" object in JSON, the reports
    one after another in text and CSV).
    """
    if isinstance(obj, list) and obj and isinstance(obj[0], ThresholdReport):
        if fmt == "json":
            return render_json({
                "schema": JSON_SCHEMA,
                "kind": "scan-set",
                "scans": [report_json(r) for r in obj],
            })
        return "".join(render(r, fmt) for r in obj)
    checks = isinstance(obj, list)
    if fmt == "json":
        return render_json(checks_json(obj) if checks else report_json(obj))
    if fmt == "csv":
        return checks_csv(obj) if checks else report_csv(obj)
    if fmt == "text":
        return checks_text(obj) if checks else report_text(obj)
    raise ValueError(f"unknown report format {fmt!r}")
