"""Rendering reports as JSON, CSV, and text without losing exactness."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from linewiener import (
    CheckResult,
    LineWienerError,
    WienerReport,
    build,
    min_r2_search,
    parse_family,
    ratio_rk,
    subdivided_quipu_scan,
    threshold_scan,
)
from linewiener.reporting import (
    CSV_SCHEMA,
    JSON_SCHEMA,
    checks_csv,
    checks_json,
    checks_text,
    rational_json,
    rational_text,
    render,
    render_json,
    report_csv,
    report_json,
    report_text,
)


def sample_reports():
    return [
        ratio_rk(build(parse_family("spider:7,7,7")), 2),
        ratio_rk(build(parse_family("path:2")), 2),  # has None slots
        min_r2_search(8),
        threshold_scan("i", 2, 9),
        subdivided_quipu_scan(2, 6),
    ]


def test_rational_rendering():
    assert rational_text(Fraction(190, 253)) == "190/253"
    assert rational_text(Fraction(5)) == "5"
    assert rational_text(7) == "7"
    assert rational_text(None) == ""
    assert rational_json(Fraction(-3, 7)) == {"num": "-3", "den": "7"}
    assert rational_json(None) is None


def test_json_round_trips_exact_rationals():
    # digits beyond float precision must survive the trip
    big = Fraction(10**40 + 1, 10**40 - 3)
    blob = rational_json(big)
    assert Fraction(int(blob["num"]), int(blob["den"])) == big


def test_report_json_is_parseable_and_exact():
    for report in sample_reports():
        payload = report_json(report)
        assert payload["schema"] == JSON_SCHEMA
        text = render_json(payload)
        parsed = json.loads(text)
        assert parsed == payload
    ratio = report_json(sample_reports()[0])
    assert ratio["kind"] == "ratio"
    r2 = ratio["r_k"][2]
    assert Fraction(int(r2["num"]), int(r2["den"])) == Fraction(3, 4)


def test_csv_has_versioned_schema_line():
    for report in sample_reports():
        lines = report_csv(report).splitlines()
        assert lines[0].startswith(f"# {CSV_SCHEMA} ")
        header = next(l for l in lines if not l.startswith("#"))
        assert "," in header


def test_search_csv_denormalizes_witnesses():
    report = min_r2_search(8)
    lines = report_csv(report).splitlines()
    rows = [l for l in lines if not l.startswith("#") ][1:]
    assert len(rows) == len(report.witnesses)
    for row in rows:
        assert row.startswith("8,")


def test_text_reports_mention_the_verdict():
    text = report_text(ratio_rk(build(parse_family("spider:7,7,7")), 2))
    assert "beats the path" in text
    text = report_text(ratio_rk(build(parse_family("path:22")), 2))
    assert "does not beat" in text


def test_text_handles_undefined_slots():
    # L^2 of P_2 is empty, so W_2, R_2, and the verdict are all blank
    text = report_text(ratio_rk(build(parse_family("path:2")), 2))
    assert "undefined" in text


def test_wiener_renderers():
    report = WienerReport(order=22, wiener=1771)
    payload = json.loads(render(report, "json"))
    assert list(payload.items()) == [
        ("schema", JSON_SCHEMA),
        ("kind", "wiener"),
        ("order", 22),
        ("wiener", 1771),
    ]
    lines = render(report, "csv").splitlines()
    assert lines[-1] == "22,1771"
    assert render(report, "text") == "1771\n"


def test_checks_renderers():
    checks = [
        CheckResult("first", True, "fine"),
        CheckResult("second", False, "broke"),
    ]
    text = checks_text(checks)
    assert "[PASS] first" in text
    assert "[FAIL] second" in text
    assert "1/2 checks passed" in text
    payload = checks_json(checks)
    assert payload["kind"] == "verify"
    assert payload["ok"] is False
    assert [c["ok"] for c in payload["checks"]] == [True, False]
    assert json.loads(render_json(payload)) == payload
    lines = checks_csv(checks).splitlines()
    assert lines[-1] == "second,false,broke"


def test_render_dispatches_to_the_per_kind_renderers():
    reports = sample_reports()
    for report in reports:
        assert render(report, "text") == report_text(report)
        assert render(report, "json") == render_json(report_json(report))
        assert render(report, "csv") == report_csv(report)
    checks = [CheckResult("only", True, "fine")]
    assert render(checks, "text") == checks_text(checks)
    assert render(checks, "json") == render_json(checks_json(checks))
    assert render(checks, "csv") == checks_csv(checks)
    scans = reports[3:]
    assert json.loads(render(scans, "json")) == {
        "schema": JSON_SCHEMA,
        "kind": "scan-set",
        "scans": [report_json(r) for r in scans],
    }
    assert render(scans, "csv") == "".join(map(report_csv, scans))
    with pytest.raises(ValueError):
        render(checks, "xml")
    with pytest.raises(LineWienerError):
        render(checks, "xml")
