"""Self-tests of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import run
import tracing

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

_TINY_FILTERED = ("search", "min-r2", "--n", "10", "--min-degree3", "2")

TINY = {
    w.name: w
    for w in (
        run.Workload(
            "search-full",
            ("search", "min-r2", "--n", "8"),
            run.SearchExpect(8, "all trees", 23, run.r2_path(8), (run.path_code(8),)),
            23,
        ),
        run.Workload(
            "search-filtered",
            _TINY_FILTERED + ("--jobs", "2"),
            run.SearchExpect(10, "trees with at least 2 vertices of degree 3", 39,
                             Fraction(81, 125), ("((())(()))((())(()))",)),
            106,
            reference_argv=_TINY_FILTERED + ("--jobs", "1"),
        ),
        run.Workload(
            "verify",
            ("verify", "--max-n", "8", "--max-a", "3", "--a-range", "2..8",
             "--a", "10"),
            run.VerifyExpect(33),
            1,
        ),
    )
}


@pytest.fixture(autouse=True)
def scratch_results(monkeypatch):
    results = run.RESULTS / "selftest"
    results.mkdir(parents=True, exist_ok=True)
    monkeypatch.setattr(run, "RESULTS", results)


def bench_json(capsys, argv, workloads=TINY):
    code = run.main(argv, workloads)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    return code, result


def test_expected_values_match_the_paper():
    assert run.r2_path(22) == Fraction(190, 253)
    assert run.r2_path(17) == Fraction(35, 51)
    assert run.path_code(10) == "((((()))))((((()))))"
    assert run.WORKLOADS["verify"].trees == 5446 + 984
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_every_end_to_end_metric_is_emitted_with_its_unit(capsys):
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    code, result = bench_json(
        capsys, ["--workload", "search-filtered", "--seed", "5", "--seconds", "0"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_ROUNDS * (1 + run.SETUP_PER_ROUND)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())

    code, result = bench_json(
        capsys, ["--workload", "all", "--seed", "6", "--seconds", "0"])
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        f"{w}.{name}": unit for w in TINY for name, unit in want.items()}


def test_traced_run_emits_every_per_layer_metric(capsys):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    code, result = bench_json(
        capsys, ["--workload", "verify", "--seed", "1", "--seconds", "0",
                 "--trace", "1"])
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_doctored_stdout_is_rejected():
    full = TINY["search-full"]
    good = full.expect.text()
    assert full.check(0, good) is None
    assert full.check(1, good) == "exit code 1"
    assert full.check(0, good.replace("5/12", "5/13")) is not None
    assert full.check(0, good.replace("23", "22")) is not None
    assert full.check(0, good + "  (())\n") is not None
    assert full.check(0, good.rstrip("\n")) is not None

    verify = TINY["verify"]
    lines = [f"[PASS] check {i} (detail)" for i in range(33)] + ["33/33 checks passed"]
    good = "\n".join(lines) + "\n"
    assert verify.check(0, good) is None
    assert verify.check(0, good.replace("[PASS] check 7", "[FAIL] check 7")) is not None
    assert verify.check(0, good.replace("[PASS] check 7 (detail)\n", "")) is not None
    assert verify.check(0, good.replace("33/33", "32/33")) is not None


def test_failing_runs_count_as_errors_and_never_as_timings(capsys):
    full = TINY["search-full"]
    wrong = run.Workload(
        "search-full", full.argv,
        run.SearchExpect(8, "all trees", 23, Fraction(5, 13), full.expect.witnesses),
        full.trees)
    code, result = bench_json(
        capsys, ["--workload", "search-full", "--seed", "2", "--seconds", "0"],
        {"search-full": wrong})
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1 + run.MIN_ROUNDS
    assert result["attempted"] == 1 + run.MIN_ROUNDS * (1 + run.SETUP_PER_ROUND)
    assert set(result["metrics"]) == {"setup_s"}


def test_times_are_scaled_by_the_loop_time_next_to_them():
    samples = [{"ok": True, "wall_s": 2.0, "cpu_s": 1.0, "peak_rss_mb": 9.0,
                "cal_s": run.CAL_REF_S * 2},
               {"ok": False, "wall_s": 99.0, "cpu_s": 99.0, "peak_rss_mb": 99.0,
                "cal_s": run.CAL_REF_S}]
    setups = [{"wall_s": 0.3, "cal_s": run.CAL_REF_S / 2}]
    w = TINY["search-full"]
    scaled = run.end_to_end_metrics(w, samples, setups)
    assert {k: v["median"] for k, v in scaled.items()} == pytest.approx({
        "setup_s": 0.6, "wall_s": 1.0, "cpu_s": 0.5, "trees_per_s": 23.0,
        "peak_rss_mb": 9.0})
    unscaled = run.end_to_end_metrics(w, samples, setups, scaled=False)
    assert {k: v["median"] for k, v in unscaled.items()} == pytest.approx({
        "setup_s": 0.3, "wall_s": 2.0, "cpu_s": 1.0, "trees_per_s": 11.5,
        "peak_rss_mb": 9.0})


def test_traced_spans_nest_under_their_parents():
    tracer = tracing.Tracer()
    from linewiener import analysis

    original = analysis.min_r2_search
    tracer.install()
    try:
        for name in ("search-full", "verify"):
            code, stdout, _ = tracing.replay(TINY[name])
            assert TINY[name].check(code, stdout) is None
            spans = tracer.take()
            roots = [s for s in spans if s[1] < 0]
            assert [s[0] for s in roots] == ["cli.main"]
            layers = {tracing.metric_layer(m) for m in tracing.LAYERS}
            for i, (span_name, parent, t0, t1, _) in enumerate(spans):
                assert tracing.layer_of(span_name) in layers
                assert t0 <= t1
                if parent >= 0:
                    assert parent < i
                    _, _, p0, p1, _ = spans[parent]
                    assert p0 <= t0 and t1 <= p1
            self_s = tracing.self_times(spans)
            total = (roots[0][3] - roots[0][2]) / 1e9
            assert sum(self_s.values()) == pytest.approx(total)
    finally:
        tracer.uninstall()
    assert analysis.min_r2_search is original
