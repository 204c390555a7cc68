"""End-to-end command-line behavior through main(argv)."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from linewiener.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fraction_of(blob):
    return Fraction(int(blob["num"]), int(blob["den"]))


def test_wiener_text_output(capsys):
    code, out, err = run(capsys, "wiener", "--family", "path:22")
    assert code == 0
    assert err == ""
    assert out.strip() == "1771"


def test_wiener_trivial_path(capsys):
    code, out, _ = run(capsys, "wiener", "--family", "path:1")
    assert code == 0
    assert out.strip() == "0"


def test_wiener_json(capsys):
    code, out, _ = run(capsys, "wiener", "--family", "spider:7,7,7", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "wiener"
    assert payload["order"] == 22
    assert payload["wiener"] == 1428


def test_ratio_json_is_exact(capsys):
    code, out, _ = run(
        capsys, "ratio", "--family", "spider:7,7,7", "-k", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["wiener_k"] == [1428, 1197, 1071]
    assert fraction_of(payload["r_k"][2]) == Fraction(3, 4)
    assert fraction_of(payload["path_r2"]) == Fraction(190, 253)
    assert payload["beats_path"] is True


def test_line_emits_graph6(capsys):
    code, out, _ = run(
        capsys, "line", "--family", "path:4", "-k", "1", "--format", "graph6"
    )
    assert code == 0
    assert out == "Bg\n"


def test_family_edge_list(capsys):
    code, out, _ = run(capsys, "family", "spider:1,1,1")
    assert code == 0
    assert out == "0 1\n0 2\n0 3\n"


def test_file_input_with_sniffing(tmp_path, capsys):
    edges = tmp_path / "tree.txt"
    edges.write_text("0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "wiener", "--file", str(edges))
    assert code == 0
    assert out.strip() == "10"
    g6 = tmp_path / "tree.g6"
    g6.write_bytes(b"Ch\n")
    code, out, _ = run(capsys, "wiener", "--file", str(g6))
    assert code == 0
    assert out.strip() == "10"
    # override beats sniffing
    code, out, _ = run(
        capsys, "wiener", "--file", str(g6), "--input-format", "edge-list"
    )
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    fake = io.TextIOWrapper(io.BytesIO(b"0 1\n1 2\n"))
    monkeypatch.setattr(sys, "stdin", fake)
    code, out, _ = run(capsys, "wiener", "--file", "-")
    assert code == 0
    assert out.strip() == "4"


def test_enumerate_counts_and_stripe(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "7")
    assert code == 0
    full = out.splitlines()
    assert len(full) == 11
    code, out, _ = run(capsys, "enumerate", "--n", "7", "--stripe", "1/3")
    assert code == 0
    assert out.splitlines() == full[1::3]


def test_enumerate_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "8", "--max-degree", "2")
    assert code == 0
    assert len(out.splitlines()) == 1


def test_scan_reports_thresholds(capsys):
    code, out, _ = run(capsys, "scan", "--case", "i", "--a-range", "2..9")
    assert code == 0
    assert "smallest passing a: 7" in out
    code, out, _ = run(
        capsys, "scan", "--case", "ua", "--a-range", "2..12", "--stop-at-first"
    )
    assert code == 0
    assert "smallest passing a: 10" in out


def test_scan_all_cases(capsys):
    code, out, _ = run(capsys, "scan", "--case", "all", "--a-range", "2..8")
    assert code == 0
    assert out.count("family case") == 3


def test_search_text_and_jobs_determinism(capsys):
    code, first, _ = run(capsys, "search", "min-r2", "--n", "10")
    assert code == 0
    assert "min R_2 = 28/55" in first
    assert "trees scanned: 106" in first
    code, second, _ = run(capsys, "search", "min-r2", "--n", "10", "--jobs", "3")
    assert code == 0
    assert second == first


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "min-r2", "--n", "9", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "search"
    assert payload["trees_scanned"] == 47
    assert len(payload["witnesses"]) == 1


def test_search_respects_limit(capsys):
    code, _, err = run(capsys, "search", "min-r2", "--n", "21")
    assert code == 2
    assert "exceeds the limit" in err


def test_verify_passing_bundles(capsys):
    code, out, _ = run(capsys, "verify", "paper-numbers", "limits")
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "everything")
    assert code == 2
    assert "unknown" in err


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    from linewiener import CheckResult
    import linewiener.cli as cli

    monkeypatch.setattr(
        cli.analysis,
        "worked_example_checks",
        lambda budget: [CheckResult("rigged", False, "synthetic failure")],
    )
    code, out, _ = run(capsys, "verify", "paper-numbers")
    assert code == 1
    assert "[FAIL] rigged" in out


def test_budget_flag_and_env(capsys, monkeypatch):
    code, _, err = run(
        capsys, "ratio", "--family", "complete:10", "-k", "2", "--budget", "50"
    )
    assert code == 2
    assert "budget" in err
    monkeypatch.setenv("LINEWIENER_BUDGET", "50")
    code, _, err = run(capsys, "ratio", "--family", "complete:10", "-k", "2")
    assert code == 2
    # an explicit flag wins over the environment; L^2(K_10) needs 5400 edges
    code, out, _ = run(
        capsys, "ratio", "--family", "complete:10", "-k", "2", "--budget", "6000"
    )
    assert code == 0
    # the env value is only read by commands that iterate, and then validated
    monkeypatch.setenv("LINEWIENER_BUDGET", "not-a-number")
    code, _, err = run(capsys, "ratio", "--family", "path:6", "-k", "2")
    assert code == 2
    assert "LINEWIENER_BUDGET" in err


def test_bad_inputs_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "wiener", "--family", "ring:9")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "wiener", "--file", str(tmp_path / "missing.g6"))
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--n", "7", "--stripe", "3/3")
    assert code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_consumer_closing_early_is_not_an_error():
    # needs a real process: the failure mode is the interpreter's shutdown
    # flush of a broken stdout, which in-process main() never reaches
    proc = subprocess.Popen(
        [sys.executable, "-m", "linewiener.cli", "enumerate", "--n", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# sha256 of the exact stdout bytes; a refactor of the layout stream, the
# search or the reports must leave every one of these unchanged
GOLDEN_STDOUT = {
    "enumerate --n 9 --max-degree 3 --stripe 1/3":
        "1087b3f5cdee5c46ebe73b725fe8e0df47bd039c38adecc81c8ee4f161657304",
    "search min-r2 --n 10":
        "981fed46df344c212c572714659c984d2472c47149936fcd7d0c43cfa824dcf0",
    "search min-r2 --n 12 --min-degree3 2 --jobs 2 --format json":
        "34f8bba0f49662e3b9d1e2e252c2fd8e516b28946dcb2428820b7f9362d29c22",
    "scan --case ua --a-range 2..6":
        "8841a0f69c89cc7185bb18db1a6085f69fddeb66346b2eabed95c1d578afca0b",
    "verify --a 12":
        "e024d6a4c8a0cee27949251fd98d2173d32cf1fdd1dd3febdd7c8184eccf2b5a",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout_bytes(capsysbinary, command):
    code = main(command.split())
    captured = capsysbinary.readouterr()
    assert code == 0
    assert captured.err == b""
    assert hashlib.sha256(captured.out).hexdigest() == GOLDEN_STDOUT[command]
