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


@pytest.mark.parametrize(
    "argv",
    [
        ("thm5", "--a", "0"),
        ("lemmas", "--max-a", "0"),
        ("buckley", "--max-n", "0"),
        ("thm1", "--max-n", "0"),
        ("thm1", "--max-n", "3"),
    ],
)
def test_verify_rejects_bounds_it_cannot_run(capsys, argv):
    # a 0 is a value to validate, not a request for the default, and thm1
    # must not pass over an empty range of orders
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("buckley", "lemmas", "--max-a", "0"),
        ("thm1", "--max-n", "21"),
    ],
)
def test_verify_checks_every_bound_before_any_bundle_runs(
    capsys, monkeypatch, argv
):
    import linewiener.cli as cli

    calls = []
    for name in ("line_identity_checks", "star_minimizes_r1"):
        monkeypatch.setattr(
            cli.analysis, name, lambda *a, name=name, **k: calls.append(name)
        )
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert calls == []


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
    "wiener --family spider:7,7,7":
        "411c7d21507b483dddae33a6d5b10c98a25a9c586cde5d97ee4a2b155dd3b09f",
    "wiener --family spider:7,7,7 --format json":
        "b5016aa7111d8f082dfc8202ca6dd5b789c609e4966b9b62a1698e9fd4e1a8c9",
    "wiener --family spider:7,7,7 --format csv":
        "8e6ad39e93643b508917ceca658865b53cdb16547314d70f0136f4d8ee2adb84",
    "ratio --family spider:7,7,7 -k 3 --format json":
        "b9c0e88e7f8843c2ac8883b7d7726a442034e4cc6e511842fb6e2fb468747464",
    "ratio --family path:2":
        "992df4f1707ec076cac816114a6e4f11342ac03070d0dea4924441d16e7d7182",
    "ratio --family path:2 --format json":
        "460b6fd7b3bb6893bc5e260c33851230c418ffba18425a7315475eee2d26dfd1",
    "ratio --family path:2 --format csv":
        "637f82c66aaf722efa70ed3c4e9c8490ce65e5560a1c2449e0d3a9889ca8e22e",
    "search min-r2 --n 6 --min-degree3 3":
        "61d84006e99c282ceeb930c9b10047004e6ffe9b61f0531dfc5ebea0ea6a4b2f",
    "search min-r2 --n 6 --min-degree3 3 --format json":
        "272ec76ab45a109c2a300ce661770c1bbe23ea52afa36f4ac93e545963cd9c4c",
    "search min-r2 --n 6 --min-degree3 3 --format csv":
        "75e721810236455771e3c39cd20a66e1a576350a01d802049eea3b969ab322c5",
    "search min-r2 --n 9 --format csv":
        "f4ab4dc5c8f8161c8a8fc0e285d16acb9227a3a21a2356a74c3e53520a8be734",
    "scan --case all --a-range 2..9":
        "33168cc1a5fae2ed9491c452fca4027a8aadb4a731822a351be915d6c8f114ec",
    "scan --case all --a-range 2..9 --format json":
        "487675756cf00637be760f944422f91cad691f8a491530520289b4f067f3979f",
    "scan --case iii --a-range 2..9 --format csv":
        "69ab51e85619572ac825074670bc0f9e2fe23686fd05a8bfccce86427fc7f992",
    "scan --case ua --a-range 2..5 --format json":
        "3bc5fdbed922dff193b1b8d0bb80f9b71c3361287a02e67afa01a1e9b408c0fe",
    "scan --case ua --a-range 2..5 --format csv":
        "332435d81372fb779514c8dfea4c2f842149e62c393c4fab6e75d6c0cb089fc3",
    "verify paper-numbers limits --format json":
        "77d953b9775a06cf8dc19f05f5ca4d9408cc36a12d5cc70c93014d1343f6488b",
    "verify paper-numbers limits --format csv":
        "70f5554ea3706c4fb35e4da75c2c71da139f6a5894964bb9597d182b3d6e8717",
    "verify thm5 thm1 --a 12 --max-n 7":
        "0e7a1c1dd2041f0fdbc639c440321813909bc5438bba28296bde7b5d278ea7ff",
    "verify thm5 thm1 --a 12 --max-n 7 --format json":
        "877291ef43527560569eae980e47038fe5e90037c127aedc4ebf500b62ad8e07",
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
