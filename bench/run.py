#!/usr/bin/env python3
"""End-to-end benchmark of the linewiener CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload search-full --seed 1 --seconds 30 --trace 0

`--workload` is one of the names in WORKLOADS, or `all` to interleave the
three. Each workload is a closed loop with one client: the next command
starts when the previous one exits. One warm-up run per workload (it also
compiles the .pyc files) is gated for correctness but left out of the
timings. Then rounds run until `--seconds` per workload is spent; each round
holds one timed command per workload and SETUP_PER_ROUND set-up probes,
in an order shuffled by `--seed`. The seed changes no input: every workload
is a fixed instance.

The shared host's speed drifts by up to 1.5x over seconds to minutes; over
ten invocations of the same code, the quartiles of their medians lay 7-32%
of the median apart. So right before each command the harness times a
fixed pure-Python loop in its own process (`calibrate`), and every time is
reported scaled to the host speed at which that loop takes CAL_REF_S
seconds: time * CAL_REF_S / loop time. For scaled times that distance was
4-10%; a change in the program's own cost moves them as it moves the raw
times. Each command takes about a second, so the loop time next to it is
the host speed it ran at, and one invocation holds a few dozen samples.
Each metric reports the median of its samples; the record and the
human-readable lines also give the unscaled medians.

Every command's stdout is checked against the known result. A run that
fails the check counts toward the error rate and never toward a timing.

`--trace 1` runs the traced layer suite in tracing.py instead, one pass
that `--seconds` does not shorten, and reports the per-layer metrics.

Human-readable lines go to stdout first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The full record (the
machine, every raw sample, medians and quartiles) is written to
bench/results/BENCH_<workload>_seed<seed>_trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_PER_ROUND = 2
MIN_ROUNDS = 3
CAL_LOOPS = 1_500_000
CAL_REF_S = 0.13


def r2_path(n: int) -> Fraction:
    """R_2 of the path of order n, (n-2)(n-3) / (n(n+1))."""
    return Fraction((n - 2) * (n - 3), n * (n + 1))


def path_code(n: int) -> str:
    """Canonical code of the path of order n: rooted at its center(s),
    each arm is a chain written as m opening then m closing brackets."""
    half = n // 2
    chain = "(" * half + ")" * half
    if n % 2:
        return "(" + chain + chain + ")"
    return chain + chain


@dataclass(frozen=True)
class SearchExpect:
    """The exact text report of a `search min-r2` run."""

    order: int
    trees_class: str
    scanned: int
    ratio: Fraction
    witnesses: tuple[str, ...]

    def text(self) -> str:
        lines = [
            f"order {self.order}, {self.trees_class}",
            f"trees scanned: {self.scanned}",
            f"min R_2 = {self.ratio.numerator}/{self.ratio.denominator}",
            f"witnesses ({len(self.witnesses)}):",
        ]
        lines += [f"  {w}" for w in self.witnesses]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VerifyExpect:
    """A `verify` run in which every one of `checks` checks passes."""

    checks: int


@dataclass(frozen=True)
class Workload:
    """One CLI command, its expected output and the free trees it covers.

    When `reference_argv` is set, the warm-up runs it instead of `argv`
    and every timed run must print the same stdout byte for byte.
    """

    name: str
    argv: tuple[str, ...]
    expect: object
    trees: int
    reference_argv: Optional[tuple[str, ...]] = None

    def check(self, returncode: int, stdout: str, stderr: str = "") -> Optional[str]:
        reason = check_output(self.expect, returncode, stdout)
        if reason is not None and stderr.strip():
            reason += f"; stderr: {stderr.strip().splitlines()[-1]}"
        return reason


# Free trees walked by a default `verify`: buckley covers every order
# 2..14 and thm1 every order 4..12 (OEIS A000055).
_FREE_TREES = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
               11: 235, 12: 551, 13: 1301, 14: 3159}
_VERIFY_TREES = (sum(_FREE_TREES[n] for n in range(2, 15))
                 + sum(_FREE_TREES[n] for n in range(4, 13)))

_FILTERED = ("search", "min-r2", "--n", "18", "--min-degree3", "7")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-full",
            ("search", "min-r2", "--n", "15"),
            SearchExpect(15, "all trees", 7741, r2_path(15), (path_code(15),)),
            7741,
        ),
        Workload(
            "search-filtered",
            _FILTERED + ("--jobs", "2"),
            SearchExpect(
                18,
                "trees with at least 7 vertices of degree 3",
                294,
                Fraction(699, 557),
                ("(((()())(()()))((()())(()))((())()))",),
            ),
            123867,
            reference_argv=_FILTERED + ("--jobs", "1"),
        ),
        Workload(
            "verify",
            ("verify", "--a", "30"),
            VerifyExpect(33),
            _VERIFY_TREES,
        ),
    )
}

METRIC_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "trees_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def check_output(expect, returncode: int, stdout: str) -> Optional[str]:
    """Why a run's output is wrong, or None when it is right."""
    if returncode != 0:
        return f"exit code {returncode}"
    if isinstance(expect, SearchExpect):
        want = expect.text().splitlines()
        got = stdout.splitlines()
        for i, (w, g) in enumerate(zip(want, got)):
            if w != g:
                return f"line {i + 1}: expected {w!r}, got {g!r}"
        if len(want) != len(got) or not stdout.endswith("\n"):
            return f"expected {len(want)} lines, got {len(got)}"
        return None
    lines = stdout.splitlines()
    total = f"{expect.checks}/{expect.checks} checks passed"
    if not lines or lines[-1] != total:
        return f"last line should be {total!r}, got {lines[-1:]!r}"
    if len(lines) != expect.checks + 1:
        return f"expected {expect.checks} check lines, got {len(lines) - 1}"
    for line in lines[:-1]:
        if not line.startswith("[PASS] "):
            return f"check not passed: {line!r}"
    return None


@dataclass(frozen=True)
class Sample:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


# The commands run as a user would run them: no inherited interpreter or
# program settings, and .pyc files written by the warm-up and reused.
CLI_ENV = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "LINEWIENER_"))}
CLI_ENV["PYTHONPATH"] = str(SRC)


def run_command(args: list[str]) -> Sample:
    """Run one interpreter to completion; CPU time and peak RSS cover it
    and every descendant it waited for (the Pool workers)."""
    with tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=err,
            env=CLI_ENV,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # take the Pool workers down with the command
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Sample(
        returncode=proc.returncode,
        stdout=out.decode(errors="replace"),
        stderr=stderr,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )


def run_cli(argv: tuple[str, ...]) -> Sample:
    return run_command(["-m", "linewiener.cli", *argv])


def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Tally:
    """Runs attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def gate(self, label: str, reason: Optional[str]) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
        return reason is None


def calibrate() -> float:
    """Seconds this process takes for CAL_LOOPS steps of a fixed loop: the
    host's speed at this moment."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def measure(workloads: list[Workload], seed: int, seconds: float, tally: Tally):
    """Warm up, then time rounds of every workload plus set-up probes.

    Returns (per-workload list of raw sample dicts, list of set-up sample
    dicts). Every sample carries `cal_s`, the `calibrate` time next to it:
    just before a command, or at the start of its round for a probe.
    """
    rng = random.Random(seed)
    reference: dict[str, str] = {}
    for w in workloads:
        s = run_cli(w.reference_argv or w.argv)
        reason = w.check(s.returncode, s.stdout, s.stderr)
        tally.gate(f"{w.name} warm-up", reason)
        reference[w.name] = s.stdout
    calibrate()
    raw = {w.name: [] for w in workloads}
    setups: list[dict] = []
    items = list(workloads) + [None] * SETUP_PER_ROUND
    deadline = seconds * len(workloads)
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        cal = calibrate()
        for w in rng.sample(items, len(items)):
            if w is None:
                # set-up: from a fresh interpreter until linewiener.cli is imported
                s = run_command(["-c", "import linewiener.cli"])
                reason = None if s.returncode == 0 else f"exit code {s.returncode}"
                if tally.gate("set-up probe", reason):
                    setups.append({"wall_s": s.wall_s, "cal_s": cal})
                continue
            cal = calibrate()
            s = run_cli(w.argv)
            reason = w.check(s.returncode, s.stdout, s.stderr)
            if reason is None and w.reference_argv and s.stdout != reference[w.name]:
                reason = "stdout differs from the reference run"
            ok = tally.gate(w.name, reason)
            raw[w.name].append({
                "ok": ok,
                "reason": reason,
                "wall_s": s.wall_s,
                "cpu_s": s.cpu_s,
                "peak_rss_mb": s.peak_rss_mb,
                "cal_s": cal,
            })
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and (now - start) + (now - round_start) > deadline:
            break
    return raw, setups


def end_to_end_metrics(w: Workload, samples: list[dict], setups: list[dict],
                       scaled: bool = True):
    """Every metric of the workload; times (and the rate) scaled to the
    reference host speed unless `scaled` is false."""
    def scale(s):
        return CAL_REF_S / s["cal_s"] if scaled else 1.0

    good = [s for s in samples if s["ok"]]
    series = {"setup_s": [s["wall_s"] * scale(s) for s in setups]} if setups else {}
    if good:
        series["wall_s"] = [s["wall_s"] * scale(s) for s in good]
        series["cpu_s"] = [s["cpu_s"] * scale(s) for s in good]
        series["trees_per_s"] = [w.trees / (s["wall_s"] * scale(s)) for s in good]
        series["peak_rss_mb"] = [s["peak_rss_mb"] for s in good]
    return {name: summary(values) | {"unit": METRIC_UNITS[name]}
            for name, values in series.items()}


def git_revision() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine() -> dict:
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def print_metrics(prefix: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{prefix}{name:<34} {m['median']:>14.6g} {m['unit']:<6} "
              f"(median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workloads: Optional[dict] = None) -> int:
    args = parse_args(argv)
    workloads = workloads or WORKLOADS
    if not (SRC / "linewiener" / "cli.py").is_file():
        print(f"error: no linewiener sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    selected = (list(workloads.values()) if args.workload == "all"
                else [workloads[args.workload]])
    tally = Tally()
    record = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workloads": [w.name for w in selected],
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    per_workload: dict[str, dict] = {}
    if args.trace:
        import tracing

        per_workload, record["trace_detail"] = tracing.run_suite(
            workloads, selected, tally)
    else:
        raw, setups = measure(selected, args.seed, args.seconds, tally)
        record["samples"] = raw
        record["setup_samples"] = setups
        record["calibration"] = {"loops": CAL_LOOPS, "ref_s": CAL_REF_S}
        record["unscaled"] = {}
        for w in selected:
            per_workload[w.name] = end_to_end_metrics(w, raw[w.name], setups)
            record["unscaled"][w.name] = end_to_end_metrics(
                w, raw[w.name], setups, scaled=False)
    record["metrics"] = per_workload
    record["attempted"] = tally.attempted
    record["failures"] = tally.failures
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    single = len(selected) == 1
    flat = {}
    for name, metrics in per_workload.items():
        prefix = "" if single else f"{name}."
        print_metrics(f"{name:<16} " if not single else "", metrics)
        for mname, m in metrics.items():
            flat[prefix + mname] = {"value": m["median"], "unit": m["unit"]}
    for name, metrics in record.get("unscaled", {}).items():
        print_metrics(f"unscaled {name + ' ' if not single else ''}", metrics)
    failed = len(tally.failures)
    for line in tally.failures:
        print(f"FAILED {line}")
    print(f"error_rate {failed}/{tally.attempted} = "
          f"{failed / max(tally.attempted, 1):.4f}   record: "
          f"{os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": flat}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
