#!/usr/bin/env python3
"""Summarise benchmark records across runs, and extend the trajectory.

    python3 bench/summarize.py bench/results/BENCH_*_trace0.json
    python3 bench/summarize.py --append bench/BENCH_trajectory.json \\
        --label "parent 76f8058" bench/results/BENCH_*_trace0.json

For each workload and end-to-end metric it takes the value each run
reported (that run's median) and prints the median and quartiles over the
runs, as `statistics.quantiles(values, n=4)` gives them, with the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. A
spread above the bound means two runs of the same code cannot be told
apart at that bound. The unscaled times follow as `unscaled.<metric>`,
with no bound. `--append` adds the summary, with the machine the
records came from, as one entry of the trajectory file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from run import ROOT, summary


def collect(paths):
    """workload -> metric -> [per-run value], plus the records' seeds and
    machine."""
    values = defaultdict(lambda: defaultdict(list))
    seeds, machine = [], None
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record["trace"]:
            continue
        seeds.append(record["seed"])
        machine = machine or record["machine"]
        for workload, metrics in record["metrics"].items():
            for name, m in metrics.items():
                values[workload][name].append(m["median"])
        for workload, metrics in record.get("unscaled", {}).items():
            for name, m in metrics.items():
                values[workload][f"unscaled.{name}"].append(m["median"])
    return values, sorted(set(seeds)), machine


def summarise(values, bounds):
    out = {}
    for workload, metrics in sorted(values.items()):
        out[workload] = {}
        for name, vals in metrics.items():
            s = summary(vals)
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
            s["bound"] = bounds.get(name)
            out[workload][name] = s
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="+", help="BENCH_*.json run records")
    p.add_argument("--append", metavar="TRAJECTORY",
                   help="add the summary as an entry of this JSON list")
    p.add_argument("--label", default="", help="name of the trajectory entry")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, seeds, machine = collect(args.records)
    if not values:
        print("no untraced records given", file=sys.stderr)
        return 2
    summary = summarise(values, bounds)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = s["bound"]
            flag = "" if bound is None or s["spread"] <= bound else "  WIDER THAN BOUND"
            print(f"{workload:<16} {name:<20} n={s['n']:<3} median {s['median']:<12.6g}"
                  f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} (bound {bound}){flag}")
    if args.append:
        path = Path(args.append)
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append({
            "label": args.label,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "machine": machine,
            "seeds": seeds,
            "workloads": summary,
        })
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
