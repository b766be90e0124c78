#!/usr/bin/env python3
"""Compare two checkouts with the benchmark and write a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --runs bulk_reno:1:10 handover_sweep:1:5 roundtrip_traced:1:5 bulk_reno:7919:5 \
        --seconds 20 --trace-seconds 4 --out BENCH_17.json

Each `workload:seed:pairs` item runs `satbench/run.py --trace 0` of each
checkout `pairs` times, in pairs, the side that runs first alternating from
pair to pair, so slow drift of the host falls on both sides alike. For every end-to-end metric the file records
each side's runs, median and quartiles, and for `sim_rate` the pairs the
change won. `--trace-seconds` adds one `--trace 1` run per side and
workload at seed 1 for the event counts. Each side's Tier-1 wall time and
`src/satwin` line count are recorded too. Each checkout runs its own,
unmodified `satbench/run.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

E2E = ("sim_rate", "hop_rate", "setup_s", "peak_rss_mb", "completed_share")
PER_PASS = ("kernel.events", "kernel.scheduled.link-rx")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def bench(repo: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON object `satbench/run.py` prints last."""
    out = subprocess.run(
        [sys.executable, "satbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=repo, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def tier1_s(repo: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *TIER1], cwd=repo, env=env, capture_output=True)
    return time.perf_counter() - t0


def src_lines(repo: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (repo / "src" / "satwin").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs", nargs="+", default=[], help="workload:seed:pairs items")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace-seconds", type=float, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report: dict = {"seconds": args.seconds, "end_to_end": {}, "per_pass": {},
                    "tier1_s": {}, "src_satwin_lines": {}}
    for item in args.runs:
        workload, seed, pairs = item.split(":")
        values = {side: {m: [] for m in E2E} for side in sides}
        for i in range(int(pairs)):
            for side, repo in list(sides.items())[::1 if i % 2 == 0 else -1]:
                metrics = bench(repo, workload, int(seed), args.seconds, 0)["metrics"]
                for m in E2E:
                    values[side][m].append(metrics[m]["value"])
        rates = zip(values["parent"]["sim_rate"], values["change"]["sim_rate"])
        report["end_to_end"][f"{workload}/{seed}"] = {
            **{side: {m: spread(v) for m, v in values[side].items()} for side in sides},
            "sim_rate_pairs_won": sum(change > parent for parent, change in rates),
        }
        print(item, json.dumps(report["end_to_end"][f"{workload}/{seed}"]["change"]["sim_rate"]),
              flush=True)
    if args.trace_seconds:
        for workload in ("bulk_reno", "handover_sweep", "roundtrip_traced"):
            for side, repo in sides.items():
                metrics = bench(repo, workload, 1, args.trace_seconds, 1)["metrics"]
                report["per_pass"].setdefault(workload, {})[side] = \
                    {m: metrics[m]["value"] for m in PER_PASS}
    for side, repo in sides.items():
        report["tier1_s"][side] = round(tier1_s(repo), 2)
        report["src_satwin_lines"][side] = src_lines(repo)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
