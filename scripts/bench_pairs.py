#!/usr/bin/env python3
"""Compare two checkouts with the benchmark and write a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --runs bulk_reno:1:10 bulk_reno:7919:5 handover_sweep:1:5 roundtrip_traced:1:5 \
        --seconds 20 --trace-seconds 4 --out BENCH_18.json

Each `workload:seed:pairs` item runs `satbench/run.py --trace 0` of each
checkout `pairs` times, in pairs, the side that runs first alternating from
pair to pair, so slow drift of the host falls on both sides alike. For every end-to-end metric the file records
each side's runs, median and quartiles, and for `sim_rate` the pairs the
change won. `--trace-seconds` adds `TRACE_RUNS` `--trace 1` runs per side
and workload at seed 1 (the sides alternating), and records for the event
counts (`PER_PASS`) and every per-layer self time (`*self_s`) each side's
runs, median and quartiles, so a per-layer change can be told from the
spread of one commit's runs. The `*self_s` figures are host seconds, so
each is also recorded at the benchmark's reference speed (under
`at_reference_speed`): the value x 20 ms / the `host: reference loop ... ms`
figure the run prints. That loop is timed around the run's untraced passes,
which precede its traced ones, so the scaling cancels drift slower than a
run but not a change of speed between its passes. The per-scenario table times
`Simulation(...).kernel.run_until(end)` for every `scenarios/*.scn` x mode
at seed 1, trace off, `TABLE_RUNS` times per side (the sides alternating)
and records each cell's events, median wall time at the benchmark's
reference speed and events per second. Each side's Tier-1 wall time and `src/satwin`
line count are recorded too, with its Tier-1 exit status and summary line.
Each checkout runs its own, unmodified `satbench/run.py` and its own `src`.
A `pairs` below 2 is refused before anything runs (quartiles need two
runs); `--out` is rewritten after each item, so a run cut short keeps what
it has. Every benchmark run's `correct` and `failed` are recorded; a run
that reports `correct: false` stops the comparison with exit status 1, and
so does a side whose Tier-1 suite failed, once `--out` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

E2E = ("sim_rate", "hop_rate", "setup_s", "peak_rss_mb", "completed_share")
PER_PASS = ("kernel.events", "kernel.events_per_s", "kernel.scheduled.link-rx", "net.transmit.calls",
            "mobility.route_attachment.calls")
TABLE_RUNS = 9  # timed runs per side of each scenario table cell
TRACE_RUNS = 5  # --trace 1 runs per side of each workload
REF_MS = 20.0  # the reference loop's time at the benchmark's reference speed (satbench REF_S)
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# one timed kernel run of every shipped scenario x mode, printed as JSON; the
# time is scaled by the benchmark's reference loop timed around it, which
# cancels the host's drift
TABLE = """
import json, sys, time
from pathlib import Path
sys.path.insert(0, "satbench")
from harness import at_reference_speed, reference_s
from satwin.runner import Simulation
from satwin.scenario import MODES, load_scenario
cells = {}
for path in sorted(Path("scenarios").glob("*.scn")):
    scenario = load_scenario(path)
    for mode in MODES:
        sim = Simulation(scenario, mode=mode, seed=1)
        before = reference_s()
        t0 = time.perf_counter()
        events = sim.kernel.run_until(scenario.end)
        wall = time.perf_counter() - t0
        cells[f"{path.stem}/{mode}"] = [events, at_reference_speed(wall, (before + reference_s()) / 2)]
print(json.dumps(cells))
"""


def bench(repo: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON object `satbench/run.py` prints last, plus `ref_ms`: the
    reference loop's host time from its `host:` line (None without one)."""
    out = subprocess.run(
        [sys.executable, "satbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=repo, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    host = [re.match(r"host: reference loop ([\d.]+) ms", line) for line in lines]
    return {**json.loads(lines[-1]), "ref_ms": next((float(m[1]) for m in host if m), None)}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def scenario_table(sides: dict[str, Path], runs: int) -> dict:
    """Per side and `scenario/mode`: events, median wall ms and events/s."""
    walls: dict = {side: {} for side in sides}
    events: dict = {side: {} for side in sides}
    for i in range(runs):
        for side, repo in list(sides.items())[::1 if i % 2 == 0 else -1]:
            out = subprocess.run([sys.executable, "-c", TABLE], cwd=repo, check=True, text=True,
                                 capture_output=True, env=dict(os.environ, PYTHONPATH=str(repo / "src")))
            for cell, (count, wall) in json.loads(out.stdout).items():
                events[side][cell] = count
                walls[side].setdefault(cell, []).append(wall)
    return {side: {cell: {"events": events[side][cell],
                          "wall_ms": round(1000 * statistics.median(w), 2),
                          "events_per_s": round(events[side][cell] / statistics.median(w))}
                   for cell, w in walls[side].items()} for side in sides}


def tier1(repo: Path) -> dict:
    """Wall time, exit status and pytest's summary line of one Tier-1 run."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=repo, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    return {"s": round(time.perf_counter() - t0, 2), "returncode": done.returncode,
            "summary": lines[-1] if lines else ""}


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
    items = []
    for item in args.runs:
        workload, seed, pairs = item.split(":")
        if int(pairs) < 2:
            parser.error(f"{item}: needs at least 2 pairs for quartiles")
        items.append((item, workload, int(seed), int(pairs)))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report: dict = {"seconds": args.seconds, "end_to_end": {}, "per_pass": {},
                    "scenarios": {}, "tier1": {}, "src_satwin_lines": {}}

    def write() -> None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    def incorrect(what: str) -> int:
        write()
        print(f"{what} reports correct: false", file=sys.stderr)
        return 1

    for item, workload, seed, pairs in items:
        values = {side: {m: [] for m in E2E} for side in sides}
        checks = {side: {"correct": [], "failed": []} for side in sides}
        report["end_to_end"][f"{workload}/{seed}"] = checks
        for i in range(pairs):
            for side, repo in list(sides.items())[::1 if i % 2 == 0 else -1]:
                result = bench(repo, workload, seed, args.seconds, 0)
                checks[side]["correct"].append(result["correct"])
                checks[side]["failed"].append(result["failed"])
                if not result["correct"]:
                    return incorrect(f"{item}: {side} run {i + 1}")
                for m in E2E:
                    values[side][m].append(result["metrics"][m]["value"])
        rates = zip(values["parent"]["sim_rate"], values["change"]["sim_rate"])
        report["end_to_end"][f"{workload}/{seed}"] = {
            **{side: {**{m: spread(v) for m, v in values[side].items()}, **checks[side]}
               for side in sides},
            "sim_rate_pairs_won": sum(change > parent for parent, change in rates),
        }
        print(item, json.dumps(report["end_to_end"][f"{workload}/{seed}"]["change"]["sim_rate"]),
              flush=True)
        write()
    if args.trace_seconds:
        for workload in ("bulk_reno", "handover_sweep", "roundtrip_traced"):
            runs: dict = {side: {"correct": [], "failed": [], "metrics": {}, "at_reference_speed": {}}
                          for side in sides}
            report["per_pass"][workload] = runs
            for i in range(TRACE_RUNS):
                for side, repo in list(sides.items())[::1 if i % 2 == 0 else -1]:
                    result = bench(repo, workload, 1, args.trace_seconds, 1)
                    runs[side]["correct"].append(result["correct"])
                    runs[side]["failed"].append(result["failed"])
                    if not result["correct"]:
                        return incorrect(f"{workload} --trace 1: {side} run {i + 1}")
                    for m, metric in result["metrics"].items():
                        if m in PER_PASS or m.endswith("self_s"):
                            runs[side]["metrics"].setdefault(m, []).append(metric["value"])
                        if m.endswith("self_s") and result["ref_ms"]:
                            runs[side]["at_reference_speed"].setdefault(m, []).append(
                                metric["value"] * REF_MS / result["ref_ms"])
            for side in sides:
                for key in ("metrics", "at_reference_speed"):
                    runs[side][key] = {m: spread(v) for m, v in runs[side][key].items()}
            write()
    report["scenarios"] = scenario_table(sides, TABLE_RUNS)
    write()
    for side, repo in sides.items():
        report["tier1"][side] = tier1(repo)
        report["src_satwin_lines"][side] = src_lines(repo)
    write()
    failed = [side for side, run in report["tier1"].items() if run["returncode"] != 0]
    for side in failed:
        print(f"{side}: Tier 1 failed: {report['tier1'][side]['summary']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
