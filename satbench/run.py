#!/usr/bin/env python3
"""satwin benchmark: one workload, one seed, one run.

    python3 satbench/run.py --workload bulk_reno --seed 1 --seconds 10 --trace 0

With --trace 0 it reports the end-to-end metrics (sim_rate, hop_rate,
setup_s, peak_rss_mb, completed_share) from untraced passes; with --trace 1
the per-layer metrics from traced passes, and trace.overhead. Either way it
first re-runs the shipped comparison set against results/*.csv and prints
human-readable lines, then one JSON object as the last line of stdout.
Workload rationale and predictions: satbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def main(argv: list[str] | None = None) -> int:
    if sys.flags.optimize:
        # every simulator invariant is a bare assert; under -O failures
        # would vanish and the failed share would silently read 0
        print("satbench: refusing to run under python -O (asserts are the invariants)",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "satwin").is_dir():
        print(f"satbench: no satwin sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"satbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = workloads.generate(args.workload, args.seed, REPO / "scenarios")
    report = harness.measure(args.workload, jobs, args.seconds, bool(args.trace), REPO)
    for line in report.lines:
        print(line)
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
