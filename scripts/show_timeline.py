#!/usr/bin/env python3
"""Print the handover timeline and the engine's trace events for one run.

Usage: python scripts/show_timeline.py [scenario] [mode] [seed]
Defaults: scenarios/s1_wlan_to_sat.scn proactive 1
A bad mode, seed or scenario file exits 2 with a one-line message. A reader
that closes the pipe early (`| head`) ends the output without an error.
"""

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from satwin.errors import ConfigError
from satwin.metrics import TIMELINE_LABELS
from satwin.runner import run
from satwin.scenario import MODE_NAMES, load_scenario

ENGINE_EVENTS = {
    "handover_detect", "plan", "wpolicy", "boost", "ramp", "drain_done", "attach", "bu_send",
    "bu_recv", "buack_recv", "bu_lost", "ack_pacing", "warn", "handover_abort", "timeline",
}


def main(argv):
    path = Path(argv[1]) if len(argv) > 1 else REPO / "scenarios" / "s1_wlan_to_sat.scn"
    name = argv[2] if len(argv) > 2 else "proactive"
    if name not in MODE_NAMES:
        print(f"show_timeline: unknown mode {name!r}; valid modes: "
              f"{', '.join(sorted(MODE_NAMES))}", file=sys.stderr)
        return 2
    mode = MODE_NAMES[name]
    try:
        seed = int(argv[3]) if len(argv) > 3 else 1
    except ValueError:
        print(f"show_timeline: seed must be an integer, got {argv[3]!r}", file=sys.stderr)
        return 2
    try:
        metrics, trace = run(load_scenario(path), mode=mode, seed=seed, trace=True)
    except ConfigError as exc:
        print(f"show_timeline: config error: {exc}", file=sys.stderr)
        return 2

    print(f"{path.stem} / {mode} / seed {seed}\n")
    print("engine events:")
    for line in trace.lines:
        if line.split(" ", 2)[1] in ENGINE_EVENTS:  # `<time> <event> <node> ...`
            print(f"  {line}")
    for ho in metrics.handovers:
        print(f"\nhandover {ho.name} ({ho.direction}, {ho.old_kind} -> {ho.new_kind}):")
        for label in TIMELINE_LABELS:
            value = ho.timeline.get(label)
            print(f"  {label:<5} {value / 1e6:.6f}" if value is not None else f"  {label:<5} -")
        print(f"  old-path enqueues after t_r1: {ho.old_path_enqueues_after_tr1}")
    print("\nper-flow metrics:")
    for fid in sorted(metrics.flows):
        fm = metrics.flows[fid]
        print(f"  {fid}: goodput {fm.goodput_bps() / 1000:.1f} kbit/s, "
              f"{fm.retransmits} retransmits ({fm.spurious_retransmits} spurious), "
              f"{len(fm.rto_times)} RTOs")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
