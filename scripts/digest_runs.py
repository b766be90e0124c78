#!/usr/bin/env python3
"""Print the sha256 of the metrics CSV and of the trace of many runs, and a
total over them all.

    python3 scripts/digest_runs.py --seeds 1 2 3 7919

The runs are the shipped scenarios (S1-S5 and slow_start) in all three
modes with the trace on, the digests `tests/golden_runs.json` pins, then
for each seed the job texts of every `satbench/workloads.py` workload, each
run in its mode with its trace setting, as the benchmark runs them. A run
that stops on an error digests the error text. Run it on two checkouts and
diff the outputs: equal lines are runs with equal outputs.

    python3 scripts/digest_runs.py --seeds 1 2 3 7919 --all-events

prints the same runs' digests on the all-events reference (`all_events`):
no link admits ahead of time, so every segment has an event at every hop.
The CSV and trace digests of a run must equal those without
`--all-events`; a shortcut that moves one changed the run. So it also runs
every job normally, and exits 1 naming each run whose CSV or trace digest
differs from the reference's. The trace must not change a run either, so
it also runs every job with its trace setting flipped (traced runs
untraced and the other way round), and names each run whose CSV then
differs from the normal run's. `--seeds 1 2 3 7919 --all-events` takes
about 24 s (2-core Xeon VM, Python 3.11).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "satbench"))

import workloads  # noqa: E402  (satbench/workloads.py)
from satwin.errors import ConfigError  # noqa: E402
from satwin.kernel import SimError  # noqa: E402
from satwin.metrics import write_csv  # noqa: E402
from satwin.runner import Simulation  # noqa: E402
from satwin.scenario import parse_scenario  # noqa: E402
from satwin.tcp import TcpReceiver, TcpSender  # noqa: E402

SHIPPED = ("s1_wlan_to_sat", "s2_sat_to_wlan", "s3_multiflow", "s4_three_networks",
           "s5_roundtrip", "slow_start")
MODES = ("BASELINE", "PROACTIVE", "RESET_CWND")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def all_events():
    """Within it, runs take the all-events reference path: with
    `Simulation._shortcuts` skipped, no link has a feeder or hands off, and
    no hand-off resumes, so every segment has an event at every hop."""
    return mock.patch.object(Simulation, "_shortcuts", lambda sim, *routes: None)


@contextlib.contextmanager
def packet_log():
    """Within it, runs append to the list it yields what the MN and the
    senders see: each data segment the receiver takes, `(now, key, flow,
    seq, len, downlink kind)`; each ACK the receiver sends, `(send time,
    key, flow, ack, rwnd, flags)`; and each ACK a sender takes, `(now, key,
    flow, ack, rwnd)`. On exit it sorts the list by time and segment key,
    which a run with shortcuts shares with the all-events run, so equal
    logs say the two runs took and sent the same segments at the same
    times, also where the trace is off and data reaches the MN ahead of
    time."""
    log = []
    deliver, emit_ack, on_ack = Simulation._deliver_data, TcpReceiver._emit_ack, TcpSender.on_ack

    def logged_deliver(sim, seg, now):
        log.append((now, seg.key, seg.flow_id, seg.seq, seg.payload_len, seg.route[-1].spec.kind))
        deliver(sim, seg, now)

    def logged_emit_ack(receiver, *args):
        ack = emit_ack(receiver, *args)
        if ack is not None:
            log.append((ack.sent_at, ack.key, ack.flow_id, ack.ack, ack.rwnd, ack.flags))
        return ack

    def logged_on_ack(sender, seg, now):
        log.append((now, seg.key, seg.flow_id, seg.ack, seg.rwnd))
        return on_ack(sender, seg, now)

    with mock.patch.object(Simulation, "_deliver_data", logged_deliver), \
            mock.patch.object(TcpReceiver, "_emit_ack", logged_emit_ack), \
            mock.patch.object(TcpSender, "on_ack", logged_on_ack):
        yield log
    log.sort(key=lambda record: record[:2])


def run_digests(text: str, name: str, mode: str, trace: bool) -> dict[str, str]:
    """The CSV and trace digests of one run of a scenario text."""
    try:
        sim = Simulation(parse_scenario(text, name), mode=mode, trace=trace)
        csv_text = write_csv(sim.run().csv_rows())
    except (ConfigError, SimError) as exc:
        error = f"{name}/{mode}: {type(exc).__name__}: {exc}"
        return dict.fromkeys(("csv", "trace"), _sha(error))
    return {"csv": _sha(csv_text), "trace": _sha(sim.trace.text() if trace else "")}


def shipped_digests(names=SHIPPED, trace: bool = True) -> dict[str, dict[str, str]]:
    """`name/MODE` -> digests, the key form of tests/golden_runs.json."""
    out = {}
    for name in names:
        text = (REPO / "scenarios" / f"{name}.scn").read_text()
        for mode in MODES:
            out[f"{name}/{mode}"] = run_digests(text, name, mode, trace)
    return out


def all_digests(seeds: list[int], flip: bool = False) -> dict[str, dict[str, str]]:
    """Run key -> digests, for the shipped runs and every seed's workload
    jobs; with `flip`, each run with its trace setting flipped."""
    runs = {f"shipped/{key}": d for key, d in shipped_digests(SHIPPED, not flip).items()}
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for job in workloads.generate(workload, seed, REPO / "scenarios"):
                runs[f"{workload}/{seed}/{job.name}/{job.mode}"] = \
                    run_digests(job.text, job.name, job.mode, job.trace != flip)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="workload seeds whose job texts are run as well")
    parser.add_argument("--all-events", action="store_true",
                        help="run the all-events reference (an event at every hop) and "
                             "check each run's CSV and trace against it, and each run's "
                             "CSV against the run with its trace flipped")
    args = parser.parse_args(argv)
    runs = normal = all_digests(args.seeds)
    differ, flips = [], []
    if args.all_events:
        with all_events():
            runs = all_digests(args.seeds)
        differ = [key for key, d in runs.items() if d != normal[key]]
        flipped = all_digests(args.seeds, flip=True)
        flips = [key for key, d in normal.items() if d["csv"] != flipped[key]["csv"]]
    lines = [f"{key} csv={d['csv']} trace={d['trace']}" for key, d in runs.items()]
    print("\n".join(lines))
    print(f"total {_sha(''.join(lines))} ({len(lines)} runs)")
    for key in differ:
        print(f"differs from the all-events reference: {key}", file=sys.stderr)
    for key in flips:
        print(f"differs with the trace flipped: {key}", file=sys.stderr)
    return 1 if differ or flips else 0


if __name__ == "__main__":
    sys.exit(main())
