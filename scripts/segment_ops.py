#!/usr/bin/env python3
"""Print the bytecodes, Python calls and C calls one benchmark job takes per data segment.

    python3 scripts/segment_ops.py --workload bulk_reno --seed 1 --job 0

Runs job `--job` of a `satbench/workloads.py` workload at `--seed`, in its
mode and with its trace setting, cut at `--seconds` simulated seconds when
given, under `sys.settrace` with opcode events on and `sys.setprofile`.
Only `Simulation.run` is counted, not parsing or construction. For each
Python function it prints the bytecodes executed in its own frames and the
calls made to it (a generator's resumption counts as a call), in total and
per data segment sent (every copy, retransmissions included, counted by
`TcpSender._emit` calls); then the totals. A data segment and its ACK make
one round trip, so the per-segment totals are the cost of a round trip. C
functions (`heapq`, list methods) count as the one bytecode that calls
them; the row `<string>:__create_fn__.<locals>.__init__` is the `__init__`
that `dataclasses` generates, mostly `Segment`'s.

A second table counts the calls to C functions (`min`, `list.append`,
`_heapq.heappush`), from `sys.setprofile`'s `c_call` events, each charged
to the Python function that made it: one row per C function and caller,
in total and per data segment, then the total. A call to a type
(`partial(...)`, `Segment(...)`) raises no `c_call` event, so this table
misses it (`Segment`'s generated `__init__` still shows in the first).
Neither table sees multi-digit integer arithmetic: an operation on an int
past 2**30 (CPython's one-digit limit) takes a slower path inside the same
bytecode, with no call. The garbage collector is off during the run, so
no collection's callbacks are counted.

The counts do not depend on the host's speed or load: two runs on one
Python version print the same output, so a per-segment claim can be checked
without timing noise. The trace makes the run many times slower: a whole
`bulk_reno` job (10 simulated s, 8,075 data segments at seed 1) takes
about 15 s on a 2-core VM with Python 3.11.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "satbench"))

import workloads  # noqa: E402  (satbench/workloads.py)
from satwin.kernel import SEC, fmt_time  # noqa: E402
from satwin.runner import Simulation  # noqa: E402
from satwin.scenario import parse_scenario  # noqa: E402
from satwin.tcp import TcpSender  # noqa: E402


def _name(code) -> str:
    return f"{Path(code.co_filename).name}:{getattr(code, 'co_qualname', code.co_name)}"


def c_name(func) -> str:
    """A C function's name: `min`, `list.append`, `_heapq.heappush`."""
    module = getattr(func, "__module__", None)
    return func.__qualname__ if module in (None, "builtins") else f"{module}.{func.__qualname__}"


def count(sim: Simulation, opcodes: bool = True) -> tuple[Counter, Counter, Counter]:
    """Run `sim`; the bytecodes executed in each code object (none counted
    when not `opcodes`, which runs far faster), the calls made to it, and
    the C-function calls, by (calling code object, C function name)."""
    ops, calls, c_calls = Counter(), Counter(), Counter()

    def in_frame(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return in_frame

    def on_call(frame, event, arg):
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return in_frame

    def on_profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
        elif event == "c_call" and frame.f_code is not count.__code__:  # not setting the hooks
            c_calls[frame.f_code, c_name(arg)] += 1

    # the collector stays off: a gc callback (hypothesis installs one) would
    # be counted whenever a collection happened to fall inside the run
    previous, profile, collecting = sys.gettrace(), sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(on_profile)
    if opcodes:
        sys.settrace(on_call)
    try:
        sim.run()
    finally:
        sys.settrace(previous)
        sys.setprofile(profile)
        if collecting:
            gc.enable()
    return ops, calls, c_calls


def report(workload: str, seed: int, index: int, seconds: float | None) -> list[str]:
    """The output lines for one job."""
    job = workloads.generate(workload, seed, REPO / "scenarios")[index]
    spec = parse_scenario(job.text, job.name)
    if seconds is not None:
        end = round(seconds * SEC)
        spec = replace(spec, end=end, handovers=tuple(h for h in spec.handovers if h.at < end))
    ops, calls, c_calls = count(Simulation(spec, mode=job.mode, trace=job.trace))
    segments = calls[TcpSender._emit.__code__]
    rows: dict[str, list[int]] = {}
    for code in ops.keys() | calls.keys():
        row = rows.setdefault(_name(code), [0, 0])
        row[0] += ops[code]
        row[1] += calls[code]
    per = max(segments, 1)
    lines = [f"{workload} job {index} ({job.name}, {job.mode}, trace {int(job.trace)}), "
             f"seed {seed}, {fmt_time(spec.end)} simulated s: {segments} data segments",
             f"{'bytecodes':>10} {'calls':>8} {'bytecodes/seg':>13} {'calls/seg':>9}  function"]
    for name, (n_ops, n_calls) in sorted(rows.items(), key=lambda item: (-item[1][0], item[0])):
        lines.append(f"{n_ops:>10} {n_calls:>8} {n_ops / per:>13.1f} {n_calls / per:>9.2f}  {name}")
    n_ops, n_calls = sum(ops.values()), sum(calls.values())
    lines.append(f"{n_ops:>10} {n_calls:>8} {n_ops / per:>13.1f} {n_calls / per:>9.2f}  total")
    lines += ["", f"{'C calls':>10} {'calls/seg':>9}  C function  caller"]
    c_rows: Counter = Counter()
    for (code, name), n in c_calls.items():
        c_rows[name, _name(code)] += n
    for (name, caller), n in sorted(c_rows.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"{n:>10} {n / per:>9.2f}  {name}  {caller}")
    n = sum(c_calls.values())
    lines.append(f"{n:>10} {n / per:>9.2f}  total")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="bulk_reno", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--job", type=int, default=0, help="index into the workload's jobs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="cut the run at this simulated time (default: the job's end)")
    args = parser.parse_args(argv)
    print("\n".join(report(args.workload, args.seed, args.job, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
