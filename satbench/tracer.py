"""Outside-in span tracer for the benchmark's traced pass.

While installed, it replaces the public functions of each satwin layer with
timing wrappers, at the place where callers look them up: class attributes
for methods, and the module globals of every module that calls a function
by its bare name (`runner` imports `path_rtt` and `rtt_table` by name, and
calls the handover planners through the `handover` module). Scheduled
events are wrapped too, so each event kind's handler gets a span.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated per name in memory: calls, total and self seconds.
`uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Optional

from satwin import handover, kernel, metrics, mobility, net, runner, scenario, tcp

# (owner, attribute, span name): every place a layer's public function is
# looked up by the code that calls it.
PATCH_POINTS = (
    (scenario, "parse_scenario", "scenario.parse"),
    (runner.Simulation, "__init__", "runner.init"),
    (kernel.Kernel, "cancel", "kernel.cancel"),
    (kernel.Kernel, "run_until", "kernel.run_until"),
    (net.DirectedLink, "transmit", "net.transmit"),
    (net.Topology, "route_via_access", "net.route_via_access"),
    (net.Topology, "route", "net.route"),
    (net, "path_rtt", "net.path_rtt"),
    (runner, "path_rtt", "net.path_rtt"),
    (runner, "rtt_table", "net.rtt_table"),
    (mobility.HomeAgent, "route_attachment", "mobility.route_attachment"),
    (mobility.HomeAgent, "handle_binding_update", "mobility.handle_binding_update"),
    (tcp.TcpSender, "on_ack", "tcp.on_ack"),
    (tcp.TcpSender, "try_send", "tcp.try_send"),
    (tcp.TcpSender, "on_rto", "tcp.on_rto"),
    (tcp.TcpReceiver, "on_data", "tcp.on_data"),
    (handover, "plan_terr_to_sat", "handover.plan"),
    (handover, "plan_sat_to_terr", "handover.plan"),
    (handover, "allocate_flow_windows", "handover.plan"),
    (metrics.Trace, "emit", "metrics.trace_emit"),
    (metrics.Trace, "text", "metrics.trace_text"),
    (metrics.RunMetrics, "csv_rows", "metrics.csv_rows"),
    (metrics.RunMetrics, "check_conservation", "metrics.check_conservation"),
    (metrics, "write_csv", "metrics.write_csv"),
)


class Tracer:
    """Aggregated spans plus the counters sampled at the same boundaries."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.scheduled: Counter[str] = Counter()
        self.cancelled = 0
        self.events = 0  # sum of run_until return values
        self.pending_peak = 0
        self.queue_hwm: dict[str, int] = {}  # access-link direction -> bytes
        self.oob_peak = 0
        self._stack = [0.0]  # child time covered, per open span
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _stats(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def _timed(self, stats: list, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
            if after is not None:
                after(args, result)
            return result

        return span

    # -- observers run after a wrapped call returns --------------------------

    def _after_cancel(self, args, result) -> None:
        self.cancelled += bool(result)

    def _after_run_until(self, args, result) -> None:
        self.events += result

    def _after_transmit(self, args, result) -> None:
        link = args[0]
        if link.spec.kind in net.ACCESS_KINDS:
            key = f"{link.spec.name}_{link.src}_{link.dst}"
            if link.occupancy > self.queue_hwm.get(key, 0):
                self.queue_hwm[key] = link.occupancy

    def _after_on_data(self, args, result) -> None:
        held = len(args[0].oob)
        if held > self.oob_peak:
            self.oob_peak = held

    def _after_schedule(self, args, result) -> None:
        pending = args[0].pending()
        if pending > self.pending_peak:
            self.pending_peak = pending

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        after = {
            "kernel.cancel": self._after_cancel,
            "kernel.run_until": self._after_run_until,
            "net.transmit": self._after_transmit,
            "tcp.on_data": self._after_on_data,
        }
        for owner, attr, name in PATCH_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            wrapper = self._timed(self._stats(name), original, after.get(name))
            setattr(owner, attr, functools.wraps(original)(wrapper))

        schedule = vars(kernel.Kernel)["schedule"]
        self._saved.append((kernel.Kernel, "schedule", schedule))
        timed_schedule = self._timed(self._stats("kernel.schedule"), schedule,
                                     self._after_schedule)
        scheduled, stats, timed = self.scheduled, self._stats, self._timed

        def traced_schedule(k, at, fn, kind="event"):
            scheduled[kind] += 1
            return timed_schedule(k, at, timed(stats("event." + kind), fn), kind)

        kernel.Kernel.schedule = functools.wraps(schedule)(traced_schedule)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- readout ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]
