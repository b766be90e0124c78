"""Run metrics, the trace log, and the comparison CSV schema."""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .kernel import SEC, SimError, fmt_time

CSV_COLUMNS = [
    "scenario", "mode", "seed", "flow_id", "goodput_bps", "retransmits",
    "spurious_retransmits", "rto_count", "drops_old_path", "drops_new_path",
    "handover_gap_ms", "t_a0", "t_a1", "t_a2", "t_r0", "t_r1", "t_r3",
    "old_path_enqueues_after_tr1",
]

TIMELINE_LABELS = ("t_a0", "t_a1", "t_a2", "t_r0", "t_r1", "t_r3")

GAP_WINDOW = 5 * SEC  # the handover gap looks this far past the first detection


class Trace:
    """Event log, one `<time_s> <event> <node> <k=v ...>` line per event in order. A flow's
    per-packet kinds go through its `FlowLines`, made only when the trace is on; the rare
    kinds use `emit`. Every line starts with the stamp of its time, rendered when the time
    differs from the last line's: the whole seconds' `"<s>."` prefix, re-rendered when the
    second changes, then `"%06d"` of the microseconds, which is `fmt_time` for t >= 0."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.lines: list[str] = []
        self.t, self.stamp = None, ""  # the last line's time, and its text
        self._sec, self._sec_text = None, ""  # its whole seconds, and their `"<s>."` prefix

    def restamp(self, t_us: int) -> str:
        """Render the stamp of a line at `t_us`, a time other than the last line's."""
        sec, us = divmod(t_us, SEC)
        if sec != self._sec:
            self._sec, self._sec_text = sec, "%d." % sec
        self.t, self.stamp = t_us, self._sec_text + "%06d" % us
        return self.stamp

    def emit(self, t_us: int, event: str, node: str, **kv) -> None:
        if not self.enabled:
            return
        stamp = self.stamp if t_us == self.t else self.restamp(t_us)
        tail = [f"{k}={v}" for k, v in kv.items()]
        self.lines.append(" ".join([stamp, event, node, *tail]))

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


class FlowLines:
    """One flow's per-packet lines on `trace`: `send` and `rexmit` and `cwnd` at the source,
    `deliver` and `ack_tx` at the MN, `ack_rx` back at the source. Each line's head up to
    its first changing value is rendered once; each group of fields that seldom changes
    keeps its text and is rendered again only when one of its values changes."""

    def __init__(self, trace: Trace, flow: str, src: str, mn: str):
        self.trace = trace
        self.append = trace.lines.append
        self.send_head = f" send {src} flow={flow} seq="
        self.rexmit_head = f" rexmit {src} flow={flow} seq="
        self.deliver_head = f" deliver {mn} flow={flow} seq="
        self.ack_tx_head = f" ack_tx {mn} flow={flow} ack="
        self.ack_rx_head = f" ack_rx {src} flow={flow} ack="
        self.cwnd_head = f" cwnd {src} flow={flow} cwnd="
        # each group's values (None: none rendered yet) and text
        self.send_len, self.len_text = None, ""
        self.deliver_len, self.deliver_path, self.deliver_text = None, None, ""
        self.tx_rwnd, self.tx_flags, self.tx_text = None, None, ""
        self.rx_rwnd, self.rx_text = None, ""
        self.ssthresh, self.phase, self.cwnd_text = None, None, ""

    def send(self, seg, now: int) -> None:
        """A `send` line, or `rexmit` for a retransmitted copy."""
        trace = self.trace
        stamp = trace.stamp if now == trace.t else trace.restamp(now)
        n = seg.payload_len
        if n != self.send_len:
            self.send_len, self.len_text = n, f" len={n}"
        head = self.rexmit_head if seg.rexmit else self.send_head
        self.append(f"{stamp}{head}{seg.seq}{self.len_text}")

    def deliver(self, seg, now: int) -> None:
        """`seg` reached the MN over the downlink its route ends on."""
        trace = self.trace
        stamp = trace.stamp if now == trace.t else trace.restamp(now)
        n, path = seg.payload_len, seg.route[-1].spec.kind
        if n != self.deliver_len or path != self.deliver_path:
            self.deliver_len, self.deliver_path = n, path
            self.deliver_text = f" len={n} path={path}"
        self.append(f"{stamp}{self.deliver_head}{seg.seq}{self.deliver_text}")

    def ack_tx(self, seg, now: int) -> None:
        trace = self.trace
        stamp = trace.stamp if now == trace.t else trace.restamp(now)
        rwnd, flags = seg.rwnd, seg.flags
        if rwnd != self.tx_rwnd or flags != self.tx_flags:
            self.tx_rwnd, self.tx_flags = rwnd, flags
            self.tx_text = f" rwnd={rwnd} flags={flags}"
        self.append(f"{stamp}{self.ack_tx_head}{seg.ack}{self.tx_text}")

    def ack_rx(self, seg, now: int) -> None:
        trace = self.trace
        stamp = trace.stamp if now == trace.t else trace.restamp(now)
        rwnd = seg.rwnd
        if rwnd != self.rx_rwnd:
            self.rx_rwnd, self.rx_text = rwnd, f" rwnd={rwnd}"
        self.append(f"{stamp}{self.ack_rx_head}{seg.ack}{self.rx_text}")

    def cwnd(self, sender, now: int) -> None:
        """The sender's `cwnd`, `ssthresh`, `phase` and `snd_una` (as `una`)."""
        trace = self.trace
        stamp = trace.stamp if now == trace.t else trace.restamp(now)
        ssthresh, phase = sender.ssthresh, sender.phase
        if ssthresh != self.ssthresh or phase != self.phase:
            self.ssthresh, self.phase = ssthresh, phase
            self.cwnd_text = f" ssthresh={ssthresh} phase={phase} una="
        self.append(f"{stamp}{self.cwnd_head}{sender.cwnd}{self.cwnd_text}{sender.snd_una}")


@dataclass
class FlowMetrics:
    """One flow's counters; those the endpoints keep are copied at the end of `Simulation.run`."""

    flow_id: str
    start: int
    bytes_sent: int = 0  # payload bytes of every copy sent, counted by the sender
    bytes_delivered: int = 0  # payload bytes of every copy reaching the MN
    bytes_dropped: int = 0
    bytes_inflight_end: int = 0
    # the receiver's rcv_nxt and when it last moved, copied at the end of `Simulation.run`
    delivered_inorder: int = 0
    last_inorder_at: Optional[int] = None
    retransmits: int = 0
    spurious_retransmits: int = 0
    rto_times: list[int] = field(default_factory=list)  # the sender's own lists
    fr_times: list[int] = field(default_factory=list)
    max_rwnd_increase: int = 0
    # [start, end] of the handover gap, the longest silence between in-order
    # advances; gap_from is the last advance inside it (or its start)
    gap_window: Optional[tuple[int, int]] = None
    max_gap: int = 0
    gap_from: int = 0

    def __post_init__(self) -> None:
        if self.gap_window is not None:
            self.gap_from = self.gap_window[0]

    def note_inorder(self, now: int) -> None:
        """In-order data grew at `now`; reported once a detection set the gap window."""
        window = self.gap_window
        if window[0] <= now <= window[1]:
            if now - self.gap_from > self.max_gap:
                self.max_gap = now - self.gap_from
            self.gap_from = now

    def goodput_bps(self) -> float:
        if self.last_inorder_at is None or self.last_inorder_at <= self.start:
            return 0.0
        duration = self.last_inorder_at - self.start
        return self.delivered_inorder * 8 * SEC / duration

    def conservation_residual(self) -> int:
        return self.bytes_sent - (
            self.bytes_delivered + self.bytes_dropped + self.bytes_inflight_end
        )

    def recoveries_within(self, start: int, end: int) -> int:
        return sum(start <= t <= end for t in self.rto_times + self.fr_times)

    def handover_gap(self) -> int:
        """Longest interval without an in-order delivery inside the gap
        window, counting from its start and up to its end."""
        return max(self.max_gap, self.gap_window[1] - self.gap_from)


@dataclass
class DropRecord:
    time: int
    link: str
    kind: str
    reason: str
    flow_id: str


@dataclass
class HandoverMetrics:
    name: str
    direction: str
    at: int
    old_kind: str = ""
    new_kind: str = ""
    aborted: bool = False
    timeline: dict[str, int] = field(default_factory=dict)
    old_path_enqueues_after_tr1: int = 0
    drain_timed_out: bool = False


@dataclass
class RunMetrics:
    scenario: str
    mode: str
    seed: int
    flows: dict[str, FlowMetrics] = field(default_factory=dict)
    drops: list[DropRecord] = field(default_factory=list)
    handovers: list[HandoverMetrics] = field(default_factory=list)

    @property
    def no_binding_drops(self) -> int:
        """Always 0, since the agent has a binding from t=0; the benchmark reports it."""
        return 0

    def drops_on_kind(self, kind: str, reason: Optional[str] = None,
                      start: Optional[int] = None, end: Optional[int] = None) -> int:
        return sum(d.kind == kind and (reason is None or d.reason == reason)
                   and (start is None or d.time >= start) and (end is None or d.time <= end)
                   for d in self.drops)

    def check_conservation(self) -> None:
        for fm in self.flows.values():
            residual = fm.conservation_residual()
            if residual != 0:
                raise SimError(f"flow {fm.flow_id}: sent {fm.bytes_sent} != delivered "
                               f"{fm.bytes_delivered} + dropped {fm.bytes_dropped} + in-flight "
                               f"{fm.bytes_inflight_end} (residual {residual})")

    def csv_rows(self) -> list[dict[str, str]]:
        ho = self.handovers[0] if self.handovers else None
        drops = Counter((d.flow_id, d.kind) for d in self.drops)
        rows = []
        for fid in sorted(self.flows):
            fm = self.flows[fid]
            row = {
                "scenario": self.scenario,
                "mode": self.mode,
                "seed": str(self.seed),
                "flow_id": fid,
                "goodput_bps": f"{fm.goodput_bps():.3f}",
                "retransmits": str(fm.retransmits),
                "spurious_retransmits": str(fm.spurious_retransmits),
                "rto_count": str(len(fm.rto_times)),
                "drops_old_path": "0",
                "drops_new_path": "0",
                "handover_gap_ms": "",
                "old_path_enqueues_after_tr1": "",
            }
            for label in TIMELINE_LABELS:
                row[label] = ""
            if ho is not None:
                row["drops_old_path"] = str(drops[fid, ho.old_kind])
                row["drops_new_path"] = str(drops[fid, ho.new_kind])
                row["handover_gap_ms"] = f"{fm.handover_gap() / 1000:.3f}"
                for label in TIMELINE_LABELS:
                    if label in ho.timeline:
                        row[label] = fmt_time(ho.timeline[label])
                row["old_path_enqueues_after_tr1"] = str(ho.old_path_enqueues_after_tr1)
            rows.append(row)
        return rows


def write_csv(rows: list[dict[str, str]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(row[c] for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()
