"""Home-agent anchoring: binding table, registration signaling, redirection.

The rendezvous/home-agent roles are collapsed into one node. Registration
processing takes zero time at the agent itself; all latency comes from the
paths the 60-byte BU/BUACK control segments travel, and those segments
share link queues with data (congestion can delay them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import SimError, fmt_time
from .net import F_BU, F_BUACK, Segment

MIP_FLOW = "_mip"  # pseudo flow id carried by registration segments


@dataclass
class Binding:
    attachment: str  # access network kind the address belongs to
    registered_at: int


class BindingTable:
    """Per-MN bindings in registration order; the newest is in force, older
    ones are kept (multi-binding capable agent)."""

    def __init__(self):
        self.entries: dict[str, list[Binding]] = {}

    def register(self, mn: str, attachment: str, at: int) -> None:
        bindings = self.entries.setdefault(mn, [])
        if bindings and at < bindings[-1].registered_at:
            raise SimError(f"binding of {mn} registered at {fmt_time(at)}, before the one in "
                           f"force (registered at {fmt_time(bindings[-1].registered_at)})")
        bindings.append(Binding(attachment, at))


def make_binding_update(attachment: str, at: int) -> Segment:
    return Segment(flow_id=MIP_FLOW, flags=F_BU, sent_at=at, path_tag=attachment)


class HomeAgent:
    """Redirects anchored traffic to the MN's newest binding and answers
    binding updates with BUACKs over the path they arrived on. Every
    registration happens at the time it is processed, and the run registers
    the starting network at t=0, so the newest binding is the one in force."""

    def __init__(self, mn: str):
        self.mn = mn
        self.table = BindingTable()
        self.bound: Optional[str] = None  # the attachment of the binding in force
        self.bu_sent_at = 0  # send time of the binding update in force (its sequence number)

    def register(self, attachment: str, at: int) -> None:
        """Bind the MN to `attachment` from `at` on."""
        self.table.register(self.mn, attachment, at)
        self.bound = attachment

    def handle_binding_update(self, seg: Segment, now: int) -> Optional[Segment]:
        """Register the new attachment and produce the BUACK, which the caller
        sends back over the new path (its arrival defines t_r3); None for a
        stale BU, sent before the one in force (RFC 6275 9.5.1)."""
        if not seg.flags & F_BU:
            raise SimError(f"home agent: binding update expected, got flags {seg.flags} "
                           f"(flow {seg.flow_id})")
        if seg.sent_at < self.bu_sent_at:
            return None
        self.bu_sent_at = seg.sent_at
        self.register(seg.path_tag, now)
        return Segment(flow_id=MIP_FLOW, flags=F_BUACK, sent_at=now, path_tag=seg.path_tag)

    def route_attachment(self) -> str:
        """The access network an arriving data segment is redirected to."""
        return self.bound
