"""Home-agent anchoring: binding table, registration signaling, redirection.

The rendezvous/home-agent roles are collapsed into one node. Registration
processing takes zero time at the agent itself; all latency comes from the
paths the 60-byte BU/BUACK control segments travel, and those segments
share link queues with data (congestion can delay them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import SimError
from .net import F_BU, F_BUACK, Segment

MIP_FLOW = "_mip"  # pseudo flow id carried by registration segments


@dataclass(frozen=True)
class RegistrationConfig:
    """Where binding updates originate: the mobile node itself, or a
    network-side proxy sitting in the target access gateway."""

    origin: str = "MN"  # MN | PROXY
    proxy_location: Optional[str] = None  # gateway override when PROXY


@dataclass
class Binding:
    attachment: str  # access network kind the address belongs to
    registered_at: int


class BindingTable:
    """Per-MN ordered bindings; the newest is active, older ones are kept
    (multi-binding capable agent)."""

    def __init__(self):
        self.entries: dict[str, list[Binding]] = {}

    def register(self, mn: str, attachment: str, at: int) -> Binding:
        bindings = self.entries.setdefault(mn, [])
        if bindings and at < bindings[-1].registered_at:
            raise SimError(f"binding of {mn} registered at {at}, before the one in force")
        binding = Binding(attachment, at)
        bindings.append(binding)
        return binding

    def active_as_of(self, mn: str, at: int) -> Optional[Binding]:
        """Newest binding with registered_at <= at (None before the first).

        This is the single redirection boundary: arrivals strictly before a
        binding's registration use the previous one. `register` keeps the
        list in time order, so the scan starts at the newest."""
        for b in reversed(self.entries.get(mn, ())):
            if b.registered_at <= at:
                return b
        return None


def make_binding_update(mn: str, attachment: str, at: int) -> Segment:
    return Segment(flow_id=MIP_FLOW, flags=F_BU, sent_at=at, path_tag=attachment)


class HomeAgent:
    """Redirects anchored traffic to the MN's active binding and answers
    binding updates with BUACKs over the path they arrived on."""

    def __init__(self, node: str, mn: str):
        self.node = node
        self.mn = mn
        self.table = BindingTable()
        self.bu_sent_at = 0  # send time of the binding update in force (its sequence number)

    def handle_binding_update(self, seg: Segment, now: int) -> Optional[Segment]:
        """Register the new attachment and produce the BUACK, which the caller
        sends back over the new path (its arrival defines t_r3); None for a
        stale BU, sent before the one in force (RFC 6275 9.5.1)."""
        if not seg.flags & F_BU:
            raise SimError(f"binding update expected, got flags {seg.flags} (flow {seg.flow_id})")
        if seg.sent_at < self.bu_sent_at:
            return None
        self.bu_sent_at = seg.sent_at
        self.table.register(self.mn, seg.path_tag or "?", now)
        return Segment(flow_id=MIP_FLOW, flags=F_BUACK, sent_at=now, path_tag=seg.path_tag)

    def route_attachment(self, seg: Segment, now: int) -> Optional[str]:
        """Pick the access network for a data segment arriving now; None
        when the MN has no binding yet."""
        binding = self.table.active_as_of(self.mn, now)
        if binding is None:
            return None
        return binding.attachment
