"""Nodes, access links, drop-tail queues and path routing.

Store-and-forward at every hop: a segment is fully serialized onto a link
before propagating, and each directed link serves its FIFO queue at the
configured bandwidth. Drops (queue overflow, no radio coverage) are modeled
outcomes, not errors. Segments already accepted by a link when coverage
ends are still delivered; only new transmissions are blocked.

Cut-through: a link whose only upstream link, over every route the run can
use, is the one a segment is leaving (its `feeder`, set from
`single_feeders`) sees its segments in the order that link finishes them.
So the upstream `transmit` admits the segment to it at once, for the
logical time it gets there (a FIFO tandem, Lindley 1952), and the kernel
holds one event for the hops cut through: the final arrival, the drop at
the hop that refuses the segment, or the admission to a link with several
feeders, due when the segment reaches it. It ranks as the all-events
run's event there does: by the admission before it, then by the
segment's key (see `kernel`).
Inside a quiet interval (see `Simulation._resume_hand_off`), a link that
alone feeds the home agent's forward link hands data at its route's end to
the agent at once (`hand_off`): a data segment has one event from source to
MN there, and two from a detection until the next quiet interval starts.
With no ACK delay, the MN's downlink hands data to the receiver at once
too, inside an MN interval (`Simulation._resume_mn_hand_off`): its ACK
enters the uplink for the data's arrival time, and the ACK's arrival at the
source is then the one event of a data segment and its ACK (traced, its
lines wait for an event at the arrival time, see `Simulation._deliver_held`).
Either interval lasts to the next detection; its start hands off the
arrivals due over the link before then (`Simulation._start_interval`).
`Simulation._shortcuts` wires all of these; the all-events reference
skips it, and every segment has an event at every hop.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

from .kernel import Kernel, SEC, SimError

# Wire overhead: 40 B TCP/IP header on data and pure-ACK segments,
# 60 B for registration (BU/BUACK) control segments.
HEADER_BYTES = 40
CONTROL_BYTES = 60

ACCESS_KINDS = ("WLAN", "GPRS", "SAT")
LINK_KINDS = ACCESS_KINDS + ("WIRED",)

# Segment flag bits.
F_DATA = 1
F_ACK = 2
F_BU = 4
F_BUACK = 8
F_WUPD = 16  # window-update ACK: never counted as a duplicate by the sender
F_REFRESH = 32  # state-refresh ACK emitted while duplicate ACKs are suppressed
F_CONTROL = F_BU | F_BUACK  # registration segments: CONTROL_BYTES on the wire

OVERFLOW = "OVERFLOW"
NO_COVERAGE = "NO_COVERAGE"


@dataclass(slots=True)
class Segment:
    """One simulated TCP/registration segment (headers abstracted).

    `sent_at` is stamped at original emission; `echo` carries the data
    segment's send time back on cumulative ACKs for RTT sampling.
    `path_tag` records the access network that carried the segment. `key`
    ranks its events among simultaneous ones of one origin (see `kernel`):
    drawn from `Kernel.seqs` when the segment is made, an ACK's is its data
    segment's; 0 draws a fresh one for each event.
    """

    flow_id: str
    seq: int = 0
    payload_len: int = 0
    ack: int = 0
    rwnd: int = 0
    flags: int = F_DATA
    sent_at: int = 0
    path_tag: Optional[str] = None
    echo: Optional[int] = None
    rexmit: bool = False
    mark: object = None  # the handover a window update, BU or BUACK belongs to
    route: tuple = ()
    key: int = 0
    hop: int = 0

    def wire_size(self) -> int:
        if self.flags & F_CONTROL:
            return CONTROL_BYTES
        return HEADER_BYTES + self.payload_len


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one (bidirectional) link.

    bandwidth is bytes/second, prop_delay microseconds one-way,
    queue_capacity bytes per direction. `availability` lists the [start,
    end) windows during which the link is up; None means always up.
    """

    name: str
    a: str
    b: str
    bandwidth: int
    prop_delay: int
    queue_capacity: int
    kind: str = "WIRED"
    availability: Optional[tuple[tuple[int, int], ...]] = None

    def serialization_us(self, wire_bytes: int) -> int:
        # ceil: a byte not fully clocked out has not left the node
        return (wire_bytes * SEC + self.bandwidth - 1) // self.bandwidth

    def is_available(self, at: int) -> bool:
        if self.availability is None:
            return True
        for start, end in self.availability:
            if start <= at < end:
                return True
        return False


class DirectedLink:
    """Runtime state of one direction of a link: drop-tail queue + serializer.

    Occupancy counts every byte accepted and not yet fully serialized.
    `backlog` holds `(finish, wire)` per segment queued behind another; one
    admitted onto an idle serializer (`free_at <= at`) is alone in service
    until `free_at` and gets an entry, `(free_at, occupancy)`, only when the
    next admission finds it busy. An admission for time `at`, at `kernel.now`
    or ahead of it, first releases every entry with `finish <= at`: bytes
    that finish at `at` have left by `at`. On an idle link that is every
    entry, released without a walk.
    A data segment ending its route here before `hand_off_before` goes to
    `hand_off` for its arrival time, with no event. `Simulation._shortcuts`
    sets it on the one link into the home agent and, with no ACK delay or
    pacing, on each MN downlink its forward route cuts through to;
    `hand_off_before` is the next scripted detection inside an interval of
    the link's own, and 0 outside one.
    """

    def __init__(self, spec: LinkSpec, src: str, dst: str, kernel: Kernel):
        self.spec = spec
        self.src = src
        self.dst = dst
        self.kernel = kernel
        self.serialization: dict[int, int] = {}  # wire bytes -> us, from spec.serialization_us
        self.prop_delay = spec.prop_delay
        self.capacity = spec.queue_capacity
        self.tag = spec.kind if spec.kind in ACCESS_KINDS else None  # stamped on what it accepts
        self.always_up = spec.availability is None
        self.occupancy = 0
        self.backlog: deque[tuple[int, int]] = deque()
        self.free_at = 0  # when the serializer finishes its current backlog
        self.feeder: Optional[DirectedLink] = None  # the one upstream link, if single-fed
        self.hand_off: Optional[Callable[[Segment, int], None]] = None
        self.hand_off_before = 0  # data ending its route here earlier goes to `hand_off`
        self.deliver: Callable[[DirectedLink, Segment], None] = _unwired
        self.on_drop: Callable[[DirectedLink, Segment, str, int], None] | None = None
        self.drops = {OVERFLOW: 0, NO_COVERAGE: 0}

    @property
    def label(self) -> str:
        return f"{self.spec.name}:{self.src}->{self.dst}"

    def transmit(self, seg: Segment, at: int) -> None:
        """Enqueue `seg` at time `at`, or drop it (counted in `drops` and
        reported to `on_drop`, at a skipped hop by an event of the caller's
        origin and the segment's key, plus 2 at a first hop, which only the
        arrival a hand-off runs early reaches early). What an admission
        schedules or hands off ranks by `at`, the moment the all-events run
        admits `seg` here, and by the segment's key. It leaves `Kernel.origin`
        at `at`: the clock in an event's own admission, and a caller that
        admits ahead of that (the hop before a cut-through, the arrival a
        hand-off runs) puts back its own.

        Arrival = end of FIFO serialization + propagation delay. Wire size
        inlines `Segment.wire_size`, serialization reads the link's table;
        only a busy serializer walks its backlog for the finished entries.
        An accepted segment gets this link's tag and moves on one hop.
        """
        kernel = self.kernel
        backlog = self.backlog
        free_at = self.free_at
        if free_at <= at:  # an idle serializer: every accepted byte has left
            if backlog:
                backlog.clear()
            occupancy = 0
        else:  # the guard: an idle admission leaves no entry, one ahead of time may take all
            occupancy = self.occupancy
            while backlog and backlog[0][0] <= at:
                occupancy -= backlog.popleft()[1]
        wire = CONTROL_BYTES if seg.flags & F_CONTROL else HEADER_BYTES + seg.payload_len
        if not self.always_up and not self.spec.is_available(at):
            self.occupancy = occupancy
            self._drop(seg, NO_COVERAGE, at)
            return
        if occupancy + wire > self.capacity:
            self.occupancy = occupancy
            self._drop(seg, OVERFLOW, at)
            return
        self.occupancy = occupancy + wire
        try:
            finish = self.serialization[wire]
        except KeyError:  # the first segment of this size on this link
            finish = self.serialization[wire] = self.spec.serialization_us(wire)
        if free_at <= at:  # idle: `seg` alone is in service, until `free_at`
            finish += at
        else:
            if not backlog:  # the segment still in service, admitted onto an idle serializer
                backlog.append((free_at, occupancy))
            finish += free_at
            backlog.append((finish, wire))
        self.free_at = finish
        arrival = finish + self.prop_delay
        if self.tag is not None:
            seg.path_tag = self.tag
        route = seg.route
        seg.hop = hop = seg.hop + 1
        kernel.origin = at  # what follows ranks by this admission (left so, see the docstring)
        if hop >= len(route):
            if arrival < self.hand_off_before:
                self.hand_off(seg, arrival)
                kernel.origin = at
            else:
                kernel.key = seg.key
                kernel.schedule(arrival, partial(self.deliver, self, seg), "link-rx")[5] = seg
                # the sixth slot is read by pending_arrivals; a tracer may have wrapped the handler
                kernel.key = 0
        else:
            nxt = route[hop]
            if nxt.feeder is self:
                nxt.transmit(seg, arrival)
                kernel.origin = at
            else:  # several feeders: `seg` enters the next link from its arrival event
                kernel.key = seg.key
                kernel.schedule(arrival, partial(nxt.transmit, seg, arrival), "link-rx")[5] = seg
                kernel.key = 0

    def _drop(self, seg: Segment, reason: str, at: int) -> None:
        kernel = self.kernel
        if at > kernel.now:  # a skipped hop: the drop happens when `seg` gets here
            # at a first hop inside a hand-off, just after the arrival that sends `seg`
            kernel.key = seg.key + 2 if seg.key and not seg.hop else seg.key
            kernel.schedule(at, partial(self._drop, seg, reason, at), "link-rx")[5] = seg
            kernel.key = 0
            return
        self.drops[reason] += 1
        if self.on_drop is not None:
            self.on_drop(self, seg, reason, at)


def single_feeders(routes) -> dict[DirectedLink, Optional[DirectedLink]]:
    """Each link of `routes` mapped to the link before it on every route
    that uses it, or to None where routes reach it from different links or
    start on it (the node a route starts at feeds it too)."""
    feeders: dict[DirectedLink, set] = {}
    for route in routes:
        for i, link in enumerate(route):
            feeders.setdefault(link, set()).add(route[i - 1] if i else None)
    return {link: next(iter(fed)) if len(fed) == 1 else None for link, fed in feeders.items()}


def pending_arrivals(kernel: Kernel) -> Iterator[Segment]:
    """Every segment on the wire: the one each pending `link-rx` event
    carries, to the node it arrives at or the hop that drops it."""
    return (entry[5] for entry in kernel.pending_entries("link-rx"))


def take_arrivals(kernel: Kernel, link: DirectedLink, before: int) -> list[tuple]:
    """Cancel the pending events of the data segments ending their route over
    `link` before `before`, not at it; the (time, origin, segment) of each, in
    run order. A BUACK due there keeps its event: its arrival is the MN's."""
    entries = sorted(e for e in kernel.pending_entries("link-rx")
                     if e[0] < before and e[5].route[-1] is link and e[5].hop == len(e[5].route)
                     and e[5].flags & F_DATA)
    for entry in entries:
        kernel.cancel(entry)
    return [(entry[0], entry[1] >> 40, entry[5]) for entry in entries]


def _unwired(link: DirectedLink, seg: Segment) -> None:
    """The arrival handler of a link nothing wired to a receiver."""
    raise SimError(f"link {link.label} not wired (flow {seg.flow_id} seq {seg.seq})")


@dataclass(frozen=True)
class NodeSpec:
    name: str
    role: str  # cn | ha | mn | gateway | router
    kind: Optional[str] = None  # access network kind for gateways


Route = tuple[DirectedLink, ...]


class Topology:
    """Node/link graph with deterministic shortest-delay routing.

    Routes minimize total one-way propagation delay, breaking ties first on
    hop count and then on the lexicographic node sequence, so identical
    scenarios route identically everywhere; validation admits one link per
    pair of nodes, so the order of a file's sections decides nothing. A
    link to an unknown node, a missing access link, a missing route and a
    role held by no node or by several are `SimError`s: validation rejects
    a scenario file that has one, so a run meets them only as a bug.
    """

    def __init__(self, nodes: list[NodeSpec], links: list[LinkSpec], kernel: Kernel):
        self.nodes = {n.name: n for n in nodes}
        self.directed: dict[tuple[str, str], DirectedLink] = {}
        self._adj: dict[str, list[tuple[str, LinkSpec]]] = {n.name: [] for n in nodes}
        for spec in links:
            for src, dst in ((spec.a, spec.b), (spec.b, spec.a)):
                if src not in self.nodes or dst not in self.nodes:
                    raise SimError(f"link {spec.name}: unknown node {src!r}/{dst!r}")
                self.directed[(src, dst)] = DirectedLink(spec, src, dst, kernel)
                self._adj[src].append((dst, spec))
        self._mn = next((n.name for n in nodes if n.role == "mn"), None)
        # the MN's uplink per access kind, to the first gateway by name
        self._uplinks: dict[str, DirectedLink] = {}
        for (src, _), dl in sorted(self.directed.items()):
            if src == self._mn:
                self._uplinks.setdefault(dl.spec.kind, dl)
        self.routes: dict[tuple, Route] = {}  # memo by (src, dst) and (src, dst, kind)

    def node_with_role(self, role: str) -> str:
        names = [n.name for n in self.nodes.values() if n.role == role]
        if len(names) != 1:
            raise SimError(f"topology must define exactly one {role!r} node, found {names}")
        return names[0]

    def access_link(self, kind: str) -> DirectedLink:
        """The MN's uplink of `kind`; its `dst` is the access gateway."""
        uplink = self._uplinks.get(kind)
        if uplink is None:
            raise SimError(f"no {kind} access link attached to the mobile node")
        return uplink

    def route(self, src: str, dst: str) -> Route:
        """Shortest-delay route; never transits the MN's radio links unless
        one endpoint is the MN itself."""
        key = (src, dst)
        cached = self.routes.get(key)
        if cached is not None:
            return cached
        best: dict[str, tuple[int, int, tuple[str, ...]]] = {src: (0, 0, (src,))}
        frontier = [(0, 0, (src,), src)]
        while frontier:
            cost, hops, path, here = heapq.heappop(frontier)
            if best.get(here, (None,))[0:3] != (cost, hops, path):
                continue
            if here == dst:
                break
            for nxt, spec in self._adj[here]:
                if self._mn in (here, nxt) and self._mn not in (src, dst):
                    continue
                cand = (cost + spec.prop_delay, hops + 1, path + (nxt,))
                if nxt not in best or cand < best[nxt]:
                    best[nxt] = cand
                    heapq.heappush(frontier, cand + (nxt,))
        if dst not in best:
            raise SimError(f"no route from {src} to {dst}")
        names = best[dst][2]
        hops = tuple(self.directed[(names[i], names[i + 1])] for i in range(len(names) - 1))
        self.routes[key] = hops
        return hops

    def route_via_access(self, src: str, dst: str, kind: str) -> Route:
        """Route whose first (or last) hop is the MN's access link of `kind`."""
        key = (src, dst, kind)
        cached = self.routes.get(key)
        if cached is not None:
            return cached
        uplink = self.access_link(kind)
        mn, gw = uplink.src, uplink.dst
        if src == mn:
            hops = (uplink,) + (self.route(gw, dst) if gw != dst else ())
        else:
            if dst != mn:
                raise SimError(f"route {src}->{dst} via {kind}: neither end is mobile node {mn}")
            hops = (self.route(src, gw) if src != gw else ()) + (self.directed[(gw, mn)],)
        self.routes[key] = hops
        return hops


def path_rtt(route: Route, probe_size: int = 0) -> int:
    """Round-trip latency of a probe over `route` and back, empty queues.

    Symmetric links: RTT = 2 * sum(serialization + propagation) per hop.
    """
    total = 0
    for hop in route:
        total += hop.spec.prop_delay + hop.spec.serialization_us(probe_size)
    return 2 * total


def rtt_table(topo: Topology, old_kind: str) -> tuple[int, int, int]:
    """Propagation RTTs MN<->CN over the satellite, MN<->HA over the
    satellite, and MN<->HA over the old access network (zero-size probe), in
    handover.compute_delta's order."""
    mn, cn, ha = (topo.node_with_role(role) for role in ("mn", "cn", "ha"))
    return (path_rtt(topo.route_via_access(mn, cn, "SAT")),
            path_rtt(topo.route_via_access(mn, ha, "SAT")),
            path_rtt(topo.route_via_access(mn, ha, old_kind)))
