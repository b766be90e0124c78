from collections import deque

import pytest
from hypothesis import example, given, strategies as st

from satwin.kernel import Kernel, SimError
from satwin.net import (
    F_ACK,
    F_BU,
    F_DATA,
    NO_COVERAGE,
    OVERFLOW,
    LinkSpec,
    NodeSpec,
    Segment,
    Topology,
    path_rtt,
    rtt_table,
    single_feeders,
)

MS = 1000


def make_link(kernel, bandwidth=125000, prop=250 * MS, queue=1 << 20, avail=None, kind="SAT"):
    spec = LinkSpec("l", "a", "b", bandwidth, prop, queue, kind, avail)
    topo = Topology([NodeSpec("a", "router"), NodeSpec("b", "router")], [spec], kernel)
    return topo.directed[("a", "b")]


def data_segment(payload=1460):
    return Segment(flow_id="f", seq=0, payload_len=payload)


def sent(link, seg, at):
    """Transmit `seg` on a link at the end of its route: its arrival time
    there, or None when the link drops it at once."""
    dropped = sum(link.drops.values())
    link.transmit(seg, at)
    return None if sum(link.drops.values()) > dropped else link.free_at + link.spec.prop_delay


def test_transmit_arrival_arithmetic():
    k = Kernel()
    link = make_link(k)
    arrivals = []
    link.deliver = lambda s: arrivals.append(k.now)
    # 1500 B wire on 125000 B/s: 12 ms serialization + 250 ms propagation
    assert sent(link, data_segment(), 0) == 262 * MS
    k.run_until(10**9)
    assert arrivals == [262 * MS]


def test_drop_tail_overflow_on_third_segment():
    k = Kernel()
    link = make_link(k, queue=3000)
    link.deliver = lambda s: None
    assert sent(link, data_segment(), 0) is not None
    assert sent(link, data_segment(), 0) is not None
    assert sent(link, data_segment(), 0) is None
    assert link.drops["OVERFLOW"] == 1


def test_transmit_during_coverage_gap():
    k = Kernel()
    link = make_link(k, avail=((0, 1_000_000),))
    link.deliver = lambda s: None
    k.run_until(2_000_000)
    assert sent(link, data_segment(), k.now) is None
    assert link.drops[NO_COVERAGE] == 1


def test_segment_accepted_before_gap_still_delivered():
    # propagation already under way when coverage ends
    k = Kernel()
    link = make_link(k, avail=((0, 1_000_000),))
    arrivals = []
    link.deliver = lambda s: arrivals.append(k.now)
    k.run_until(999_000)
    assert sent(link, data_segment(), k.now) == 999_000 + 262 * MS
    k.run_until(10**9)
    assert arrivals == [999_000 + 262 * MS]


def test_queueing_is_fifo_and_serialized():
    k = Kernel()
    link = make_link(k)
    order = []
    link.deliver = lambda s: order.append(s.seq)
    for i in range(3):
        seg = Segment(flow_id="f", seq=i, payload_len=1460)
        assert sent(link, seg, 0) == (i + 1) * 12 * MS + 250 * MS
    k.run_until(10**9)
    assert order == [0, 1, 2]


def test_occupancy_never_exceeds_capacity():
    k = Kernel()
    link = make_link(k, queue=4500)
    link.deliver = lambda s: None
    for _ in range(10):
        link.transmit(data_segment(), k.now)
        assert link.occupancy <= link.spec.queue_capacity
        k.run_until(k.now + MS)


@given(st.lists(st.integers(min_value=1, max_value=1460), min_size=1, max_size=30))
def test_fifo_property_random_sizes(sizes):
    k = Kernel()
    link = make_link(k, queue=1 << 30)
    order = []
    link.deliver = lambda s: order.append(s.seq)
    for i, size in enumerate(sizes):
        link.transmit(Segment(flow_id="f", seq=i, payload_len=size), 0)
    k.run_until(1 << 60)
    assert order == list(range(len(sizes)))


@pytest.mark.parametrize("admission", ["scheduled before", "scheduled after", "ahead of time"])
def test_an_entry_finishing_at_the_admission_time_has_left(admission):
    # the release rule: an admission for time `at` releases every entry with
    # finish <= at. S fills the queue from an event at 0 and finishes at F;
    # an admission for F finds S gone, whether it runs at F from an event
    # scheduled before S was sent or after it, or comes ahead of time from
    # S's own event
    k = Kernel()
    link = make_link(k, bandwidth=1_500_000, prop=MS, queue=1500, kind="WLAN")
    link.deliver = lambda s: None
    F = MS  # 1500 B at 1.5 MB/s
    outcomes = []

    def admit_at_f():
        outcomes.append(sent(link, data_segment(), k.now))

    if admission == "scheduled before":
        k.schedule(F, admit_at_f)

    def fill():
        assert sent(link, data_segment(), k.now) == F + MS
        if admission == "scheduled after":
            k.schedule(F, admit_at_f)
        elif admission == "ahead of time":
            outcomes.append(sent(link, data_segment(), F))

    k.schedule(0, fill)
    k.run_until(10 * MS)
    assert outcomes == [2 * F + MS]
    assert link.drops[OVERFLOW] == 0


def test_arrival_at_the_finish_time_sees_its_own_segment_gone():
    # with no propagation delay a segment arrives at its finish time, when
    # it has left the queue, so an arrival handler that sends on the same
    # link finds the queue empty
    def lazy(k):
        return make_link(k, bandwidth=1_000_000, prop=0, queue=1500, kind="WLAN")

    spec = lazy(Kernel()).spec
    for make in (lazy, lambda k: DequeueEventLink(spec, k)):
        k = Kernel()
        link = make(k)
        outcomes = []

        def echo(seg):
            if len(outcomes) < 2:
                outcomes.append(sent(link, data_segment(), k.now))

        link.deliver = echo
        link.transmit(data_segment(), 0)
        k.run_until(10 * MS)
        assert outcomes == [3000, 4500]


class DequeueEventLink:
    """Reference model: every accepted segment schedules an explicit event
    at its finish time that takes its bytes off the queue. An admission for
    time `at` first runs the dequeue events due by then, so bytes that
    finish at `at` have left by `at`; its segments have key 0, so its
    events rank by the clock; a drop ahead of time is recorded by an event
    at `at`."""

    def __init__(self, spec, kernel):
        self.spec = spec
        self.kernel = kernel
        self.occupancy = 0
        self.queued = deque()  # (dequeue event, wire) per accepted segment
        self.free_at = 0
        self.deliver = None
        self.on_drop = None
        self.drops = {OVERFLOW: 0, NO_COVERAGE: 0}

    def transmit(self, seg, at):
        while self.queued and self.queued[0][0][0] <= at:
            self.kernel.cancel(self.queued[0][0])
            self._dequeue()
        wire = seg.wire_size()
        if not self.spec.is_available(at):
            self._drop(seg, NO_COVERAGE, at)
            return
        if self.occupancy + wire > self.spec.queue_capacity:
            self._drop(seg, OVERFLOW, at)
            return
        self.occupancy += wire
        finish = max(at, self.free_at) + self.spec.serialization_us(wire)
        self.free_at = finish
        self.queued.append((self.kernel.schedule(finish, self._dequeue), wire))
        self.kernel.schedule(finish + self.spec.prop_delay, lambda: self.deliver(seg))

    def _drop(self, seg, reason, at):
        if at > self.kernel.now:
            self.kernel.schedule(at, lambda: self._drop(seg, reason, at))
            return
        self.drops[reason] += 1
        if self.on_drop is not None:
            self.on_drop(self, seg, reason, at)

    def _dequeue(self):
        self.occupancy -= self.queued.popleft()[1]


def _drive(make, ops):
    """Run `ops` against a link: each op transmits, at its time or ahead of
    it, and may schedule one follow-up op, before or after its own transmit.
    Logs each send, each drop and each arrival."""
    k = Kernel()
    link = make(k)
    log = []
    link.deliver = lambda s: log.append(("rx", s.seq, k.now))
    link.on_drop = lambda l, s, reason, at: log.append(("drop", s.seq, reason, at, k.now))

    def send(label, payload, ahead):
        link.transmit(_segment(label, payload), k.now + ahead)
        log.append(("tx", label, k.now, ahead, link.free_at, link.occupancy))

    def fire(label, payload, ahead, child):
        if child is not None and child[3]:
            k.schedule(k.now + child[0], lambda: send(2 * label + 1, *child[1:3]))
        send(2 * label, payload, ahead)
        if child is not None and not child[3]:
            k.schedule(k.now + child[0], lambda: send(2 * label + 1, *child[1:3]))

    for i, (at, payload, ahead, child) in enumerate(ops):
        k.schedule(at, lambda i=i, p=payload, a=ahead, c=child: fire(i, p, a, c))
    k.run_until(10**9)
    return log, dict(link.drops)


def _segment(label, payload):
    """A data segment of `payload` bytes; 0 makes a pure ACK (40 B on the
    wire) and None a BU (60 B)."""
    if payload is None:
        return Segment(flow_id="f", seq=label, flags=F_BU)
    return Segment(flow_id="f", seq=label, payload_len=payload, flags=F_DATA if payload else F_ACK)


# wire sizes 500/1000/1500 B at 1 MB/s serialize in 500/1000/1500 us, and
# every event time is a multiple of 500 us, so events often fall exactly
# on a segment's finish time
_payloads = st.sampled_from([460, 960, 1460])
_ticks = st.integers(min_value=0, max_value=12).map(lambda n: n * 500)
_aheads = st.sampled_from([0, 0, 0, 500, 1000, 1500])  # an admission for a later time


# at 999,983 B/s (a prime) no wire size serializes in whole microseconds:
# the link's table must hold the rounded-up `LinkSpec.serialization_us`
_bandwidths = st.sampled_from([1_000_000, 1_000_000, 999_983])
_sizes = st.sampled_from([460, 960, 1460, 1460, 0, None])  # with an ACK and a BU


@given(
    bandwidth=_bandwidths,
    queue=st.sampled_from([1500, 2000, 3000, 4500]),
    prop=st.sampled_from([0, 500, 1000]),
    avail=st.sampled_from([None, ((0, 2000), (3500, 10**9))]),
    ops=st.lists(
        st.tuples(_ticks, _sizes, _aheads,
                  st.none() | st.tuples(_ticks, _sizes, _aheads, st.booleans())),
        min_size=1, max_size=25,
    ),
)
# the admission for 2000 us, made at 500 us, empties the backlog, and the
# next one, for 500 us, finds `free_at` (1000) later than its own time
@example(bandwidth=1_000_000, queue=1500, prop=0, avail=((0, 2000), (3500, 10**9)),
         ops=[(0, 960, 0, None), (500, 460, 1500, (0, 460, 0, False))])
# the first of two segments at 0 us finds the serializer idle and leaves no
# backlog entry; the second, busy, queues behind it; the admission for
# 2000 us, made at 500 us, releases both, and the one for 500 us then finds
# the serializer busy (until 1000 us) with an empty backlog
@example(bandwidth=1_000_000, queue=1500, prop=0, avail=((0, 2000), (3500, 10**9)),
         ops=[(0, 460, 0, None), (0, 460, 0, None), (500, 460, 1500, (0, 460, 0, False))])
# every size a link meets, rounded up: 1501, 41 and 61 us at 999,983 B/s
@example(bandwidth=999_983, queue=3000, prop=500, avail=None,
         ops=[(0, 1460, 0, (0, 0, 0, False)), (500, None, 500, (1000, 1460, 0, True))])
def test_lazy_release_matches_a_dequeue_event_per_segment(bandwidth, queue, prop, avail, ops):
    def lazy(k):
        return make_link(k, bandwidth=bandwidth, prop=prop, queue=queue, avail=avail, kind="WLAN")

    spec = lazy(Kernel()).spec
    assert _drive(lazy, ops) == _drive(lambda k: DequeueEventLink(spec, k), ops)


def test_links_of_different_bandwidths_keep_separate_serialization_tables():
    specs = [LinkSpec("l1", "a", "b", 1_000_000, 0, 1 << 20),
             LinkSpec("l2", "b", "c", 999_983, 0, 1 << 20)]
    topo = Topology([NodeSpec(n, "router") for n in "abc"], specs, Kernel())
    fast, slow = topo.directed[("a", "b")], topo.directed[("b", "c")]
    for link in (fast, slow):
        assert sent(link, data_segment(), 0) == link.spec.serialization_us(1500)
    assert (fast.serialization, slow.serialization) == ({1500: 1500}, {1500: 1501})
    assert topo.directed[("b", "a")].serialization == {}  # the other direction met nothing


def test_a_size_first_met_on_a_busy_link_finishes_as_the_formula_gives():
    link = make_link(Kernel(), bandwidth=999_983, prop=0)
    serialization_us = link.spec.serialization_us
    assert sent(link, data_segment(), 0) == serialization_us(1500) == 1501
    # a pure ACK and a BU queue behind it, each the first of its size here
    assert sent(link, _segment(1, 0), 100) == 1501 + serialization_us(40) == 1542
    assert sent(link, _segment(2, None), 200) == 1542 + serialization_us(60) == 1603
    assert link.serialization == {1500: 1501, 40: 41, 60: 61}


def _tandem_specs(prop, queue, avail):
    """a->b at 1 MB/s, then b->c at 0.5 MB/s with the coverage `avail`."""
    return [LinkSpec("l1", "a", "b", 1_000_000, prop[0], queue[0]),
            LinkSpec("l2", "b", "c", 500_000, prop[1], queue[1], "WLAN", avail)]


def _cut_through_tandem(kernel, prop, queue, avail):
    topo = Topology([NodeSpec(n, "router") for n in "abc"], _tandem_specs(prop, queue, avail), kernel)
    route = (topo.directed[("a", "b")], topo.directed[("b", "c")])
    assert single_feeders([route]) == {route[0]: None, route[1]: route[0]}
    route[1].feeder = route[0]
    return route


def _reference_tandem(kernel, prop, queue, avail):
    specs = _tandem_specs(prop, queue, avail)
    first, second = DequeueEventLink(specs[0], kernel), DequeueEventLink(specs[1], kernel)
    first.deliver = lambda seg: second.transmit(seg, kernel.now)  # the middle node
    return first, second


def _drive_tandem(make, ops):
    """Like _drive, into the first of two links where the second is fed by
    the first alone. Logs each send, each admission to the second link, each
    drop and each arrival at the far end, and counts the events run."""
    k = Kernel()
    first, second = make(k)
    log = []
    second.deliver = lambda s: log.append(("rx", s.seq, k.now))
    for link in (first, second):
        link.on_drop = lambda l, s, reason, at: log.append(("drop", l.spec.name, s.seq, reason, at, k.now))
    admit = second.transmit

    def admitted(seg, at):  # the far link's admission, whenever the model makes it
        admit(seg, at)
        log.append(("admit", seg.seq, at, second.free_at, second.occupancy))

    second.transmit = admitted

    def send(label, payload):
        seg = Segment(flow_id="f", seq=label, payload_len=payload, route=(first, second))
        first.transmit(seg, k.now)
        log.append(("tx", label, k.now, first.occupancy, dict(first.drops)))

    def fire(i, payload, child):
        if child is not None and child[2]:
            k.schedule(k.now + child[0], lambda: send(2 * i + 1, child[1]))
        send(2 * i, payload)
        if child is not None and not child[2]:
            k.schedule(k.now + child[0], lambda: send(2 * i + 1, child[1]))

    for i, (at, payload, child) in enumerate(ops):
        k.schedule(at, lambda i=i, p=payload, c=child: fire(i, p, c))
    steps = k.run_until(10**9)
    return sorted(log, key=repr), steps, dict(second.drops)


@given(
    prop=st.tuples(st.sampled_from([0, 500]), st.sampled_from([0, 500])),
    queue=st.tuples(st.sampled_from([1500, 3000, 4500]), st.sampled_from([1500, 2000, 3000])),
    avail=st.sampled_from([None, ((0, 3000), (5000, 10**9))]),
    ops=st.lists(
        st.tuples(_ticks, _payloads,
                  st.none() | st.tuples(_ticks, _payloads, st.booleans())),
        min_size=1, max_size=25,
    ),
)
def test_cut_through_matches_a_middle_node_event_per_segment(prop, queue, avail, ops):
    # the reference forwards through an explicit arrival event at the middle
    # node and takes bytes off both queues by explicit dequeue events; the
    # cut-through link admits to the second link at once and schedules one
    # event per segment past the first: its arrival at the far end or its drop
    log, steps, drops = _drive_tandem(lambda k: _cut_through_tandem(k, prop, queue, avail), ops)
    ref_log, _, ref_drops = _drive_tandem(lambda k: _reference_tandem(k, prop, queue, avail), ops)
    assert (log, drops) == (ref_log, ref_drops)
    # an event per op and follow-up, and one per segment the second link saw
    sends = sum(1 for entry in log if entry[0] == "tx")
    assert steps == sends + sum(1 for entry in log if entry[0] == "admit")


def test_path_rtt_single_hop_with_probe():
    k = Kernel()
    link = make_link(k)
    # 2 * (250 ms + 40 B / 125000 B/s) = 500.64 ms
    assert path_rtt((link,), probe_size=40) == 500_640


def test_path_rtt_two_hops_zero_probe():
    k = Kernel()
    nodes = [NodeSpec(n, "router") for n in "abc"]
    links = [
        LinkSpec("h1", "a", "b", 125000, 10 * MS, 1 << 20),
        LinkSpec("h2", "b", "c", 125000, 250 * MS, 1 << 20),
    ]
    topo = Topology(nodes, links, k)
    assert path_rtt(topo.route("a", "c")) == 520 * MS


def _topo(kernel, links):
    names = set()
    for spec in links:
        names.update((spec.a, spec.b))
    roles = {"MN": "mn", "CN": "cn", "HA": "ha"}
    nodes = [
        NodeSpec(n, roles.get(n, "gateway"), kind="SAT" if n == "SGW" else "GPRS" if n == "GGW" else None)
        for n in sorted(names)
    ]
    return Topology(nodes, links, kernel)


def test_rtt_table_symmetric_example():
    # satellite one-way 260 ms MN<->CN, 275 ms MN<->HA, 40 ms MN<->HA via GGSN
    k = Kernel()
    links = [
        LinkSpec("sat", "MN", "SGW", 125000, 250 * MS, 1 << 20, "SAT"),
        LinkSpec("sgw_cn", "SGW", "CN", 12_500_000, 10 * MS, 1 << 20),
        LinkSpec("sgw_ha", "SGW", "HA", 12_500_000, 25 * MS, 1 << 20),
        LinkSpec("gprs", "MN", "GGW", 25000, 30 * MS, 1 << 20, "GPRS"),
        LinkSpec("ggw_ha", "GGW", "HA", 12_500_000, 10 * MS, 1 << 20),
    ]
    table = rtt_table(_topo(k, links), old_kind="GPRS")
    assert table == (520 * MS, 550 * MS, 80 * MS)  # MN-sat-CN, MN-sat-HA, MN-old-HA


def test_rtt_table_degenerate_all_zero():
    k = Kernel()
    links = [
        LinkSpec("sat", "MN", "SGW", 125000, 0, 1 << 20, "SAT"),
        LinkSpec("sgw_cn", "SGW", "CN", 125000, 0, 1 << 20),
        LinkSpec("sgw_ha", "SGW", "HA", 125000, 0, 1 << 20),
        LinkSpec("gprs", "MN", "GGW", 125000, 0, 1 << 20, "GPRS"),
        LinkSpec("ggw_ha", "GGW", "HA", 125000, 0, 1 << 20),
    ]
    table = rtt_table(_topo(k, links), old_kind="GPRS")
    assert table == (0, 0, 0)


def test_rtt_table_asymmetric_against_hop_sum_oracle():
    # oracle: explicit summation over the declared hop sequences
    k = Kernel()
    d_sat, d_sgw_cn, d_sgw_ha = 7 * MS, 3 * MS, 11 * MS
    d_gprs, d_ggw_ha = 2 * MS, 5 * MS
    links = [
        LinkSpec("sat", "MN", "SGW", 125000, d_sat, 1 << 20, "SAT"),
        LinkSpec("sgw_cn", "SGW", "CN", 12_500_000, d_sgw_cn, 1 << 20),
        LinkSpec("sgw_ha", "SGW", "HA", 12_500_000, d_sgw_ha, 1 << 20),
        LinkSpec("gprs", "MN", "GGW", 25000, d_gprs, 1 << 20, "GPRS"),
        LinkSpec("ggw_ha", "GGW", "HA", 12_500_000, d_ggw_ha, 1 << 20),
    ]
    table = rtt_table(_topo(k, links), old_kind="GPRS")
    assert table == (2 * (d_sat + d_sgw_cn), 2 * (d_sat + d_sgw_ha), 2 * (d_gprs + d_ggw_ha))


def test_rtt_table_missing_role_is_a_sim_error():
    # validation requires exactly one mn, cn and ha, so the run meets a
    # missing role only as a bug
    k = Kernel()
    links = [LinkSpec("sat", "MN", "SGW", 125000, MS, 1 << 20, "SAT")]
    nodes = [NodeSpec("MN", "mn"), NodeSpec("SGW", "gateway", "SAT")]
    topo = Topology(nodes, links, k)
    with pytest.raises(SimError, match="exactly one 'cn' node"):
        rtt_table(topo, old_kind="WLAN")


def test_a_link_to_an_unknown_node_is_a_sim_error():
    # validation rejects the file, so the run meets it only as a bug
    spec = LinkSpec("l", "a", "b", 125000, MS, 1 << 20)
    with pytest.raises(SimError, match="link l: unknown node 'a'/'b'"):
        Topology([NodeSpec("a", "router")], [spec], Kernel())


def test_a_missing_access_link_is_a_sim_error():
    topo = Topology([NodeSpec("MN", "mn"), NodeSpec("SGW", "gateway", "SAT")],
                    [LinkSpec("sat", "MN", "SGW", 125000, MS, 1 << 20, "SAT")], Kernel())
    assert topo.access_link("SAT").dst == "SGW"
    with pytest.raises(SimError, match="no WLAN access link attached to the mobile node"):
        topo.access_link("WLAN")


def test_a_missing_route_is_a_sim_error():
    topo = Topology([NodeSpec(n, "router") for n in "abc"],
                    [LinkSpec("ab", "a", "b", 125000, MS, 1 << 20)], Kernel())
    assert len(topo.route("a", "b")) == 1
    with pytest.raises(SimError, match="no route from a to c"):
        topo.route("a", "c")


def test_a_node_reached_first_by_a_costlier_path_routes_over_the_cheaper_one():
    # from a, c is queued at 5 ms directly and at 2 ms via b; the 5 ms entry
    # is popped stale after c settled at 2 ms, and d (10 ms past c) comes last
    topo = Topology([NodeSpec(n, "router") for n in "abcd"],
                    [LinkSpec("ab", "a", "b", 125000, MS, 1 << 20),
                     LinkSpec("ac", "a", "c", 125000, 5 * MS, 1 << 20),
                     LinkSpec("bc", "b", "c", 125000, MS, 1 << 20),
                     LinkSpec("cd", "c", "d", 125000, 10 * MS, 1 << 20)], Kernel())
    route = topo.route("a", "d")
    assert [(hop.src, hop.dst) for hop in route] == [("a", "b"), ("b", "c"), ("c", "d")]
    assert sum(hop.prop_delay for hop in route) == 12 * MS


def test_ack_and_control_wire_sizes():
    ack = Segment(flow_id="f", flags=2, ack=100, rwnd=1000)
    assert ack.wire_size() == 40
    bu = Segment(flow_id="_mip", flags=4)
    assert bu.wire_size() == 60
    data = Segment(flow_id="f", payload_len=1460)
    assert data.wire_size() == 1500


def test_unwired_link_is_a_sim_error_naming_the_link():
    # the default handler finds the link at the end of the segment's route;
    # the kernel leaves its clock at the arrival, 262 ms after 0, and names
    # the event, for `Simulation.run` to add (no run here, so no suffix)
    k = Kernel()
    link = make_link(k)  # nothing set its deliver
    seg = data_segment()
    seg.route = (link,)
    link.transmit(seg, 0)
    with pytest.raises(SimError) as raised:
        k.run_until(10**9)
    assert str(raised.value) == "link l:a->b not wired (flow f seq 0)"
    assert raised.value.event == "link-rx" and k.now == 262_000


def test_route_via_access_needs_the_mobile_node_at_one_end():
    k = Kernel()
    links = [
        LinkSpec("sat", "MN", "SGW", 125000, 250 * MS, 1 << 20, "SAT"),
        LinkSpec("sgw_cn", "SGW", "CN", 12_500_000, 10 * MS, 1 << 20),
        LinkSpec("sgw_ha", "SGW", "HA", 12_500_000, 25 * MS, 1 << 20),
    ]
    with pytest.raises(SimError, match=r"route CN->HA via SAT"):
        _topo(k, links).route_via_access("CN", "HA", "SAT")
