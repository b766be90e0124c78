import pytest
from hypothesis import given, settings, strategies as st

from conftest import scenario_path
from satwin.errors import ProtocolViolation
from satwin.kernel import SEC, SimError
from satwin.net import F_ACK, F_DATA, F_REFRESH, F_WUPD, Segment
from satwin.runner import Simulation
from satwin.scenario import load_scenario
from satwin.tcp import (
    CONG_AVOID,
    FAST_RECOVERY,
    RTO_MAX,
    RTO_MIN,
    SLOW_START,
    TcpReceiver,
    TcpSender,
    UNLIMITED,
)

MSS = 1460


def make_sender(**kw):
    sent = []
    kw.setdefault("peer_rwnd", 10**9)
    sender = TcpSender("f", mss=MSS, send_cb=lambda seg, now: sent.append(seg), **kw)
    return sender, sent


def ack(value, rwnd=10**9, sent_at=0, flags=0, echo=None):
    return Segment(flow_id="f", ack=value, rwnd=rwnd, flags=F_ACK | flags,
                   sent_at=sent_at, echo=echo)


def fill_flight(sender, segments):
    """Open the window and push `segments` full segments into flight."""
    sender.cwnd = segments * MSS
    sender.try_send(0)
    assert sender.flight == segments * MSS


class TestSenderOnAck:
    def test_slow_start_grows_one_mss_per_ack(self):
        sender, _ = make_sender()
        fill_flight(sender, 2)
        assert sender.cwnd == 2 * MSS == 2920
        sender.on_ack(ack(MSS), 10)
        assert sender.cwnd == 4380

    def test_congestion_avoidance_additive_increase(self):
        sender, _ = make_sender(init_ssthresh=2 * MSS)
        fill_flight(sender, 2)
        sender.on_ack(ack(MSS), 10)
        assert sender.phase == CONG_AVOID
        assert sender.cwnd == 2 * MSS + MSS * MSS // (2 * MSS)

    def test_third_dupack_enters_fast_recovery(self):
        sender, sent = make_sender()
        fill_flight(sender, 8)  # flight = 11680
        sent.clear()
        sender.on_ack(ack(0, sent_at=1), 10)
        sender.on_ack(ack(0, sent_at=2), 11)
        assert sender.phase != FAST_RECOVERY
        sender.on_ack(ack(0, sent_at=3), 12)
        assert sender.ssthresh == 5840
        assert sender.cwnd == 5840 + 3 * MSS == 10220
        assert sender.phase == FAST_RECOVERY
        rexmits = [s for s in sent if s.rexmit]
        assert len(rexmits) == 1 and rexmits[0].seq == 0

    def test_dupacks_inflate_window_in_fast_recovery(self):
        sender, _ = make_sender()
        fill_flight(sender, 8)
        for t in (1, 2, 3):
            sender.on_ack(ack(0, sent_at=t), t)
        inflated = sender.cwnd
        sender.on_ack(ack(0, sent_at=4), 4)
        assert sender.cwnd == inflated + MSS

    def test_new_ack_deflates_and_exits_recovery(self):
        sender, _ = make_sender()
        fill_flight(sender, 8)
        for t in (1, 2, 3):
            sender.on_ack(ack(0, sent_at=t), t)
        sender.on_ack(ack(8 * MSS, sent_at=5), 20)
        assert sender.phase != FAST_RECOVERY
        assert sender.cwnd == sender.ssthresh

    def test_zero_window_stalls_sender(self):
        sender, sent = make_sender()
        fill_flight(sender, 2)
        sent.clear()
        sender.on_ack(ack(MSS, rwnd=0, flags=F_WUPD), 10)
        assert sender.peer_rwnd == 0
        assert sent == []
        sender.try_send(11)
        assert sent == []

    def test_ack_beyond_snd_nxt_is_protocol_violation(self):
        sender, _ = make_sender()
        fill_flight(sender, 2)
        with pytest.raises(ProtocolViolation) as raised:
            sender.on_ack(ack(5 * MSS), 10)
        assert str(raised.value) == "flow f: ack 7300 beyond snd_nxt 2920"

    def test_stale_ack_cannot_reopen_closed_window(self):
        sender, sent = make_sender()
        fill_flight(sender, 4)
        sender.on_ack(ack(MSS, rwnd=0, sent_at=100, flags=F_WUPD), 101)
        assert sender.peer_rwnd == 0
        sent.clear()
        # same cumulative point, older emission time, pre-close window
        sender.on_ack(ack(MSS, rwnd=1 << 20, sent_at=50), 102)
        assert sender.peer_rwnd == 0
        assert sent == []

    def test_window_update_flag_never_counts_as_duplicate(self):
        sender, _ = make_sender()
        fill_flight(sender, 8)
        for t in (1, 2, 3):
            sender.on_ack(ack(0, sent_at=t, flags=F_WUPD), t)
            sender.on_ack(ack(0, sent_at=t, flags=F_REFRESH), t)
        assert sender.phase == SLOW_START
        assert sender.dupacks == 0

    def test_shrinking_window_duplicate_still_counts(self):
        # receiver-side buffering of out-of-order data shrinks the free
        # buffer; those ACKs are still duplicates, not window updates
        sender, sent = make_sender()
        fill_flight(sender, 8)
        sent.clear()
        base = 10**9
        for i, t in enumerate((1, 2, 3)):
            sender.on_ack(ack(0, rwnd=base - i * MSS, sent_at=t), t)
        assert sender.phase == FAST_RECOVERY
        assert [s.seq for s in sent if s.rexmit] == [0]


class TestSenderRto:
    def test_rto_collapses_window(self):
        sender, sent = make_sender()
        fill_flight(sender, 10)
        sent.clear()
        assert sender.on_rto(10) is True
        assert sender.ssthresh == 5 * MSS
        assert sender.cwnd == MSS
        assert sender.phase == SLOW_START
        assert [s.seq for s in sent if s.rexmit] == [0]

    def test_consecutive_rtos_double_backoff(self):
        sender, _ = make_sender()
        fill_flight(sender, 4)
        assert sender.rto == 1 * SEC
        sender.on_rto(10)
        assert sender.rto == 2 * SEC
        sender.on_rto(20)
        assert sender.rto == 4 * SEC
        assert sender.rto_times == [10, 20]  # one entry per timeout that fired

    def test_rto_backoff_caps_at_60s(self):
        sender, _ = make_sender()
        fill_flight(sender, 4)
        for _ in range(10):
            sender.on_rto(10)
        assert sender.rto == RTO_MAX

    def test_stale_rto_with_nothing_unacked_is_noop(self):
        sender, sent = make_sender()
        assert sender.on_rto(10) is False
        assert sender.rto_times == []
        assert sent == []

    def test_flow_metrics_share_the_senders_timeout_log(self):
        # S1 baseline times out once; the CSV counts the sender's own list
        sim = Simulation(load_scenario(scenario_path("s1_wlan_to_sat")), mode="BASELINE", seed=1)
        rt = sim.flows["f1"]
        assert rt.metrics.rto_times is rt.sender.rto_times
        assert rt.metrics.fr_times is rt.sender.fr_times
        metrics = sim.run()
        assert len(rt.sender.rto_times) == 1
        assert metrics.csv_rows()[0]["rto_count"] == "1"

    def test_go_back_n_resend_prunes_on_cumulative_ack(self):
        sender, sent = make_sender()
        fill_flight(sender, 10)
        sender.on_rto(10)
        sent.clear()
        # receiver held everything except the head segment
        sender.on_ack(ack(10 * MSS, sent_at=20), 30)
        assert all(not s.rexmit for s in sent)


def test_flight_bound_violation_names_flow_and_values():
    sender, _ = make_sender()
    fill_flight(sender, 10)
    sender.cwnd = MSS
    with pytest.raises(SimError) as raised:
        sender._emit(sender.snd_nxt, MSS, 5, rexmit=False)
    assert str(raised.value) == "flow f: flight 14600 above usable window 1460 + one MSS"


class TestExternalCongestionAvoidance:
    def test_halves_into_congestion_avoidance(self):
        sender, _ = make_sender()
        sender.cwnd = 20 * MSS
        sender.external_congestion_avoidance(0)
        assert sender.ssthresh == sender.cwnd == 10 * MSS
        assert sender.phase == CONG_AVOID

    def test_floor_at_two_mss(self):
        sender, _ = make_sender()
        sender.cwnd = 2 * MSS
        sender.external_congestion_avoidance(0)
        assert sender.ssthresh == sender.cwnd == 2 * MSS

    def test_reapplies_when_already_in_congestion_avoidance(self):
        sender, _ = make_sender()
        sender.cwnd = 8 * MSS
        sender.phase = CONG_AVOID
        sender.external_congestion_avoidance(0)
        assert sender.cwnd == 4 * MSS
        assert sender.phase == CONG_AVOID


def make_receiver(buffer=64000, cap=UNLIMITED):
    emitted = []
    receiver = TcpReceiver("f", buffer_capacity=buffer, mss=MSS, policy_cap=cap,
                           emit_cb=lambda seg, at: emitted.append((seg, at)))
    return receiver, emitted


def data(seq, length=MSS, rexmit=False, sent_at=0, key=0):
    return Segment(flow_id="f", seq=seq, payload_len=length, flags=F_DATA,
                   sent_at=sent_at, rexmit=rexmit, key=key)


def test_sender_segments_match_keyword_construction():
    # _emit builds segments positionally; a slip in the field order shows
    # here against the same segments built by keyword. Each copy draws its
    # own key from `keys`
    sender, sent = make_sender(volume=3 * MSS + 100)
    sender.cwnd = 10 * MSS
    sender.route = route = ("cn_ha",)  # a stand-in for the links
    sender.try_send(7)
    sender.on_rto(9)  # go back to snd_una: one retransmitted copy
    assert sent == [
        Segment(flow_id="f", seq=0, payload_len=MSS, flags=F_DATA, sent_at=7, route=route, key=4),
        Segment(flow_id="f", seq=MSS, payload_len=MSS, flags=F_DATA, sent_at=7, route=route,
                key=8),
        Segment(flow_id="f", seq=2 * MSS, payload_len=MSS, flags=F_DATA, sent_at=7, route=route,
                key=12),
        Segment(flow_id="f", seq=3 * MSS, payload_len=100, flags=F_DATA, sent_at=7, route=route,
                key=16),
        Segment(flow_id="f", seq=0, payload_len=MSS, flags=F_DATA, sent_at=9, rexmit=True,
                route=route, key=20),
    ]
    assert sender.bytes_sent == 4 * MSS + 100  # every copy counts


class TestReceiver:
    def test_in_order_arrival_acks_cumulatively(self):
        receiver, emitted = make_receiver()
        receiver.on_data(data(0), 5)
        assert receiver.rcv_nxt == 1460
        (seg, at), = emitted
        assert seg.ack == 1460 and at == 5

    def test_out_of_order_arrival_buffers_and_dupacks(self):
        receiver, emitted = make_receiver()
        receiver.on_data(data(1460), 5)
        assert receiver.rcv_nxt == 0
        assert receiver.oob == [(1460, 2920)]
        (seg, _), = emitted
        assert seg.ack == 0 and not seg.flags & (F_WUPD | F_REFRESH)

    def test_suppressed_dupack_emits_nothing(self):
        receiver, emitted = make_receiver()
        receiver.set_suppress_dupacks(True, 0)
        receiver.on_data(data(1460), 5)
        assert emitted == []

    def test_suppressed_mode_refresshes_at_most_every_100ms(self):
        receiver, emitted = make_receiver()
        receiver.set_suppress_dupacks(True, 0)
        for t in (5, 50_000, 99_999, 100_000, 150_000, 200_000):
            receiver.on_data(data(1460 * (t % 7 + 1)), t)
        refreshes = [seg for seg, _ in emitted if seg.flags & F_REFRESH]
        assert [seg.flags & F_REFRESH != 0 for seg, _ in emitted] == [True] * len(emitted)
        assert len(refreshes) == 2  # at 100 ms and 200 ms

    def test_hole_fill_advances_past_buffered_ranges(self):
        receiver, emitted = make_receiver()
        receiver.on_data(data(1460), 1)
        receiver.on_data(data(2920), 2)
        receiver.on_data(data(0), 3)
        assert receiver.rcv_nxt == 4380
        assert receiver.oob == []
        assert emitted[-1][0].ack == 4380

    def test_beyond_buffer_capacity_dropped_without_ack(self):
        receiver, emitted = make_receiver(buffer=2920)
        receiver.on_data(data(1460), 1)  # buffered out of order
        receiver.on_data(data(2920, length=2920), 2)  # no room left
        assert receiver.overflow_drops == 1
        assert len(emitted) == 1

    def test_duplicate_below_rcv_nxt_reacked(self):
        receiver, emitted = make_receiver()
        receiver.on_data(data(0), 1)
        receiver.on_data(data(0, rexmit=True), 2)
        assert len(emitted) == 2
        assert emitted[-1][0].ack == 1460

    def test_holds_range(self):
        receiver, _ = make_receiver()
        receiver.on_data(data(0), 1)
        receiver.on_data(data(2920), 2)
        assert receiver.holds_range(0, 1460)
        assert receiver.holds_range(2920, 1460)
        assert not receiver.holds_range(1460, 1460)
        assert not receiver.holds_range(2920, 2920)


def test_receiver_acks_match_keyword_construction():
    # _emit_ack builds ACKs positionally, as TcpSender._emit does. An ACK
    # to data takes the data segment's key; a window update draws one
    receiver, emitted = make_receiver()
    receiver.ack_delay = 5
    receiver.route = route = ("wlan",)  # a stand-in for the links
    receiver.on_data(data(0, sent_at=3, key=40), 10)  # in order: echoes the send time
    receiver.on_data(data(2 * MSS, key=44), 11)  # out of order: duplicate ACK
    receiver.on_data(data(MSS, rexmit=True, sent_at=4, key=48), 12)  # fills the hole; no echo
    receiver.set_window_policy(30000, 13, mark="h1")
    receiver.set_suppress_dupacks(True, 14)
    receiver.on_data(data(0, key=52), 100_014)  # stale: a state refresh instead of a dupack
    receiver.window_update(100_015, mark="h2")
    assert [seg for seg, _ in emitted] == [
        Segment(flow_id="f", ack=MSS, rwnd=64000, flags=F_ACK, sent_at=15, echo=3, route=route,
                key=40),
        Segment(flow_id="f", ack=MSS, rwnd=64000 - MSS, flags=F_ACK, sent_at=16, route=route,
                key=44),
        Segment(flow_id="f", ack=3 * MSS, rwnd=64000, flags=F_ACK, sent_at=17, route=route,
                key=48),
        Segment(flow_id="f", ack=3 * MSS, rwnd=30000, flags=F_ACK | F_WUPD, sent_at=18,
                mark="h1", route=route, key=4),
        Segment(flow_id="f", ack=3 * MSS, rwnd=30000, flags=F_ACK | F_REFRESH,
                sent_at=100_019, route=route, key=52),
        Segment(flow_id="f", ack=3 * MSS, rwnd=30000, flags=F_ACK | F_WUPD, sent_at=100_020,
                mark="h2", route=route, key=8),
    ]
    assert [at for _, at in emitted] == [15, 16, 17, 18, 100_019, 100_020]


class TestWindowPolicy:
    def test_cap_below_free_buffer(self):
        receiver, emitted = make_receiver()
        receiver.set_window_policy(32000, 0)
        (seg, _), = emitted
        assert seg.rwnd == 32000 and seg.flags & F_WUPD

    def test_zero_cap_advertises_zero_window(self):
        receiver, emitted = make_receiver()
        receiver.set_window_policy(0, 0)
        assert emitted[-1][0].rwnd == 0

    def test_unlimited_advertises_free_buffer(self):
        receiver, emitted = make_receiver(cap=32000)
        receiver.set_window_policy(UNLIMITED, 0)
        assert emitted[-1][0].rwnd == 64000

    def test_cap_above_buffer_is_sim_error(self):
        receiver, _ = make_receiver()
        with pytest.raises(SimError) as raised:
            receiver.set_window_policy(65000, 2_500_000)
        assert str(raised.value) == "flow f: cap 65000 exceeds buffer 64000"

    def test_negative_cap_is_sim_error(self):
        receiver, _ = make_receiver()
        with pytest.raises(SimError) as raised:
            receiver.set_window_policy(-1, 2_500_000)
        assert str(raised.value) == "flow f: negative window cap"

    def test_non_data_segment_is_protocol_violation(self):
        receiver, emitted = make_receiver()
        with pytest.raises(ProtocolViolation) as raised:
            receiver.on_data(Segment("f", 0, 0, 0, 0, F_ACK | F_WUPD), 2_500_000)
        assert str(raised.value) == "flow f: receiver got a non-data segment (flags 18)"
        assert emitted == [] and receiver.advanced_at is None

    def test_unchanged_cap_emits_nothing(self):
        receiver, emitted = make_receiver(cap=32000)
        receiver.set_window_policy(32000, 0)
        assert emitted == []

    def test_advertisement_never_exceeds_buffer(self):
        receiver, _ = make_receiver(buffer=10000)
        receiver.on_data(data(2920, length=2920), 0)  # eats free buffer
        assert receiver.advertised() == 10000 - 2920

    def test_ramp_steps_per_emitted_ack(self):
        receiver, emitted = make_receiver()
        receiver.set_window_policy(0, 0)
        receiver.start_ramp(8760)
        for i in range(5):
            receiver.on_data(data(i * MSS), i + 1)
        rwnds = [seg.rwnd for seg, _ in emitted]
        assert rwnds == [0, 2920, 5840, 8760, 8760, 8760]

    def test_step_bound_limits_each_window_increase(self):
        # refilling an out-of-order hole frees four segments of buffer at
        # once: with no ramp the window opens at once; under a ramp, also
        # one already at its target, it opens two segments per ACK until
        # the next set_window_policy ends the ramp
        receiver, emitted = make_receiver(buffer=8 * MSS, cap=8 * MSS)

        def refill_hole(first, now):
            for i in range(1, 5):
                receiver.on_data(data((first + i) * MSS), now + i)
            receiver.on_data(data(first * MSS), now + 5)
            rwnds = [seg.rwnd // MSS for seg, _ in emitted]
            emitted.clear()
            return rwnds

        receiver.start_ramp(8 * MSS)
        assert refill_hole(0, 0) == [7, 6, 5, 4, 6]
        receiver.on_data(data(5 * MSS), 6)
        assert refill_hole(6, 10) == [8, 7, 6, 5, 4, 6]
        assert receiver.max_rwnd_increase == 2 * MSS
        assert receiver.set_window_policy(8 * MSS, 20) is None  # unchanged cap, ramp ended
        receiver.on_data(data(11 * MSS), 20)
        assert refill_hole(12, 20) == [8, 7, 6, 5, 4, 8]
        assert receiver.max_rwnd_increase == 4 * MSS

    def test_ramp_on_an_uncapped_window_names_the_flow(self):
        receiver, _ = make_receiver()
        with pytest.raises(SimError) as raised:
            receiver.start_ramp(8760)
        assert str(raised.value) == "flow f: a ramp needs a capped window"

    def test_set_window_policy_returns_the_window_update(self):
        receiver, emitted = make_receiver()
        assert receiver.set_window_policy(32000, 0) is emitted[-1][0]
        assert receiver.set_window_policy(32000, 1) is None

    def test_ack_pacing_shifts_emission(self):
        receiver, emitted = make_receiver()
        receiver.ack_delay = 50_000
        receiver.on_data(data(0), 1000)
        (_, at), = emitted
        assert at == 51_000

    def test_pacing_change_only_affects_new_acks(self):
        receiver, emitted = make_receiver()
        receiver.on_data(data(0), 1000)
        receiver.ack_delay = 50_000
        receiver.on_data(data(1460), 2000)
        assert [at for _, at in emitted] == [1000, 52_000]


@given(st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=60))
def test_cumulative_ack_monotonicity(arrival_order):
    receiver, emitted = make_receiver(buffer=1 << 20)
    for t, idx in enumerate(arrival_order):
        receiver.on_data(data(idx * MSS), t)
    acks = [seg.ack for seg, _ in emitted]
    assert acks == sorted(acks)


@given(st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=60),
       st.none() | st.integers(min_value=0, max_value=8 * MSS))
def test_receiver_never_advertises_more_than_free_buffer(arrival_order, cap):
    receiver, emitted = make_receiver(buffer=8 * MSS, cap=cap)
    for t, idx in enumerate(arrival_order):
        receiver.on_data(data(idx * MSS), t)
        if emitted:  # _emit_ack's inline window rule is advertised()'s
            assert emitted[-1][0].rwnd == receiver.advertised()
    for seg, _ in emitted:
        assert 0 <= seg.rwnd <= receiver.buffer_capacity


@given(st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=80))
def test_reassembly_matches_set_oracle(arrival_order):
    # oracle: the receive point is the contiguous prefix of the set of
    # segment indices seen; everything else seen is buffered out of order
    receiver, _ = make_receiver(buffer=1 << 20)
    for t, idx in enumerate(arrival_order):
        receiver.on_data(data(idx * MSS), t)
    seen = set(arrival_order)
    prefix = 0
    while prefix in seen:
        prefix += 1
    assert receiver.rcv_nxt == prefix * MSS
    assert receiver.oob_bytes == MSS * len([i for i in seen if i >= prefix])


@given(st.lists(st.tuples(st.integers(0, 6000), st.integers(1, 2500)), min_size=1, max_size=40))
def test_unaligned_reassembly_matches_byte_set_oracle(ranges):
    # random offsets and lengths: overlaps, and segments that straddle
    # rcv_nxt (seq < rcv_nxt < end), which MSS-aligned arrivals never do
    receiver, emitted = make_receiver(buffer=1 << 20)
    held: set[int] = set()
    for t, (seq, length) in enumerate(ranges):
        receiver.on_data(data(seq, length), t)
        held.update(range(seq, seq + length))
        prefix = receiver.rcv_nxt
        assert all(b in held for b in range(prefix)) and prefix not in held
        assert receiver.delivered_inorder == prefix
        assert receiver.oob_bytes == sum(1 for b in held if b > prefix)
        assert emitted[-1][0].ack == prefix


class RenoReference:
    """Reno as the sender's rules state it, written out plainly: the oracle
    for the model test below. `out` logs (seq, length, sent_at, rexmit) per
    segment sent."""

    def __init__(self, ssthresh, rwnd, volume):
        self.cwnd, self.ssthresh, self.phase = 2 * MSS, max(ssthresh, 2 * MSS), SLOW_START
        self.una = self.nxt = self.dups = self.recover = self.rtx_end = 0
        self.rwnd, self.volume, self.window_from = rwnd, volume, (-1, -1)
        self.srtt, self.rttvar, self.rto = None, 0, RTO_MIN
        self.resend = None  # [next, high) to go back over after a timeout
        self.out = []

    def emit(self, seq, end, now, rexmit):
        self.out.append((seq, end - seq, now, rexmit))
        if rexmit:
            self.rtx_end = max(self.rtx_end, end)

    def send(self, now):
        if self.rwnd == 0:
            return
        usable = min(self.cwnd, self.rwnd)
        while self.resend is not None and self.resend[0] < self.resend[1]:
            seq = self.resend[0]
            end = min(seq + MSS, self.resend[1])
            if end - self.una > usable:
                return
            self.emit(seq, end, now, True)
            self.resend[0] = end
        while self.volume is None or self.nxt < self.volume:
            end = self.nxt + MSS if self.volume is None else min(self.nxt + MSS, self.volume)
            if end - self.una > usable:
                return
            self.emit(self.nxt, end, now, False)
            self.nxt = end

    def ack(self, seg, now):
        if seg.ack < self.una:
            return
        dup = (seg.ack == self.una < self.nxt and seg.rwnd <= self.rwnd
               and not seg.flags & (F_WUPD | F_REFRESH))
        if (seg.ack, seg.sent_at) >= self.window_from:
            self.rwnd, self.window_from = seg.rwnd, (seg.ack, seg.sent_at)
        if seg.ack > self.una:
            prev, self.una, self.dups = self.una, seg.ack, 0
            if self.resend is not None:
                self.resend[0] = max(self.resend[0], seg.ack)
                if seg.ack >= self.resend[1]:
                    self.resend = None
            if seg.echo is not None and prev >= self.rtx_end:  # Karn
                m = now - seg.echo
                if self.srtt is None:
                    self.srtt, self.rttvar = m, m // 2
                else:
                    self.srtt, self.rttvar = ((7 * self.srtt + m) // 8,
                                              (3 * self.rttvar + abs(self.srtt - m)) // 4)
                self.rto = min(max(self.srtt + 4 * self.rttvar, RTO_MIN), RTO_MAX)
            if self.phase == FAST_RECOVERY:
                self.cwnd = self.ssthresh
            elif self.cwnd < self.ssthresh:
                self.cwnd += MSS
            else:
                self.cwnd += MSS * MSS // self.cwnd
            self.phase = SLOW_START if self.cwnd < self.ssthresh else CONG_AVOID
        elif dup and self.phase == FAST_RECOVERY:
            self.cwnd += MSS
        elif dup:
            self.dups += 1
            if self.dups == 3 and self.una >= self.recover:
                self.ssthresh = max((self.nxt - self.una) // 2, 2 * MSS)
                if self.rwnd:
                    self.emit(self.una, min(self.una + MSS, self.nxt), now, True)
                self.cwnd, self.phase = self.ssthresh + 3 * MSS, FAST_RECOVERY
                self.recover = self.nxt
        self.send(now)

    def timeout(self, now):
        if self.nxt == self.una:
            return False
        self.ssthresh = max((self.nxt - self.una) // 2, 2 * MSS)
        self.cwnd, self.phase, self.dups, self.recover = MSS, SLOW_START, 0, self.nxt
        self.resend = [self.una, self.nxt]
        self.rto = min(2 * self.rto, RTO_MAX)
        self.send(now)
        return True


_windows = st.one_of(st.just(0), st.integers(MSS, 64 * MSS), st.just(10**9))
# (kind, time step, ack pick, window or None to repeat the sender's, flags,
# sent_at and echo lags); "same" sends one to four copies, "rto" uses the
# time step alone; an echo lag above 20 s takes the RTO to its ceiling
_steps = st.tuples(st.sampled_from(["new", "new", "new", "same", "same", "same", "stale", "rto"]),
                   st.integers(0, 300_000) | st.integers(0, 30 * SEC),
                   st.integers(0, 10**6), st.none() | _windows,
                   st.sampled_from([0, 0, 0, F_WUPD, F_REFRESH]), st.integers(0, 3),
                   st.none() | st.integers(0, 2 * SEC) | st.integers(20 * SEC, 40 * SEC))


@settings(max_examples=150, deadline=None)
@given(st.integers(MSS, 64 * MSS), _windows, st.none() | st.integers(0, 200 * MSS),
       st.lists(_steps, max_size=60))
def test_sender_matches_reno_reference(ssthresh, rwnd, volume, steps):
    """New ACKs, duplicates, window updates, refreshes, stale ACKs, zero
    windows and timeouts drive the sender and the reference alike."""
    sender, sent = make_sender(init_ssthresh=ssthresh, peer_rwnd=rwnd, volume=volume)
    ref = RenoReference(ssthresh, rwnd, volume)
    now = 40 * SEC  # late enough for any echo lag
    sender.try_send(now)
    ref.send(now)
    for step in steps:
        now += step[1]
        kind, _, pick, window, flags, back, echo_back = step
        if kind == "rto":
            assert sender.on_rto(now) == ref.timeout(now)
        else:
            una, nxt = sender.snd_una, sender.snd_nxt
            if kind == "new" and nxt > una:
                value = una + 1 + pick % (nxt - una)
            elif kind == "stale" and una > 0:
                value = pick % una
            else:
                value = una
            seg = ack(value, rwnd=sender.peer_rwnd if window is None else window,
                      sent_at=now - back, flags=flags,
                      echo=None if echo_back is None else now - echo_back)
            for _ in range(1 + pick % 4 if kind == "same" else 1):
                sender.on_ack(seg, now)
                ref.ack(seg, now)
        assert (sender.cwnd, sender.ssthresh, sender.phase, sender.srtt, sender.rttvar,
                sender.rto, sender.snd_una, sender.snd_nxt, sender.recover, sender.rtx_end,
                sender.dupacks) == \
            (ref.cwnd, ref.ssthresh, ref.phase, ref.srtt, ref.rttvar,
             ref.rto, ref.una, ref.nxt, ref.recover, ref.rtx_end, ref.dups), step
        assert [(s.seq, s.payload_len, s.sent_at, s.rexmit) for s in sent] == ref.out
