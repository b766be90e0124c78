"""Reno-style TCP endpoint pair with an externally steerable receive window.

Sender: slow start / congestion avoidance / fast retransmit / fast recovery,
RFC 6298 RTO estimation with Karn filtering, go-back-N resend after a
timeout. Receiver: cumulative ACKs, out-of-order buffering, duplicate-ACK
generation with an optional suppression mode, and a policy cap on the
advertised window that the handover engine drives.

Connection setup/teardown, SACK, ECN and delayed ACKs are out of scope:
flows are pre-established bulk transfers and every delivery is ACKed.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from .errors import ProtocolViolation
from .kernel import SEC, SimError
from .net import F_ACK, F_DATA, F_REFRESH, F_WUPD, Segment, segment

SLOW_START = "SLOW_START"
CONG_AVOID = "CONG_AVOID"
FAST_RECOVERY = "FAST_RECOVERY"

DUPACK_THRESHOLD = 3
RTO_MIN = 1 * SEC
RTO_MAX = 60 * SEC
REFRESH_INTERVAL = 100_000  # suppressed-mode state refresh: at most one per 100 ms

UNLIMITED = None


class TcpSender:
    """Congestion/flow-control state machine feeding one bulk flow.

    Each data segment is built with `route` and a key from `keys` (the
    owner sets both) and handed to `send_cb(segment, now)`, which the owner
    wires to the route's first link. `bytes_sent` counts the payload of
    every copy sent.
    `state_cb(sender, now)` fires after any cwnd/ssthresh/phase change so
    traces can record the series.
    """

    def __init__(
        self,
        flow_id: str,
        mss: int = 1460,
        init_ssthresh: int = 65536,
        peer_rwnd: int = 65536,
        volume: Optional[int] = None,
        send_cb: Callable[[Segment, int], None] | None = None,
    ):
        self.flow_id = flow_id
        self.mss = mss
        self.cwnd = 2 * mss  # initial window
        self.ssthresh = max(init_ssthresh, 2 * mss)
        self.snd_una = 0
        self.snd_nxt = 0
        self.peer_rwnd = peer_rwnd
        self.dupacks = 0
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = RTO_MIN
        self.phase = SLOW_START
        self.recover = 0
        self.rtx_end = 0  # end of the highest range ever retransmitted (Karn)
        self.volume = volume  # None = unlimited source
        self.send_cb = send_cb or (lambda seg, now: None)
        self.route: tuple = ()  # each data segment's route, to the home agent
        self.keys = itertools.count(4, 4)  # each data segment's key (see Segment)
        self.state_cb = None
        # go-back-N resend window after a timeout
        self._rtx_next: Optional[int] = None
        self._rtx_high = 0
        self.retransmit_count = 0
        self.bytes_sent = 0
        self.rto_times: list[int] = []  # one entry per timeout that fired
        self.fr_times: list[int] = []  # one entry per fast retransmit
        # window-update gating: only segments at least as fresh as the one
        # that last set peer_rwnd may change it (stale ACKs still in flight
        # on an abandoned path must not reopen a closed window)
        self._wl_ack = -1
        self._wl_time = -1

    # -- helpers -------------------------------------------------------

    @property
    def flight(self) -> int:
        return self.snd_nxt - self.snd_una

    def _note_state(self, now: int) -> None:
        if self.state_cb is not None:
            self.state_cb(self, now)

    # -- transmission --------------------------------------------------

    def _emit(self, seq: int, length: int, now: int, rexmit: bool) -> None:
        seg = segment(self.flow_id, seq, length, 0, 0, F_DATA, now, None, rexmit, None, self.route,
                      next(self.keys))
        self.bytes_sent += length
        if rexmit:
            if seq + length > self.rtx_end:
                self.rtx_end = seq + length
            self.retransmit_count += 1
        else:
            # the +mss headroom is the fast-retransmit allowance; new data
            # itself never pushes the flight past the usable window
            flight = self.snd_nxt - self.snd_una
            usable = self.cwnd if self.cwnd < self.peer_rwnd else self.peer_rwnd
            if flight > usable + self.mss:
                raise SimError(f"flow {self.flow_id}: flight {flight} above usable window "
                               f"{usable} + one MSS")
        self.send_cb(seg, now)

    def try_send(self, now: int) -> None:
        """Send whatever the congestion and flow-control windows allow.

        While the peer advertises a zero window no data segment leaves,
        retransmissions included; the handover engine is responsible for
        reopening the window (probes are out of scope).
        """
        if self.peer_rwnd == 0:
            return
        usable = self.cwnd if self.cwnd < self.peer_rwnd else self.peer_rwnd
        while True:
            if self._rtx_next is not None and self._rtx_next < self._rtx_high:
                seq = self._rtx_next
                end = seq + self.mss if seq + self.mss < self._rtx_high else self._rtx_high
                if end - self.snd_una > usable:
                    break
                self._emit(seq, end - seq, now, True)
                self._rtx_next = end
                continue
            limit = self.volume
            if limit is not None and self.snd_nxt >= limit:
                break
            end = self.snd_nxt + self.mss
            if limit is not None and end > limit:
                end = limit
            if end - self.snd_una > usable:
                break
            self._emit(self.snd_nxt, end - self.snd_nxt, now, False)
            self.snd_nxt = end

    def retransmit_head(self, now: int) -> None:
        if self.peer_rwnd == 0:
            return
        end = min(self.snd_una + self.mss, self.snd_nxt)
        if end > self.snd_una:
            self._emit(self.snd_una, end - self.snd_una, now, True)

    # -- ACK processing --------------------------------------------------

    def on_ack(self, seg: Segment, now: int) -> None:
        """Process one incoming ACK segment per Reno rules."""
        ack, rwnd, snd_una = seg.ack, seg.rwnd, self.snd_una
        if ack > self.snd_nxt:
            raise ProtocolViolation(f"flow {self.flow_id}: ack {ack} beyond snd_nxt {self.snd_nxt}")
        if ack < snd_una:
            return  # old ACK from a stale path; ignore entirely

        peer_rwnd = self.peer_rwnd  # the duplicate test below compares with the old window
        # (ack, sent_at) >= (_wl_ack, _wl_time), compared without tuples
        if ack > self._wl_ack or (ack == self._wl_ack and seg.sent_at >= self._wl_time):
            self.peer_rwnd = rwnd
            self._wl_ack = ack
            self._wl_time = seg.sent_at

        if ack > snd_una:
            self.snd_una = ack
            self.dupacks = 0
            if self._rtx_next is not None:
                if ack >= self._rtx_high:
                    self._rtx_next = None
                elif ack > self._rtx_next:
                    self._rtx_next = ack
            self._sample_rtt(snd_una, seg, now)
            cwnd, ssthresh = self.cwnd, self.ssthresh
            if self.phase == FAST_RECOVERY:
                # Reno deflates and leaves recovery on the first ACK that moves
                # snd_una; `recover` only gates re-entering fast retransmit.
                cwnd = ssthresh
            elif cwnd < ssthresh:
                cwnd += self.mss  # slow start: one MSS per ACK
            else:
                cwnd += self.mss * self.mss // cwnd
            self.cwnd = cwnd
            self.phase = SLOW_START if cwnd < ssthresh else CONG_AVOID
            if self.state_cb is not None:
                self.state_cb(self, now)
        elif self.snd_nxt > snd_una and rwnd <= peer_rwnd and not seg.flags & (F_WUPD | F_REFRESH):
            # a duplicate repeats the ack point without growing the window; a
            # shrink still counts because it is the out-of-order buffer filling
            # up at the receiver, not a window update
            self._on_dupack(now)
        # pure window updates fall through to the send attempt below
        self.try_send(now)

    def _on_dupack(self, now: int) -> None:
        if self.phase == FAST_RECOVERY:
            self.cwnd += self.mss  # inflation: the dup signals a departure
            self._note_state(now)
            return
        self.dupacks += 1
        if self.dupacks != DUPACK_THRESHOLD:
            return
        if self.snd_una < self.recover:
            return  # already retransmitted in this window; wait it out
        self.ssthresh = max(self.flight // 2, 2 * self.mss)
        self.retransmit_head(now)
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD * self.mss
        self.phase = FAST_RECOVERY
        self.recover = self.snd_nxt
        self.fr_times.append(now)
        self._note_state(now)

    def _sample_rtt(self, prev_una: int, seg: Segment, now: int) -> None:
        # Karn: no sample when the newly acked range was ever retransmitted.
        # Retransmissions start at snd_una and go on contiguously from it, so
        # the range holds retransmitted data iff prev_una < rtx_end.
        if seg.echo is None or prev_una < self.rtx_end:
            return
        m = now - seg.echo  # the echo is the data segment's own send time
        if self.srtt is None:
            self.srtt = m
            self.rttvar = m // 2
        else:
            self.rttvar = (3 * self.rttvar + abs(self.srtt - m)) // 4
            self.srtt = (7 * self.srtt + m) // 8
        rto = self.srtt + 4 * self.rttvar
        self.rto = RTO_MIN if rto < RTO_MIN else RTO_MAX if rto > RTO_MAX else rto

    # -- timeout and external steering -----------------------------------

    def on_rto(self, now: int) -> bool:
        """Retransmission timeout: collapse to one segment and go back to
        snd_una. Returns False when the timer was stale (nothing unacked)."""
        if self.flight == 0:
            return False
        self.ssthresh = max(self.flight // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.phase = SLOW_START
        self.dupacks = 0
        self.recover = self.snd_nxt
        self._rtx_next = self.snd_una
        self._rtx_high = self.snd_nxt
        self.rto = min(self.rto * 2, RTO_MAX)
        self.rto_times.append(now)
        self.try_send(now)
        self._note_state(now)
        return True

    def external_congestion_avoidance(self, now: int) -> None:
        """Force the congestion-avoidance entry the handover engine requests
        at satellite->terrestrial execution: halve into CONG_AVOID."""
        self.ssthresh = max(self.cwnd // 2, 2 * self.mss)
        self.cwnd = self.ssthresh
        self.phase = CONG_AVOID
        self.dupacks = 0
        self._note_state(now)

    def restart_slow_start(self, ssthresh: int, now: int) -> None:
        """Collapse cwnd to one segment in slow start, with ssthresh seeded at
        `ssthresh` (at least two segments): the reset-cwnd policy's handover step."""
        self.ssthresh = max(ssthresh, 2 * self.mss)
        self.cwnd = self.mss
        self.phase = SLOW_START
        self.dupacks = 0
        self._note_state(now)


class TcpReceiver:
    """Receive-side state: cumulative ACKing plus the steerable window.

    Every emitted ACK advertises min(free buffer, policy cap). In-order data
    is consumed immediately (bulk sink), so only out-of-order ranges occupy
    the buffer. Each ACK is built with `route` (the owner keeps it on the
    attachment) and the key of the data it answers, else one from `keys`,
    and handed to `emit_cb(segment, send_at)`, which the owner wires to the
    route's first link or to its pacing; emission is shifted by `ack_delay`
    (ACK-return pacing). While `emit_cb` is None (a flow not yet started)
    the receiver sends nothing: its window still moves, and the sender
    takes `last_rwnd` when the flow starts.
    """

    def __init__(
        self,
        flow_id: str,
        buffer_capacity: int,
        mss: int = 1460,
        policy_cap: Optional[int] = UNLIMITED,
        emit_cb: Callable[[Segment, int], None] | None = None,
    ):
        self.flow_id = flow_id
        self.buffer_capacity = buffer_capacity
        self.mss = mss
        self.rcv_nxt = 0
        self.oob: list[tuple[int, int]] = []  # disjoint (start, end) ranges
        self.oob_bytes = 0
        self.policy_cap = policy_cap
        self.ack_delay = 0
        self.emit_cb = emit_cb
        self.route: tuple = ()  # each ACK's route, to the sender
        self.keys = itertools.count(4, 4)  # keys of the ACKs no data segment prompts
        self.last_refresh: Optional[int] = None  # set while duplicate ACKs are suppressed
        self.last_rwnd = self.advertised()
        self.max_rwnd_increase = 0
        self.ramp_target: Optional[int] = None  # the cap a running ramp raises toward
        self.ramp_step = 2 * mss  # its step per ACK, and its bound on each window increase
        self.overflow_drops = 0
        self.advanced_at: Optional[int] = None  # when rcv_nxt last moved
        # in-order advances, for the gap window and the drains: wired from the first detection
        self.advance_cb: Callable[[TcpReceiver, int], None] | None = None

    # -- window bookkeeping ----------------------------------------------

    @property
    def delivered_inorder(self) -> int:
        """Bytes delivered in order (a bulk sink consumes them at once)."""
        return self.rcv_nxt

    def advertised(self) -> int:
        free, cap = self.buffer_capacity - self.oob_bytes, self.policy_cap
        return free if cap is UNLIMITED or cap > free else cap

    def set_window_policy(self, cap: Optional[int], now: int, mark=None) -> Optional[Segment]:
        """Cap the advertised window; an immediate window-update ACK, built
        with `mark`, tells the sender about any change and is returned (None
        when the cap is unchanged or nothing is sent). UNLIMITED (None)
        removes the cap."""
        if cap is not UNLIMITED:
            if cap < 0:
                raise SimError(f"flow {self.flow_id}: negative window cap")
            if cap > self.buffer_capacity:
                raise SimError(f"flow {self.flow_id}: cap {cap} exceeds buffer "
                               f"{self.buffer_capacity}")
        changed = cap != self.policy_cap
        self.policy_cap = cap
        self.ramp_target = None
        if changed:
            return self._emit_ack(now, F_WUPD, None, mark)
        return None

    def start_ramp(self, target: int) -> None:
        """Raise the cap toward `target` by two segments on every later ACK
        (self-clocked, so the increase cannot outrun the path), and bound
        every increase of the advertised window by the same two segments
        until the next set_window_policy, also once the target is reached."""
        if self.policy_cap is UNLIMITED:
            raise SimError(f"flow {self.flow_id}: a ramp needs a capped window")
        self.ramp_target = min(target, self.buffer_capacity)

    def window_update(self, now: int, mark=None) -> Optional[Segment]:
        """Emit a window-update ACK now, built with `mark`; a running ramp
        takes its step."""
        return self._emit_ack(now, F_WUPD, None, mark)

    def set_suppress_dupacks(self, on: bool, now: int) -> None:
        self.last_refresh = now if on else None

    # -- data path ---------------------------------------------------------

    def holds_range(self, seq: int, length: int) -> bool:
        """True if [seq, seq+length) is already below rcv_nxt or fully
        covered by buffered out-of-order ranges."""
        end = seq + length
        pos = seq if seq > self.rcv_nxt else self.rcv_nxt
        if pos >= end:
            return True
        for start, stop in self.oob:
            if start > pos:
                return False
            if stop > pos:
                pos = stop
                if pos >= end:
                    return True
        return False

    def on_data(self, seg: Segment, now: int) -> None:
        if not seg.flags & F_DATA:
            raise ProtocolViolation(f"flow {self.flow_id}: receiver got a non-data segment "
                                    f"(flags {seg.flags})")
        seq, end = seg.seq, seg.seq + seg.payload_len
        if end <= self.rcv_nxt or (self.oob and self.holds_range(seq, seg.payload_len)):
            # stale duplicate: re-ACK so the peer can resynchronize
            self._maybe_dupack(now, seg.key)
            return
        if seq <= self.rcv_nxt:
            self.rcv_nxt, self.advanced_at = end, now
            if self.oob:
                self._absorb_contiguous()
            if self.advance_cb is not None:
                self.advance_cb(self, now)
            self._emit_ack(now, 0, None if seg.rexmit else seg.sent_at, None, seg.key)
            return
        # out of order: buffer if there is room, else model receiver overflow
        if seg.payload_len > self.buffer_capacity - self.oob_bytes:
            self.overflow_drops += 1
            return
        self._insert_oob(seq, end)
        self._maybe_dupack(now, seg.key)

    def _insert_oob(self, seq: int, end: int) -> None:
        ranges = self.oob
        i = 0
        while i < len(ranges) and ranges[i][0] < seq:
            i += 1
        ranges.insert(i, (seq, end))
        # merge overlaps conservatively; byte counts track the merged spans
        merged: list[tuple[int, int]] = []
        held = 0
        for start, stop in ranges:
            if not merged or start > merged[-1][1]:
                merged.append((start, stop))
                held += stop - start
            elif stop > merged[-1][1]:
                held += stop - merged[-1][1]
                merged[-1] = (merged[-1][0], stop)
        self.oob = merged
        self.oob_bytes = held

    def _absorb_contiguous(self) -> None:
        while self.oob and self.oob[0][0] <= self.rcv_nxt:
            start, stop = self.oob.pop(0)
            self.oob_bytes -= stop - start
            if stop > self.rcv_nxt:
                self.rcv_nxt = stop

    def _maybe_dupack(self, now: int, key: int) -> None:
        if self.last_refresh is None:
            self._emit_ack(now, 0, None, None, key)
            return
        # withheld; keep the sender's timers alive with a rate-limited,
        # specially flagged state refresh instead
        if now - self.last_refresh >= REFRESH_INTERVAL:
            self.last_refresh = now
            self._emit_ack(now, F_REFRESH, None, None, key)

    # -- ACK emission -----------------------------------------------------

    def _emit_ack(self, now: int, flags: int = 0, echo=None, mark=None,
                  key: int = 0) -> Optional[Segment]:
        target = self.ramp_target
        if target is not None and self.policy_cap < target and not flags & F_REFRESH:
            cap = self.policy_cap + self.ramp_step
            self.policy_cap = cap if cap < target else target
        free, cap = self.buffer_capacity - self.oob_bytes, self.policy_cap
        rwnd = free if cap is UNLIMITED or cap > free else cap  # advertised(), inline
        last = self.last_rwnd
        if rwnd > last:
            if target is not None:
                # a refilled out-of-order hole frees the buffer at once; the
                # window still opens by at most one step per ACK
                if rwnd > last + self.ramp_step:
                    rwnd = last + self.ramp_step
            inc = rwnd - last
            if inc > self.max_rwnd_increase:
                self.max_rwnd_increase = inc
        self.last_rwnd = rwnd
        if self.emit_cb is None:
            return None
        seg = segment(self.flow_id, 0, 0, self.rcv_nxt, rwnd, F_ACK | flags, now + self.ack_delay,
                      echo, False, mark, self.route, key or next(self.keys))
        self.emit_cb(seg, now + self.ack_delay)
        return seg
