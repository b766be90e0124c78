"""Simulation orchestration: builds a world from a scenario, executes the
handover engine, and aggregates metrics and the trace."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from . import handover as ho_policy
from .errors import ConfigError
from .kernel import Kernel, SimError, fmt_time
from .metrics import (GAP_WINDOW, DropRecord, FlowLines, FlowMetrics, HandoverMetrics, RunMetrics,
                      Trace)
from .mobility import HomeAgent, make_binding_update
from .net import (F_ACK, F_BU, F_BUACK, F_CONTROL, F_DATA, HEADER_BYTES, DirectedLink, Route,
                  Segment, Topology, path_rtt, pending_arrivals, rtt_table, single_feeders,
                  take_arrivals)
from .scenario import BASELINE, PROACTIVE, RESET_CWND, FlowDef, HandoverDef, Scenario, flow_buffer
from .tcp import TcpReceiver, TcpSender


def _bottleneck_bw(route) -> int:
    return min(hop.spec.bandwidth for hop in route)


@dataclass
class _FlowRuntime:
    spec: FlowDef
    sender: TcpSender
    receiver: TcpReceiver
    metrics: FlowMetrics
    emit_ack: Optional[Callable[[Segment, int], None]] = None  # traced or paced, the ACK send
    lines: Optional[FlowLines] = None  # traced, the writer of its per-packet lines
    rto_event: Optional[list] = None  # kernel handle, due at or before rto_at
    rto_at: int = 0  # the RTO deadline
    # the highest data end the home agent has seen, and when
    ha_end: int = -1
    ha_time: int = 0
    watermark: dict[str, int] = field(default_factory=dict)  # kind -> highest end routed there


class _HandoverRuntime:
    """Engine state of one handover: timeline, t_a2 markers, one timer and
    the flows still draining. Each mode runs one procedure at detection (see
    _PROCEDURES). It switches at most once, so each registration signal comes
    at most once. Its window updates, BU and BUACK carry it in `Segment.mark`."""

    def __init__(self, sim: Simulation, hdef: HandoverDef):
        self.sim = sim
        self.hdef = hdef
        old, new = sim.attachment, hdef.to
        direction = ("terr_to_sat" if new == "SAT" else
                     "sat_to_terr" if old == "SAT" else "terr_to_terr")
        self.metrics = HandoverMetrics(hdef.name, direction, hdef.at, old_kind=old, new_kind=new)
        self.markers: dict[str, int] = {}  # flow -> old-window edge, resolved at the agent
        self.timer: Optional[list] = None  # the deferred switch, then the drain timeout
        self.draining: dict[str, _FlowRuntime] = {}  # flows whose drain is still open

    def stamp(self, label: str, at: int, node: str) -> None:
        """Record `label` at `at`; the trace line is written now, which for
        t_a2 can be later than `at`."""
        self.metrics.timeline[label] = at
        self.sim.trace.emit(self.sim.kernel.now, "timeline", node, label=label, t=fmt_time(at))

    # -- one procedure per mode (baseline is `switch` alone) ---------------

    def reset_cwnd(self, now: int) -> None:
        """Comparison policy: switch immediately, then collapse cwnd and
        seed ssthresh with the bandwidth-delay product of the new path."""
        if not self.switch(now):
            return
        bdp = self.sim.cache[self.hdef.to]
        for rt in self.sim.flows.values():
            rt.sender.restart_slow_start(bdp, now)

    def proactive(self, now: int) -> None:
        """W_REC onto the satellite, boost then drain off it; between two
        terrestrial networks the plain switch, and the windows rest."""
        direction = self.metrics.direction
        if direction == "terr_to_sat":
            self._advertise_w_rec(now)
        elif direction == "sat_to_terr":
            self._boost(now)
        elif self.switch(now):
            self.sim.rest(now)

    # -- proactive terrestrial -> satellite --------------------------------

    def _advertise_w_rec(self, now: int) -> None:
        """Advertise W_REC now and hold the registration back by delta. ACK
        pacing ends the MN's hand-off for the run (README gives the reason)."""
        sim, hdef = self.sim, self.hdef
        w_rec, delta, violated = ho_policy.plan_terr_to_sat(
            sim.cache.get(hdef.to, sim.scenario.sat_default_window), sim.scenario.w_default,
            rtt_table(sim.topo, old_kind=self.metrics.old_kind))
        if violated:
            sim.trace.emit(now, "warn", sim.mn, code=ho_policy.CHAIN_VIOLATION, w_rec=w_rec)
        t_r0 = now + delta
        if not sim.topo.access_link(hdef.to).spec.is_available(t_r0):
            self.abort(now)
            return
        demands = [ho_policy.FlowDemand(f.name, f.weight, f.min_share) for f in sim.scenario.flows]
        allocations = ho_policy.allocate_flow_windows(demands, w_rec, sim.scenario.mss)
        self.stamp("t_a0", now, sim.mn)
        sim.trace.emit(now, "plan", sim.mn, direction="TERR_TO_SAT", w_rec=w_rec,
                       delta=fmt_time(delta), t_r0=fmt_time(t_r0))
        for fid, cap in allocations.items():
            rt = sim.flows[fid]
            receiver = rt.receiver
            # a capped flow leaves with at most its resting window here
            if receiver.policy_cap is not None:
                cap = min(cap, sim.resting_cap(receiver.buffer_capacity))
            # at least one segment, as a resting window (the buffer holds one)
            cap = max(min(cap, receiver.buffer_capacity), sim.scenario.mss)
            sim.steer(rt, cap, now, mark=self)
            if hdef.ack_pacing:
                receiver.ack_delay = hdef.ack_pacing
                sim.trace.emit(now, "ack_pacing", sim.mn, flow=fid,
                               delay=fmt_time(hdef.ack_pacing))
                sim._mn_hand_offs = False  # no MN interval starts again
        self.timer = sim.kernel.schedule(t_r0, self._execute_t2s, "t2s-exec")

    def _execute_t2s(self) -> None:
        """Switch at t_r0. W_REC capped every flow; the attachment measures
        the satellite, and a cap above its resting window (a W_REC from a
        fallback window above the BDP) comes down to it. No cap is raised."""
        sim = self.sim
        now = sim.kernel.now
        self.switch(now)  # _advertise_w_rec found the target covered at t_r0
        for rt in sim.flows.values():
            rest = sim.resting_cap(rt.receiver.buffer_capacity)
            if rt.receiver.policy_cap > rest:
                sim.steer(rt, rest, now)

    # -- proactive satellite -> terrestrial --------------------------------

    def _boost(self, now: int) -> None:
        """Ramp each window toward current + satellite BDP until execution."""
        sim, sat = self.sim, self.metrics.old_kind
        exec_at = now + self.hdef.exec_lead
        for fid, rt in sim.flows.items():
            receiver = rt.receiver
            target = ho_policy.plan_sat_to_terr(sim.cache[sat], receiver.policy_cap,
                                                receiver.buffer_capacity)
            receiver.start_ramp(target)
            sim.trace.emit(now, "boost", sim.mn, flow=fid, target=target,
                           step=receiver.ramp_step)
        # two round trips of a full segment over the satellite guard the
        # drain against a lost pipe segment
        route = sim.topo.route_via_access(sim.mn, sim.cn, sat)
        rtt = path_rtt(route, sim.scenario.mss + HEADER_BYTES)
        self.timer = sim.kernel.schedule(
            exec_at, partial(self._execute_s2t, exec_at + 2 * rtt), "s2t-exec")

    def _execute_s2t(self, drain_timeout: int) -> None:
        sim = self.sim
        now = sim.kernel.now
        if not self.switch(now):
            return
        self.stamp("t_a0", now, sim.mn)
        for fid, rt in sim.flows.items():
            # hold the sender while draining
            if rt.receiver.set_window_policy(0, now, self) is not None:
                sim._unsettled += 1
            rt.receiver.set_suppress_dupacks(True, now)
            rt.sender.external_congestion_avoidance(now)
            sim.trace.emit(now, "wpolicy", sim.mn, flow=fid, cap=0)
            self.draining[fid] = rt
        # no drain can end before the BU just sent reaches the agent (t_r1)
        self.timer = sim.kernel.schedule(drain_timeout, partial(self._end_drains, "yes"),
                                         "drain-timeout")

    def _end_drains(self, timeout: str) -> None:
        for rt in list(self.draining.values()):
            self._finish_drain(rt, self.sim.kernel.now, timeout)

    def check_drain(self, rt: _FlowRuntime, now: int) -> None:
        """End a flow's drain once everything the agent ever routed onto
        the old network has arrived in order."""
        if rt.spec.name not in self.draining or "t_r1" not in self.metrics.timeline:
            return  # the old stream is not sealed until redirection happened
        if rt.receiver.rcv_nxt >= rt.watermark.get(self.metrics.old_kind, 0):
            self._finish_drain(rt, now, "no")

    def _finish_drain(self, rt: _FlowRuntime, now: int, timeout: str) -> None:
        """End a flow's drain, which timed out ("yes"), did not ("no") or was
        superseded: ramp the window up to rest, except that a superseded
        drain stays at 0 for the newer handover to steer."""
        del self.draining[rt.spec.name]
        if not self.draining:  # the drain that ends last cancels the timeout
            self.sim.kernel.cancel(self.timer)
        self.metrics.drain_timed_out |= timeout == "yes"
        self.sim.trace.emit(now, "drain_done", self.sim.mn, flow=rt.spec.name, timeout=timeout)
        rt.receiver.set_suppress_dupacks(False, now)
        if timeout != "superseded":
            self.sim.steer(rt, self.sim.resting_cap(rt.receiver.buffer_capacity), now)

    # -- shared steps ------------------------------------------------------

    def switch(self, now: int) -> bool:
        """Attach to the target and send the binding update, or abort when
        the target has no coverage now."""
        sim, kind = self.sim, self.hdef.to
        if not sim.topo.access_link(kind).spec.is_available(now):
            self.abort(now)
            return False
        sim._attach(kind, now)
        seg = make_binding_update(kind, now)
        seg.mark, seg.key = self, next(sim.kernel.seqs)
        origin, seg.route = sim._registration_path(kind, to_agent=True)
        sim.trace.emit(now, "bu_send", origin, network=kind)
        self.stamp("t_r0", now, origin)
        seg.route[0].transmit(seg, now)
        return True

    def registered(self, now: int) -> None:
        """This handover's BU reached the agent: redirection happened (t_r1)."""
        self.stamp("t_r1", now, self.sim.ha_node)
        for rt in list(self.draining.values()):
            self.check_drain(rt, now)

    def confirmed(self, seg: Segment, now: int) -> None:
        """This handover's BUACK reached the MN (t_r3)."""
        self.sim.trace.emit(now, "buack_recv", self.sim.mn, network=seg.path_tag)
        self.stamp("t_r3", now, self.sim.mn)

    def registration_lost(self, now: int) -> None:
        """A dropped or stale BU, or a dropped BUACK, leaves the binding (or
        its confirmation) unchanged."""
        self.sim.trace.emit(now, "bu_lost", self.sim.mn, handover=self.metrics.name)

    def abort(self, now: int) -> None:
        """The move does not happen: the windows rest on the network the MN
        stays on."""
        self.metrics.aborted = True
        self.sim._unsettled -= 1
        self.sim.trace.emit(now, "handover_abort", self.sim.mn, handover=self.metrics.name)
        self.sim.rest(now)

    def retire(self, now: int) -> None:
        """A newer handover was detected: cancel a switch still pending and
        end every open drain at a window of 0. The windows are the newer
        handover's to steer."""
        if self.timer is not None and self.sim.kernel.cancel(self.timer) \
                and "t_r0" not in self.metrics.timeline:
            self.sim._unsettled -= 1  # the switch it cancels sends no binding update
        self._end_drains("superseded")

    # -- advertisement markers ---------------------------------------------

    def advert_arrived(self, rt: _FlowRuntime, now: int) -> None:
        """The sender processed this handover's window update: stamp t_a1
        and mark the old window's edge for t_a2."""
        if "t_a1" not in self.metrics.timeline:
            self.stamp("t_a1", now, rt.spec.src)
        fid = rt.spec.name
        marker = rt.sender.snd_nxt
        if rt.ha_end >= marker:
            # the last old-window segment already passed the agent
            self._stamp_t_a2(rt.ha_time)
        else:
            self.markers[fid] = marker

    def anchor_passed(self, fid: str, end: int, now: int) -> None:
        """Data up to `end` of flow `fid` passed the home agent."""
        marker = self.markers.get(fid)
        if marker is not None and end >= marker:
            del self.markers[fid]
            self._stamp_t_a2(now)

    def _stamp_t_a2(self, at: int) -> None:
        """t_a2 is when the last flow's old window passed the agent."""
        prev = self.metrics.timeline.get("t_a2")
        if prev is None or at > prev:
            self.stamp("t_a2", at, self.sim.ha_node)


_PROCEDURES = {
    BASELINE: _HandoverRuntime.switch,  # immediate registration, no window shaping
    RESET_CWND: _HandoverRuntime.reset_cwnd,
    PROACTIVE: _HandoverRuntime.proactive,
}


class Simulation:
    """One deterministic run of a scenario in a given mode."""

    def __init__(self, scenario: Scenario, mode: Optional[str] = None,
                 seed: Optional[int] = None, trace: bool = False):
        self.scenario = scenario
        self.mode = mode if mode is not None else scenario.mode
        if self.mode not in _PROCEDURES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        self._procedure = _PROCEDURES[self.mode]
        self.seed = seed if seed is not None else scenario.seed
        self.kernel = Kernel()
        self.trace = Trace(enabled=trace)
        self.topo = Topology(list(scenario.nodes), list(scenario.links), self.kernel)
        self.mn = self.topo.node_with_role("mn")
        self.cn = self.topo.node_with_role("cn")
        self.ha_node = self.topo.node_with_role("ha")
        self.ha = HomeAgent(self.mn)
        self.metrics = RunMetrics(scenario.name, self.mode, self.seed)
        self.cache: dict[str, int] = {}  # kind -> BDP measured when it was last attached
        self.flows: dict[str, _FlowRuntime] = {}
        # the scripted detections still to come in time order, then past the end
        self._detects = sorted(h.at for h in scenario.handovers) + [scenario.end + 1]
        gap = (self._detects[0], min(self._detects[0] + GAP_WINDOW, scenario.end))
        self._gap_window = gap if scenario.handovers else None
        self._forward: dict[str, Route] = {}  # binding kind -> the agent's forward route
        # binding kind -> the link into the agent that hands data off while it is in force
        self._into: dict[str, DirectedLink] = {}
        self._mn_hand_offs = False  # whether an MN downlink hands off (see _shortcuts)
        # detections whose binding update may still reach the agent, and marked window
        # updates not yet at their sender: no hand-off resumes while any is unsettled
        self._unsettled = 0

        # the latest handover; its detection retired the one before (see retire)
        self._active: Optional[_HandoverRuntime] = None

        for dlink in self.topo.directed.values():
            dlink.deliver = self._on_arrival
            dlink.on_drop = self.on_drop

        self._attach(scenario.attach, 0)
        self.ha.register(scenario.attach, 0)  # the starting network counts as registered from t=0

        for fdef in scenario.flows:
            self._setup_flow(fdef)

        # the run's first event, ahead of every start and detection at t=0
        self.kernel.schedule(0, self._resolve_routes, "routes")
        for fdef in scenario.flows:
            self.kernel.schedule(fdef.start, lambda f=fdef.name: self._start_flow(f), "flow-start")
        for hdef in scenario.handovers:
            self.kernel.schedule(hdef.at, lambda h=hdef: self._on_handover(h), "handover")

    # ------------------------------------------------------------------
    # construction helpers

    def _setup_flow(self, fdef: FlowDef) -> None:
        buffer = flow_buffer(self.scenario, fdef)
        cap = None
        if self.mode == PROACTIVE and self.attachment == "SAT":
            cap = self.resting_cap(buffer)  # a proactive node starts on the satellite at rest
        receiver = TcpReceiver(fdef.name, buffer_capacity=buffer, mss=self.scenario.mss,
                               policy_cap=cap)
        receiver.ack_delay = fdef.ack_extra_delay
        sender = TcpSender(fdef.name, mss=self.scenario.mss, init_ssthresh=65536,
                           volume=fdef.volume)
        sender.keys = receiver.keys = self.kernel.seqs
        fm = FlowMetrics(fdef.name, start=fdef.start, gap_window=self._gap_window,
                         rto_times=sender.rto_times, fr_times=sender.fr_times)
        runtime = _FlowRuntime(fdef, sender, receiver, fm)
        kernel, trace, fr_traced, lines = self.kernel, self.trace, 0, None
        if trace.enabled:  # untraced, the sender sends to its first hop (see _resolve_routes)
            runtime.lines = lines = FlowLines(trace, fdef.name, fdef.src, self.mn)

            def send(seg: Segment, now: int) -> None:
                lines.send(seg, now)
                seg.route[0].transmit(seg, now)

            def state(sender: TcpSender, now: int) -> None:  # a new fast retransmit first
                nonlocal fr_traced
                if fr_traced < len(sender.fr_times):
                    fr_traced += 1
                    trace.emit(now, "fast_retransmit", fdef.src, flow=fdef.name)
                lines.cwnd(sender, now)

            sender.send_cb, sender.state_cb = send, state
        paced = fdef.ack_extra_delay or any(h.ack_pacing for h in self.scenario.handovers)
        if lines or paced:  # else its ACKs go to the first hop (see _start_flow)
            def emit_ack(seg: Segment, send_at: int) -> None:
                """The receiver's ACK at `send_at`: from a paced event when the
                receiver delays it, else at once, on the route of the attachment."""
                if receiver.ack_delay and send_at > kernel.now:
                    kernel.schedule(send_at, partial(emit_ack, seg, send_at), "ack-paced")
                    return
                if lines:
                    lines.ack_tx(seg, send_at)
                seg.route = route = receiver.route
                route[0].transmit(seg, send_at)

            runtime.emit_ack = emit_ack
        self.flows[fdef.name] = runtime
        self.metrics.flows[fdef.name] = fm

    def _start_flow(self, fid: str) -> None:
        """Its receiver sends from now on; the sender takes the window it last advertised."""
        rt = self.flows[fid]
        rt.receiver.emit_cb = rt.emit_ack or rt.receiver.route[0].transmit
        rt.sender.peer_rwnd = rt.receiver.last_rwnd
        self.trace.emit(self.kernel.now, "flow_start", rt.spec.src, flow=fid)
        rt.sender.try_send(self.kernel.now)
        self._manage_rto(rt, False)

    # ------------------------------------------------------------------
    # data plane

    def _on_arrival(self, seg: Segment) -> None:
        """`seg` reached the end of its route (the node `seg.route[-1]` ends at).
        Traced, the flow's `FlowLines` writes its `ack_rx` or `deliver` line. A
        data segment at the MN tries to start an MN interval only while an MN
        downlink can hand off (`_mn_hand_offs`): never in a traced run, one with
        an `ack_extra_delay` or one whose ACKs a handover paced."""
        now = self.kernel.now
        if seg.flags & F_ACK:  # cumulative ACK reaching the sender
            rt = self.flows[seg.flow_id]
            if seg.mark is not None:
                self._unsettled -= 1
                seg.mark.advert_arrived(rt, now)
            if rt.lines:  # every ACK route ends at the flow's source
                rt.lines.ack_rx(seg, now)
            prev_una = rt.sender.snd_una
            rt.sender.on_ack(seg, now)
            self._manage_rto(rt, rt.sender.snd_una > prev_una)
        elif seg.flags & F_DATA:
            if seg.route[-1].dst == self.ha_node:
                self._ha_forward(seg, now)
                self._resume_hand_off()
            else:
                self._deliver_data(seg, now)
                if self._mn_hand_offs:
                    self._resume_mn_hand_off()
        elif seg.flags & F_BU:
            self._unsettled -= 1
            buack = self.ha.handle_binding_update(seg, now)
            self.trace.emit(now, "bu_recv", self.ha_node, network=seg.path_tag)
            if buack is None:  # stale: a later BU is in force
                seg.mark.registration_lost(now)
            else:
                seg.mark.registered(now)
                buack.mark, buack.key = seg.mark, next(self.kernel.seqs)
                buack.route = self._registration_path(buack.path_tag, to_agent=False)[1]
                buack.route[0].transmit(buack, now)
            self._resume_hand_off()
        else:  # a BUACK
            seg.mark.confirmed(seg, now)

    def _ha_forward(self, seg: Segment, now: int) -> None:
        kind = self.ha.bound
        rt = self.flows[seg.flow_id]
        end = seg.seq + seg.payload_len
        if end > rt.ha_end:
            rt.ha_end = end
            rt.ha_time = now
        ho = self._active
        if ho is not None and ho.markers:
            ho.anchor_passed(seg.flow_id, end, now)
        if ho is not None and kind == ho.metrics.old_kind and "t_r1" in ho.metrics.timeline:
            ho.metrics.old_path_enqueues_after_tr1 += 1
        # the routed watermark seals the satellite stream at t_r1 exactly:
        # everything the anchor ever pointed at the old network is below it
        if end > rt.watermark.get(kind, 0):
            rt.watermark[kind] = end
        seg.route = route = self._forward[kind]
        seg.hop = 0
        route[0].transmit(seg, now)

    def _deliver_data(self, seg: Segment, now: int) -> None:
        """`seg` reached the MN at `now`: in its arrival event, or, untraced,
        ahead of time from the MN's downlink (see _shortcuts)."""
        rt = self.flows[seg.flow_id]
        rt.metrics.bytes_delivered += seg.payload_len
        if seg.rexmit and rt.receiver.holds_range(seg.seq, seg.payload_len):
            rt.metrics.spurious_retransmits += 1
            self.trace.emit(now, "spurious_rexmit", self.mn, flow=seg.flow_id, seq=seg.seq)
        if rt.lines:
            rt.lines.deliver(seg, now)
        rt.receiver.on_data(seg, now)

    def _on_inorder(self, receiver: TcpReceiver, now: int) -> None:
        rt = self.flows[receiver.flow_id]
        rt.metrics.note_inorder(now)
        ho = self._active
        if ho is not None and ho.draining:
            ho.check_drain(rt, now)

    def on_drop(self, link: DirectedLink, seg: Segment, reason: str, at: int) -> None:
        """`seg` is lost on `link`."""
        self.metrics.drops.append(DropRecord(at, link.label, link.spec.kind, reason, seg.flow_id))
        if seg.payload_len:  # only data segments carry payload
            self.flows[seg.flow_id].metrics.bytes_dropped += seg.payload_len
        if seg.mark is not None and not seg.flags & F_BUACK:  # a BU or a marked window update
            self._unsettled -= 1
        if seg.flags & F_CONTROL:
            seg.mark.registration_lost(at)
        self.trace.emit(at, "drop", link.label, flow=seg.flow_id, reason=reason,
                        seq=seg.seq, len=seg.payload_len)

    # ------------------------------------------------------------------
    # sender timer management

    def _manage_rto(self, rt: _FlowRuntime, rearm: bool) -> None:
        """Arm the timer when data is in flight and none runs, stop it when
        nothing is; `rearm` moves the deadline to `now + rto`. A later
        deadline leaves the event where it is (see _on_rto), an earlier one
        queues it anew."""
        sender = rt.sender
        if sender.snd_nxt == sender.snd_una:  # nothing in flight
            if rt.rto_event is not None:
                self.kernel.cancel(rt.rto_event)
                rt.rto_event = None
        elif rt.rto_event is None or rearm:
            rt.rto_at = self.kernel.now + sender.rto
            if rt.rto_event is not None and rt.rto_at < rt.rto_event[0]:
                self.kernel.cancel(rt.rto_event)
                rt.rto_event = None
            if rt.rto_event is None:
                rt.rto_event = self.kernel.schedule(rt.rto_at, partial(self._on_rto, rt), "rto")

    def _on_rto(self, rt: _FlowRuntime) -> None:
        now = self.kernel.now
        if now < rt.rto_at:  # re-armed later since it was queued: wait on
            rt.rto_event = self.kernel.schedule(rt.rto_at, partial(self._on_rto, rt), "rto")
            return
        rt.rto_event = None
        if rt.sender.on_rto(now):
            self.trace.emit(now, "rto", rt.spec.src, flow=rt.spec.name, rto=fmt_time(rt.sender.rto))
        self._manage_rto(rt, False)

    # ------------------------------------------------------------------
    # attachment, registration, redirection

    def _attach(self, kind: str, now: int) -> None:
        self.attachment = kind
        for rt in self.flows.values():
            rt.receiver.route = ack = self.topo.routes[(self.mn, rt.spec.src, kind)]
            if rt.emit_ack is None and rt.receiver.emit_cb is not None:  # a started flow, unpaced
                rt.receiver.emit_cb = ack[0].transmit
        route = self.topo.route_via_access(self.mn, self.cn, kind)
        bdp = ho_policy.estimate_bdp(_bottleneck_bw(route), path_rtt(route))
        # a window below one segment stalls a flow: the sender has no zero-window probe
        self.cache[kind] = max(bdp, self.scenario.mss)
        self.trace.emit(now, "attach", self.mn, network=kind)

    def _resolve_routes(self) -> None:
        """The run's first event (t=0, before any flow start or detection):
        resolve, into the topology's route table, each flow's route to the
        agent and, for every access kind the run can attach to, the agent's
        forward route, the ACK routes and the registration routes; set each
        flow's data route on its sender and ACK route on its receiver
        (`_attach` keeps it current), untraced make the data route's first
        link the sender's `send_cb`, and wire the shortcuts over the routes
        a segment can take."""
        topo, mn, ha, attach = self.topo, self.mn, self.ha_node, self.scenario.attach
        kinds = list(dict.fromkeys([attach] + [h.to for h in self.scenario.handovers]))
        data = [topo.route(rt.spec.src, ha) for rt in self.flows.values()]
        acks = [topo.route_via_access(mn, rt.spec.src, kind)
                for kind in kinds for rt in self.flows.values()]
        self._forward = {kind: topo.route_via_access(ha, mn, kind) for kind in kinds}
        used = data + acks + list(self._forward.values())
        for kind in kinds:
            used += [self._registration_path(kind, to_agent)[1] for to_agent in (True, False)]
        for rt, route in zip(self.flows.values(), data):  # no detection yet: on `attach`
            rt.sender.route, rt.receiver.route = route, topo.routes[(mn, rt.spec.src, attach)]
            if not self.trace.enabled:
                rt.sender.send_cb = route[0].transmit
        self._shortcuts(kinds, data, acks, used)

    def _shortcuts(self, kinds: list[str], data: list[Route], acks: list[Route],
                   used: list[Route]) -> None:
        """Wire every shortcut; the all-events reference skips this call.
        Mark the links that one link alone feeds over the routes in `used`.
        Per binding the agent can hold (`kinds`), the one link into the agent
        that feeds the binding's forward link over the `data` routes on
        through it and the `acks` of every kind (one sent before a switch may
        still travel) hands data off to the agent inside a quiet interval
        (see _resume_hand_off). Untraced and with no flow delaying its ACKs,
        the MN's downlink of each kind that its forward route cuts through to
        (a BUACK gets there in its BU's arrival event) hands data to the
        receiver in an MN interval (see _resume_mn_hand_off): inside one
        nothing else reaches a receiver or the MN's uplink, so the ACK enters
        the uplink in time order. The first interval on each link of the
        attachment starts now (`_start_interval`). `_mn_hand_offs` says whether
        an MN downlink hands off, until ACK pacing ends that for the run. The
        trace decides only whether the MN's downlinks hand off, never an output."""
        attach = self.scenario.attach
        for link, feeder in single_feeders(used).items():
            link.feeder = feeder
        mn_events = self.trace.enabled or any(f.ack_extra_delay for f in self.scenario.flows)
        for kind in kinds:
            forward = self._forward[kind]
            into = single_feeders([route + forward for route in data] + acks)[forward[0]]
            if into is not None:
                into.hand_off = self._ha_forward
                self._into[kind] = into
            cut = all(link.feeder for link in forward[1:])
            if cut and not mn_events:
                forward[-1].hand_off = self._deliver_data
                self._mn_hand_offs = True
        if attach in self._into:
            self._start_interval(self._into[attach])
        if self._forward[attach][-1].hand_off:
            self._start_interval(self._forward[attach][-1])

    def _registration_path(self, kind: str, to_agent: bool) -> tuple[str, Route]:
        """The registration endpoint for `kind` (the proxy gateway, or the MN
        over the access link of `kind`) and its route to or from the agent."""
        if self.scenario.registration == "MN":
            ends = (self.mn, self.ha_node) if to_agent else (self.ha_node, self.mn)
            return self.mn, self.topo.route_via_access(*ends, kind)
        proxy = self.scenario.proxy_gateway or self.topo.access_link(kind).dst
        ends = (proxy, self.ha_node) if to_agent else (self.ha_node, proxy)
        return proxy, self.topo.route(*ends)

    # ------------------------------------------------------------------
    # handover engine

    def _on_handover(self, hdef: HandoverDef) -> None:
        now = self.kernel.now
        for link in self.topo.directed.values():  # every hand-off ends here
            link.hand_off_before = 0
        self._detects.pop(0)
        self._unsettled += 1
        ho = _HandoverRuntime(self, hdef)
        self.trace.emit(now, "handover_detect", self.mn, direction=ho.metrics.direction,
                        to=hdef.to, mode=self.mode)
        if self._active is not None:
            self._active.retire(now)
        self._active = ho
        self.metrics.handovers.append(ho.metrics)
        for rt in self.flows.values():  # an earlier handover's ACK pacing ends here
            rt.receiver.ack_delay = rt.spec.ack_extra_delay
            # the gap window and the drains read in-order advances from the first detection
            rt.receiver.advance_cb = self._on_inorder
        if hdef.to == self.attachment:
            ho.abort(now)  # already attached to the target
        else:
            self._procedure(ho, now)

    def _resume_hand_off(self) -> None:
        """A segment reached the agent: start a quiet interval on the link
        into it once (i) nothing is unsettled: no binding update is in flight
        or still to be sent, and no marked window update (its arrival reads
        `ha_end`) is on its way, (ii) a link hands off to the agent under the
        binding in force, and (iii) the latest handover waits on no t_a2
        marker (traced when it resolves). README "Event kernel and links"
        gives the reasons, and why an open drain needs no clause."""
        if self._unsettled:
            return
        into, ho = self._into.get(self.ha.route_attachment()), self._active
        if into is None or ho is not None and ho.markers:
            return
        self._start_interval(into)

    def _resume_mn_hand_off(self) -> None:
        """A data segment reached the MN: start an MN interval on the
        downlink of the binding in force, if it hands off, once (i) nothing
        is unsettled, (ii) no drain is open, and (iii) no other forward route
        carries a segment. README "Event kernel and links" gives the reasons."""
        ho, bound, now = self._active, self.ha.bound, self.kernel.now
        link = self._forward[bound][-1]
        if self._unsettled or link.hand_off is None or ho.draining or any(
                hop.free_at + hop.prop_delay >= now for kind, route in self._forward.items()
                if kind != bound for hop in route):
            return
        self._start_interval(link)

    def _start_interval(self, link: DirectedLink) -> None:
        """Let `link` hand off up to the next detection (past the run's end
        after the last). The arrivals due over it before then leave the
        kernel and go to its `hand_off` first, each for its own time and
        with its event's origin as `kernel.origin` (left at the last), so what
        they schedule ranks as their events would have and FIFO order holds
        downstream."""
        kernel, before = self.kernel, self._detects[0]
        for at, kernel.origin, seg in take_arrivals(kernel, link, before):
            link.hand_off(seg, at)
        link.hand_off_before = before

    def resting_cap(self, buffer: int) -> int:
        """The window cap a flow with this receive buffer rests at on the
        attached network: the network's bandwidth-delay product (at least
        one segment, see _attach), within the buffer."""
        return min(buffer, self.cache[self.attachment])

    def steer(self, rt: _FlowRuntime, target: int, now: int, mark=None) -> None:
        """Lower a flow's cap to `target` at once, or ramp it up toward
        `target`, taking the first step now. The window update it sends, if
        any, carries `mark`."""
        receiver, fid = rt.receiver, rt.spec.name
        cap = receiver.policy_cap
        if cap is None or cap >= target:
            wupd = receiver.set_window_policy(target, now, mark)
            self.trace.emit(now, "wpolicy", self.mn, flow=fid, cap=target)
        else:
            receiver.start_ramp(target)
            wupd = receiver.window_update(now, mark)
            self.trace.emit(now, "ramp", self.mn, flow=fid, target=target,
                            step=receiver.ramp_step)
        if wupd is not None and mark is not None:
            self._unsettled += 1

    def rest(self, now: int) -> None:
        """Steer every capped flow to its resting cap, also one already
        there whose ramp (a cancelled boost's) still aims elsewhere; an
        uncapped flow stays uncapped."""
        for rt in self.flows.values():
            receiver = rt.receiver
            cap, target = receiver.policy_cap, self.resting_cap(receiver.buffer_capacity)
            if cap is not None and (cap != target or receiver.ramp_target not in (None, target)):
                self.steer(rt, target, now)

    # ------------------------------------------------------------------

    def run(self) -> RunMetrics:
        """Run to the end and check conservation; README "CLI" gives a `SimError`'s suffix."""
        try:
            self.kernel.run_until(self.scenario.end)
            # in flight = payload the kernel has yet to deliver, so a lost segment leaves a residual
            inflight = Counter()
            for seg in pending_arrivals(self.kernel):
                inflight[seg.flow_id] += seg.payload_len
            for fid, rt in self.flows.items():
                fm, sender, receiver = rt.metrics, rt.sender, rt.receiver
                fm.bytes_sent, fm.retransmits = sender.bytes_sent, sender.retransmit_count
                fm.max_rwnd_increase = receiver.max_rwnd_increase
                fm.delivered_inorder, fm.last_inorder_at = receiver.rcv_nxt, receiver.advanced_at
                fm.bytes_inflight_end = inflight[fid]
            self.metrics.check_conservation()
        except SimError as exc:  # the one place that locates a violation
            ho, event = self._active, exc.event or "end-of-run"
            exc.args = (f"{exc} [t={fmt_time(self.kernel.now)} event={event} "
                        f"handover={ho.metrics.name if ho else 'none'}]",)
            raise
        return self.metrics


def run(scenario: Scenario, mode: Optional[str] = None, seed: Optional[int] = None,
        trace: bool = False) -> tuple[RunMetrics, Trace]:
    sim = Simulation(scenario, mode=mode, seed=seed, trace=trace)
    metrics = sim.run()
    return metrics, sim.trace


def compare(scenario: Scenario, modes: list[str],
            seed: Optional[int] = None) -> list[dict[str, str]]:
    """Side-by-side metrics across modes over one topology and one seed."""
    if len(modes) < 2:
        raise ConfigError("comparison needs at least two modes")
    if len(set(modes)) != len(modes):
        raise ConfigError("duplicate modes in comparison")
    rows: list[dict[str, str]] = []
    for mode in modes:
        metrics, _ = run(scenario, mode=mode, seed=seed)
        rows.extend(metrics.csv_rows())
    return rows
