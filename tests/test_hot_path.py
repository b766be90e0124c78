"""The per-segment path calls no generic builtin: comparisons in place of
`min`, `max` and `sum`, which cost a C call each (see `scripts/segment_ops.py`).
Nor does it enter a Python frame from C: no class call runs `Segment`'s
generated `__init__`, and no `functools.partial` wraps an arrival or an
in-order advance. Traced, a line renders only what changed: its stamp
once per new time, and no per-packet line calls `fmt_time`."""

import functools
import sys
from collections import Counter
from unittest import mock

from conftest import SCENARIOS, cut, load_script, scenario_path

from satwin import net, runner
from satwin.kernel import SEC, fmt_time
from satwin.metrics import Trace
from satwin.mobility import HomeAgent, make_binding_update
from satwin.net import DirectedLink, Segment
from satwin.runner import Simulation, _HandoverRuntime
from satwin.scenario import load_scenario, parse_scenario
from satwin.tcp import TcpReceiver, TcpSender

SEGMENT_OPS = load_script("segment_ops")

PER_SEGMENT = [
    DirectedLink.transmit,
    TcpSender.try_send, TcpSender._emit, TcpSender.on_ack, TcpSender._sample_rtt,
    TcpReceiver.on_data, TcpReceiver.holds_range, TcpReceiver._insert_oob,
    TcpReceiver._maybe_dupack, TcpReceiver._emit_ack,
    Simulation._on_arrival, Simulation._ha_forward, Simulation._deliver_data, Simulation._manage_rto,
]


@functools.cache
def _profiled(job):
    """One untraced run of `job`: "bulk_reno" (its job 0 at seed 1, cut at
    3 s, a bulk flow that overflows and recovers) or "s2" (S2 in PROACTIVE,
    a boost, a drain and a ramp). Returns the simulation, its Python calls
    and C calls from `sys.setprofile`, and the `partial`s that `net` and
    `runner` built, by module."""
    if job == "bulk_reno":
        spec = SEGMENT_OPS.workloads.generate("bulk_reno", 1, SCENARIOS)[0]
        sim = Simulation(cut(parse_scenario(spec.text, spec.name), 3 * SEC), mode=spec.mode)
    else:
        sim = Simulation(load_scenario(scenario_path("s2_sat_to_wlan")), mode="PROACTIVE")
    built = Counter()

    def counted(module):
        def partial(*args, **kwargs):
            built[module.__name__] += 1
            return functools.partial(*args, **kwargs)
        return mock.patch.object(module, "partial", partial)

    with counted(net), counted(runner):
        _, calls, c_calls = SEGMENT_OPS.count(sim, opcodes=False)
    return sim, calls, c_calls, built


def _generic_builtins(c_calls):
    codes = {func.__code__: func.__qualname__ for func in PER_SEGMENT}
    return {(codes[code], name): n for (code, name), n in c_calls.items()
            if code in codes and name in ("min", "max", "sum")}


def test_no_min_max_or_sum_on_a_bulk_flow_that_overflows_and_recovers():
    _, calls, c_calls, _ = _profiled("bulk_reno")
    # the WLAN queue overflowed: out-of-order data was buffered, and the
    # sender went through fast recovery
    assert calls[TcpReceiver._insert_oob.__code__] > 0
    assert calls[TcpSender._on_dupack.__code__] > 0
    assert calls[TcpSender.try_send.__code__] > 1000
    assert _generic_builtins(c_calls) == {}


def test_no_min_max_or_sum_through_a_boost_a_drain_and_a_ramp():
    _, calls, c_calls, _ = _profiled("s2")
    for step in (_HandoverRuntime._boost, _HandoverRuntime._finish_drain, TcpReceiver.start_ramp):
        assert calls[step.__code__] > 0, step.__qualname__
    assert calls[TcpReceiver._emit_ack.__code__] > 1000
    assert _generic_builtins(c_calls) == {}


def test_no_data_segment_or_ack_runs_the_generated_init():
    # the senders build with `net.segment`; only a BU or BUACK calls the class
    for job in ("bulk_reno", "s2"):
        _, calls, _, _ = _profiled(job)
        assert calls[TcpSender._emit.__code__] > 1000 and calls[TcpReceiver._emit_ack.__code__] > 1000
        registration = (calls[make_binding_update.__code__]
                        + calls[HomeAgent.handle_binding_update.__code__])
        assert calls[Segment.__init__.__code__] <= registration, job
        assert registration > 0 if job == "s2" else calls[Segment.__init__.__code__] == 0


def test_arrivals_and_in_order_advances_build_no_partial():
    # an arrival event's handler is its link's `deliver`, given the segment
    # by the kernel; a `partial` is left to rare events (an RTO, a drop at a
    # skipped hop, an admission to a link with several feeders)
    for job in ("bulk_reno", "s2"):
        sim, calls, _, built = _profiled(job)
        segments = calls[TcpSender._emit.__code__]
        assert segments > 1000 and 100 * sum(built.values()) < segments, (job, built)
        if job == "s2":  # after the detection, the in-order hook is a bound method
            assert sim.metrics.handovers and calls[Simulation._on_inorder.__code__] > 1000
            advance = sim.flows["f1"].receiver.advance_cb
            assert not isinstance(advance, functools.partial) and advance == sim._on_inorder


def test_a_traced_run_renders_each_stamp_once_and_tries_no_mn_interval():
    # S1 PROACTIVE, traced: its MN downlinks cannot hand off, so a data
    # segment reaching the MN tries no MN interval; each new line time
    # renders one stamp, and only the runner's rare lines call `fmt_time`
    scenario = load_scenario(scenario_path("s1_wlan_to_sat"))
    calls, fmt_callers = Counter(), Counter()

    def on_profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
            if frame.f_code is fmt_time.__code__:
                fmt_callers[frame.f_back.f_code.co_filename] += 1

    previous = sys.getprofile()
    sys.setprofile(on_profile)
    try:  # the construction writes the first line
        sim = Simulation(scenario, mode="PROACTIVE", trace=True)
        sim.run()
    finally:
        sys.setprofile(previous)
    assert calls[Simulation._deliver_data.__code__] > 1000
    assert calls[Simulation._resume_mn_hand_off.__code__] == 0
    times = [line.split(" ", 1)[0] for line in sim.trace.lines]
    new_times = sum(t != prev for prev, t in zip([None] + times, times))
    assert 1000 < new_times < len(times)
    assert calls[Trace.restamp.__code__] == new_times
    per_packet = ("send", "rexmit", "deliver", "ack_tx", "ack_rx", "cwnd")
    rare = sum(line.split(" ", 2)[1] not in per_packet for line in sim.trace.lines)
    assert set(fmt_callers) == {runner.__file__} and sum(fmt_callers.values()) <= rare
