"""The per-segment path calls no generic builtin: comparisons in place of
`min`, `max` and `sum`, which cost a C call each (see `scripts/segment_ops.py`)."""

from conftest import SCENARIOS, cut, load_script, scenario_path

from satwin.kernel import SEC
from satwin.net import DirectedLink
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


def _profiled(scenario, mode):
    """The Python calls and C calls of one run, from `sys.setprofile`."""
    _, calls, c_calls = SEGMENT_OPS.count(Simulation(scenario, mode=mode), opcodes=False)
    return calls, c_calls


def _generic_builtins(c_calls):
    codes = {func.__code__: func.__qualname__ for func in PER_SEGMENT}
    return {(codes[code], name): n for (code, name), n in c_calls.items()
            if code in codes and name in ("min", "max", "sum")}


def test_no_min_max_or_sum_on_a_bulk_flow_that_overflows_and_recovers():
    job = SEGMENT_OPS.workloads.generate("bulk_reno", 1, SCENARIOS)[0]
    calls, c_calls = _profiled(cut(parse_scenario(job.text, job.name), 3 * SEC), job.mode)
    # the WLAN queue overflowed: out-of-order data was buffered, and the
    # sender went through fast recovery
    assert calls[TcpReceiver._insert_oob.__code__] > 0
    assert calls[TcpSender._on_dupack.__code__] > 0
    assert calls[TcpSender.try_send.__code__] > 1000
    assert _generic_builtins(c_calls) == {}


def test_no_min_max_or_sum_through_a_boost_a_drain_and_a_ramp():
    calls, c_calls = _profiled(load_scenario(scenario_path("s2_sat_to_wlan")), "PROACTIVE")
    for step in (_HandoverRuntime._boost, _HandoverRuntime._finish_drain, TcpReceiver.start_ramp):
        assert calls[step.__code__] > 0, step.__qualname__
    assert calls[TcpReceiver._emit_ack.__code__] > 1000
    assert _generic_builtins(c_calls) == {}
