from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, strategies as st

from satwin.kernel import SEC, fmt_time
from satwin.metrics import FlowLines, FlowMetrics, Trace
from satwin.net import ACCESS_KINDS, Segment
from satwin.tcp import CONG_AVOID, FAST_RECOVERY, SLOW_START


def gap_from_all_times(times, start, end):
    """Reference: the gap computed from the list of every advance time."""
    points = [start] + [t for t in times if start <= t <= end] + [end]
    return max(b - a for a, b in zip(points, points[1:]))


def streamed_gap(times, window):
    fm = FlowMetrics("f", start=0, gap_window=window)
    for t in times:
        fm.note_inorder(t)
    return fm.handover_gap()


def test_streaming_gap_at_the_window_edges():
    window = (1000, 6000)
    assert streamed_gap([], window) == 5000  # no advance: the whole window
    assert streamed_gap([999, 6001], window) == 5000  # just outside both edges
    assert streamed_gap([1000, 6000], window) == 5000  # on both edges
    assert streamed_gap([999, 1000, 1000, 2000], window) == 4000  # silence up to the end
    assert streamed_gap([500, 1200, 5900, 7000], window) == 4700
    assert streamed_gap([3000], (3000, 3000)) == 0  # window clipped to the run's end


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=40).map(sorted),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=5_000),
)
def test_streaming_gap_matches_the_list_reference(times, start, length):
    window = (start, start + length)
    assert streamed_gap(times, window) == gap_from_all_times(times, *window)


def _seg(flow, path="WLAN", **fields):
    """A segment whose route ends on a downlink of kind `path`."""
    downlink = SimpleNamespace(spec=SimpleNamespace(kind=path))
    return Segment(flow, route=(downlink,), **fields)


def test_trace_renders_the_time_of_every_line():
    # t1, t2, t1: a line at a time seen before still renders its own time,
    # whichever writer wrote the line before it
    t1, t2 = 0, 2_515_036
    trace = Trace()
    f1 = FlowLines(trace, "f1", "CN", "MN")
    data = _seg("f1", seq=0, payload_len=1460)
    ack = _seg("f1", ack=1460, rwnd=65536, flags=0)
    trace.emit(t1, "flow_start", "CN", flow="f1")
    f1.send(data, t1)
    f1.deliver(data, t2)
    trace.emit(t2, "attach", "MN", network="SAT")
    f1.ack_tx(ack, t1)
    trace.emit(t2, "deliver", "MN")
    f1.ack_rx(ack, t1)
    f1.cwnd(SimpleNamespace(cwnd=4380, ssthresh=65536, phase="SS", snd_una=1460), t2)
    trace.emit(t1, "ack_tx", "MN", ack=1460)
    f1.send(replace(data, rexmit=True), t2)
    assert trace.lines == [
        "0.000000 flow_start CN flow=f1",
        "0.000000 send CN flow=f1 seq=0 len=1460",
        "2.515036 deliver MN flow=f1 seq=0 len=1460 path=WLAN",
        "2.515036 attach MN network=SAT",
        "0.000000 ack_tx MN flow=f1 ack=1460 rwnd=65536 flags=0",
        "2.515036 deliver MN",
        "0.000000 ack_rx CN flow=f1 ack=1460 rwnd=65536",
        "2.515036 cwnd CN flow=f1 cwnd=4380 ssthresh=65536 phase=SS una=1460",
        "0.000000 ack_tx MN ack=1460",
        "2.515036 rexmit CN flow=f1 seq=0 len=1460",
    ]


_FLOWS = (("f1", "CN"), ("f2", "CN"), ("f3", "WGW"))  # each flow's name and source
# values that change and change back: a few of each, and now and then any int
_some = st.sampled_from([0, 1460, 65536]) | st.integers(0, 2**40)
_record = st.fixed_dictionaries({
    "seq": _some, "len": st.sampled_from([0, 536, 1460]), "path": st.sampled_from(ACCESS_KINDS),
    "ack": _some, "rwnd": st.sampled_from([0, 1460, 65536]), "flags": st.sampled_from([0, 16, 17]),
    "cwnd": _some, "ssthresh": st.sampled_from([2920, 65536]), "una": _some,
    "phase": st.sampled_from([SLOW_START, CONG_AVOID, FAST_RECOVERY]),
})
# times on both sides of whole seconds, and any time
_times = (st.builds(lambda s, d: max(s * SEC + d, 0), st.integers(0, 3), st.integers(-2, 1))
          | st.integers(0, 10**10))
_KINDS = ("send", "rexmit", "deliver", "ack_tx", "ack_rx", "cwnd", "rto")


def _write(writer, trace, kind, flow, src, t, r):
    """Write one line with `writer` (or `trace.emit` for the rare kind); return
    its node and its fields in order."""
    if kind in ("send", "rexmit"):
        writer.send(_seg(flow, seq=r["seq"], payload_len=r["len"], rexmit=kind == "rexmit"), t)
        return src, {"flow": flow, "seq": r["seq"], "len": r["len"]}
    if kind == "deliver":
        writer.deliver(_seg(flow, r["path"], seq=r["seq"], payload_len=r["len"]), t)
        return "MN", {"flow": flow, "seq": r["seq"], "len": r["len"], "path": r["path"]}
    if kind == "ack_tx":
        writer.ack_tx(_seg(flow, ack=r["ack"], rwnd=r["rwnd"], flags=r["flags"]), t)
        return "MN", {"flow": flow, "ack": r["ack"], "rwnd": r["rwnd"], "flags": r["flags"]}
    if kind == "ack_rx":
        writer.ack_rx(_seg(flow, ack=r["ack"], rwnd=r["rwnd"]), t)
        return src, {"flow": flow, "ack": r["ack"], "rwnd": r["rwnd"]}
    if kind == "cwnd":
        writer.cwnd(SimpleNamespace(cwnd=r["cwnd"], ssthresh=r["ssthresh"], phase=r["phase"],
                                    snd_una=r["una"]), t)
        return src, {"flow": flow, "cwnd": r["cwnd"], "ssthresh": r["ssthresh"],
                     "phase": r["phase"], "una": r["una"]}
    trace.emit(t, kind, src, flow=flow, rto=r["seq"])
    return src, {"flow": flow, "rto": r["seq"]}


@given(st.integers(2, len(_FLOWS)).flatmap(lambda flows: st.lists(
    st.tuples(_times, st.sampled_from(_KINDS), st.integers(0, flows - 1), _record),
    min_size=1, max_size=40)))
def test_trace_tail_renders_like_keywords(events):
    # the writers of several flows and the rare `emit` share one trace, so a
    # field group's text or a seconds prefix left from an earlier line shows
    with_writers, with_keywords = Trace(), Trace()
    writers = [FlowLines(with_writers, flow, src, "MN") for flow, src in _FLOWS]
    expected = []
    for t, kind, i, record in events:
        flow, src = _FLOWS[i]
        node, kv = _write(writers[i], with_writers, kind, flow, src, t, record)
        with_keywords.emit(t, kind, node, **kv)
        expected.append(f"{fmt_time(t)} {kind} {node} " + " ".join(f"{k}={v}" for k, v in kv.items()))
    assert with_writers.lines == with_keywords.lines == expected
    assert with_writers.text().encode() == with_keywords.text().encode()


@given(st.lists(st.integers(0, 2**62) | _times, min_size=1, max_size=20))
def test_the_stamp_renders_like_fmt_time(times):
    trace = Trace()
    for t in times:
        assert trace.restamp(t) == fmt_time(t)
        assert (trace.t, trace.stamp) == (t, fmt_time(t))


def _old_fmt_time(t_us):
    """The formula fmt_time used before it rendered with `%`."""
    sign = "-" if t_us < 0 else ""
    t_us = abs(t_us)
    return f"{sign}{t_us // SEC}.{t_us % SEC:06d}"


@given(st.sampled_from([0, 1, -1, 999_999, -999_999, SEC, -SEC, 2**40, -(2**40) - 7])
       | st.integers(-SEC, SEC) | st.integers(2**40, 2**62) | st.integers(-(2**62), -(2**40)))
def test_fmt_time_renders_like_the_old_formula(t_us):
    assert fmt_time(t_us) == _old_fmt_time(t_us)
