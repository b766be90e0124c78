from hypothesis import given, strategies as st

from satwin.kernel import SEC, fmt_time
from satwin.metrics import FlowMetrics, Trace


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


def test_trace_renders_the_time_of_every_line():
    # t1, t2, t1: a line at a time seen before still renders its own time,
    # whichever method wrote the line before it
    t1, t2 = 0, 2_515_036
    trace = Trace()
    trace.emit(t1, "flow_start", "CN", flow="f1")
    trace.send(t1, "send", "CN", "f1", 0, 1460)
    trace.deliver(t2, "MN", "f1", 0, 1460, "WLAN")
    trace.emit(t2, "attach", "MN", network="SAT")
    trace.ack_tx(t1, "MN", "f1", 1460, 65536, 0)
    trace.emit(t2, "deliver", "MN")
    trace.ack_rx(t1, "CN", "f1", 1460, 65536)
    trace.cwnd(t2, "CN", "f1", 4380, 65536, "SS", 1460)
    trace.emit(t1, "ack_tx", "MN", ack=1460)
    trace.send(t2, "rexmit", "CN", "f1", 0, 1460)
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


# each per-packet kind: the method writing it, the arguments it takes
# before the values, and the keys of its values in the order they are passed
_KINDS = {
    "send": (Trace.send, ("send",), ("flow", "seq", "len")),
    "rexmit": (Trace.send, ("rexmit",), ("flow", "seq", "len")),
    "ack_tx": (Trace.ack_tx, (), ("flow", "ack", "rwnd", "flags")),
    "deliver": (Trace.deliver, (), ("flow", "seq", "len", "path")),
    "ack_rx": (Trace.ack_rx, (), ("flow", "ack", "rwnd")),
    "cwnd": (Trace.cwnd, (), ("flow", "cwnd", "ssthresh", "phase", "una")),
}
_values = st.lists(st.integers() | st.text(max_size=6), min_size=5, max_size=5)


@given(st.lists(st.tuples(st.sampled_from([0, 1, 999_999, 2_515_036]) | st.integers(0, 10**10),
                          st.sampled_from(sorted(_KINDS)), st.sampled_from(["CN", "MN", "HA"]),
                          _values),
                min_size=1, max_size=30))
def test_trace_tail_renders_like_keywords(events):
    with_methods, with_keywords = Trace(), Trace()
    expected = []
    for t, kind, node, values in events:
        method, event, keys = _KINDS[kind]
        kv = dict(zip(keys, values))
        method(with_methods, t, *event, node, *kv.values())
        with_keywords.emit(t, kind, node, **kv)
        expected.append(f"{fmt_time(t)} {kind} {node} " + " ".join(f"{k}={v}" for k, v in kv.items()))
    assert with_methods.lines == with_keywords.lines == expected
    assert with_methods.text().encode() == with_keywords.text().encode()


def _old_fmt_time(t_us):
    """The formula fmt_time used before it rendered with `%`."""
    sign = "-" if t_us < 0 else ""
    t_us = abs(t_us)
    return f"{sign}{t_us // SEC}.{t_us % SEC:06d}"


@given(st.sampled_from([0, 1, -1, 999_999, -999_999, SEC, -SEC, 2**40, -(2**40) - 7])
       | st.integers(-SEC, SEC) | st.integers(2**40, 2**62) | st.integers(-(2**62), -(2**40)))
def test_fmt_time_renders_like_the_old_formula(t_us):
    assert fmt_time(t_us) == _old_fmt_time(t_us)
