from hypothesis import given, strategies as st

from satwin.kernel import fmt_time
from satwin.metrics import FlowMetrics, Trace


def gap_from_all_times(times, start, end):
    """Reference: the gap computed from the list of every advance time."""
    points = [start] + [t for t in times if start <= t <= end] + [end]
    return max(b - a for a, b in zip(points, points[1:]))


def streamed_gap(times, window):
    fm = FlowMetrics("f", start=0, gap_window=window)
    for delivered, t in enumerate(times, 1):
        fm.note_inorder(delivered, t)
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
    # t1, t2, t1: a line at a time seen before still renders its own time
    trace = Trace()
    trace.emit(0, "send", "CN", flow="f1", seq=0)
    trace.emit(2_515_036, "deliver", "MN")
    trace.emit(0, "ack_tx", "MN", ack=1460)
    assert trace.lines == ["0.000000 send CN flow=f1 seq=0", "2.515036 deliver MN",
                           "0.000000 ack_tx MN ack=1460"]


# the keys of the per-packet kinds, in the order their values are passed
_KEYS = {
    "send": ("flow", "seq", "len"),
    "rexmit": ("flow", "seq", "len"),
    "ack_tx": ("flow", "ack", "rwnd", "flags"),
    "deliver": ("flow", "seq", "len", "path"),
    "ack_rx": ("flow", "ack", "rwnd"),
    "cwnd": ("flow", "cwnd", "ssthresh", "phase", "una"),
}
_values = st.lists(st.integers() | st.text(max_size=6), min_size=5, max_size=5)


@given(st.lists(st.tuples(st.sampled_from([0, 1, 999_999, 2_515_036]) | st.integers(0, 10**10),
                          st.sampled_from(sorted(_KEYS)), st.sampled_from(["CN", "MN", "HA"]),
                          _values),
                min_size=1, max_size=30))
def test_trace_tail_renders_like_keywords(events):
    with_values, with_keywords = Trace(), Trace()
    expected = []
    for t, kind, node, values in events:
        kv = dict(zip(_KEYS[kind], values))
        with_values.emit(t, kind, node, *kv.values())
        with_keywords.emit(t, kind, node, **kv)
        expected.append(f"{fmt_time(t)} {kind} {node} " + " ".join(f"{k}={v}" for k, v in kv.items()))
    assert with_values.lines == with_keywords.lines == expected
