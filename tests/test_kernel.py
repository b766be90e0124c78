import heapq
import itertools
from functools import partial

import pytest
from hypothesis import given, strategies as st

from satwin.kernel import Kernel, SchedulingError, fmt_time


def test_min_ordering():
    k = Kernel()
    fired = []
    k.schedule(2, lambda: fired.append("t2"))
    k.schedule(1, lambda: fired.append("t1"))
    k.run_until(10)
    assert fired == ["t1", "t2"]


def test_fifo_tie_break():
    k = Kernel()
    fired = []
    k.schedule(1, lambda: fired.append("A"))
    k.schedule(1, lambda: fired.append("B"))
    k.run_until(1)
    assert fired == ["A", "B"]


def test_simultaneous_events_rank_by_origin_first():
    # a segment's event ranks by the admission being processed (`origin`),
    # here ahead of the clock, before its key; any other event ranks by the
    # clock, whatever `origin` holds
    k = Kernel()
    fired = []
    for origin, label in ((5, "ahead"), (2, "behind")):
        k.origin, k.key = origin, next(k.seqs)
        k.schedule(9, lambda label=label: fired.append((label, k.now)))
    k.schedule(9, lambda: fired.append(("now", k.now)))
    k.run_until(9)
    assert fired == [("now", 9), ("behind", 9), ("ahead", 9)]


def test_simultaneous_events_of_one_origin_rank_by_key():
    # a segment's events take its key (`key`, drawn when the segment was
    # made), whenever a run schedules them; any other event draws a fresh
    # key, in the order events are scheduled
    k = Kernel()
    fired = []
    older, newer = next(k.seqs), next(k.seqs)
    k.run_until(5)
    k.origin = 5
    for key, label in ((newer, "newer"), (0, "fresh"), (older, "older"), (0, "fresher")):
        k.key = key
        k.schedule(9, lambda label=label: fired.append(label))
    k.run_until(9)
    assert fired == ["older", "newer", "fresh", "fresher"]


def test_a_key_serves_one_schedule():
    # `schedule` takes `key` for its one event and clears it: the next
    # event draws a fresh key, later than every key drawn before it
    k = Kernel()
    fired = []
    older = next(k.seqs)
    k.schedule(9, lambda: fired.append("timer"))
    k.key = older
    k.schedule(9, lambda: fired.append("segment"))
    assert k.key == 0
    k.schedule(9, lambda: fired.append("next timer"))
    k.run_until(9)
    assert fired == ["segment", "timer", "next timer"]


def test_a_keyless_event_ranks_by_the_clock_past_a_later_origin():
    # nothing puts `origin` back after an admission ahead of the clock
    # (the hop before a cut-through, a hand-off); an event without a key
    # scheduled then still ranks by the clock
    k = Kernel()
    fired = []
    k.run_until(1)
    k.origin, k.key = 3, next(k.seqs)
    k.schedule(9, lambda: fired.append("segment"))
    k.origin = 7  # a later admission, cut through to
    k.schedule(9, lambda: fired.append("timer"))
    k.run_until(9)
    assert fired == ["timer", "segment"]


def test_schedule_at_now_fires_before_later_events():
    k = Kernel()
    fired = []
    k.schedule(5, lambda: fired.append("later"))
    k.schedule(0, lambda: fired.append("now"))
    k.run_until(5)
    assert fired == ["now", "later"]


def test_schedule_in_past_is_hard_error():
    k = Kernel()
    k.schedule(10, lambda: None)
    k.run_until(10)
    with pytest.raises(SchedulingError):
        k.schedule(5, lambda: None)


def test_handler_scheduling_into_past_aborts_run():
    k = Kernel()
    k.schedule(10, lambda: k.schedule(5, lambda: None))
    with pytest.raises(SchedulingError):
        k.run_until(20)


def test_cancel_semantics():
    k = Kernel()
    fired = []
    eid = k.schedule(3, lambda: fired.append("x"))
    k.schedule(4, lambda: fired.append("y"))
    assert k.pending() == 2
    assert k.cancel(eid) is True
    assert k.pending() == 1
    assert k.cancel(eid) is False
    assert k.pending() == 1
    assert k.run_until(10) == 1
    assert fired == ["y"]
    assert k.pending() == 0


def test_cancel_fired_event_returns_false():
    k = Kernel()
    eid = k.schedule(1, lambda: None)
    k.schedule(2, lambda: None)
    k.run_until(1)
    assert k.pending() == 1
    assert k.cancel(eid) is False
    assert k.pending() == 1


def test_a_handler_takes_the_segment_its_entry_carries():
    # a set sixth slot is the handler's one argument; an empty one, none
    k = Kernel()
    got = []
    k.schedule(2, got.append, "link-rx")[5] = "seg"
    k.schedule(1, lambda: got.append("no argument"))
    assert k.run_until(5) == 2
    assert got == ["no argument", "seg"]


def test_run_until_empty_queue():
    k = Kernel()
    assert k.run_until(7) == 0
    assert k.now == 7


def test_run_until_boundary():
    k = Kernel()
    for t in (1, 2, 3, 9):
        k.schedule(t, lambda: None)
    assert k.run_until(3) == 3
    assert k.run_until(20) == 1


def test_handler_scheduling_within_run_is_processed():
    k = Kernel()
    fired = []

    def first():
        k.schedule(2, lambda: fired.append("child"))

    k.schedule(1, first)
    assert k.run_until(5) == 2
    assert fired == ["child"]


def test_clock_monotonic_for_handlers():
    k = Kernel()
    seen = []
    for t in (4, 1, 3, 1, 2):
        k.schedule(t, lambda: seen.append(k.now))
    k.run_until(10)
    assert seen == sorted(seen)


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
def test_events_fire_in_stable_sorted_order(times):
    k = Kernel()
    fired = []
    for i, t in enumerate(times):
        k.schedule(t, lambda i=i, t=t: fired.append((t, i)))
    k.run_until(1000)
    assert fired == sorted(fired)


def test_fmt_time():
    assert fmt_time(0) == "0.000000"
    assert fmt_time(2_515_036) == "2.515036"
    assert fmt_time(1) == "0.000001"


class CancelScheduleKernel:
    """Reference: the kernel's contract over `[t, seq, fn, kind, pending]`
    entries, with a flag for the tombstone."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seqs = itertools.count()
        self._live = 0

    def schedule(self, at, fn, kind="event"):
        if at < self.now:
            raise SchedulingError(kind)
        entry = [at, next(self._seqs), fn, kind, True]
        self._live += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        if not entry[4]:
            return False
        entry[4] = False
        self._live -= 1
        return True

    def pending(self):
        return self._live

    def run_until(self, t_end):
        steps = 0
        while self._heap and self._heap[0][0] <= t_end:
            entry = heapq.heappop(self._heap)
            if not entry[4]:
                continue
            entry[4] = False
            self._live -= 1
            self.now = entry[0]
            entry[2]()
            steps += 1
        self.now = max(self.now, t_end)
        return steps


# (operation, how far ahead to schedule, which handle to cancel or how far
# to run)
_OPS = st.tuples(st.sampled_from(["schedule", "schedule", "cancel", "run"]), st.integers(0, 40))


def _drive(kernel, outer, inner):
    """Apply `outer` between runs and one of `inner` inside each handler;
    return everything observable: firings with the now and pending()
    their handler saw, cancel results, pending() after every call and the
    step count of every run."""
    log, handles = [], []
    inner = iter(inner)

    def fire(label):
        log.append(("fire", label, kernel.now, kernel.pending()))
        op = next(inner, None)
        if op is not None and op[0] != "run":
            apply(*op)

    def apply(op, a):
        if op == "schedule" or not handles:
            handles.append(kernel.schedule(kernel.now + a, partial(fire, len(handles)), "k"))
        else:  # pending, fired or cancelled alike
            log.append(("cancel", kernel.cancel(handles[a % len(handles)])))
        log.append(("pending", kernel.pending()))

    for op, a in outer:
        if op == "run":
            log.append(("run", kernel.run_until(kernel.now + a), kernel.now))
        else:
            apply(op, a)
    log.append(("run", kernel.run_until(kernel.now + 1000), kernel.now))
    return log


@given(st.lists(_OPS, max_size=60), st.lists(_OPS, max_size=60))
def test_schedule_cancel_and_run_match_the_reference(outer, inner):
    assert _drive(Kernel(), outer, inner) == _drive(CancelScheduleKernel(), outer, inner)
