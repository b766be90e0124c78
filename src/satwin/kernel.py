"""Deterministic discrete-event kernel.

Time is integer microseconds throughout the simulator: event ordering is
exact on every platform, with no floating-point drift. Simultaneous events
rank by their origin, the moment the all-events reference
(`Simulation._shortcuts` skipped, an event at every hop) schedules them,
and then by their key. A segment's events take its key, drawn when the
segment is made, and as origin `Kernel.origin`, the admission being
processed (`net.DirectedLink.transmit` sets it); every other event takes
the clock and a fresh key. Every draw happens in an event that runs on
every run, in one order, and nothing a run takes ahead of time draws, so
every run ranks its events as the reference does.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator

SEC = 1_000_000
_DONE = ()  # an event entry's fifth slot once it has fired or been cancelled


def fmt_time(t_us: int) -> str:
    """Render microseconds as decimal seconds with fixed 6-digit precision."""
    if t_us < 0:
        return "-%d.%06d" % divmod(-t_us, SEC)
    return "%d.%06d" % divmod(t_us, SEC)


class SimError(Exception):
    """Internal invariant violation, exit code 3 in the CLI; `Simulation.run` locates it."""

    event: str | None = None  # the kind of the event it left, set by `Kernel.run_until`


class SchedulingError(SimError):
    """Raised when a handler schedules an event in the past (a logic bug)."""


class Kernel:
    """Virtual clock plus an ordered, cancellable event queue: a heap of
    `[t, rank, fn, kind, done, seg]` entries in (time, origin, key) order,
    where `rank` is `origin << 40 | key` (one int compares faster than a
    pair; a run draws fewer than 2**38 keys); `schedule` returns the entry
    as the event's handle, and clears `key` once it has ranked one event.
    `done` is None while the event is pending and `_DONE` once it fired or
    was cancelled: a tombstone the run loop skips. An entry never moves; a
    timer whose deadline moves later keeps its deadline itself and queues
    itself again when it fires early. The sixth slot is None, or the
    segment a `link-rx` entry carries, which `net` writes: `run_until`
    calls the handler with it, or with no argument when it is None.

    Single-threaded by design: one kernel per simulation instance, no shared
    mutable state. The model draws nothing at random, so a run's seed only
    labels it (`Simulation.seed`, the CSV's `seed` column) and no PRNG lives here.
    """

    FIRST_HOP_DROP = 2  # a segment's key plus this ranks a drop at a hand-off's first hop

    def __init__(self):
        self.now: int = 0
        self.origin: int = 0  # the admission being processed: a segment's events rank by it
        self.key = 0  # the segment's key, for the next `schedule` alone
        self._heap: list[list] = []  # [fire_at, origin << 40 | key, fn, kind, done, seg]
        # fresh keys, multiples of 4, so no key plus FIRST_HOP_DROP is another's
        self.seqs = itertools.count(4, 4)
        self._live = 0

    def schedule(self, at: int, fn: Callable[..., None], kind: str = "event") -> list:
        if at < self.now:
            raise SchedulingError(f"event {kind!r} scheduled at {fmt_time(at)}, before the clock")
        key = self.key
        if key:  # a segment's event
            self.key = 0
            entry = [at, self.origin << 40 | key, fn, kind, None, None]
        else:
            entry = [at, self.now << 40 | next(self.seqs), fn, kind, None, None]
        self._live += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> bool:
        """True if the event was still pending; cancelled events never fire."""
        if entry[4] is _DONE:
            return False
        entry[4] = _DONE
        self._live -= 1
        return True

    def pending(self) -> int:
        return self._live

    def pending_entries(self, kind: str) -> Iterator[list]:
        """The entries of every pending event of `kind`, in no set order."""
        return (e for e in self._heap if e[3] == kind and e[4] is not _DONE)

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_at <= t_end, in (time, origin, key) order.

        Handlers may enqueue further events at or before t_end; those are
        processed in this run too. Returns the number of events executed.
        On return the clock sits at t_end, or at the event a `SimError` left.
        """
        steps = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and heap[0][0] <= t_end:
                entry = pop(heap)
                if entry[4] is _DONE:
                    continue
                entry[4] = _DONE
                self._live -= 1
                self.now = entry[0]
                seg = entry[5]
                if seg is None:
                    entry[2]()
                else:
                    entry[2](seg)
                steps += 1
        except SimError as exc:
            exc.event = entry[3]
            raise
        if t_end > self.now:
            self.now = t_end
        return steps
