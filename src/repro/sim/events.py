"""Event objects and the pending-event queue.

The queue is a binary heap ordered by ``(time, sequence)``.  The sequence
number is a global monotonic counter, which gives two guarantees that the
rest of the simulator relies on:

* events at the same timestamp fire in the order they were scheduled
  (FIFO tie-breaking), and
* the execution order is fully deterministic for a fixed seed, because it
  never depends on object identity or hash ordering.

Heap entries are ``(time, seq, event)`` tuples rather than bare
:class:`Event` objects so that sift-up/sift-down comparisons stay at the
C level (tuple comparison) instead of calling a Python ``__lt__`` per
swap — on a datagram-heavy session that removes millions of interpreter
round-trips.  ``seq`` is unique, so the comparison never reaches the
third element and events never compare against each other.

Events can be cancelled in O(1); cancelled entries are skipped lazily
when popped, which is the standard "tombstone" technique from the
``heapq`` documentation.  Unlike the textbook version, the queue counts
its tombstones and compacts the heap in place once they outnumber the
live entries — a workload that schedules and cancels many timers (churn,
request timeouts) no longer grows the heap without bound.

Fire-and-forget events — the per-datagram delivery callbacks that
dominate a session — go through :meth:`EventQueue.schedule_pooled`,
which recycles :class:`Event` objects on a free-list and never hands the
instance to the caller, so recycling cannot invalidate a handle someone
still holds.  Pooled events also carry a single positional ``arg`` for
their callback, which lets the transport layer schedule deliveries
without allocating a closure per datagram.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class _NoArg:
    """Sentinel: the event's callback takes no argument."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NO_ARG>"


#: Shared sentinel distinguishing "no argument" from "argument is None".
_NO_ARG = _NoArg()

#: Compact the heap when tombstones outnumber live entries *and* the heap
#: is at least this long — tiny heaps are not worth the heapify.
_COMPACT_MIN = 64

#: Upper bound on the free-list, so a burst of in-flight datagrams does
#: not pin an arbitrarily large pile of dead Event objects.
_POOL_MAX = 4096


class Event:
    """A scheduled callback.

    Instances are handed back from :meth:`EventQueue.schedule` so callers
    can cancel the event later.  ``callback`` is invoked when the event
    fires — with no arguments, unless ``arg`` is set (pooled fast path),
    in which case it is invoked as ``callback(arg)``.
    """

    __slots__ = ("time", "seq", "callback", "arg", "cancelled", "label",
                 "poolable")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], label: str = "") -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.arg: Any = _NO_ARG
        self.cancelled = False
        self.label = label
        self.poolable = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True
        # Drop the references so cancelled events do not pin closures (and
        # everything they capture) in memory until they surface in the heap.
        self.callback = None
        self.arg = _NO_ARG

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        label = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time:.6f} seq={self.seq} {state}{label}>"


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        # Entries are (time, seq, Event); engine fast loops reach into
        # this list directly, so mutation must always be in place (the
        # list object is never rebound after construction).
        self._heap: list = []
        self._seq = 0
        self._live = 0
        self._dead = 0
        self._pool: list = []

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(self, time: float, callback: Callable[[], Any],
                 label: str = "") -> Event:
        """Enqueue ``callback`` to fire at absolute ``time``."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, label)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def schedule_pooled(self, time: float, callback: Callable[..., Any],
                        arg: Any = _NO_ARG, label: str = "") -> None:
        """Enqueue a fire-and-forget event, recycling pooled instances.

        No handle is returned — pooled events cannot be cancelled, which
        is exactly what makes recycling safe.  ``arg``, when given, is
        passed positionally to ``callback`` at fire time.
        """
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.arg = arg
            event.cancelled = False
            event.label = label
        else:
            event = Event(time, seq, callback, label)
            event.arg = arg
            event.poolable = True
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1

    def recycle(self, event: Event) -> None:
        """Return a fired pooled event to the free-list."""
        event.callback = None
        event.arg = _NO_ARG
        pool = self._pool
        if len(pool) < _POOL_MAX:
            pool.append(event)

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it has not fired yet."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1
            self._dead += 1
            if self._dead > self._live and len(self._heap) >= _COMPACT_MIN:
                self.compact()

    def compact(self) -> None:
        """Rebuild the heap without tombstones, in place.

        ``(time, seq)`` is a total order over entries, so re-heapifying
        the surviving tuples preserves the exact pop order.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        self._live -= 1
        return entry[2]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
        self._dead = 0

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
