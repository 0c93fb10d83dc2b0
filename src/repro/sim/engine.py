"""The discrete-event simulation engine.

:class:`Simulator` owns the clock, the pending-event queue, and the master
random-number router.  Model components schedule callbacks with
:meth:`call_at` / :meth:`call_after`, create repeating timers with
:meth:`every`, and read the current time from :attr:`now`.  Hot-path
components that never cancel their events use :meth:`post`, which
recycles pooled :class:`Event` objects and skips handle bookkeeping.

The engine is single-threaded and deterministic: with the same seed and
the same model code, two runs produce byte-identical traces.  The run
loops in :meth:`run_until` / :meth:`run` reach into the queue's heap
directly — one heap access per executed event instead of a
``peek_time()`` + ``pop()`` pair — and bind hot attributes to locals;
both are pure mechanics and cannot change event order, which is fixed by
the ``(time, seq)`` heap order alone.
"""

from __future__ import annotations

import math
from heapq import heappop
from time import perf_counter
from typing import Any, Callable, Optional

from .clock import Clock
from .errors import EngineStoppedError, SchedulingError
from .events import _NO_ARG, Event, EventQueue
from .random import RandomRouter


class Timer:
    """A repeating timer created by :meth:`Simulator.every`.

    The callback may call :meth:`stop` (or the engine may stop) to end the
    series.  ``jitter_fn``, when provided, is called before each rearm and
    its return value is added to the period — used by protocol code to
    de-synchronise gossip rounds across peers.
    """

    __slots__ = ("_sim", "_period", "_callback", "_jitter_fn",
                 "_label", "_event", "_stopped")

    def __init__(self, sim: "Simulator", period: float,
                 callback: Callable[[], Any],
                 jitter_fn: Optional[Callable[[], float]] = None,
                 label: str = "timer") -> None:
        if period <= 0:
            raise SchedulingError(f"timer period must be positive: {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter_fn = jitter_fn
        self._label = label
        self._event: Optional[Event] = None
        self._stopped = False
        self._arm()

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Cancel the timer; the callback will not fire again."""
        self._stopped = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _arm(self) -> None:
        delay = self._period
        if self._jitter_fn is not None:
            delay = max(1e-9, delay + self._jitter_fn())
        self._event = self._sim.call_after(delay, self._fire,
                                           label=self._label)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._arm()


class Simulator:
    """Deterministic single-threaded discrete-event simulator."""

    def __init__(self, seed: int = 0, start_time: float = 0.0,
                 profiler: Optional[Any] = None) -> None:
        self.clock = Clock(start_time)
        self.queue = EventQueue()
        self.random = RandomRouter(seed)
        self.seed = seed
        self._running = False
        self._stopped = False
        self.events_executed = 0
        #: Optional :class:`repro.obs.EngineProfiler`; when set, every
        #: executed event is wall-clock-accounted under its label.
        self.profiler = profiler

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[[], Any],
                label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if self._stopped:
            raise EngineStoppedError("cannot schedule on a stopped engine")
        if time < self.clock._now:
            raise SchedulingError(
                f"cannot schedule at {time:.6f}, now is {self.now:.6f}")
        return self.queue.schedule(time, callback, label)

    def call_after(self, delay: float, callback: Callable[[], Any],
                   label: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` seconds (>= 0)."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self.call_at(self.clock._now + delay, callback, label)

    def post(self, time: float, callback: Callable[..., Any],
             arg: Any = _NO_ARG, label: str = "") -> None:
        """Schedule a fire-and-forget callback at absolute ``time``.

        The pooled counterpart of :meth:`call_at`: no :class:`Event`
        handle is returned, so the event cannot be cancelled, and the
        queue recycles the Event object after it fires.  ``arg``, when
        given, is passed positionally to ``callback`` — hot paths use it
        instead of allocating a closure per scheduled call.
        """
        if self._stopped:
            raise EngineStoppedError("cannot schedule on a stopped engine")
        if time < self.clock._now:
            raise SchedulingError(
                f"cannot schedule at {time:.6f}, now is {self.now:.6f}")
        self.queue.schedule_pooled(time, callback, arg, label)

    def every(self, period: float, callback: Callable[[], Any],
              jitter_fn: Optional[Callable[[], float]] = None,
              label: str = "timer") -> Timer:
        """Create a repeating :class:`Timer` firing every ``period`` seconds.

        ``label`` tags the timer's events for the profiler's
        per-subsystem time attribution (``repro.obs.attribution``); it
        never affects event order.
        """
        return Timer(self, period, callback, jitter_fn, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event."""
        self.queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        """Invoke one popped live event and retire it.

        The single definition of dispatch semantics, shared by
        :meth:`step`, :meth:`run_until` and :meth:`run`: profiler
        accounting around the callback, the ``arg is _NO_ARG`` calling
        convention, recycling for pooled events, and consumed-marking
        for handle events (so a later ``cancel()`` of a fired handle —
        a Timer stopping itself from its own callback, a timeout
        cleared after it fired — does not decrement the live count
        again).  The caller has already popped the event, advanced the
        clock and counted it in ``events_executed``.
        """
        callback = event.callback
        arg = event.arg
        if callback is not None:
            profiler = self.profiler
            if profiler is None:
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
            else:
                started = perf_counter()
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
                profiler.record(event.label, perf_counter() - started)
        if event.poolable:
            self.queue.recycle(event)
        else:
            event.cancel()

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self.events_executed += 1
        self._dispatch(event)
        return True

    def run_until(self, end_time: float,
                  max_events: Optional[int] = None) -> int:
        """Run events with timestamps <= ``end_time``.

        Returns the number of events executed.  The clock is left at
        ``end_time`` when the window completes — even if the queue
        drained earlier — so back-to-back ``run_until`` calls observe
        contiguous time.  If the ``max_events`` bound stops the run
        while events due before ``end_time`` are still queued, the
        clock stays at the last executed event so those events are not
        silently skipped over.
        """
        clock = self.clock
        if end_time < clock._now:
            raise SchedulingError(
                f"end_time {end_time:.6f} is before now {self.now:.6f}")
        executed = 0
        self._running = True
        # The queue mutates its heap strictly in place (push/compact/
        # clear), so holding a local alias across callbacks is safe.
        queue = self.queue
        heap = queue._heap
        dispatch = self._dispatch
        pop = heappop
        bound = math.inf if max_events is None else max_events
        try:
            while heap:
                if executed >= bound:
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    queue._dead -= 1
                    continue
                time = entry[0]
                if time > end_time:
                    break
                pop(heap)
                queue._live -= 1
                # Heap order makes `time` non-decreasing; write the clock
                # directly instead of re-checking monotonicity per event.
                clock._now = time
                self.events_executed += 1
                dispatch(event)
                executed += 1
        finally:
            self._running = False
        next_time = queue.peek_time()
        if next_time is None or next_time > end_time:
            clock.advance_to(end_time)
        return executed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue is empty (or ``max_events`` is reached)."""
        executed = 0
        self._running = True
        clock = self.clock
        queue = self.queue
        heap = queue._heap
        dispatch = self._dispatch
        pop = heappop
        bound = math.inf if max_events is None else max_events
        try:
            while heap:
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    queue._dead -= 1
                    continue
                pop(heap)
                queue._live -= 1
                clock._now = entry[0]
                self.events_executed += 1
                dispatch(event)
                executed += 1
                if executed >= bound:
                    break
        finally:
            self._running = False
        return executed

    def stop(self) -> None:
        """Permanently stop the engine and drop all pending events."""
        self._stopped = True
        self.queue.clear()

    @property
    def stopped(self) -> bool:
        return self._stopped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self.now:.3f} pending={len(self.queue)} "
                f"executed={self.events_executed}>")
