"""Playback state machine and quality accounting.

A live viewer buffers a startup window, then plays chunks at real-time
rate; whenever the next chunk is incomplete at its deadline the player
stalls (rebuffers) until it arrives.  The monitor records startup delay,
stall count/duration and the continuity index — the fraction of chunk
deadlines met — which the protocol layer uses to decide when playback is
"satisfactory" (at which point PPLive drops its tracker-query rate to
once per five minutes).
"""

from __future__ import annotations

import enum
from typing import Optional

from ..obs import Instrumentation
from ..obs import resolve as resolve_obs
from .buffer import ChunkBuffer
from .chunks import ChunkGeometry


class PlayerState(enum.Enum):
    STARTUP = "startup"
    PLAYING = "playing"
    STALLED = "stalled"
    STOPPED = "stopped"

    def __str__(self) -> str:
        return self.value


class PlaybackMonitor:
    """Tracks playout progress against the receive buffer."""

    def __init__(self, geometry: ChunkGeometry, buffer: ChunkBuffer,
                 join_time: float, startup_chunks: int = 3,
                 obs: Optional[Instrumentation] = None,
                 obs_tags: Optional[dict] = None,
                 actor: Optional[str] = None,
                 span_parent: object = None) -> None:
        if startup_chunks < 1:
            raise ValueError("startup_chunks must be >= 1")
        self.geometry = geometry
        self.buffer = buffer
        self.join_time = join_time
        self.startup_chunks = startup_chunks
        self.state = PlayerState.STARTUP
        self.playout_chunk = buffer.first_chunk - 1
        self.playout_started_at: Optional[float] = None
        self.startup_delay: Optional[float] = None
        self.stall_count = 0
        self.stall_seconds = 0.0
        self._stall_began: Optional[float] = None
        self.deadlines_met = 0
        self.deadlines_missed = 0
        # Observability: no-op by default; series shared per tag set.
        obs = resolve_obs(obs)
        self._spans = obs.spans
        self._actor = actor
        self._span_parent = span_parent
        self._startup_span = None
        self._stall_span = None
        if self._spans.enabled:
            # Playback chain root: buffering from join until first play.
            self._startup_span = self._spans.start_span(
                "startup", "playback", join_time, parent=span_parent,
                actor=actor, startup_chunks=startup_chunks)
        metrics = obs.metrics
        self._m_deadlines_met = metrics.counter("streaming.deadlines_met",
                                                obs_tags)
        self._m_deadline_misses = metrics.counter(
            "streaming.deadline_misses", obs_tags)
        self._m_stalls = metrics.counter("streaming.stalls", obs_tags)
        self._h_startup_delay = metrics.histogram(
            "streaming.startup_delay_seconds",
            bounds=(1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0),
            tags=obs_tags)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Advance playout bookkeeping to time ``now``.

        Called periodically (and after data arrivals) by the peer.
        """
        if self.state is PlayerState.STOPPED:
            return
        if self.state is PlayerState.STARTUP:
            self._maybe_start(now)
            return
        self._consume_due_chunks(now)

    def stop(self, now: float) -> None:
        if self.state is PlayerState.STALLED and self._stall_began is not None:
            self.stall_seconds += now - self._stall_began
            self._stall_began = None
        if self._startup_span is not None and not self._startup_span.finished:
            # Viewer left before playback ever started.
            self._startup_span.finish(now, "stopped")
        if self._stall_span is not None:
            self._stall_span.finish(now, "stopped")
            self._stall_span = None
        self.state = PlayerState.STOPPED

    # ------------------------------------------------------------------
    # Quality metrics
    # ------------------------------------------------------------------
    @property
    def continuity_index(self) -> float:
        """Fraction of playout deadlines met so far (1.0 when none due)."""
        total = self.deadlines_met + self.deadlines_missed
        if total == 0:
            return 1.0
        return self.deadlines_met / total

    def is_satisfactory(self, threshold: float = 0.9) -> bool:
        """Whether playback quality passes the tracker-backoff threshold."""
        return (self.state is PlayerState.PLAYING
                and self.continuity_index >= threshold)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _maybe_start(self, now: float) -> None:
        target = self.buffer.first_chunk + self.startup_chunks - 1
        if self.buffer.have_until >= target:
            self.state = PlayerState.PLAYING
            self.playout_started_at = now
            self.startup_delay = now - self.join_time
            self._h_startup_delay.observe(self.startup_delay)
            if self._startup_span is not None:
                self._startup_span.finish(
                    now, startup_delay=round(self.startup_delay, 3))
            self.playout_chunk = self.buffer.first_chunk - 1
            self._consume_due_chunks(now)

    def _due_chunk(self, now: float) -> int:
        """Chunk index whose playout deadline has arrived at ``now``."""
        assert self.playout_started_at is not None
        effective_elapsed = (now - self.playout_started_at
                             - self.stall_seconds)
        if self.state is PlayerState.STALLED and self._stall_began is not None:
            effective_elapsed -= now - self._stall_began
        return (self.buffer.first_chunk
                + int(effective_elapsed / self.geometry.chunk_seconds))

    def _consume_due_chunks(self, now: float) -> None:
        due = self._due_chunk(now)
        while self.playout_chunk < due:
            next_chunk = self.playout_chunk + 1
            if self.buffer.has_chunk(next_chunk):
                if self.state is PlayerState.STALLED:
                    self._end_stall(now)
                self.playout_chunk = next_chunk
                self.deadlines_met += 1
                self._m_deadlines_met.inc()
                due = self._due_chunk(now)
            else:
                # Count the miss once, on the transition into the stall;
                # while stalled the deadline clock is frozen.
                if self.state is PlayerState.PLAYING:
                    self._begin_stall(now)
                    self.deadlines_missed += 1
                    self._m_deadline_misses.inc()
                break
        self.buffer.evict_before(self.playout_chunk)

    def _begin_stall(self, now: float) -> None:
        self.state = PlayerState.STALLED
        self.stall_count += 1
        self._m_stalls.inc()
        self._stall_began = now
        if self._spans.enabled:
            # The deadline miss is the instant; the stall it opens is
            # the interval the viewer experiences.
            self._spans.instant("deadline_miss", "playback", now,
                                parent=self._span_parent, actor=self._actor,
                                chunk=self.playout_chunk + 1)
            self._stall_span = self._spans.start_span(
                "stall", "playback", now, parent=self._span_parent,
                actor=self._actor, chunk=self.playout_chunk + 1)

    def _end_stall(self, now: float) -> None:
        if self._stall_began is not None:
            self.stall_seconds += now - self._stall_began
            self._stall_began = None
        if self._stall_span is not None:
            self._stall_span.finish(now)
            self._stall_span = None
        self.state = PlayerState.PLAYING
