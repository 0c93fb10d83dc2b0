"""Chunk/sub-piece request scheduling.

The scheduler turns "which sub-pieces am I missing before the live edge"
into concrete :class:`DataRequest` messages addressed to neighbors.  Its
neighbor choice is the second half of the paper's locality mechanism:

* eligibility is availability-based (the neighbor's *extrapolated*
  advertised progress must cover the chunk),
* among eligible neighbors the pick is weighted by observed
  responsiveness, ``weight = ewma_response ** -beta``, with an
  epsilon-greedy exploration floor so newcomers get sampled,
* misses and timeouts feed back into the neighbor's availability bias and
  EWMA, so stale or overloaded neighbors fade out naturally.

Because nearby (same-ISP) neighbors systematically answer faster, this
purely latency-driven feedback concentrates requests on them — producing
both the ISP-level byte locality (Figs 2-5) and the stretched-exponential
per-neighbor request distribution with its RTT anticorrelation
(Figs 11-18) without ever consulting topology information.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..obs import Instrumentation
from ..obs import resolve as resolve_obs
from ..sim.engine import Simulator
from ..sim.random import weighted_choice
from ..streaming.buffer import ChunkBuffer
from ..streaming.chunks import ChunkGeometry
from .config import ProtocolConfig
from .neighbors import NeighborState, NeighborTable

#: Callback the owning peer supplies to actually transmit a request:
#: (neighbor_address, chunk, first, last, seq) -> None
SendRequestFn = Callable[[str, int, int, int, int], None]

#: Optional batch counterpart: one call with the whole tick's issues,
#: each a (neighbor_address, chunk, first, last, seq) tuple, so the
#: owning peer can hand the cohort to the transport in one pass.
SendRequestsFn = Callable[[List[tuple]], None]


class RequestRateLimiter:
    """Per-requester token bucket for the serve side of the data plane.

    One bucket per requesting address, refilled continuously at ``rate``
    tokens/second up to ``burst``.  ``allow`` spends one token and
    returns False when the bucket is dry — the caller drops (and may
    strike) the request.  Pure arithmetic on the simulation clock: no
    RNG, no timers, so an idle limiter costs nothing and a busy one
    stays deterministic.
    """

    __slots__ = ("rate", "burst", "_buckets")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        #: address -> (tokens, last_refill_time)
        self._buckets: Dict[str, tuple] = {}

    def allow(self, address: str, now: float) -> bool:
        entry = self._buckets.get(address)
        if entry is None:
            tokens = self.burst
        else:
            tokens, last = entry
            tokens = min(self.burst, tokens + (now - last) * self.rate)
        if tokens < 1.0:
            self._buckets[address] = (tokens, now)
            return False
        self._buckets[address] = (tokens - 1.0, now)
        return True

    def forget(self, address: str) -> None:
        self._buckets.pop(address, None)


@dataclass
class PendingRequest:
    """One in-flight data request."""

    seq: int
    neighbor: str
    chunk: int
    first: int
    last: int
    sent_at: float
    timeout_event: object = None
    to_source: bool = False
    span: object = None


class DataScheduler:
    """Plans and tracks data requests for one viewing session."""

    def __init__(self, sim: Simulator, config: ProtocolConfig,
                 geometry: ChunkGeometry, buffer: ChunkBuffer,
                 neighbors: NeighborTable, send_request: SendRequestFn,
                 source_address: Optional[str] = None,
                 rng: Optional[random.Random] = None,
                 obs: Optional[Instrumentation] = None,
                 obs_tags: Optional[dict] = None,
                 actor: Optional[str] = None,
                 span_parent: object = None,
                 send_requests: Optional[SendRequestsFn] = None) -> None:
        self.sim = sim
        self.config = config
        self.geometry = geometry
        self.buffer = buffer
        self.neighbors = neighbors
        self.send_request = send_request
        self.send_requests = send_requests
        self.source_address = source_address
        self._rng = rng if rng is not None else sim.random.stream("scheduler")
        self._pending: Dict[int, PendingRequest] = {}
        #: chunk -> bitmask of sub-pieces currently covered by in-flight
        #: requests (bit i == sub-piece i), mirroring the buffer's
        #: internal representation so planning is pure integer math.
        self._requested: Dict[int, int] = {}
        self._next_seq = 1
        self._source_inflight = 0
        self._source_cooldown_until = 0.0
        #: Window chunks with no plannable sub-piece run: every missing
        #: sub-piece is already covered by an in-flight request.  A
        #: chunk leaves the set when a request over it settles or the
        #: buffer is replaced, so later ticks skip it without a scan.
        self._saturated: set = set()
        # Accounting
        self.requests_issued = 0
        self.requests_to_source = 0
        self.replies_handled = 0
        self.misses_handled = 0
        self.timeouts = 0
        self.duplicate_replies = 0
        self.poisoned_rejected = 0
        # Observability: series shared per tag set (usually per ISP).
        obs = resolve_obs(obs)
        self._spans = obs.spans
        self._actor = actor
        self._span_parent = span_parent
        metrics = obs.metrics
        self._m_requests = metrics.counter("proto.data_requests_issued",
                                           obs_tags)
        self._m_to_source = metrics.counter("proto.data_requests_to_source",
                                            obs_tags)
        self._m_timeouts = metrics.counter("proto.data_request_timeouts",
                                           obs_tags)
        self._m_misses = metrics.counter("proto.data_request_misses",
                                         obs_tags)
        self._m_cooldowns = metrics.counter("proto.neighbor_cooldowns",
                                            obs_tags)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return len(self._pending)

    def tick(self, live_chunk: int, playout_chunk: int,
             urgent_until: Optional[int] = None) -> None:
        """Issue requests for missing data inside the prefetch window.

        The window spans from the buffer frontier up to
        ``playout + prefetch_chunks``, clipped at the live edge — the
        client fills a bounded look-ahead buffer rather than racing to
        the newest chunk, which is what creates the lag gradient the
        swarm redistributes along.
        """
        self._drop_stale_bookkeeping()
        if live_chunk < self.buffer.first_chunk:
            return
        window_top = min(live_chunk,
                         playout_chunk + self.config.prefetch_chunks)
        if urgent_until is None:
            urgent_chunks = max(
                1, math.ceil(self.config.urgent_deadline
                             / self.geometry.chunk_seconds))
            urgent_until = playout_chunk + urgent_chunks
        chunk = self.buffer.have_until + 1
        budget = self.config.total_inflight - self.inflight
        if budget <= 0 or chunk > window_top:
            return
        # Availability and cooldown are stable within one tick: evaluate
        # each neighbor once here instead of per candidate chunk.
        availability, max_est = self._availability_snapshot()
        saturated = self._saturated
        issues = None
        while chunk <= window_top and budget > 0:
            if chunk in saturated:
                chunk += 1
                continue
            is_urgent = chunk <= urgent_until
            beyond_neighbors = chunk > max_est
            if beyond_neighbors:
                # No neighbor's estimate reaches the chunk, so only the
                # source can take it: resolve that draw-free fallback
                # before paying for the sub-piece scan, since it usually
                # declines.
                target = self._source_fallback(is_urgent)
                if target is None:
                    chunk += 1
                    continue
            run = self._next_missing_run(chunk)
            if run is None:
                saturated.add(chunk)
                chunk += 1
                continue
            if not beyond_neighbors:
                target = self._pick_neighbor(chunk, is_urgent, availability)
                if target is None:
                    chunk += 1
                    continue
            first, last = run
            issue = self._issue(target, chunk, first, last)
            if issues is None:
                issues = [issue]
            else:
                issues.append(issue)
            budget -= 1
            # Allow several batches of the same chunk in one tick, going
            # to (possibly) different neighbors.
        if issues is None:
            return
        # Transmit after planning completes: the tick's requests form
        # one send cohort.  Loss/jitter/scheduler RNG streams are
        # independent, so deferring the sends draws the same values.
        send_requests = self.send_requests
        if send_requests is not None and len(issues) > 1:
            send_requests(issues)
        else:
            send_request = self.send_request
            for address, issued_chunk, first, last, seq in issues:
                send_request(address, issued_chunk, first, last, seq)

    def _availability_snapshot(self) -> tuple:
        """``(snapshot, max_est)`` for the current tick.

        ``snapshot`` holds ``(estimated_have, have_from, state)`` per
        usable neighbor (not the source, not cooling down, with a
        non-negative estimate), in table order; ``max_est`` is the
        largest estimate in it, or -1 when it is empty.  No chunk above
        ``max_est`` has an eligible neighbor.
        """
        now = self.sim.now
        cfg = self.config
        chunk_seconds = self.geometry.chunk_seconds
        slope = cfg.availability_slope
        margin = cfg.availability_margin
        max_extrapolation = cfg.max_extrapolation_chunks
        source = self.source_address
        snapshot = []
        append = snapshot.append
        max_est = -1
        for state in self.neighbors:
            if state.address == source or state.cooldown_until > now:
                continue
            est = state.estimated_have(now, chunk_seconds, slope, margin,
                                       max_extrapolation)
            if est >= 0:
                append((est, state.reported_from, state))
                if est > max_est:
                    max_est = est
        return snapshot, max_est

    def _next_missing_run(self, chunk: int) -> Optional[tuple]:
        """Longest contiguous run of unrequested missing sub-pieces.

        Pure bitmask arithmetic: lowest missing-and-unrequested bit,
        then the run of consecutive set bits above it, capped at
        ``subpieces_per_request`` — identical to walking the ascending
        missing list, without materialising it.
        """
        missing = self.buffer.missing_mask(chunk)
        if not missing:
            return None
        covered = self._requested.get(chunk)
        if covered:
            missing &= ~covered
            if not missing:
                return None
        first = (missing & -missing).bit_length() - 1
        run = missing >> first
        # Number of trailing set bits of `run` (bit 0 is set).
        trailing = (~run & (run + 1)).bit_length() - 1
        limit = self.config.subpieces_per_request
        if trailing > limit:
            trailing = limit
        return first, first + trailing - 1

    def _pick_neighbor(self, chunk: int, is_urgent: bool,
                       availability: List[tuple]
                       ) -> Optional[NeighborState]:
        limit = self.config.per_neighbor_inflight
        eligible = [state for est, have_from, state in availability
                    if est >= chunk >= have_from
                    and state.inflight < limit]
        if not eligible:
            return self._source_fallback(is_urgent)
        if self._rng.random() < self.config.exploration_epsilon:
            return self._rng.choice(eligible)
        weights = [self._weight(s) for s in eligible]
        return weighted_choice(self._rng, eligible, weights)

    def _weight(self, state: NeighborState) -> float:
        # Before any data flows the handshake round-trip is the latency
        # prior, so nearby neighbors attract requests from the very first
        # schedule.  The floor bounds how much one very fast neighbor can
        # monopolise.
        response = max(state.effective_response(),
                       self.config.weight_response_floor)
        return response ** -self.config.responsiveness_beta

    def _source_fallback(self, is_urgent: bool) -> Optional[NeighborState]:
        """Empty-eligibility fallback: the channel source, or nothing.

        Draw-free, which is what lets :meth:`tick` take it directly for
        chunks above every neighbor's estimate without perturbing the
        scheduler RNG stream.
        """
        if (is_urgent and self.source_address is not None
                and self._source_inflight
                < self.config.per_neighbor_inflight
                and self.sim.now >= self._source_cooldown_until):
            return self._source_state()
        return None

    def _source_state(self) -> NeighborState:
        # A synthetic state for the channel source; never stored in the
        # neighbor table and never counted against its capacity.
        state = NeighborState(address=self.source_address,
                              connected_at=0.0, last_heard=self.sim.now)
        state.reported_have = 1 << 60
        return state

    # ------------------------------------------------------------------
    # Issue / resolve
    # ------------------------------------------------------------------
    def _issue(self, target: NeighborState, chunk: int,
               first: int, last: int) -> tuple:
        seq = self._next_seq
        self._next_seq += 1
        to_source = target.address == self.source_address
        pending = PendingRequest(seq=seq, neighbor=target.address,
                                 chunk=chunk, first=first, last=last,
                                 sent_at=self.sim.now, to_source=to_source)
        if self._spans.enabled:
            pending.span = self._spans.start_span(
                "data_request", "data", self.sim.now,
                parent=self._span_parent, actor=self._actor, seq=seq,
                neighbor=target.address, chunk=chunk, first=first,
                last=last, to_source=to_source)
        pending.timeout_event = self.sim.call_after(
            self.config.data_timeout, lambda: self._on_timeout(seq),
            label="data-timeout")
        self._pending[seq] = pending
        span = ((1 << (last - first + 1)) - 1) << first
        self._requested[chunk] = self._requested.get(chunk, 0) | span
        if to_source:
            self._source_inflight += 1
            self.requests_to_source += 1
            self._m_to_source.inc()
        else:
            target.inflight += 1
            target.data_requests_sent += 1
        self.requests_issued += 1
        self._m_requests.inc()
        # The caller (tick) transmits: issues from one tick are sent as
        # one cohort after planning completes.
        return (target.address, chunk, first, last, seq)

    def on_reply(self, seq: int, chunk: int, first: int, last: int,
                 have_until: int, have_from: int = 0) -> int:
        """Handle a data reply; returns the number of new sub-pieces."""
        pending = self._pending.pop(seq, None)
        if pending is None:
            self.duplicate_replies += 1
            return 0
        self._settle(pending)
        self.replies_handled += 1
        neighbor = self.neighbors.get(pending.neighbor)
        if neighbor is not None:
            neighbor.record_response(self.sim.now - pending.sent_at,
                                     self.config.ewma_alpha)
            neighbor.record_availability(have_until, self.sim.now, have_from)
            neighbor.data_replies_received += 1
        added = self.buffer.add_range(chunk, first, last)
        if neighbor is not None:
            neighbor.bytes_received += self.geometry.range_bytes(first, last)
        if pending.span is not None:
            pending.span.finish(self.sim.now, subpieces=added)
            if added and self.buffer.has_chunk(chunk):
                # The reply that completed the chunk: the hand-off point
                # from the data chain to the playback chain.
                self._spans.instant("chunk_complete", "data", self.sim.now,
                                    parent=pending.span, chunk=chunk)
        return added

    def on_miss(self, seq: int, have_until: int,
                have_from: int = 0) -> None:
        """Handle a negative reply (replier lacked the range)."""
        pending = self._pending.pop(seq, None)
        if pending is None:
            return
        self._settle(pending)
        self.misses_handled += 1
        self._m_misses.inc()
        if pending.span is not None:
            pending.span.finish(self.sim.now, "miss")
        neighbor = self.neighbors.get(pending.neighbor)
        if neighbor is not None:
            neighbor.record_miss(self.sim.now)
            neighbor.cooldown_until = (self.sim.now
                                       + self.config.miss_cooldown)
            self._m_cooldowns.inc()
            if have_until >= 0:
                # A miss is the most authoritative availability signal:
                # overwrite (do not merely max) the reported range.
                neighbor.reported_have = have_until
                neighbor.reported_at = self.sim.now
                neighbor.reported_from = have_from

    def on_poisoned(self, seq: int) -> bool:
        """Handle a reply whose payload failed integrity verification.

        The pending entry is settled and its ``_requested`` bits are
        cleared *without* adding anything to the buffer, so the very
        next tick re-plans the range — the poisoned-chunk re-fetch.
        The polluter is cooled down like a timed-out neighbor (the
        caller additionally strikes it), and its EWMA is penalised with
        the full data timeout: a poisoned transfer wasted at least that
        much playout headroom.  Returns True when a live request was
        settled (the range will be re-fetched), False for a duplicate.
        """
        pending = self._pending.pop(seq, None)
        if pending is None:
            self.duplicate_replies += 1
            return False
        self._settle(pending)
        self.poisoned_rejected += 1
        if pending.span is not None:
            pending.span.finish(self.sim.now, "poisoned")
        neighbor = self.neighbors.get(pending.neighbor)
        if neighbor is not None:
            neighbor.cooldown_until = (self.sim.now
                                       + self.config.timeout_cooldown)
            self._m_cooldowns.inc()
            neighbor.record_response(self.config.data_timeout,
                                     self.config.ewma_alpha)
        return True

    def _on_timeout(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is None:
            return
        self._settle(pending, cancel_timeout=False)
        self.timeouts += 1
        self._m_timeouts.inc()
        if pending.span is not None:
            pending.span.finish(self.sim.now, "timeout")
        if pending.to_source:
            self._source_cooldown_until = (self.sim.now
                                           + self.config.timeout_cooldown)
        neighbor = self.neighbors.get(pending.neighbor)
        if neighbor is not None:
            neighbor.data_timeouts += 1
            neighbor.cooldown_until = (self.sim.now
                                       + self.config.timeout_cooldown)
            self._m_cooldowns.inc()
            # Penalise the EWMA with the full timeout so unresponsive
            # neighbors stop attracting requests.
            neighbor.record_response(self.config.data_timeout,
                                     self.config.ewma_alpha)

    def _settle(self, pending: PendingRequest,
                cancel_timeout: bool = True) -> None:
        if cancel_timeout and pending.timeout_event is not None:
            self.sim.cancel(pending.timeout_event)
        # The chunk's plannable set may have grown (covered bits are
        # about to clear): it can no longer be skipped as saturated.
        self._saturated.discard(pending.chunk)
        covered = self._requested.get(pending.chunk)
        if covered is not None:
            span = ((1 << (pending.last - pending.first + 1)) - 1) \
                << pending.first
            covered &= ~span
            if covered:
                self._requested[pending.chunk] = covered
            else:
                del self._requested[pending.chunk]
        if pending.to_source:
            self._source_inflight = max(0, self._source_inflight - 1)
        else:
            neighbor = self.neighbors.get(pending.neighbor)
            if neighbor is not None:
                neighbor.inflight = max(0, neighbor.inflight - 1)

    def reset_for_buffer(self, buffer: ChunkBuffer) -> None:
        """Rebind to a fresh buffer after a live re-sync.

        All in-flight requests are settled (timeout events cancelled,
        per-neighbor inflight counters released) so the neighbor table
        stays consistent; late replies for old sequence numbers are then
        counted as duplicates and ignored.
        """
        for seq in list(self._pending):
            pending = self._pending.pop(seq)
            self._settle(pending)
            if pending.span is not None:
                pending.span.finish(self.sim.now, "reset")
        self._requested.clear()
        self._saturated.clear()
        self.buffer = buffer

    def forget_neighbor(self, address: str) -> None:
        """Drop in-flight state for a departed neighbor."""
        stale = [seq for seq, p in self._pending.items()
                 if p.neighbor == address and not p.to_source]
        for seq in stale:
            pending = self._pending.pop(seq)
            self._settle(pending)
            if pending.span is not None:
                pending.span.finish(self.sim.now, "neighbor_lost")

    def _drop_stale_bookkeeping(self) -> None:
        frontier = self.buffer.have_until
        stale = [c for c in self._requested if c <= frontier]
        for chunk in stale:
            del self._requested[chunk]
        saturated = self._saturated
        if saturated:
            for chunk in [c for c in saturated if c <= frontier]:
                saturated.discard(chunk)
