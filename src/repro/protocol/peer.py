"""The PPLive-style client.

One :class:`PPLivePeer` is one viewer.  Its externally visible behaviour
follows the paper's Section 2 step by step:

1. ask the bootstrap server for the channel list (steps 1-2),
2. ask for the chosen channel's playlink + tracker addresses (3-4),
3. query the trackers for initial peer lists (5-6),
4. connect to randomly chosen listed peers *immediately on list
   arrival*, racing handshakes for the limited neighbor-table slots,
5. every 20 seconds gossip peer lists with neighbors, enclosing its own
   list in the request (7-8),
6. back the tracker query rate off to once per five minutes as soon as
   playback is satisfactory,
7. request video sub-pieces from neighbors, weighted by observed
   responsiveness (see :mod:`repro.protocol.scheduler`).

The client never inspects ISP, AS or geographic information: any
locality in its traffic is emergent.
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import Dict, List, Optional, Tuple

from ..adversary import AdversaryModel
from ..network.bandwidth import AccessProfile
from ..network.datagram import Datagram
from ..network.isp import ISP
from ..network.transport import Host, UdpNetwork
from ..obs import INFO, WARNING, Instrumentation
from ..obs import resolve as resolve_obs
from ..sim.engine import Simulator, Timer
from ..streaming.buffer import ChunkBuffer
from ..streaming.playback import PlaybackMonitor, PlayerState
from ..streaming.video import LiveChannel
from . import messages as m
from .config import ProtocolConfig
from .neighbors import NeighborTable
from .peerlist import CandidatePool, ListSource
from .policy import PeerSelectionPolicy, PPLiveReferralPolicy
from .scheduler import DataScheduler, RequestRateLimiter
from .wire import wire_size

#: Sequence numbers used by adversarial flood requests.  Far above
#: anything the honest scheduler's per-session counter can reach, so a
#: victim's reply to a junk request never collides with a live pending
#: entry (it lands in ``duplicate_replies`` instead).
_FLOOD_SEQ_BASE = 1 << 30


class PeerPhase(enum.Enum):
    CREATED = "created"
    BOOTSTRAPPING = "bootstrapping"
    JOINING = "joining"
    ACTIVE = "active"
    DEPARTED = "departed"

    def __str__(self) -> str:
        return self.value


class PPLivePeer(Host):
    """A live-streaming viewer node."""

    #: Maintenance cadence: playback ticks, silence sweeps.
    MAINTENANCE_INTERVAL = 2.0

    def __init__(self, sim: Simulator, network: UdpNetwork, address: str,
                 isp: ISP, profile: AccessProfile, config: ProtocolConfig,
                 channel: LiveChannel, bootstrap_address: str,
                 policy: Optional[PeerSelectionPolicy] = None,
                 source_address: Optional[str] = None,
                 obs: Optional[Instrumentation] = None) -> None:
        super().__init__(sim, network, address, isp, profile)
        self.config = config
        self.channel = channel
        self.bootstrap_address = bootstrap_address
        self.policy = policy if policy is not None else PPLiveReferralPolicy()
        self.source_address = source_address
        self.phase = PeerPhase.CREATED

        self.pool = CandidatePool(self_address=address)
        self.neighbors = NeighborTable(config.max_neighbors)
        self.buffer: Optional[ChunkBuffer] = None
        self.player: Optional[PlaybackMonitor] = None
        self.scheduler: Optional[DataScheduler] = None

        self.trackers: List[str] = []
        self._pending_hellos: Dict[str, object] = {}
        self._timers: List[Timer] = []
        self._bootstrap_timer: Optional[Timer] = None
        self._tracker_event = None
        self._tracker_rotation = 0
        # Tracker health: last unanswered query time and consecutive
        # unanswered-query counts, driving failover and re-bootstrap.
        self._tracker_pending: Dict[str, float] = {}
        self._tracker_failures: Dict[str, int] = {}
        self._last_rebootstrap: Optional[float] = None
        self._rebootstrap_pending = False
        self._peerlist_request_id = 0
        node_random = sim.random.fork(f"peer:{address}")
        self._rng = node_random.stream("protocol")
        self._scheduler_rng = node_random.stream("scheduler")

        # Accounting (trace-independent convenience counters)
        self.peer_lists_sent = 0
        self.peer_list_requests_received = 0
        self.data_requests_served = 0
        self.data_misses_sent = 0
        self.bytes_uploaded = 0
        self.hello_rejects = 0
        self.resyncs = 0
        self.rebootstraps = 0
        self.rejected_messages = 0
        self.requests_rate_limited = 0
        self.neighbors_banned = 0
        self.poisoned_replies = 0
        self.chunks_refetched = 0
        self.joined_at: Optional[float] = None
        self.departed_at: Optional[float] = None

        # Adversary seam: honest clients never set these.  The serve-side
        # rate limiter is lazily allocated only when the config enables it.
        self.adversary: Optional[AdversaryModel] = None
        self._rate_limiter: Optional[RequestRateLimiter] = None
        self._flood_seq = _FLOOD_SEQ_BASE

        # Observability: per-ISP-tagged instruments, bound once.  Peers
        # in the same ISP share series; the default bundle is no-op.
        obs = resolve_obs(obs)
        self._obs = obs
        self._trace = obs.trace
        self._spans = obs.spans
        # Open causal spans, keyed by what resolves them: the join span
        # roots this peer's trace; tracker spans by tracker address,
        # peer-list spans by request_id, connect spans by target address.
        self._join_span = None
        self._tracker_spans: Dict[str, object] = {}
        self._peerlist_spans: Dict[int, object] = {}
        self._hello_spans: Dict[str, object] = {}
        self._obs_tags = {"isp": isp.name}
        metrics = obs.metrics
        self._m_gossip_rounds = metrics.counter("proto.gossip_rounds",
                                                self._obs_tags)
        self._m_hellos_sent = metrics.counter("proto.hellos_sent",
                                              self._obs_tags)
        self._m_hello_timeouts = metrics.counter("proto.hello_timeouts",
                                                 self._obs_tags)
        self._m_races_won = metrics.counter("proto.handshake_races_won",
                                            self._obs_tags)
        self._m_races_lost = metrics.counter("proto.handshake_races_lost",
                                             self._obs_tags)
        self._m_hello_rejects = metrics.counter("proto.hello_rejects_sent",
                                                self._obs_tags)
        self._m_resyncs = metrics.counter("proto.resyncs", self._obs_tags)
        self._m_rebootstraps = metrics.counter("proto.rebootstraps",
                                               self._obs_tags)
        self._m_rejected = metrics.counter("proto.rejected_messages",
                                           self._obs_tags)
        self._m_rate_limited = metrics.counter(
            "proto.requests_rate_limited", self._obs_tags)
        self._m_banned = metrics.counter("proto.neighbors_banned",
                                         self._obs_tags)
        self._m_poisoned = metrics.counter("proto.poisoned_rejected",
                                           self._obs_tags)
        self._m_refetched = metrics.counter("proto.chunks_refetched",
                                            self._obs_tags)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def join(self) -> None:
        """Launch the client: go online and start the bootstrap dance."""
        if self.phase is not PeerPhase.CREATED:
            raise RuntimeError(f"cannot join from phase {self.phase}")
        self.go_online()
        self.joined_at = self.sim.now
        self.phase = PeerPhase.BOOTSTRAPPING
        if self._spans.enabled:
            self._join_span = self._spans.start_span(
                "channel_join", "bootstrap", self.sim.now,
                actor=self.address, peer=self.address, isp=self.isp.name)
        self._transmit(self.bootstrap_address, m.ChannelListRequest())
        self._bootstrap_timer = self.sim.every(
            self.config.bootstrap_retry_interval, self._bootstrap_retry,
            label="bootstrap-retry")
        self._timers.append(self._bootstrap_timer)

    def _bootstrap_retry(self) -> None:
        """Re-send the current bootstrap-phase request if a reply was
        lost; stops itself once the client is active."""
        if self.phase is PeerPhase.BOOTSTRAPPING:
            self._transmit(self.bootstrap_address, m.ChannelListRequest())
        elif self.phase is PeerPhase.JOINING:
            self._transmit(self.bootstrap_address, m.PlaylinkRequest(
                channel_id=self.channel.channel_id))
        else:
            # ACTIVE or DEPARTED: the retry timer has done its job.
            self._bootstrap_timer.stop()

    def leave(self) -> None:
        """Depart gracefully: goodbye to neighbors and trackers."""
        if self.phase is PeerPhase.DEPARTED:
            return
        goodbye = m.Goodbye(channel_id=self.channel.channel_id)
        size = wire_size(goodbye)
        self._transmit_many(
            [(neighbor, goodbye, size)
             for neighbor in self.neighbors.addresses()]
            + [(tracker, goodbye, size) for tracker in self.trackers])
        self._shutdown()

    def crash(self) -> None:
        """Depart silently (power loss / network drop): no goodbyes."""
        if self.phase is not PeerPhase.DEPARTED:
            self._shutdown()

    def _shutdown(self) -> None:
        self.phase = PeerPhase.DEPARTED
        self.departed_at = self.sim.now
        if self._trace.enabled_for(INFO):
            self._trace.emit(self.sim.now, INFO, "peer_depart",
                             peer=self.address, isp=self.isp.name,
                             neighbors=len(self.neighbors))
        for timer in self._timers:
            timer.stop()
        self._timers.clear()
        if self._tracker_event is not None:
            self.sim.cancel(self._tracker_event)
            self._tracker_event = None
        for event, _sent_at in self._pending_hellos.values():
            self.sim.cancel(event)
        self._pending_hellos.clear()
        # Resolve every open span: departure answers them all.
        now = self.sim.now
        if self._join_span is not None and not self._join_span.finished:
            self._join_span.finish(now, "aborted")
        for span in self._tracker_spans.values():
            span.finish(now, "unanswered")
        self._tracker_spans.clear()
        for span in self._peerlist_spans.values():
            span.finish(now, "unanswered")
        self._peerlist_spans.clear()
        for span in self._hello_spans.values():
            span.finish(now, "aborted")
        self._hello_spans.clear()
        if self.player is not None:
            self.player.stop(self.sim.now)
        self.go_offline()

    # ------------------------------------------------------------------
    # Introspection used by policies and experiments
    # ------------------------------------------------------------------
    @property
    def pending_hello_count(self) -> int:
        return len(self._pending_hellos)

    def playback_satisfactory(self) -> bool:
        if self.player is None:
            return False
        return self.player.is_satisfactory(self.config.satisfactory_continuity)

    def can_attempt(self, address: str) -> bool:
        """Whether a connection attempt to ``address`` makes sense now."""
        if address == self.address or address == self.bootstrap_address:
            return False
        if address in self.trackers:
            return False
        if address in self.neighbors or address in self._pending_hellos:
            return False
        candidate = self.pool.get(address)
        if candidate is not None and (candidate.backoff_until > self.sim.now
                                      or candidate.banned_until
                                      > self.sim.now):
            return False
        return True

    @property
    def have_until(self) -> int:
        return self.buffer.have_until if self.buffer is not None else -1

    @property
    def have_from(self) -> int:
        """Oldest chunk this client can serve (its buffer start)."""
        return self.buffer.first_chunk if self.buffer is not None else 0

    @property
    def advertised_have(self) -> int:
        """The availability this client *claims* in outgoing messages.

        Honest unless an attached adversary overrides it (the
        buffer-map liar inflates it well past the real frontier).
        """
        have = self.have_until
        if self.adversary is not None:
            return self.adversary.advertised_have(have)
        return have

    # ------------------------------------------------------------------
    # Adversary seam
    # ------------------------------------------------------------------
    def attach_adversary(self, model: AdversaryModel) -> None:
        """Turn this viewer adversarial (see :mod:`repro.adversary`).

        The model only drives the override points — serve decisions,
        advertised availability, flood requests, peer-list forgery —
        and draws only from its own RNG, so the honest machinery (and
        every honest peer) keeps its exact draw sequence.
        """
        self.adversary = model

    # ------------------------------------------------------------------
    # Datagram dispatch
    # ------------------------------------------------------------------
    def handle_datagram(self, datagram: Datagram) -> None:
        if self.phase is PeerPhase.DEPARTED:
            return
        payload = datagram.payload
        handler = self._HANDLERS.get(type(payload))
        if handler is None:
            # Unknown payload type: drop and count, never raise.
            self._reject_message()
            return
        try:
            handler(self, datagram.src, payload)
        except (AttributeError, TypeError, ValueError, KeyError,
                IndexError):
            # A malformed-but-decodable payload (bad field types, absurd
            # values) must not crash the node: count it and move on.
            self._reject_message()

    def _reject_message(self) -> None:
        self.rejected_messages += 1
        self._m_rejected.inc()

    # -- bootstrap phase ------------------------------------------------
    def _on_channel_list(self, src: str, msg: m.ChannelListReply) -> None:
        if self.phase is not PeerPhase.BOOTSTRAPPING:
            return
        if all(cid != self.channel.channel_id for cid, _ in msg.channels):
            # Channel not broadcast right now; give up.
            self._shutdown()
            return
        self.phase = PeerPhase.JOINING
        self._transmit(src, m.PlaylinkRequest(
            channel_id=self.channel.channel_id))

    def _on_playlink(self, src: str, msg: m.PlaylinkReply) -> None:
        if msg.channel_id != self.channel.channel_id or not msg.trackers:
            return
        if self.phase is PeerPhase.JOINING:
            self.trackers = list(msg.trackers)
            self._become_active()
            return
        if self.phase is PeerPhase.ACTIVE and self._rebootstrap_pending:
            # The refresh we asked for after writing every tracker off:
            # swap in the fresh list and query all of it at once, so the
            # neighbor table refills without manual intervention.
            # Unsolicited playlink replies (duplicate bootstrap-retry
            # answers) are still ignored.
            self._rebootstrap_pending = False
            self.trackers = list(msg.trackers)
            self._tracker_pending.clear()
            self._tracker_failures.clear()
            for tracker in self.trackers:
                self._query_tracker(tracker)

    def _become_active(self) -> None:
        self.phase = PeerPhase.ACTIVE
        now = self.sim.now
        if self._join_span is not None:
            self._join_span.finish(now, trackers=len(self.trackers))
        live = self.channel.live_chunk(now)
        lag = self._rng.randint(self.config.startup_lag_min,
                                self.config.startup_lag_max)
        first_chunk = max(0, live - lag + 1)
        geometry = self.channel.geometry
        self.buffer = ChunkBuffer(geometry, first_chunk)
        self.player = PlaybackMonitor(geometry, self.buffer, join_time=now,
                                      startup_chunks=self.config.startup_chunks,
                                      obs=self._obs, obs_tags=self._obs_tags,
                                      actor=self.address,
                                      span_parent=self._join_span)
        self.scheduler = DataScheduler(
            self.sim, self.config, geometry, self.buffer, self.neighbors,
            self._send_data_request, source_address=self.source_address,
            rng=self._scheduler_rng, obs=self._obs, obs_tags=self._obs_tags,
            actor=self.address, span_parent=self._join_span,
            send_requests=self._send_data_requests)
        # Initial burst: query every tracker group at once.
        for tracker in self.trackers:
            self._query_tracker(tracker)
        self._schedule_tracker_round()
        jitter = self.config.gossip_jitter
        self._timers.append(self.sim.every(
            self.config.gossip_interval, self._gossip_round,
            jitter_fn=lambda: self._rng.uniform(-jitter, jitter),
            label="gossip-round"))
        self._timers.append(self.sim.every(
            self.config.scheduler_interval, self._scheduler_tick,
            label="sched-tick"))
        self._timers.append(self.sim.every(
            self.config.buffermap_interval, self._buffermap_round,
            jitter_fn=lambda: self._rng.uniform(-0.3, 0.3),
            label="buffermap-round"))
        # Maintenance clocks playback (player.tick) plus the neighbor
        # silence sweep; attribution buckets it under "playback".
        self._timers.append(self.sim.every(
            self.MAINTENANCE_INTERVAL, self._maintenance,
            label="playback-maintenance"))

    # -- tracker interaction ---------------------------------------------
    def _open_tracker_span(self, tracker: str) -> None:
        """Open a peerlist-category span for one tracker query.  A new
        query to the same tracker supersedes the old span (the reply
        cannot be told apart), which is then closed as superseded."""
        if not self._spans.enabled:
            return
        stale = self._tracker_spans.pop(tracker, None)
        if stale is not None:
            stale.finish(self.sim.now, "superseded")
        self._tracker_spans[tracker] = self._spans.start_span(
            "tracker_query", "peerlist", self.sim.now,
            parent=self._join_span, actor=self.address, tracker=tracker)

    def _schedule_tracker_round(self) -> None:
        interval = self.policy.tracker_interval(self, self.config)
        self._tracker_event = self.sim.call_after(
            interval, self._tracker_round, label="tracker-round")

    def _query_tracker(self, tracker: str) -> None:
        """Send one tracker query, with unanswered-query bookkeeping.

        If the *previous* query to this tracker has sat unanswered for
        ``tracker_failure_timeout``, that counts as one strike; enough
        consecutive strikes (``tracker_dead_after``) and the tracker is
        treated as dead until it answers again.
        """
        now = self.sim.now
        sent = self._tracker_pending.get(tracker)
        if (sent is not None
                and now - sent >= self.config.tracker_failure_timeout):
            self._tracker_failures[tracker] = \
                self._tracker_failures.get(tracker, 0) + 1
        self._tracker_pending[tracker] = now
        self._open_tracker_span(tracker)
        self._transmit(tracker, m.TrackerQuery(
            channel_id=self.channel.channel_id))

    def _tracker_suspect(self, tracker: str) -> bool:
        return (self._tracker_failures.get(tracker, 0)
                >= self.config.tracker_dead_after)

    def _maybe_rebootstrap(self) -> None:
        """Every known tracker looks dead: ask the bootstrap server for
        a fresh playlink (rate-limited), the paper's only path back into
        the swarm's control plane."""
        now = self.sim.now
        if (self._last_rebootstrap is not None
                and now - self._last_rebootstrap
                < self.config.rebootstrap_interval):
            return
        self._last_rebootstrap = now
        self._rebootstrap_pending = True
        self.rebootstraps += 1
        self._m_rebootstraps.inc()
        if self._trace.enabled_for(WARNING):
            self._trace.emit(now, WARNING, "tracker_rebootstrap",
                             peer=self.address, isp=self.isp.name,
                             trackers=len(self.trackers))
        self._transmit(self.bootstrap_address, m.PlaylinkRequest(
            channel_id=self.channel.channel_id))

    def _tracker_round(self) -> None:
        if self.phase is not PeerPhase.ACTIVE or not self.trackers:
            return
        live = [t for t in self.trackers if not self._tracker_suspect(t)]
        if not live:
            # Complete tracker blackout: re-bootstrap for fresh
            # addresses, but keep probing the old ones so their
            # recovery is noticed even if the bootstrap is down too.
            self._maybe_rebootstrap()
            targets = self.trackers
        elif self.playback_satisfactory():
            # Steady state: poke a single live tracker, round-robin
            # (dead trackers are skipped — immediate failover).
            targets = []
            for _ in range(len(self.trackers)):
                candidate = self.trackers[self._tracker_rotation
                                          % len(self.trackers)]
                self._tracker_rotation += 1
                if not self._tracker_suspect(candidate):
                    targets = [candidate]
                    break
        else:
            targets = self.trackers
        for tracker in targets:
            self._query_tracker(tracker)
        self._schedule_tracker_round()

    def _on_tracker_reply(self, src: str, msg: m.TrackerReply) -> None:
        self._tracker_pending.pop(src, None)
        self._tracker_failures.pop(src, None)
        span = self._tracker_spans.pop(src, None)
        if span is not None:
            span.finish(self.sim.now, peers=len(msg.peers))
        if self.phase is not PeerPhase.ACTIVE:
            return
        self.pool.add_many(msg.peers, self.sim.now, ListSource.TRACKER)
        self._attempt_connections(msg.peers, ListSource.TRACKER,
                                  parent_span=span)

    # -- membership -------------------------------------------------------
    def _attempt_connections(self, addresses, source: ListSource,
                             parent_span=None) -> None:
        chosen = self.policy.select_candidates(
            self, list(addresses), source, self._rng)
        hello = m.Hello(channel_id=self.channel.channel_id,
                        have_until=self.advertised_have,
                        have_from=self.have_from)
        for address in chosen:
            if not self.can_attempt(address):
                continue
            timeout = self.sim.call_after(
                self.config.hello_timeout,
                lambda a=address: self._on_hello_timeout(a),
                label="hello-timeout")
            self._pending_hellos[address] = (timeout, self.sim.now)
            self._m_hellos_sent.inc()
            if self._spans.enabled:
                # Child of the list transaction that named the target:
                # the "reply -> connect attempt" causal edge.
                self._hello_spans[address] = self._spans.start_span(
                    "connect", "peerlist", self.sim.now,
                    parent=(parent_span if parent_span is not None
                            else self._join_span),
                    actor=self.address, target=address,
                    source=source.value)
            self._transmit(address, hello)

    def _note_connect_failure(self, address: str) -> None:
        """Back the candidate off per the consolidated retry policy.

        With default knobs ``retry_backoff`` is the historical flat
        60 s; hardened profiles get exponential growth plus
        deterministic per-(address, attempt) jitter.
        """
        failures = self.pool.failure_count(address) + 1
        self.pool.note_failure(
            address, self.sim.now,
            self.config.retry_backoff(failures, key=address))

    def _on_hello_timeout(self, address: str) -> None:
        if self._pending_hellos.pop(address, None) is not None:
            self._m_hello_timeouts.inc()
            self._note_connect_failure(address)
            span = self._hello_spans.pop(address, None)
            if span is not None:
                span.finish(self.sim.now, "timeout")

    def _on_hello(self, src: str, msg: m.Hello) -> None:
        if self.phase is not PeerPhase.ACTIVE:
            return
        if msg.channel_id != self.channel.channel_id:
            return
        if self.pool.is_banned(src, self.sim.now):
            # A banned peer does not get back in by knocking again.
            return
        if src in self.neighbors:
            self.neighbors.get(src).record_availability(
                msg.have_until, self.sim.now, msg.have_from)
            self._transmit(src, m.HelloAck(
                channel_id=self.channel.channel_id,
                have_until=self.advertised_have,
                have_from=self.have_from))
            return
        if self.neighbors.is_full:
            self.hello_rejects += 1
            self._m_hello_rejects.inc()
            self._transmit(src, m.HelloReject(
                channel_id=self.channel.channel_id))
            return
        state = self.neighbors.add(src, self.sim.now)
        state.record_availability(msg.have_until, self.sim.now,
                                  msg.have_from)
        self.pool.add(src, self.sim.now, ListSource.NEIGHBOR)
        self._transmit(src, m.HelloAck(channel_id=self.channel.channel_id,
                                       have_until=self.advertised_have,
                                       have_from=self.have_from))

    def _on_hello_ack(self, src: str, msg: m.HelloAck) -> None:
        pending = self._pending_hellos.pop(src, None)
        if pending is None:
            # Ack for a handshake we already timed out, or a keepalive.
            if src in self.neighbors:
                self.neighbors.get(src).record_availability(
                    msg.have_until, self.sim.now, msg.have_from)
            return
        event, sent_at = pending
        self.sim.cancel(event)
        span = self._hello_spans.pop(src, None)
        if self.phase is not PeerPhase.ACTIVE:
            if span is not None:
                span.finish(self.sim.now, "aborted")
            return
        if src in self.neighbors:
            if span is not None:
                span.finish(self.sim.now, "duplicate")
            return
        if self.neighbors.is_full:
            # Lost the race: the table filled while this ack was in flight.
            self._m_races_lost.inc()
            if span is not None:
                span.finish(self.sim.now, "race_lost")
            self._transmit(src, m.Goodbye(
                channel_id=self.channel.channel_id))
            return
        state = self.neighbors.add(src, self.sim.now)
        state.hello_rtt = self.sim.now - sent_at
        state.record_availability(msg.have_until, self.sim.now,
                                  msg.have_from)
        self.pool.note_success(src)
        self._m_races_won.inc()
        if span is not None:
            span.finish(self.sim.now, rtt=state.hello_rtt)

    def _on_hello_reject(self, src: str, msg: m.HelloReject) -> None:
        pending = self._pending_hellos.pop(src, None)
        if pending is not None:
            self.sim.cancel(pending[0])
            span = self._hello_spans.pop(src, None)
            if span is not None:
                span.finish(self.sim.now, "rejected")
        self._note_connect_failure(src)

    def _on_goodbye(self, src: str, msg: m.Goodbye) -> None:
        self._drop_neighbor(src)

    def _drop_neighbor(self, address: str) -> None:
        if self.neighbors.remove(address) is not None:
            if self.scheduler is not None:
                self.scheduler.forget_neighbor(address)
            if self._rate_limiter is not None:
                self._rate_limiter.forget(address)
            self._recruit_if_short()

    def _recruit_if_short(self) -> None:
        """React to a table deficit immediately instead of waiting for
        the next gossip round: ask a neighbor for its list, or fall back
        to a tracker when no neighbors are left."""
        if self.phase is not PeerPhase.ACTIVE:
            return
        engaged = len(self.neighbors) + self.pending_hello_count
        if engaged >= self.config.target_neighbors:
            return
        targets = self.neighbors.addresses()
        if targets and self.policy.uses_neighbor_referral:
            target = self._rng.choice(targets)
            self._peerlist_request_id += 1
            own_list = tuple(self.pool.build_peer_list(
                targets, self.config.peer_list_max, self.sim.now))
            self._open_peerlist_span(self._peerlist_request_id, target)
            self._transmit(target, m.PeerListRequest(
                channel_id=self.channel.channel_id, enclosed=own_list,
                have_until=self.advertised_have,
                have_from=self.have_from,
                request_id=self._peerlist_request_id))
        elif self.trackers:
            live = [t for t in self.trackers
                    if not self._tracker_suspect(t)] or self.trackers
            tracker = live[self._tracker_rotation % len(live)]
            self._tracker_rotation += 1
            self._query_tracker(tracker)
        # Also retry known-but-unconnected candidates right away.
        candidates = self.pool.connectable(
            self.sim.now, exclude=self.neighbors.addresses())
        if candidates:
            self._attempt_connections(candidates, ListSource.NEIGHBOR)

    # -- gossip -------------------------------------------------------------
    def _open_peerlist_span(self, request_id: int, target: str) -> None:
        if not self._spans.enabled:
            return
        self._peerlist_spans[request_id] = self._spans.start_span(
            "peerlist_request", "peerlist", self.sim.now,
            parent=self._join_span, actor=self.address, target=target,
            request_id=request_id)

    def _gossip_round(self) -> None:
        if self.phase is not PeerPhase.ACTIVE:
            return
        if not self.policy.uses_neighbor_referral:
            return
        targets = self.neighbors.addresses()
        if not targets:
            return
        self._m_gossip_rounds.inc()
        fanout = min(self.config.gossip_fanout, len(targets))
        chosen = self._rng.sample(targets, fanout)
        own_list = tuple(self.pool.build_peer_list(
            self.neighbors.addresses(), self.config.peer_list_max,
            self.sim.now))
        sends: List[Tuple[str, m.Message, int]] = []
        size = -1
        for target in chosen:
            self._peerlist_request_id += 1
            request = m.PeerListRequest(
                channel_id=self.channel.channel_id, enclosed=own_list,
                have_until=self.advertised_have,
                have_from=self.have_from,
                request_id=self._peerlist_request_id)
            self._open_peerlist_span(self._peerlist_request_id, target)
            if size < 0:
                # Every request this round encloses the same peer list, so
                # they all serialize to the same number of wire bytes.
                size = wire_size(request)
            sends.append((target, request, size))
        self._transmit_many(sends)

    def _on_peer_list_request(self, src: str, msg: m.PeerListRequest) -> None:
        if self.phase is not PeerPhase.ACTIVE:
            return
        self.peer_list_requests_received += 1
        now = self.sim.now
        self.pool.add_many(msg.enclosed, now, ListSource.ENCLOSED)
        neighbor = self.neighbors.get(src)
        if neighbor is not None:
            neighbor.record_availability(msg.have_until, now,
                                         msg.have_from)
        peers = None
        if self.adversary is not None:
            forged = self.adversary.peer_list(self.pool.candidates(),
                                              self.config.peer_list_max)
            if forged is not None:
                peers = tuple(forged)
        if peers is None:
            peers = tuple(self.pool.build_peer_list(
                self.neighbors.addresses(), self.config.peer_list_max,
                now))
        reply = m.PeerListReply(channel_id=self.channel.channel_id,
                                peers=peers,
                                have_until=self.advertised_have,
                                have_from=self.have_from,
                                request_id=msg.request_id)
        self.peer_lists_sent += 1
        self._transmit(src, reply)

    def _on_peer_list_reply(self, src: str, msg: m.PeerListReply) -> None:
        span = self._peerlist_spans.pop(msg.request_id, None)
        if span is not None:
            span.finish(self.sim.now, peers=len(msg.peers))
        if self.phase is not PeerPhase.ACTIVE:
            return
        now = self.sim.now
        neighbor = self.neighbors.get(src)
        if neighbor is not None:
            neighbor.record_availability(msg.have_until, now,
                                         msg.have_from)
            neighbor.peer_lists_received += 1
        self.pool.add_many(msg.peers, now, ListSource.NEIGHBOR)
        # "a client ... always tries to connect to the listed peers as
        # soon as the list is received"
        self._attempt_connections(msg.peers, ListSource.NEIGHBOR,
                                  parent_span=span)

    # -- availability ----------------------------------------------------
    def _buffermap_round(self) -> None:
        if self.phase is not PeerPhase.ACTIVE:
            return
        targets = self.neighbors.addresses()
        if not targets:
            return
        fanout = min(self.config.buffermap_fanout, len(targets))
        announce = m.BufferMapAnnounce(channel_id=self.channel.channel_id,
                                       have_until=self.advertised_have,
                                       have_from=self.have_from)
        size = wire_size(announce)
        self._transmit_many([(target, announce, size)
                             for target in self._rng.sample(targets, fanout)])

    def _on_buffermap(self, src: str, msg: m.BufferMapAnnounce) -> None:
        neighbor = self.neighbors.get(src)
        if neighbor is not None:
            neighbor.record_availability(msg.have_until, self.sim.now,
                                         msg.have_from)

    # -- data plane -----------------------------------------------------------
    def _send_data_request(self, address: str, chunk: int, first: int,
                           last: int, seq: int) -> None:
        request = m.DataRequest(channel_id=self.channel.channel_id,
                                chunk=chunk, first=first, last=last, seq=seq)
        self._transmit(address, request)

    def _send_data_requests(self, issues: List[tuple]) -> None:
        """Transmit one scheduler tick's worth of requests as a cohort."""
        channel_id = self.channel.channel_id
        size = -1
        sends: List[Tuple[str, m.Message, int]] = []
        for address, chunk, first, last, seq in issues:
            request = m.DataRequest(channel_id=channel_id, chunk=chunk,
                                    first=first, last=last, seq=seq)
            if size < 0:
                # DataRequest has a fixed-width body: every request in the
                # batch occupies the same number of wire bytes.
                size = wire_size(request)
            sends.append((address, request, size))
        self._transmit_many(sends)

    def _on_data_request(self, src: str, msg: m.DataRequest) -> None:
        if self.phase is not PeerPhase.ACTIVE or self.buffer is None:
            return
        now = self.sim.now
        neighbor = self.neighbors.get(src)
        if neighbor is not None:
            neighbor.last_heard = now
        if self.config.request_rate_cap > 0:
            if self._rate_limiter is None:
                self._rate_limiter = RequestRateLimiter(
                    self.config.request_rate_cap,
                    self.config.request_rate_burst)
            if not self._rate_limiter.allow(src, now):
                # Over the per-neighbor cap: drop silently (an answer
                # would reward the flood) and strike the requester.
                self.requests_rate_limited += 1
                self._m_rate_limited.inc()
                self._strike(src, self.config.strike_flood)
                return
        total = self.channel.geometry.subpieces_per_chunk
        valid_range = (msg.chunk >= 0 and 0 <= msg.first <= msg.last
                       and msg.last < total)
        has_range = valid_range and self.buffer.has_range(
            msg.chunk, msg.first, msg.last)
        action = "serve"
        if has_range and self.adversary is not None:
            action = self.adversary.serve_action()
        if not has_range or action == "miss":
            self.data_misses_sent += 1
            self._transmit(src, m.DataMiss(
                channel_id=self.channel.channel_id, chunk=msg.chunk,
                seq=msg.seq, have_until=self.advertised_have,
                have_from=self.have_from))
            return
        payload_bytes = self.channel.geometry.range_bytes(msg.first, msg.last)
        reply_type = (m.PoisonedDataReply if action == "poison"
                      else m.DataReply)
        reply = reply_type(channel_id=self.channel.channel_id,
                           chunk=msg.chunk, first=msg.first, last=msg.last,
                           seq=msg.seq, have_until=self.advertised_have,
                           have_from=self.have_from,
                           payload_bytes=payload_bytes)
        self.data_requests_served += 1
        self.bytes_uploaded += payload_bytes
        self._transmit(src, reply)

    def _on_data_reply(self, src: str, msg: m.DataReply) -> None:
        if self.scheduler is None:
            return
        self.scheduler.on_reply(msg.seq, msg.chunk, msg.first, msg.last,
                                msg.have_until, msg.have_from)
        if self.player is not None:
            self.player.tick(self.sim.now)

    def _on_poisoned_reply(self, src: str, msg: m.PoisonedDataReply) -> None:
        """Chunk integrity verification failed.

        The bytes were already spent on the wire; the payload is
        discarded (never buffered), the range returns to the wanted set
        so the next tick re-fetches it elsewhere, and the sender is
        struck toward a ban.
        """
        if self.scheduler is None:
            return
        self.poisoned_replies += 1
        self._m_poisoned.inc()
        if self.scheduler.on_poisoned(msg.seq):
            self.chunks_refetched += 1
            self._m_refetched.inc()
        self._strike(src, self.config.strike_poisoned)

    def _on_data_miss(self, src: str, msg: m.DataMiss) -> None:
        if self.scheduler is None:
            return
        if (self.config.strike_false_advertise > 0
                and msg.have_from <= msg.chunk <= msg.have_until):
            # The neighbor claims (in this very message) to cover the
            # chunk it just refused to serve: a buffer-map lie.
            self._strike(src, self.config.strike_false_advertise)
        self.scheduler.on_miss(msg.seq, msg.have_until, msg.have_from)

    def _strike(self, address: str, count: int) -> None:
        """Charge misbehaviour strikes; demote and ban at the limit."""
        if count <= 0:
            return
        now = self.sim.now
        if self.pool.strike(address, now, count, self.config.strike_limit,
                            self.config.ban_seconds):
            self.neighbors_banned += 1
            self._m_banned.inc()
            if self._trace.enabled_for(WARNING):
                self._trace.emit(now, WARNING, "neighbor_banned",
                                 peer=self.address, isp=self.isp.name,
                                 banned=address)
            if address in self.neighbors:
                self._transmit(address, m.Goodbye(
                    channel_id=self.channel.channel_id))
                self._drop_neighbor(address)

    # -- periodic upkeep ---------------------------------------------------
    def _scheduler_tick(self) -> None:
        if (self.phase is not PeerPhase.ACTIVE or self.scheduler is None
                or self.player is None):
            return
        live = self.channel.live_chunk(self.sim.now)
        urgent_until = None
        if self.player.state is PlayerState.STARTUP:
            # Before playback starts the whole startup buffer is urgent:
            # a fresh client pulls it from the source if nobody else has
            # it yet (e.g. the very first viewers of a channel).
            urgent_until = (self.buffer.first_chunk
                            + self.config.startup_chunks)
        self.scheduler.tick(live, self.player.playout_chunk, urgent_until)
        if self.adversary is not None:
            self._flood_tick()

    def _flood_tick(self) -> None:
        """Adversary override point: junk data requests on top of the
        honest schedule, targets and count drawn from the model's own
        RNG.  Replies land outside the scheduler's pending window and
        are discarded as duplicates."""
        count = self.adversary.flood_requests()
        if count <= 0:
            return
        targets = self.neighbors.addresses()
        if not targets:
            return
        last = self.channel.geometry.subpieces_per_chunk - 1
        # Every tick's burst hammers one *persistent* victim (the
        # lowest neighbor address): spread thin, or rotated per tick,
        # the flood would stay under every per-neighbor rate cap and
        # cost nobody anything.  When the victim defends itself and
        # drops the link, the next-lowest neighbor inherits the flood.
        address = min(targets)
        neighbor = self.neighbors.get(address)
        # Ask for something the victim probably holds, so the flood
        # actually costs it upload bandwidth.
        if neighbor is not None and neighbor.reported_have >= 0:
            chunk = neighbor.reported_have
        else:
            chunk = max(0, self.have_until)
        for _ in range(count):
            self._flood_seq += 1
            self._send_data_request(address, chunk, 0, last,
                                    self._flood_seq)

    def _maintenance(self) -> None:
        if self.phase is not PeerPhase.ACTIVE:
            return
        now = self.sim.now
        if self.player is not None:
            self.player.tick(now)
        if self.buffer is not None:
            live = self.channel.live_chunk(now)
            if live - self.buffer.have_until > self.config.resync_lag_chunks:
                self._resync(live)
        pinned = self._pinned_addresses()
        cutoff = now - self.config.neighbor_silence_timeout
        for address in self.neighbors.silent_since(cutoff):
            if address not in pinned:
                self._drop_neighbor(address)
        self._maybe_replace_slowest(now, pinned)

    def _pinned_addresses(self) -> frozenset:
        """Top responders cached against eviction (paper Section 3.4).

        With ``pin_top_responders = f``, the best ``ceil(f * n)``
        neighbors by observed responsiveness are protected from both the
        silence sweep and latency replacement, keeping the hottest data
        connections alive.
        """
        fraction = self.config.pin_top_responders
        if fraction <= 0 or not len(self.neighbors):
            return frozenset()
        states = [s for s in self.neighbors if s.ewma_response is not None]
        if not states:
            return frozenset()
        keep = math.ceil(fraction * len(self.neighbors))
        # nsmallest == sorted(...)[:keep] (stable), without the full sort.
        best = heapq.nsmallest(keep, states, key=lambda s: s.ewma_response)
        return frozenset(s.address for s in best)

    def _maybe_replace_slowest(self, now: float,
                               pinned: frozenset = frozenset()) -> None:
        """Latency-driven neighbor-set refinement.

        When the table is full enough, occasionally drop the neighbor
        with the worst observed response time; the freed slot is then
        re-filled through the usual handshake race, which nearby peers
        tend to win.  Purely latency-based — no topology input.
        """
        if len(self.neighbors) < self.config.target_neighbors:
            return
        if self._rng.random() >= self.config.neighbor_replace_probability:
            return
        candidates = [
            s for s in self.neighbors
            if (s.inflight == 0
                and now - s.connected_at >= self.config.neighbor_min_tenure
                and s.address != self.source_address
                and s.address not in pinned)
        ]
        if len(candidates) < 2:
            return
        worst = max(candidates, key=lambda s: s.effective_response())
        self._transmit(worst.address, m.Goodbye(
            channel_id=self.channel.channel_id))
        self._drop_neighbor(worst.address)

    def _resync(self, live: int) -> None:
        """Jump back near the live edge after falling hopelessly behind.

        A live player cannot "catch up" on missed content; like the real
        client it abandons its position and rejoins close to the edge,
        keeping its neighbor relationships.
        """
        self.resyncs += 1
        self._m_resyncs.inc()
        now = self.sim.now
        if self._trace.enabled_for(WARNING):
            self._trace.emit(now, WARNING, "playback_resync",
                             peer=self.address, isp=self.isp.name,
                             live_chunk=live, behind=live - self.have_until)
        if self.player is not None:
            self.player.stop(now)
        lag = self._rng.randint(self.config.startup_lag_min,
                                self.config.startup_lag_max)
        first_chunk = max(0, live - lag + 1)
        geometry = self.channel.geometry
        self.buffer = ChunkBuffer(geometry, first_chunk)
        self.player = PlaybackMonitor(geometry, self.buffer, join_time=now,
                                      startup_chunks=self.config.startup_chunks,
                                      obs=self._obs, obs_tags=self._obs_tags,
                                      actor=self.address,
                                      span_parent=self._join_span)
        if self.scheduler is not None:
            self.scheduler.reset_for_buffer(self.buffer)

    # -- low-level send ------------------------------------------------------
    def _transmit(self, dst: str, msg: m.Message) -> bool:
        return self.send(dst, msg, wire_size(msg))

    def _transmit_many(self, sends: List[Tuple[str, m.Message, int]]) -> None:
        # One transport call for a whole fanout round: the network layer
        # runs the uplink, loss and jitter phases over the whole cohort.
        if len(sends) == 1:
            dst, msg, size = sends[0]
            self.send(dst, msg, size)
        elif sends:
            self.send_many(sends)

    _HANDLERS = {
        m.ChannelListReply: _on_channel_list,
        m.PlaylinkReply: _on_playlink,
        m.TrackerReply: _on_tracker_reply,
        m.Hello: _on_hello,
        m.HelloAck: _on_hello_ack,
        m.HelloReject: _on_hello_reject,
        m.Goodbye: _on_goodbye,
        m.PeerListRequest: _on_peer_list_request,
        m.PeerListReply: _on_peer_list_reply,
        m.DataRequest: _on_data_request,
        m.DataReply: _on_data_reply,
        m.PoisonedDataReply: _on_poisoned_reply,
        m.DataMiss: _on_data_miss,
        m.BufferMapAnnounce: _on_buffermap,
    }
