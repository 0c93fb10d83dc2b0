"""UDP-like datagram transport over the simulated underlay.

:class:`UdpNetwork` connects registered hosts.  A send experiences, in
order:

1. the sender's uplink queue (wait + serialisation, possibly tail-drop),
2. a Bernoulli loss draw for the path class,
3. one-way propagation delay from the :class:`LatencyModel`,

after which the receiving host's :meth:`Host.handle_datagram` runs.  If
the destination deregistered while the packet was in flight (peer churn),
the packet is silently dropped — exactly what the real Internet does.

Sniffer taps (:meth:`UdpNetwork.add_tap`) observe every datagram at send
and delivery time, and the capture substrate builds Wireshark-style
traces on top of them without touching protocol internals.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..obs import DEBUG, Instrumentation, MetricsRegistry
from ..obs import resolve as resolve_obs
from ..sim.engine import Simulator
from .bandwidth import AccessProfile, UplinkQueue
from .datagram import HEADER_BYTES, Datagram
from .isp import ISP
from .latency import LatencyModel

#: The plain per-datagram counters :meth:`UdpNetwork.fold_counters`
#: publishes as ``net.<name>`` counters.
_FOLDED_COUNTERS = ("datagrams_sent", "datagrams_delivered",
                    "datagrams_lost", "datagrams_dropped_uplink",
                    "datagrams_dropped_offline", "datagrams_dropped_fault",
                    "bytes_delivered")

#: Tap signature: (event, datagram, time).  ``event`` is "send" (the
#: datagram left the sender's uplink) or "recv" (it was delivered).
TapFn = Callable[[str, Datagram, float], None]


class Host:
    """Base class for anything with an address on the simulated Internet.

    Subclasses (peers, trackers, the bootstrap server) implement
    :meth:`handle_datagram`.  The host owns its uplink queue; the network
    owns propagation and loss.
    """

    def __init__(self, sim: Simulator, network: "UdpNetwork",
                 address: str, isp: ISP, profile: AccessProfile) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.isp = isp
        self.profile = profile
        self.uplink = UplinkQueue(profile)
        self.online = False
        #: Fault-injection receive filter: (drop_probability, rng) while
        #: a server-outage window is active, else None.
        self._fault_filter = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def go_online(self) -> None:
        """Attach to the network and start receiving datagrams."""
        if not self.online:
            self.network.register(self)
            self.uplink.reset(self.sim.now)
            self.online = True

    def go_offline(self) -> None:
        """Detach; in-flight packets to this host will be dropped."""
        if self.online:
            self.network.deregister(self)
            self.online = False

    # ------------------------------------------------------------------
    # Fault injection (server outage / degradation windows)
    # ------------------------------------------------------------------
    def install_fault_filter(self, drop_probability: float, rng) -> None:
        """Drop each arriving datagram with ``drop_probability``.

        With probability 1 the host goes silent (no RNG draws at all);
        below 1 it degrades, drawing from the fault's own stream.  The
        host stays registered: its address remains routable, like a real
        server whose process hangs while the IP keeps answering ARP.
        """
        if not 0.0 < drop_probability <= 1.0:
            raise ValueError("drop_probability must be in (0, 1]")
        self._fault_filter = (drop_probability, rng)

    def clear_fault_filter(self) -> None:
        """End the outage window; the host answers normally again."""
        self._fault_filter = None

    def fault_drops(self) -> bool:
        """One receive decision under the current fault filter."""
        if self._fault_filter is None:
            return False
        probability, rng = self._fault_filter
        if probability >= 1.0:
            return True
        return rng.random() < probability

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def send(self, dst: str, payload: Any, payload_bytes: int) -> bool:
        """Transmit one datagram; returns False if dropped at the uplink."""
        return self.network.send(self, dst, payload, payload_bytes)

    def send_many(self, sends: List[tuple]) -> None:
        """Transmit a cohort of ``(dst, payload, payload_bytes)`` triples.

        Each datagram's fate and delivery time, each RNG stream's draw
        order and every tap event are those of calling :meth:`send` per
        triple in order; only observer records of different kinds come
        grouped by phase (see :meth:`UdpNetwork.send_many`).
        """
        self.network.send_many(self, sends)

    def handle_datagram(self, datagram: Datagram) -> None:
        """Receive one datagram.  Subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "online" if self.online else "offline"
        return (f"<{type(self).__name__} {self.address} "
                f"{self.isp.category} {state}>")


class UdpNetwork:
    """The simulated Internet's datagram plane."""

    def __init__(self, sim: Simulator, latency: LatencyModel,
                 obs: Optional[Instrumentation] = None) -> None:
        self.sim = sim
        self.latency = latency
        self._hosts: Dict[str, Host] = {}
        self._taps: List[TapFn] = []
        #: Single-consumer per-delivery accounting sink, or None.  Taps
        #: are the general observe-anything seam; the sink is the one
        #: seam allowed on the delivery fast path with the wire size
        #: handed over instead of recomputed (see set_flow_sink).
        self._flow_sink: Optional[Callable[[Datagram, float, int], None]] \
            = None
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_lost = 0
        self.datagrams_dropped_uplink = 0
        self.datagrams_dropped_offline = 0
        self.datagrams_dropped_fault = 0
        self.bytes_delivered = 0
        # Observability: instruments are bound once here; with the
        # default null bundle every update below is a no-op call.  The
        # plain counters above reach the registry once, through
        # fold_counters, not per datagram.
        obs = resolve_obs(obs)
        self._obs_enabled = obs.enabled
        self._trace = obs.trace
        self._spans = obs.spans
        metrics = obs.metrics
        self._m_messages_sent = metrics.counter_family(
            "net.messages_sent", "type")
        self._m_bytes_queued = metrics.counter("net.bytes_queued_uplink")
        self._h_backlog = metrics.histogram(
            "net.uplink_backlog_seconds",
            bounds=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 5.0))

    def fold_counters(self, metrics: MetricsRegistry) -> None:
        """Add the transport's datagram and byte totals to ``metrics``.

        Called once at session end, after the last send (the probes'
        Goodbyes included); a session that never reaches it contributes
        nothing to these series.
        """
        for name in _FOLDED_COUNTERS:
            metrics.counter(f"net.{name}").inc(getattr(self, name))

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, host: Host) -> None:
        existing = self._hosts.get(host.address)
        if existing is not None and existing is not host:
            raise ValueError(f"address {host.address} already registered")
        self._hosts[host.address] = host

    def deregister(self, host: Host) -> None:
        if self._hosts.get(host.address) is host:
            del self._hosts[host.address]

    def host_at(self, address: str) -> Optional[Host]:
        return self._hosts.get(address)

    @property
    def online_count(self) -> int:
        return len(self._hosts)

    def online_by_isp(self) -> Dict[str, int]:
        """Online host counts per ISP name, sorted by name.

        Deterministic for a fixed seed (registration is simulation
        state); feeds the progress bus's per-ISP heartbeat field.
        """
        counts: Dict[str, int] = {}
        for host in self._hosts.values():
            name = host.isp.name
            counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Taps (capture substrate attaches here)
    # ------------------------------------------------------------------
    def add_tap(self, tap: TapFn) -> None:
        """Register ``tap`` to observe every ``send`` and ``recv``.

        Drops are not tap events: each keeps its transport counter.  A
        tap may be registered at most once — double-accounting bytes
        silently would corrupt any ledger attached here — so a
        duplicate registration raises instead.
        """
        if tap in self._taps:
            raise ValueError(f"tap {tap!r} is already registered")
        self._taps.append(tap)

    def remove_tap(self, tap: TapFn) -> None:
        """Unregister ``tap``; safe mid-run.

        Removing the last tap restores the no-tap fast path (`send` and
        `_deliver` gate on the tap list's truthiness, not on whether a
        tap was ever attached).  Removing a tap that is not registered
        raises to surface lifecycle bugs early.
        """
        try:
            self._taps.remove(tap)
        except ValueError:
            raise ValueError(f"tap {tap!r} is not registered") from None

    def set_flow_sink(self, sink: Callable[[Datagram, float, int],
                                           None]) -> None:
        """Install the per-delivery accounting sink.

        ``sink(datagram, now, wire_bytes)`` runs once per *delivered*
        datagram, with the wire size ``_deliver`` already computed for
        its own byte counters.  Exactly one sink may be installed —
        double accounting is the same silent corruption double tap
        registration guards against — so installing over an existing
        sink raises.  Flow accounting attaches here; anything that
        wants send events, or several observers at once, belongs on the
        tap seam instead.
        """
        if self._flow_sink is not None:
            raise ValueError("a flow sink is already installed")
        self._flow_sink = sink

    def clear_flow_sink(self) -> None:
        """Uninstall the sink; safe mid-run, restores the fast path."""
        self._flow_sink = None

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def send(self, src_host: Host, dst: str, payload: Any,
             payload_bytes: int) -> bool:
        """Send a datagram from ``src_host`` to address ``dst``.

        The steady-state fast path — no taps, null observability, packet
        survives the uplink and the loss draw — costs one
        :class:`Datagram` allocation, one uplink update, one cached
        latency lookup plus its two RNG draws, and one pooled delivery
        event (no closure).  Taps and instrumentation only add observers;
        they never change the draws or the delivery schedule.
        """
        sim = self.sim
        now = sim.clock._now
        datagram = Datagram(src=src_host.address, dst=dst, payload=payload,
                            payload_bytes=payload_bytes, sent_at=now)
        wire_bytes = payload_bytes + HEADER_BYTES
        self.datagrams_sent += 1
        if self._obs_enabled:
            self._m_messages_sent.labeled(type(payload).__name__).inc()
            self._h_backlog.observe(src_host.uplink.backlog(now))

        uplink_delay = src_host.uplink.enqueue(wire_bytes, now)
        if uplink_delay is None:
            self.datagrams_dropped_uplink += 1
            if self._spans.enabled:
                # Tail drops truncate data transactions: the instant
                # marks where a request/reply span will end in timeout.
                self._spans.instant("uplink_tail_drop", "net", now,
                                    actor=datagram.src, dst=dst,
                                    msg=type(payload).__name__)
            return False
        if self._obs_enabled:
            self._m_bytes_queued.inc(wire_bytes)
        taps = self._taps
        if taps:
            for tap in taps:
                tap("send", datagram, now)

        latency = self.latency
        dst_host = self._hosts.get(dst)
        dst_isp = dst_host.isp if dst_host is not None else None
        if dst_isp is not None and latency.is_lost(src_host.isp, dst_isp):
            self.datagrams_lost += 1
            if self._trace.enabled_for(DEBUG):
                self._trace.emit(now, DEBUG, "path_loss",
                                 src=datagram.src, dst=dst,
                                 msg=type(payload).__name__)
            return True  # the sender cannot tell loss from silence

        if dst_isp is None:
            # Destination unknown right now; approximate propagation with
            # the source's intra-ISP delay so late joins behave sanely.
            propagation = latency.one_way_delay(
                src_host.address, src_host.isp, dst, src_host.isp,
                wire_bytes)
        else:
            propagation = latency.one_way_delay(
                src_host.address, src_host.isp, dst, dst_isp,
                wire_bytes)

        deliver_at = now + uplink_delay + propagation
        sim.post(deliver_at, self._deliver, datagram, label="udp-deliver")
        return True

    def send_many(self, src_host: Host, sends: List[tuple]) -> None:
        """Send a cohort of datagrams from one host in a single pass.

        ``sends`` holds ``(dst, payload, payload_bytes)`` triples in
        transmit order.  The pipeline runs in phases over the cohort:
        the uplink arithmetic for every datagram (in order, no RNG),
        then the loss draws for the uplink survivors, then the jitter
        draws for the unlost, batched through
        :meth:`LatencyModel.are_lost` / :meth:`~LatencyModel.
        one_way_delays`.  Against calling :meth:`send` once per triple:

        * identical: each datagram's fate (tail drop, loss, delivery)
          and delivery time, every counter, the draw order of each RNG
          stream (loss and jitter live on separate streams, so phasing
          cannot interleave them), and every tap event;
        * not identical: observer records of *different* kinds come
          grouped by phase (every ``uplink_tail_drop`` span instant of
          the cohort before its first ``path_loss`` trace record), not
          packet by packet.

        Each surviving datagram is posted as its own ``udp-deliver``
        event, in cohort order.
        """
        if len(sends) < 2:
            for dst, payload, payload_bytes in sends:
                self.send(src_host, dst, payload, payload_bytes)
            return
        sim = self.sim
        now = sim.clock._now
        taps = self._taps
        trace = self._trace
        spans = self._spans
        obs_enabled = self._obs_enabled
        hosts = self._hosts
        uplink = src_host.uplink
        enqueue = uplink.enqueue
        src_address = src_host.address
        src_isp = src_host.isp
        survivors = []
        keep = survivors.append
        # Cohort-constant counters fold into one update each; per-packet
        # increments stay per-packet only where a drop can interleave.
        self.datagrams_sent += len(sends)
        queued_bytes = 0
        for dst, payload, payload_bytes in sends:
            datagram = Datagram(src=src_address, dst=dst, payload=payload,
                                payload_bytes=payload_bytes, sent_at=now)
            wire_bytes = payload_bytes + HEADER_BYTES
            if obs_enabled:
                self._m_messages_sent.labeled(type(payload).__name__).inc()
                self._h_backlog.observe(uplink.backlog(now))
            uplink_delay = enqueue(wire_bytes, now)
            if uplink_delay is None:
                self.datagrams_dropped_uplink += 1
                if spans.enabled:
                    spans.instant("uplink_tail_drop", "net", now,
                                  actor=src_address, dst=dst,
                                  msg=type(payload).__name__)
                continue
            queued_bytes += wire_bytes
            if taps:
                for tap in taps:
                    tap("send", datagram, now)
            dst_host = hosts.get(dst)
            keep((datagram, wire_bytes, uplink_delay,
                  dst_host.isp if dst_host is not None else None))
        if queued_bytes and obs_enabled:
            self._m_bytes_queued.inc(queued_bytes)
        if not survivors:
            return
        latency = self.latency
        # Loss draws: one per survivor with a known destination, in
        # cohort order — unknown destinations skip the draw, as in
        # send().
        loss_pairs = [(src_isp, dst_isp)
                      for _d, _w, _u, dst_isp in survivors
                      if dst_isp is not None]
        verdicts = latency.are_lost(loss_pairs) if loss_pairs else ()
        alive = []
        items = []
        verdict_index = 0
        for entry in survivors:
            dst_isp = entry[3]
            if dst_isp is not None:
                lost = verdicts[verdict_index]
                verdict_index += 1
                if lost:
                    datagram = entry[0]
                    self.datagrams_lost += 1
                    if trace.enabled_for(DEBUG):
                        trace.emit(now, DEBUG, "path_loss",
                                   src=src_address, dst=datagram.dst,
                                   msg=type(datagram.payload).__name__)
                    continue
            alive.append(entry)
            # Unknown destination: approximate propagation with the
            # source's intra-ISP delay, exactly as send() does.
            items.append((src_address, src_isp, entry[0].dst,
                          dst_isp if dst_isp is not None else src_isp,
                          entry[1]))
        if not alive:
            return
        delays = latency.one_way_delays(items)
        post = sim.post
        deliver = self._deliver
        for entry, propagation in zip(alive, delays):
            post(now + entry[2] + propagation, deliver, entry[0],
                 label="udp-deliver")

    def _deliver(self, datagram: Datagram) -> None:
        host = self._hosts.get(datagram.dst)
        if host is None:
            self.datagrams_dropped_offline += 1
            return
        if host._fault_filter is not None and host.fault_drops():
            self.datagrams_dropped_fault += 1
            if self._trace.enabled_for(DEBUG):
                self._trace.emit(self.sim.clock._now, DEBUG, "fault_drop",
                                 src=datagram.src, dst=datagram.dst,
                                 msg=type(datagram.payload).__name__)
            return
        wire_bytes = datagram.payload_bytes + HEADER_BYTES
        self.datagrams_delivered += 1
        self.bytes_delivered += wire_bytes
        sink = self._flow_sink
        if sink is not None:
            sink(datagram, self.sim.clock._now, wire_bytes)
        taps = self._taps
        if taps:
            now = self.sim.clock._now
            for tap in taps:
                tap("recv", datagram, now)
        host.handle_datagram(datagram)
