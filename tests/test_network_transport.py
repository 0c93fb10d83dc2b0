"""Unit tests for the uplink queue and UDP transport."""

import pytest

from repro.network.bandwidth import (ADSL, SERVER, AccessProfile,
                                     UplinkQueue)
from repro.network.builder import build_internet
from repro.network.datagram import HEADER_BYTES
from repro.network.latency import PairClass, PathOverride
from repro.network.transport import Host
from repro.sim import Simulator


class Echo(Host):
    """Test host that records everything it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def handle_datagram(self, datagram):
        self.received.append(datagram)


def make_pair(seed=0, profile=SERVER):
    sim = Simulator(seed=seed)
    internet = build_internet(sim)
    tele = internet.catalog.by_name("ChinaTelecom")
    a = Echo(sim, internet.udp, internet.allocator.allocate(tele), tele,
             profile)
    b = Echo(sim, internet.udp, internet.allocator.allocate(tele), tele,
             profile)
    a.go_online()
    b.go_online()
    return sim, internet, a, b


class TestUplinkQueue:
    def test_serialisation_delay(self):
        queue = UplinkQueue(AccessProfile("t", 1e6, 1e6))
        delay = queue.enqueue(125_000, now=0.0)  # 1 second at 1 Mbit/s
        assert delay == pytest.approx(1.0)

    def test_fifo_backlog_accumulates(self):
        queue = UplinkQueue(AccessProfile("t", 1e6, 1e6, max_backlog=10.0))
        first = queue.enqueue(125_000, now=0.0)
        second = queue.enqueue(125_000, now=0.0)
        assert second == pytest.approx(first + 1.0)

    def test_backlog_drains_over_time(self):
        queue = UplinkQueue(AccessProfile("t", 1e6, 1e6))
        queue.enqueue(125_000, now=0.0)
        assert queue.backlog(0.5) == pytest.approx(0.5)
        assert queue.backlog(2.0) == 0.0

    def test_tail_drop_when_over_backlog(self):
        queue = UplinkQueue(AccessProfile("t", 1e6, 1e6, max_backlog=1.5))
        queue.enqueue(125_000, now=0.0)
        queue.enqueue(125_000, now=0.0)
        # Backlog is now 2.0 s > 1.5 s: next datagram is dropped.
        assert queue.enqueue(1000, now=0.0) is None
        assert queue.datagrams_dropped == 1

    def test_negative_size_rejected(self):
        queue = UplinkQueue(ADSL)
        with pytest.raises(ValueError):
            queue.enqueue(-1, now=0.0)

    def test_utilization_hint_bounded(self):
        queue = UplinkQueue(AccessProfile("t", 1e6, 1e6, max_backlog=1.0))
        queue.enqueue(250_000, now=0.0)
        assert queue.utilization_hint(0.0) == 1.0

    def test_reset_clears_backlog(self):
        queue = UplinkQueue(ADSL)
        queue.enqueue(100_000, now=0.0)
        queue.reset(now=0.0)
        assert queue.backlog(0.0) == 0.0


class TestTransport:
    def test_delivery(self):
        sim, internet, a, b = make_pair()
        a.send(b.address, "hello", payload_bytes=100)
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].payload == "hello"
        assert b.received[0].src == a.address

    def test_delivery_takes_time(self):
        sim, internet, a, b = make_pair()
        a.send(b.address, "x", payload_bytes=100)
        sim.run()
        assert sim.now > 0.0

    def test_offline_destination_drops(self):
        sim, internet, a, b = make_pair()
        b.go_offline()
        a.send(b.address, "x", payload_bytes=100)
        sim.run()
        assert b.received == []
        assert internet.udp.datagrams_dropped_offline == 1

    def test_departure_mid_flight_drops(self):
        sim, internet, a, b = make_pair()
        a.send(b.address, "x", payload_bytes=100)
        b.go_offline()  # packet already in flight
        sim.run()
        assert b.received == []

    def test_duplicate_address_registration_rejected(self):
        sim, internet, a, b = make_pair()
        tele = internet.catalog.by_name("ChinaTelecom")
        clone = Echo(sim, internet.udp, a.address, tele, SERVER)
        with pytest.raises(ValueError):
            clone.go_online()

    def test_uplink_drop_returns_false(self):
        profile = AccessProfile("tiny", 1e6, 1000.0, max_backlog=0.001)
        sim, internet, a, b = make_pair(profile=profile)
        assert a.send(b.address, "1", payload_bytes=10_000) is True
        # The first send saturated the uplink way past the backlog cap.
        assert a.send(b.address, "2", payload_bytes=10_000) is False

    def test_taps_observe_send_and_recv(self):
        sim, internet, a, b = make_pair()
        events = []
        internet.udp.add_tap(lambda e, d, t: events.append((e, d.src, t)))
        a.send(b.address, "x", payload_bytes=10)
        sim.run()
        kinds = [e for e, _src, _t in events]
        assert kinds == ["send", "recv"]

    def test_tap_removal(self):
        sim, internet, a, b = make_pair()
        events = []
        tap = lambda e, d, t: events.append(e)
        internet.udp.add_tap(tap)
        internet.udp.remove_tap(tap)
        a.send(b.address, "x", payload_bytes=10)
        sim.run()
        assert events == []

    def test_duplicate_add_tap_rejected(self):
        sim, internet, a, b = make_pair()
        tap = lambda e, d, t: None
        internet.udp.add_tap(tap)
        with pytest.raises(ValueError, match="already registered"):
            internet.udp.add_tap(tap)
        # The failed add must not have registered a second copy.
        assert internet.udp._taps == [tap]

    def test_remove_unregistered_tap_rejected(self):
        sim, internet, a, b = make_pair()
        with pytest.raises(ValueError, match="not registered"):
            internet.udp.remove_tap(lambda e, d, t: None)

    def test_remove_tap_twice_rejected(self):
        sim, internet, a, b = make_pair()
        tap = lambda e, d, t: None
        internet.udp.add_tap(tap)
        internet.udp.remove_tap(tap)
        with pytest.raises(ValueError, match="not registered"):
            internet.udp.remove_tap(tap)

    def test_bound_method_tap_round_trips(self):
        # Bound methods compare by (__self__, __func__): a bound-method
        # tap must add/detect/remove cleanly even though each attribute
        # access builds a fresh bound-method object.
        sim, internet, a, b = make_pair()

        class Sink:
            def tap(self, event, datagram, time):
                pass

        sink = Sink()
        internet.udp.add_tap(sink.tap)
        with pytest.raises(ValueError, match="already registered"):
            internet.udp.add_tap(sink.tap)
        internet.udp.remove_tap(sink.tap)
        assert internet.udp._taps == []

    def test_removing_last_tap_mid_run_restores_fast_path(self):
        sim, internet, a, b = make_pair()
        events = []
        tap = lambda e, d, t: events.append(e)
        internet.udp.add_tap(tap)

        a.send(b.address, "1", payload_bytes=10)
        sim.call_after(5.0, lambda: internet.udp.remove_tap(tap),
                       label="detach")
        sim.call_after(10.0, lambda: a.send(b.address, "2",
                                            payload_bytes=10),
                       label="late-send")
        sim.run()
        # Only the first datagram was observed; after mid-run removal the
        # tap list is empty again so send/_deliver take the no-tap branch.
        assert events == ["send", "recv"]
        assert internet.udp._taps == []
        assert len(b.received) == 2

    def test_flow_sink_sees_deliveries_with_wire_bytes(self):
        sim, internet, a, b = make_pair()
        seen = []
        internet.udp.set_flow_sink(
            lambda d, now, wire: seen.append((d.dst, now, wire)))
        a.send(b.address, "x", payload_bytes=100)
        sim.run()
        assert len(seen) == 1
        dst, now, wire = seen[0]
        assert dst == b.address
        assert wire == 100 + HEADER_BYTES
        assert now == pytest.approx(sim.now)

    def test_flow_sink_not_called_for_drops(self):
        sim, internet, a, b = make_pair()
        seen = []
        internet.udp.set_flow_sink(lambda d, now, wire: seen.append(d))
        b.go_offline()
        a.send(b.address, "x", payload_bytes=100)
        sim.run()
        assert seen == []
        assert internet.udp.datagrams_dropped_offline == 1

    def test_flow_sink_single_consumer(self):
        sim, internet, a, b = make_pair()
        internet.udp.set_flow_sink(lambda d, now, wire: None)
        with pytest.raises(ValueError, match="already installed"):
            internet.udp.set_flow_sink(lambda d, now, wire: None)
        internet.udp.clear_flow_sink()
        assert internet.udp._flow_sink is None
        # A cleared slot accepts a fresh sink.
        internet.udp.set_flow_sink(lambda d, now, wire: None)

    def test_clear_flow_sink_restores_fast_path_mid_run(self):
        sim, internet, a, b = make_pair()
        seen = []
        internet.udp.set_flow_sink(lambda d, now, wire: seen.append(d))
        a.send(b.address, "1", payload_bytes=10)
        sim.call_after(5.0, internet.udp.clear_flow_sink,
                       label="detach-sink")
        sim.call_after(10.0, lambda: a.send(b.address, "2",
                                            payload_bytes=10),
                       label="late-send")
        sim.run()
        assert len(seen) == 1
        assert internet.udp._flow_sink is None
        assert len(b.received) == 2

    def test_counters(self):
        sim, internet, a, b = make_pair()
        for _ in range(5):
            a.send(b.address, "x", payload_bytes=10)
        sim.run()
        udp = internet.udp
        assert udp.datagrams_sent == 5
        assert udp.datagrams_delivered + udp.datagrams_lost == 5

    def test_online_count(self):
        sim, internet, a, b = make_pair()
        base = internet.udp.online_count
        b.go_offline()
        assert internet.udp.online_count == base - 1


class TestSendManyMatchesSend:
    """A ``send_many`` cohort against the same triples sent one by one.

    The cohort covers every per-datagram fate: delivery, an unknown
    destination (no loss draw, dropped offline at delivery), a loss
    forced by a :class:`PathOverride`, and uplink tail drops behind a
    datagram that overfills the backlog.
    """

    UNKNOWN = "203.0.113.9"

    @staticmethod
    def _world():
        sim = Simulator(seed=5)
        internet = build_internet(sim)
        tele = internet.catalog.by_name("ChinaTelecom")
        cnc = internet.catalog.by_name("ChinaNetcom")
        narrow = AccessProfile("narrow", 1e6, 100_000.0, max_backlog=0.5)
        log = []

        class Logger(Host):
            def handle_datagram(self, datagram):
                log.append((self.address, datagram.payload, sim.now))

        sender = Logger(sim, internet.udp, internet.allocator.allocate(tele),
                        tele, narrow)
        near = Logger(sim, internet.udp, internet.allocator.allocate(tele),
                      tele, SERVER)
        far = Logger(sim, internet.udp, internet.allocator.allocate(cnc),
                     cnc, SERVER)
        for host in (sender, near, far):
            host.go_online()
        internet.latency.push_override(PairClass.TELE_CNC_PEERING,
                                       PathOverride(extra_loss=1.0))
        taps = {}
        internet.udp.add_tap(lambda kind, d, t: taps.setdefault(
            kind, []).append((d.dst, d.payload, t)))
        triples = [
            (near.address, "a", 200),
            (far.address, "b", 200),       # lost: the override
            (TestSendManyMatchesSend.UNKNOWN, "c", 200),
            (near.address, "d", 200),
            (near.address, "big", 10_000),  # overfills the backlog
            (far.address, "e", 200),       # tail-dropped
            (near.address, "f", 200),      # tail-dropped
        ]
        return sim, internet, sender, triples, log, taps

    @staticmethod
    def _outcome(sim, internet, log, taps):
        udp = internet.udp
        latency = internet.latency
        return {
            "counters": (sim.events_executed, udp.datagrams_sent,
                         udp.datagrams_delivered, udp.datagrams_lost,
                         udp.datagrams_dropped_uplink,
                         udp.datagrams_dropped_offline,
                         udp.datagrams_dropped_fault,
                         udp.bytes_delivered),
            "delivered": log,
            "jitter_rng": latency._jitter_rng.getstate(),
            "loss_rng": latency._loss_rng.getstate(),
            "taps": taps,
        }

    def test_cohort_matches_one_by_one(self):
        sim, internet, sender, triples, log, taps = self._world()
        sender.send_many(triples)
        sim.run()
        cohort = self._outcome(sim, internet, log, taps)

        sim, internet, sender, triples, log, taps = self._world()
        for dst, payload, payload_bytes in triples:
            sender.send(dst, payload, payload_bytes)
        sim.run()
        single = self._outcome(sim, internet, log, taps)

        assert cohort == single
        # Every fate really occurred, so each branch was compared.
        udp = internet.udp
        assert udp.datagrams_lost == 1
        assert udp.datagrams_dropped_uplink == 2
        assert udp.datagrams_dropped_offline == 1
        assert [payload for _a, payload, _t in log] == ["a", "d", "big"]
        # Drops are counters and trace records, never tap events.
        assert set(taps) == {"send", "recv"}
        assert [payload for _d, payload, _t in taps["send"]] \
            == ["a", "b", "c", "d", "big"]
