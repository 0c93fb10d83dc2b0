"""Unit tests for the latency model."""

import pytest

from repro.network.isp import ISP, ISPCategory, default_isp_catalog
from repro.network.latency import (LatencyConfig, LatencyModel, PairClass,
                                   PathOverride, RttBand, classify_pair)


@pytest.fixture
def catalog():
    return default_isp_catalog()


@pytest.fixture
def model():
    return LatencyModel(LatencyConfig(), master_seed=5)


class TestClassification:
    def test_intra_isp(self, catalog):
        tele = catalog.by_name("ChinaTelecom")
        assert classify_pair(tele, tele) is PairClass.INTRA_ISP

    def test_tele_cnc_peering(self, catalog):
        tele = catalog.by_name("ChinaTelecom")
        cnc = catalog.by_name("ChinaNetcom")
        assert classify_pair(tele, cnc) is PairClass.TELE_CNC_PEERING
        assert classify_pair(cnc, tele) is PairClass.TELE_CNC_PEERING

    def test_cernet_gateway(self, catalog):
        cer = catalog.by_name("CERNET")
        tele = catalog.by_name("ChinaTelecom")
        unicom = catalog.by_name("ChinaUnicom")
        assert classify_pair(cer, tele) is PairClass.CERNET_GATEWAY
        assert classify_pair(unicom, cer) is PairClass.CERNET_GATEWAY

    def test_domestic_china(self, catalog):
        tele = catalog.by_name("ChinaTelecom")
        unicom = catalog.by_name("ChinaUnicom")
        assert classify_pair(tele, unicom) is PairClass.DOMESTIC

    def test_domestic_us(self, catalog):
        comcast = catalog.by_name("Comcast")
        verizon = catalog.by_name("Verizon")
        assert classify_pair(comcast, verizon) is PairClass.DOMESTIC

    def test_international_same_continent(self, catalog):
        tele = catalog.by_name("ChinaTelecom")
        ntt = catalog.by_name("NTT-OCN")
        assert classify_pair(tele, ntt) is PairClass.INTERNATIONAL

    def test_transoceanic(self, catalog):
        tele = catalog.by_name("ChinaTelecom")
        comcast = catalog.by_name("Comcast")
        assert classify_pair(tele, comcast) is PairClass.TRANSOCEANIC
        dt = catalog.by_name("DeutscheTelekom")
        assert classify_pair(comcast, dt) is PairClass.TRANSOCEANIC


class TestRttBand:
    def test_sample_within_bounds(self):
        band = RttBand(median=0.1, sigma=0.5, floor=0.05, ceiling=0.2)
        for gauss in (-10.0, -1.0, 0.0, 1.0, 10.0):
            value = band.sample(gauss)
            assert 0.05 <= value <= 0.2

    def test_median_at_zero_gauss(self):
        band = RttBand(median=0.1, sigma=0.5, floor=0.01, ceiling=1.0)
        assert band.sample(0.0) == pytest.approx(0.1)


class TestBaseRtt:
    def test_symmetric(self, catalog, model):
        tele = catalog.by_name("ChinaTelecom")
        cnc = catalog.by_name("ChinaNetcom")
        a = model.base_rtt("1.0.0.1", tele, "1.8.0.1", cnc)
        b = model.base_rtt("1.8.0.1", cnc, "1.0.0.1", tele)
        assert a == b

    def test_stable_across_calls(self, catalog, model):
        tele = catalog.by_name("ChinaTelecom")
        values = {model.base_rtt("1.0.0.1", tele, "1.0.0.2", tele)
                  for _ in range(10)}
        assert len(values) == 1

    def test_deterministic_across_models(self, catalog):
        tele = catalog.by_name("ChinaTelecom")
        a = LatencyModel(LatencyConfig(), 9).base_rtt(
            "1.0.0.1", tele, "1.0.0.2", tele)
        b = LatencyModel(LatencyConfig(), 9).base_rtt(
            "1.0.0.1", tele, "1.0.0.2", tele)
        assert a == b

    def test_pair_classes_ordered_on_average(self, catalog, model):
        """Intra-ISP pairs are on average faster than transoceanic ones."""
        tele = catalog.by_name("ChinaTelecom")
        comcast = catalog.by_name("Comcast")
        intra = [model.base_rtt(f"1.0.0.{i}", tele, f"1.0.1.{i}", tele)
                 for i in range(1, 60)]
        ocean = [model.base_rtt(f"1.0.0.{i}", tele, f"1.24.0.{i}", comcast)
                 for i in range(1, 60)]
        assert sum(intra) / len(intra) < sum(ocean) / len(ocean)

    def test_cache_grows(self, catalog, model):
        tele = catalog.by_name("ChinaTelecom")
        model.base_rtt("1.0.0.1", tele, "1.0.0.2", tele)
        model.base_rtt("1.0.0.1", tele, "1.0.0.3", tele)
        assert model.cache_size() == 2


class TestOneWayDelay:
    def test_positive_and_jittered(self, catalog, model):
        tele = catalog.by_name("ChinaTelecom")
        delays = {model.one_way_delay("1.0.0.1", tele, "1.0.0.2", tele)
                  for _ in range(20)}
        assert all(d > 0 for d in delays)
        assert len(delays) > 1  # jitter varies per packet

    def test_size_dependent_path_term(self, catalog, model):
        tele = catalog.by_name("ChinaTelecom")
        comcast = catalog.by_name("Comcast")
        small = [model.one_way_delay("1.0.0.1", tele, "1.24.0.1", comcast,
                                     wire_bytes=100) for _ in range(30)]
        large = [model.one_way_delay("1.0.0.1", tele, "1.24.0.1", comcast,
                                     wire_bytes=20000) for _ in range(30)]
        assert sum(large) / 30 > sum(small) / 30

    def test_bulk_slower_cross_isp_than_intra(self, catalog, model):
        tele = catalog.by_name("ChinaTelecom")
        cnc = catalog.by_name("ChinaNetcom")
        intra = [model.one_way_delay(f"1.0.0.{i}", tele, f"1.0.1.{i}",
                                     tele, wire_bytes=15000)
                 for i in range(1, 40)]
        cross = [model.one_way_delay(f"1.0.0.{i}", tele, f"1.8.0.{i}",
                                     cnc, wire_bytes=15000)
                 for i in range(1, 40)]
        assert sum(intra) / len(intra) < sum(cross) / len(cross)


class TestLoss:
    def test_loss_rates_respected(self, catalog):
        config = LatencyConfig()
        config.loss[PairClass.INTRA_ISP] = 0.0
        config.loss[PairClass.TRANSOCEANIC] = 1.0
        model = LatencyModel(config, master_seed=1)
        tele = catalog.by_name("ChinaTelecom")
        comcast = catalog.by_name("Comcast")
        assert not any(model.is_lost(tele, tele) for _ in range(50))
        assert all(model.is_lost(tele, comcast) for _ in range(50))


class TestBatchEquivalence:
    """The cohort batch helpers against per-packet calls, bit for bit.

    ``one_way_delays`` / ``are_lost`` promise the exact floats and
    verdicts of the equivalent per-packet call sequence: one draw per
    item in item order on each RNG stream.  Each case runs a small
    cohort and one far larger than any protocol fan-out.
    """

    COUNTS = (3, 200)

    @staticmethod
    def _items(catalog, count):
        isps = [catalog.by_name(name) for name in
                ("ChinaTelecom", "ChinaNetcom", "CERNET", "Comcast")]
        return [(f"10.0.{i % 5}.1", isps[i % 4],
                 f"10.1.{(i * 3) % 7}.2", isps[(i * 7 + 3) % 4],
                 28 + (i % 4) * 400)
                for i in range(count)]

    def test_delays_match_per_packet_reference(self, catalog):
        for count in self.COUNTS:
            batched = LatencyModel(LatencyConfig(), master_seed=5)
            reference = LatencyModel(LatencyConfig(), master_seed=5)
            items = self._items(catalog, count)
            assert (batched.one_way_delays(items)
                    == [reference.one_way_delay(*item) for item in items])

    def test_losses_match_per_packet_reference(self, catalog):
        for count in self.COUNTS:
            pairs = [(item[1], item[3])
                     for item in self._items(catalog, count)]
            batched = LatencyModel(LatencyConfig(), master_seed=5)
            reference = LatencyModel(LatencyConfig(), master_seed=5)
            assert (list(batched.are_lost(pairs))
                    == [reference.is_lost(a, b) for a, b in pairs])

    def test_override_cohort_matches_per_packet_reference(self, catalog):
        """A pushed :class:`PathOverride` routes both helpers through
        their override arm, which must still match per-packet calls.

        Half the cohort crosses the overridden CERNET gateway and half
        does not, so the arm's per-class lookup is exercised both ways.
        """
        override = PathOverride(loss_multiplier=3.0, extra_loss=0.2,
                                latency_multiplier=1.5,
                                bandwidth_multiplier=0.25)
        items = self._items(catalog, 200)
        pairs = [(item[1], item[3]) for item in items]
        batched = LatencyModel(LatencyConfig(), master_seed=5)
        reference = LatencyModel(LatencyConfig(), master_seed=5)
        for model in (batched, reference):
            model.push_override(PairClass.CERNET_GATEWAY, override)
        delays = batched.one_way_delays(items)
        assert delays == [reference.one_way_delay(*item) for item in items]
        lost = batched.are_lost(pairs)
        assert lost == [reference.is_lost(a, b) for a, b in pairs]
        # The override changed the draws' outcome, not just their count.
        plain = LatencyModel(LatencyConfig(), master_seed=5)
        assert plain.one_way_delays(items) != delays
        assert plain.are_lost(pairs) != lost
