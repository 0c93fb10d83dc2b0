"""Unit tests for per-neighbor state and the neighbor table."""

import pytest

from repro.protocol.neighbors import NeighborState, NeighborTable


def make_state(address="1.0.0.1", now=0.0):
    return NeighborState(address=address, connected_at=now, last_heard=now)


class TestAvailability:
    def test_record_availability_monotone(self):
        state = make_state()
        state.record_availability(10, now=1.0, have_from=2)
        state.record_availability(5, now=2.0)  # stale report, kept at 10
        assert state.reported_have == 10
        assert state.reported_from == 2
        assert state.last_heard == 2.0

    def test_estimated_have_no_report(self):
        state = make_state()
        assert state.estimated_have(10.0, 4.0, 1.0, 0) == -1

    def test_estimated_have_extrapolates_capped(self):
        state = make_state()
        state.record_availability(10, now=0.0)
        # 40 s elapsed at 1 chunk / 4 s = 10 chunks, capped at 3.
        assert state.estimated_have(40.0, 4.0, 1.0, 0,
                                    max_progress=3) == 13

    def test_estimated_have_margin(self):
        state = make_state()
        state.record_availability(10, now=0.0)
        assert state.estimated_have(0.0, 4.0, 1.0, 2, max_progress=0) == 8

    def test_miss_grows_bias_and_report_decays_it(self):
        state = make_state()
        state.record_availability(10, now=0.0)
        state.record_miss(now=1.0)
        assert state.availability_bias == 1.0
        state.record_availability(11, now=2.0)
        assert state.availability_bias == 0.5


class TestResponseTracking:
    def test_first_response_sets_ewma(self):
        state = make_state()
        state.record_response(0.4, alpha=0.25)
        assert state.ewma_response == pytest.approx(0.4)
        assert state.min_response == pytest.approx(0.4)

    def test_ewma_smoothing(self):
        state = make_state()
        state.record_response(0.4, alpha=0.5)
        state.record_response(0.8, alpha=0.5)
        assert state.ewma_response == pytest.approx(0.6)

    def test_min_tracks_floor(self):
        state = make_state()
        for value in (0.5, 0.2, 0.9):
            state.record_response(value, alpha=0.25)
        assert state.min_response == pytest.approx(0.2)

    def test_negative_response_rejected(self):
        state = make_state()
        with pytest.raises(ValueError):
            state.record_response(-0.1, alpha=0.25)


class TestTable:
    def test_add_and_capacity(self):
        table = NeighborTable(capacity=2)
        table.add("1.0.0.1", now=0.0)
        table.add("1.0.0.2", now=0.0)
        assert table.is_full
        with pytest.raises(OverflowError):
            table.add("1.0.0.3", now=0.0)

    def test_add_idempotent(self):
        table = NeighborTable(capacity=2)
        first = table.add("1.0.0.1", now=0.0)
        again = table.add("1.0.0.1", now=5.0)
        assert first is again
        assert table.total_ever_connected == 1

    def test_remove(self):
        table = NeighborTable(capacity=2)
        table.add("1.0.0.1", now=0.0)
        removed = table.remove("1.0.0.1")
        assert removed is not None
        assert "1.0.0.1" not in table
        assert table.remove("1.0.0.1") is None

    def test_silent_since(self):
        table = NeighborTable(capacity=4)
        a = table.add("1.0.0.1", now=0.0)
        b = table.add("1.0.0.2", now=0.0)
        a.last_heard = 100.0
        b.last_heard = 5.0
        assert table.silent_since(50.0) == ["1.0.0.2"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            NeighborTable(capacity=0)
