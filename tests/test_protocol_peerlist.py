"""Unit tests for the candidate pool and peer-list construction."""

import pytest

from repro.protocol.peerlist import CandidatePool, ListSource


@pytest.fixture
def pool():
    return CandidatePool(self_address="1.0.0.99", capacity=10)


class TestAdd:
    def test_new_candidate(self, pool):
        assert pool.add("1.0.0.1", now=0.0, source=ListSource.TRACKER)
        assert "1.0.0.1" in pool
        assert len(pool) == 1

    def test_self_address_ignored(self, pool):
        assert not pool.add("1.0.0.99", now=0.0,
                            source=ListSource.TRACKER)
        assert len(pool) == 0

    def test_resighting_refreshes(self, pool):
        pool.add("1.0.0.1", now=0.0, source=ListSource.TRACKER)
        assert not pool.add("1.0.0.1", now=5.0,
                            source=ListSource.NEIGHBOR)
        candidate = pool.get("1.0.0.1")
        assert candidate.last_seen == 5.0
        assert candidate.times_seen == 2
        # First-seen source is preserved.
        assert candidate.source is ListSource.TRACKER

    def test_add_many_counts_new(self, pool):
        added = pool.add_many(["1.0.0.1", "1.0.0.2", "1.0.0.1"],
                              now=0.0, source=ListSource.ENCLOSED)
        assert added == 2

    def test_capacity_eviction_lru(self):
        pool = CandidatePool("9.9.9.9", capacity=3)
        pool.add("1.0.0.1", now=1.0, source=ListSource.TRACKER)
        pool.add("1.0.0.2", now=2.0, source=ListSource.TRACKER)
        pool.add("1.0.0.3", now=3.0, source=ListSource.TRACKER)
        pool.add("1.0.0.4", now=4.0, source=ListSource.TRACKER)
        assert "1.0.0.1" not in pool  # least recently refreshed evicted
        assert len(pool) == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            CandidatePool("x", capacity=0)


class TestConnectable:
    def test_backoff_excludes(self, pool):
        pool.add("1.0.0.1", now=0.0, source=ListSource.TRACKER)
        pool.note_failure("1.0.0.1", now=0.0, backoff=60.0)
        assert pool.connectable(now=30.0) == []
        assert pool.connectable(now=61.0) == ["1.0.0.1"]

    def test_exclusion_list(self, pool):
        pool.add("1.0.0.1", now=0.0, source=ListSource.TRACKER)
        pool.add("1.0.0.2", now=0.0, source=ListSource.TRACKER)
        out = pool.connectable(now=1.0, exclude=["1.0.0.1"])
        assert out == ["1.0.0.2"]

    def test_remove(self, pool):
        pool.add("1.0.0.1", now=0.0, source=ListSource.TRACKER)
        pool.remove("1.0.0.1")
        assert "1.0.0.1" not in pool
        pool.remove("1.0.0.1")  # idempotent


class TestStrikesAndBans:
    def test_strike_below_limit_no_ban(self, pool):
        pool.add("1.0.0.1", now=0.0, source=ListSource.TRACKER)
        assert not pool.strike("1.0.0.1", now=0.0, count=1, limit=3,
                               ban_seconds=240.0)
        assert not pool.strike("1.0.0.1", now=1.0, count=1, limit=3,
                               ban_seconds=240.0)
        assert pool.get("1.0.0.1").strikes == 2
        assert not pool.is_banned("1.0.0.1", now=2.0)
        assert pool.connectable(now=2.0) == ["1.0.0.1"]

    def test_strike_to_limit_bans(self, pool):
        pool.add("1.0.0.1", now=0.0, source=ListSource.TRACKER)
        assert pool.strike("1.0.0.1", now=5.0, count=3, limit=3,
                           ban_seconds=240.0)
        assert pool.is_banned("1.0.0.1", now=6.0)
        # Strikes reset so the next offense starts a fresh count.
        assert pool.get("1.0.0.1").strikes == 0
        assert pool.connectable(now=6.0) == []

    def test_ban_expires(self, pool):
        pool.add("1.0.0.1", now=0.0, source=ListSource.TRACKER)
        pool.strike("1.0.0.1", now=0.0, count=3, limit=3,
                    ban_seconds=240.0)
        assert pool.is_banned("1.0.0.1", now=239.0)
        assert not pool.is_banned("1.0.0.1", now=241.0)
        assert pool.connectable(now=241.0) == ["1.0.0.1"]

    def test_banned_excluded_from_peer_list_padding(self):
        pool = CandidatePool("9.9.9.9", capacity=100)
        for i in range(1, 10):
            pool.add(f"2.0.0.{i}", now=float(i),
                     source=ListSource.TRACKER)
        pool.strike("2.0.0.9", now=9.0, count=3, limit=3,
                    ban_seconds=240.0)
        out = pool.build_peer_list(["3.0.0.1"], limit=60, now=10.0)
        assert "2.0.0.9" not in out

    def test_strike_unknown_address_registers_it(self, pool):
        assert not pool.strike("1.0.0.7", now=0.0, count=1, limit=3,
                               ban_seconds=240.0)
        assert "1.0.0.7" in pool
        assert pool.get("1.0.0.7").strikes == 1


class TestBuildPeerList:
    def test_neighbors_come_first(self, pool):
        for i in range(1, 4):
            pool.add(f"2.0.0.{i}", now=float(i),
                     source=ListSource.NEIGHBOR)
        out = pool.build_peer_list(["3.0.0.1", "3.0.0.2"], limit=60,
                                   now=10.0)
        assert out[:2] == ["3.0.0.1", "3.0.0.2"]

    def test_limit_respected(self, pool):
        neighbors = [f"3.0.0.{i}" for i in range(1, 100)]
        out = pool.build_peer_list(neighbors, limit=60, now=0.0)
        assert len(out) == 60

    def test_established_peer_returns_neighbors_only(self):
        """A peer with a healthy table does not pad with pool noise."""
        pool = CandidatePool("9.9.9.9", capacity=100)
        for i in range(1, 50):
            pool.add(f"2.0.0.{i}", now=float(i),
                     source=ListSource.TRACKER)
        neighbors = [f"3.0.0.{i}" for i in range(1, 20)]  # 19 >= 12
        out = pool.build_peer_list(neighbors, limit=60, now=100.0)
        assert out == neighbors

    def test_newcomer_pads_with_recent_candidates(self):
        pool = CandidatePool("9.9.9.9", capacity=100)
        for i in range(1, 30):
            pool.add(f"2.0.0.{i}", now=float(i),
                     source=ListSource.TRACKER)
        out = pool.build_peer_list(["3.0.0.1"], limit=60, now=100.0)
        assert len(out) == pool.MIN_LIST_ENTRIES
        # Padding prefers the most recently seen candidates.
        assert "2.0.0.29" in out

    def test_no_duplicates(self):
        pool = CandidatePool("9.9.9.9", capacity=100)
        pool.add("3.0.0.1", now=0.0, source=ListSource.TRACKER)
        out = pool.build_peer_list(["3.0.0.1"], limit=60, now=1.0)
        assert out.count("3.0.0.1") == 1
