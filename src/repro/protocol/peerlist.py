"""Candidate pool and peer-list construction.

A client learns about other peers from tracker replies, gossip replies,
and lists enclosed in incoming gossip requests.  The :class:`CandidatePool`
remembers where and when each address was learned (the capture analysis
distinguishes tracker-sourced from peer-sourced entries the same way the
paper does), bounds its size with least-recently-refreshed eviction, and
produces the ≤60-entry peer lists this client sends to others.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence


class ListSource(enum.Enum):
    """Where a candidate address was learned from."""

    TRACKER = "tracker"
    NEIGHBOR = "neighbor"
    ENCLOSED = "enclosed"

    def __str__(self) -> str:
        return self.value


@dataclass
class Candidate:
    """One known-but-not-necessarily-connected peer address."""

    address: str
    first_seen: float
    last_seen: float
    source: ListSource
    times_seen: int = 1
    #: Set when a connection attempt to this candidate failed recently.
    backoff_until: float = 0.0
    #: Consecutive connection failures since the last success (feeds the
    #: exponential retry policy in :class:`ProtocolConfig`).
    failures: int = 0
    #: Misbehaviour strikes accumulated against this address.
    strikes: int = 0
    #: Banned (ineligible for connection *and* referral) until this
    #: simulation time; 0 means never banned.
    banned_until: float = 0.0


class CandidatePool:
    """Bounded registry of known peer addresses."""

    def __init__(self, self_address: str, capacity: int = 500) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.self_address = self_address
        self.capacity = capacity
        self._candidates: Dict[str, Candidate] = {}

    def __len__(self) -> int:
        return len(self._candidates)

    def __contains__(self, address: str) -> bool:
        return address in self._candidates

    def get(self, address: str) -> Optional[Candidate]:
        return self._candidates.get(address)

    def add(self, address: str, now: float, source: ListSource) -> bool:
        """Record a sighting of ``address``.  Returns True if it was new."""
        if address == self.self_address:
            return False
        candidate = self._candidates.get(address)
        if candidate is not None:
            candidate.last_seen = now
            candidate.times_seen += 1
            return False
        self._evict_if_full(now)
        self._candidates[address] = Candidate(
            address=address, first_seen=now, last_seen=now, source=source)
        return True

    def add_many(self, addresses: Iterable[str], now: float,
                 source: ListSource) -> int:
        """Record sightings of many addresses; returns #new candidates."""
        return sum(1 for a in addresses if self.add(a, now, source))

    def note_failure(self, address: str, now: float,
                     backoff: float = 60.0) -> None:
        """Back off a candidate after a failed connection attempt."""
        candidate = self._candidates.get(address)
        if candidate is not None:
            candidate.backoff_until = now + backoff
            candidate.failures += 1

    def note_success(self, address: str) -> None:
        """Clear the consecutive-failure count after a real connection."""
        candidate = self._candidates.get(address)
        if candidate is not None:
            candidate.failures = 0

    def failure_count(self, address: str) -> int:
        candidate = self._candidates.get(address)
        return candidate.failures if candidate is not None else 0

    def strike(self, address: str, now: float, count: int, limit: int,
               ban_seconds: float) -> bool:
        """Charge ``count`` strikes; returns True when the ban fires.

        Bans layer on top of the failure backoff: a banned address is
        invisible to :meth:`connectable` and to peer-list padding until
        ``ban_seconds`` elapse, and its strike count then restarts from
        zero (repeat offenders just get banned again).  Unknown
        addresses are registered first so a striker never loses the ban
        record to pool churn.
        """
        if count <= 0 or address == self.self_address:
            return False
        candidate = self._candidates.get(address)
        if candidate is None:
            self._evict_if_full(now)
            candidate = Candidate(address=address, first_seen=now,
                                  last_seen=now,
                                  source=ListSource.NEIGHBOR)
            self._candidates[address] = candidate
        candidate.strikes += count
        if candidate.strikes >= limit:
            candidate.strikes = 0
            candidate.banned_until = now + ban_seconds
            return True
        return False

    def is_banned(self, address: str, now: float) -> bool:
        candidate = self._candidates.get(address)
        return candidate is not None and candidate.banned_until > now

    def remove(self, address: str) -> None:
        self._candidates.pop(address, None)

    def connectable(self, now: float,
                    exclude: Sequence[str] = ()) -> List[str]:
        """Addresses eligible for a connection attempt right now."""
        excluded = set(exclude)
        excluded.add(self.self_address)
        return [c.address for c in self._candidates.values()
                if c.address not in excluded and c.backoff_until <= now
                and c.banned_until <= now]

    #: A client with fewer neighbors than this pads its returned list
    #: with recently seen candidates so newcomers still get referrals.
    MIN_LIST_ENTRIES = 12

    def build_peer_list(self, neighbors: Sequence[str], limit: int,
                        now: float) -> List[str]:
        """The ≤``limit`` peer list this client returns to a requester.

        "A normal peer returns its recently connected peers": the list is
        the connected-neighbor set.  Only a client with very few
        neighbors (a newcomer) pads with recently seen candidates — the
        referral bias of established peers' lists is what the paper's
        clustering lives on, so diluting them with random pool entries
        would erase the effect being studied.
        """
        out: List[str] = list(neighbors[:limit])
        target = min(limit, self.MIN_LIST_ENTRIES)
        if len(out) < target:
            seen = set(out)
            # nlargest == sorted(..., reverse=True)[:n] (stable): the
            # same candidates in the same order, without a full sort of
            # the pool.
            fresh = heapq.nlargest(
                target - len(out),
                (c for c in self._candidates.values()
                 if c.address not in seen and c.banned_until <= now),
                key=lambda c: c.last_seen)
            out.extend(candidate.address for candidate in fresh)
        return out

    def addresses(self) -> List[str]:
        return list(self._candidates)

    def candidates(self) -> List[Candidate]:
        """Every held candidate, in insertion order."""
        return list(self._candidates.values())

    def _evict_if_full(self, now: float) -> None:
        if len(self._candidates) < self.capacity:
            return
        # Drop the least recently refreshed entry; ties broken by address
        # for determinism.
        victim = min(self._candidates.values(),
                     key=lambda c: (c.last_seen, c.address))
        del self._candidates[victim.address]
