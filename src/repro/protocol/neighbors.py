"""Per-neighbor connection state and the neighbor table.

For every connected neighbor a client tracks:

* liveness (last time anything was heard),
* advertised availability and when it was reported (so the scheduler can
  extrapolate how far the neighbor has progressed since),
* an EWMA of data-response time — the client's *only* signal about how
  good a server this neighbor is.  Nothing here ever looks at ISP or
  topology information: responsiveness is learned purely from observed
  latencies, which is exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class NeighborState:
    """Everything a client knows about one connected neighbor."""

    address: str
    connected_at: float
    last_heard: float
    #: Last availability the neighbor reported, and when.
    reported_have: int = -1
    reported_at: float = 0.0
    #: Oldest chunk the neighbor can serve (its buffer start).
    reported_from: int = 0
    #: Learned estimate of availability staleness correction (chunks),
    #: decreased when an extrapolated request comes back as a miss.
    availability_bias: float = 0.0
    #: Application-level round-trip observed on the connection handshake
    #: (Hello -> HelloAck); the client's first latency signal about the
    #: neighbor, available before any data flows.
    hello_rtt: Optional[float] = None
    #: EWMA of observed data-response times (seconds); None until the
    #: first response arrives.
    ewma_response: Optional[float] = None
    #: Smallest application-level response time seen (RTT floor estimate).
    min_response: Optional[float] = None
    #: Outstanding data requests (seq numbers currently in flight).
    inflight: int = 0
    #: Until this time the neighbor is skipped for data requests
    #: (set after timeouts and misses to break retry storms).
    cooldown_until: float = 0.0
    # Accounting
    data_requests_sent: int = 0
    data_replies_received: int = 0
    data_misses: int = 0
    data_timeouts: int = 0
    bytes_received: int = 0
    peer_lists_received: int = 0

    def record_availability(self, have_until: int, now: float,
                            have_from: Optional[int] = None) -> None:
        """Update the advertised availability from a piggybacked report."""
        if have_until >= self.reported_have:
            self.reported_have = have_until
            self.reported_at = now
            self.availability_bias = max(self.availability_bias - 0.5, 0.0)
        if have_from is not None:
            self.reported_from = have_from
        self.last_heard = now

    def estimated_have(self, now: float, chunk_seconds: float,
                       slope: float, margin: int,
                       max_progress: int = 10) -> int:
        """Extrapolated availability, assuming steady live progress.

        Extrapolated progress is capped at ``max_progress`` chunks so a
        neighbor that stopped reporting (stalled or overloaded) stops
        looking better over time.
        """
        if self.reported_have < 0:
            return -1
        if max_progress > 0:
            elapsed = now - self.reported_at
            if elapsed < 0.0:
                elapsed = 0.0
            progress = min(int(slope * elapsed / chunk_seconds),
                           max_progress)
        else:
            progress = 0
        return (self.reported_have + progress - margin
                - int(self.availability_bias))

    def record_response(self, response_time: float, alpha: float) -> None:
        """Fold one observed data-response time into the EWMA and floor."""
        if response_time < 0:
            raise ValueError(f"negative response time {response_time}")
        if self.ewma_response is None:
            self.ewma_response = response_time
        else:
            self.ewma_response = (alpha * response_time
                                  + (1 - alpha) * self.ewma_response)
        if self.min_response is None or response_time < self.min_response:
            self.min_response = response_time

    def effective_response(self, handshake_scale: float = 3.0,
                           default: float = 0.4) -> float:
        """Best available latency estimate for scheduling/replacement.

        Data-response EWMA when present; otherwise the handshake RTT
        scaled up to data-response magnitude (a small control packet
        round-trip under-estimates a bulk response); otherwise a neutral
        default.
        """
        if self.ewma_response is not None:
            return self.ewma_response
        if self.hello_rtt is not None:
            return self.hello_rtt * handshake_scale
        return default

    def record_miss(self, now: float) -> None:
        """An extrapolated request missed: grow the staleness correction."""
        self.data_misses += 1
        self.availability_bias = min(self.availability_bias + 1.0, 16.0)
        self.last_heard = now


class NeighborTable:
    """The set of currently connected neighbors, with a hard capacity."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._neighbors: Dict[str, NeighborState] = {}
        self.total_ever_connected = 0

    def __len__(self) -> int:
        return len(self._neighbors)

    def __contains__(self, address: str) -> bool:
        return address in self._neighbors

    def __iter__(self):
        return iter(self._neighbors.values())

    @property
    def is_full(self) -> bool:
        return len(self._neighbors) >= self.capacity

    def get(self, address: str) -> Optional[NeighborState]:
        return self._neighbors.get(address)

    def addresses(self) -> List[str]:
        return list(self._neighbors)

    def add(self, address: str, now: float) -> NeighborState:
        """Admit a new neighbor (caller must have checked capacity)."""
        if address in self._neighbors:
            return self._neighbors[address]
        if self.is_full:
            raise OverflowError("neighbor table full")
        state = NeighborState(address=address, connected_at=now,
                              last_heard=now)
        self._neighbors[address] = state
        self.total_ever_connected += 1
        return state

    def remove(self, address: str) -> Optional[NeighborState]:
        return self._neighbors.pop(address, None)

    def silent_since(self, cutoff: float) -> List[str]:
        """Neighbors not heard from since ``cutoff`` (candidates to drop)."""
        return [a for a, s in self._neighbors.items()
                if s.last_heard < cutoff]
