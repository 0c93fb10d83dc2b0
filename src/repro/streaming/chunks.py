"""Chunk and sub-piece geometry of a live stream.

PPLive divides the video into chunks, "which may be further divided into
smaller sub-pieces of 1380 or 690 bytes each" (paper, Section 2).  A
:class:`ChunkGeometry` fixes, for one channel: the stream bitrate, the
chunk duration, the sub-piece size, and therefore how many sub-pieces a
chunk contains and which chunk is at the live edge at any instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The two sub-piece sizes observed on the wire (bytes).
SUBPIECE_LARGE = 1380
SUBPIECE_SMALL = 690


@dataclass(frozen=True)
class ChunkGeometry:
    """Static layout of one channel's stream."""

    bitrate_bps: float = 384_000.0
    chunk_seconds: float = 4.0
    subpiece_bytes: int = SUBPIECE_LARGE

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if self.chunk_seconds <= 0:
            raise ValueError("chunk duration must be positive")
        if self.subpiece_bytes not in (SUBPIECE_LARGE, SUBPIECE_SMALL):
            raise ValueError(
                f"sub-piece size must be {SUBPIECE_LARGE} or "
                f"{SUBPIECE_SMALL}, got {self.subpiece_bytes}")
        # The geometry is immutable and these two values sit on the
        # simulator's hottest path — precompute them once.
        chunk_bytes = int(self.bitrate_bps * self.chunk_seconds / 8.0)
        object.__setattr__(self, "_chunk_bytes", chunk_bytes)
        total = max(1, math.ceil(chunk_bytes / self.subpiece_bytes))
        object.__setattr__(self, "_subpieces_per_chunk", total)
        # Per-sub-piece size table and its prefix sums: `subpiece_size`
        # and `range_bytes` become O(1) lookups on the data hot path.
        sizes = []
        for index in range(total):
            if index < total - 1:
                sizes.append(self.subpiece_bytes)
            else:
                remainder = chunk_bytes - self.subpiece_bytes * index
                sizes.append(remainder if remainder > 0
                             else self.subpiece_bytes)
        object.__setattr__(self, "_sizes", tuple(sizes))
        cumulative = [0]
        for size in sizes:
            cumulative.append(cumulative[-1] + size)
        object.__setattr__(self, "_cumulative_bytes", tuple(cumulative))

    @property
    def chunk_bytes(self) -> int:
        """Payload bytes of one complete chunk."""
        return self._chunk_bytes

    @property
    def subpieces_per_chunk(self) -> int:
        """Number of sub-pieces in one chunk (last one may be short)."""
        return self._subpieces_per_chunk

    def subpiece_size(self, index: int) -> int:
        """Size in bytes of sub-piece ``index`` within a chunk."""
        if not 0 <= index < self._subpieces_per_chunk:
            raise IndexError(f"sub-piece {index} out of range")
        return self._sizes[index]

    def range_bytes(self, first: int, last: int) -> int:
        """Total bytes of sub-pieces ``first..last`` inclusive."""
        if first > last:
            raise ValueError(f"empty range {first}..{last}")
        if first < 0 or last >= self._subpieces_per_chunk:
            index = first if first < 0 else last
            raise IndexError(f"sub-piece {index} out of range")
        cumulative = self._cumulative_bytes
        return cumulative[last + 1] - cumulative[first]

    def live_chunk(self, now: float, channel_start: float = 0.0) -> int:
        """Index of the newest *complete* chunk at simulated time ``now``.

        Chunk ``k`` covers stream time ``[k*d, (k+1)*d)`` and becomes
        available at the source once fully generated, i.e. at
        ``channel_start + (k+1)*d``.  Returns -1 before the first chunk
        completes.
        """
        elapsed = now - channel_start
        return math.floor(elapsed / self.chunk_seconds) - 1
