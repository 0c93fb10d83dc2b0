"""Receiver-side chunk buffer.

Tracks which sub-pieces of which chunks have arrived, maintains the
highest *contiguous* complete chunk (what the peer can advertise and can
play), and evicts chunks far behind the playout point so memory stays
bounded over a multi-hour session.

Per-chunk sub-piece bookkeeping is an int bitmask (bit ``i`` set == sub-
piece ``i`` received) rather than a ``set``: membership, insertion and
"which sub-pieces are missing" become single integer operations, and a
partially received chunk costs one small int instead of a hash table.
The bitmask representation is internal — every public query keeps its
list/bool API.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from .chunks import ChunkGeometry


class ChunkBuffer:
    """Sub-piece-accurate receive buffer for one live session."""

    def __init__(self, geometry: ChunkGeometry,
                 first_chunk: int, keep_behind: int = 32) -> None:
        if keep_behind < 1:
            raise ValueError("keep_behind must be >= 1")
        self.geometry = geometry
        self.first_chunk = first_chunk
        self.keep_behind = keep_behind
        #: Highest chunk index such that every chunk in
        #: [first_chunk, have_until] is complete; first_chunk-1 when none.
        self.have_until = first_chunk - 1
        #: Partially received chunks: chunk -> bitmask of received
        #: sub-pieces (bit i == sub-piece i).
        self._partial: Dict[int, int] = {}
        #: Complete chunks above the contiguous frontier.
        self._complete_ahead: Set[int] = set()
        self.bytes_received = 0
        self.duplicate_subpieces = 0
        self.chunks_completed = 0
        # Hot-path constants: geometry is frozen, bind once.
        self._subpieces = geometry.subpieces_per_chunk
        self._full_mask = (1 << self._subpieces) - 1
        self._sizes = tuple(geometry.subpiece_size(i)
                            for i in range(self._subpieces))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_chunk(self, chunk: int) -> bool:
        """True when every sub-piece of ``chunk`` has arrived."""
        if chunk < self.first_chunk:
            return False
        return chunk <= self.have_until or chunk in self._complete_ahead

    def has_range(self, chunk: int, first: int, last: int) -> bool:
        """True when every sub-piece in ``first..last`` has arrived."""
        if self.has_chunk(chunk):
            return True
        if first > last or first < 0:
            return False
        received = self._partial.get(chunk)
        if not received:
            return False
        span = ((1 << (last - first + 1)) - 1) << first
        return received & span == span

    def missing_mask(self, chunk: int) -> int:
        """Bitmask of sub-pieces of ``chunk`` not yet received."""
        if self.has_chunk(chunk):
            return 0
        received = self._partial.get(chunk)
        if not received:
            return self._full_mask
        return self._full_mask & ~received

    def missing_subpieces(self, chunk: int) -> list:
        """Sub-piece indices of ``chunk`` not yet received, ascending."""
        if self.has_chunk(chunk):
            return []
        received = self._partial.get(chunk)
        if not received:
            # Untouched chunk — the scheduler's common case.
            return list(range(self._subpieces))
        missing = self._full_mask & ~received
        return [i for i in range(self._subpieces) if (missing >> i) & 1]

    def completion(self, chunk: int) -> float:
        """Fraction of ``chunk``'s sub-pieces received, in [0, 1]."""
        if self.has_chunk(chunk):
            return 1.0
        received = self._partial.get(chunk, 0)
        return bin(received).count("1") / self._subpieces

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add_subpiece(self, chunk: int, subpiece: int) -> bool:
        """Record one received sub-piece.  Returns True if it was new."""
        total = self._subpieces
        if not 0 <= subpiece < total:
            raise IndexError(f"sub-piece {subpiece} out of range 0..{total-1}")
        bit = 1 << subpiece
        received = self._partial.get(chunk, 0)
        if (chunk < self.first_chunk or chunk <= self.have_until
                or received & bit or chunk in self._complete_ahead):
            self.duplicate_subpieces += 1
            return False
        received |= bit
        self.bytes_received += self._sizes[subpiece]
        if received == self._full_mask:
            self._partial.pop(chunk, None)
            self._complete_ahead.add(chunk)
            self.chunks_completed += 1
            self._advance_frontier()
        else:
            self._partial[chunk] = received
        return True

    def add_range(self, chunk: int, first: int, last: int) -> int:
        """Record sub-pieces ``first..last`` inclusive; returns #new ones.

        Equivalent to calling :meth:`add_subpiece` per index (including
        the duplicate accounting and the ``IndexError`` on an index past
        the chunk end), but performed as one bitmask update.
        """
        total = self._subpieces
        if last < first:
            return 0
        if first < 0:
            raise IndexError(f"sub-piece {first} out of range 0..{total-1}")
        overflow = last >= total
        stop = total - 1 if overflow else last
        added = 0
        if stop >= first:
            count = stop - first + 1
            span = ((1 << count) - 1) << first
            if (chunk < self.first_chunk or chunk <= self.have_until
                    or chunk in self._complete_ahead):
                self.duplicate_subpieces += count
            else:
                received = self._partial.get(chunk, 0)
                fresh = span & ~received
                if fresh:
                    added = bin(fresh).count("1")
                    self.duplicate_subpieces += count - added
                    sizes = self._sizes
                    gained = 0
                    bits = fresh
                    while bits:
                        low = bits & -bits
                        gained += sizes[low.bit_length() - 1]
                        bits ^= low
                    self.bytes_received += gained
                    received |= span
                    if received == self._full_mask:
                        self._partial.pop(chunk, None)
                        self._complete_ahead.add(chunk)
                        self.chunks_completed += 1
                        self._advance_frontier()
                    else:
                        self._partial[chunk] = received
                else:
                    self.duplicate_subpieces += count
        if overflow:
            raise IndexError(f"sub-piece {total} out of range 0..{total-1}")
        return added

    def _advance_frontier(self) -> None:
        while self.have_until + 1 in self._complete_ahead:
            self._complete_ahead.discard(self.have_until + 1)
            self.have_until += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def evict_before(self, playout_chunk: int) -> int:
        """Drop partial state far behind playout; returns #chunks dropped.

        Complete chunks are summarised by ``have_until`` so only partial
        and ahead-of-frontier bookkeeping needs eviction.
        """
        horizon = playout_chunk - self.keep_behind
        stale = [c for c in self._partial if c < horizon]
        for chunk in stale:
            del self._partial[chunk]
        # A partial chunk behind playout will never complete: advance the
        # frontier past it so scheduling stops considering it.
        if self.have_until < horizon:
            self.have_until = horizon
            self._advance_frontier()
        return len(stale)

    def partial_chunks(self) -> Iterable[int]:
        return self._partial.keys()

    def advertised_have(self) -> int:
        """The availability this peer advertises to neighbors."""
        return self.have_until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ChunkBuffer have_until={self.have_until} "
                f"partial={len(self._partial)} "
                f"ahead={len(self._complete_ahead)}>")
