"""Request/reply matching over captured traces.

Reproduces the paper's trace post-processing (Section 3.1):

* "For data requests and replies, we match them based on the IP
  addresses and transmission sub-piece sequence numbers" —
  :func:`match_data_transactions` pairs each outgoing ``DataRequest``
  with the incoming ``DataReply`` carrying the same (remote IP, seq).
* "For peer list requests and replies, ... we match the peer list reply
  to the latest request designated to the same IP address" —
  :func:`match_peerlist_transactions` implements exactly that rule (the
  wire format does carry a request id, but the matcher deliberately does
  not use it, so the analysis inherits the same ambiguity the authors
  had).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .records import (DATA_MISS, DATA_REPLY, DATA_REQUEST, PEER_LIST_REPLY,
                      PEER_LIST_REQUEST, Direction)
from .store import TraceStore


@dataclass(frozen=True)
class DataTransaction:
    """One matched data request/reply pair."""

    remote: str
    chunk: int
    first: int
    last: int
    request_time: float
    reply_time: float
    payload_bytes: int

    @property
    def response_time(self) -> float:
        return self.reply_time - self.request_time


@dataclass(frozen=True)
class PeerListTransaction:
    """One matched peer-list request/reply pair."""

    remote: str
    request_time: float
    reply_time: float
    peers: Tuple[str, ...]

    @property
    def response_time(self) -> float:
        return self.reply_time - self.request_time


@dataclass
class MatchReport:
    """Matched transactions plus what could not be matched."""

    data: List[DataTransaction]
    data_misses: int
    unanswered_data: int
    peer_lists: List[PeerListTransaction]
    unanswered_peer_lists: int


def match_data_transactions(
        trace: TraceStore) -> Tuple[List[DataTransaction], int, int]:
    """Pair the probe's data requests with replies by (remote, seq).

    Returns ``(transactions, miss_count, unanswered_count)``.
    """
    pending: Dict[Tuple[str, int], Tuple[float, int, int, int]] = {}
    transactions: List[DataTransaction] = []
    misses = 0
    for record in trace.of_type(DATA_REQUEST, DATA_REPLY, DATA_MISS):
        payload = record.payload
        if record.msg_type == DATA_REQUEST:
            if record.direction is Direction.OUT:
                key = (record.dst, payload.seq)
                pending[key] = (record.time, payload.chunk,
                                payload.first, payload.last)
        elif record.msg_type == DATA_REPLY:
            if record.direction is Direction.IN:
                key = (record.src, payload.seq)
                sent = pending.pop(key, None)
                if sent is None:
                    continue
                request_time, chunk, first, last = sent
                transactions.append(DataTransaction(
                    remote=record.src, chunk=chunk, first=first, last=last,
                    request_time=request_time, reply_time=record.time,
                    payload_bytes=getattr(payload, "payload_bytes", 0)))
        else:  # DATA_MISS
            if record.direction is Direction.IN:
                key = (record.src, payload.seq)
                if pending.pop(key, None) is not None:
                    misses += 1
    return transactions, misses, len(pending)


def match_peerlist_transactions(
        trace: TraceStore) -> Tuple[List[PeerListTransaction], int]:
    """Pair peer-list replies with the *latest* request to the same IP.

    Returns ``(transactions, unanswered_count)``.
    """
    latest_request: Dict[str, float] = {}
    outstanding: Dict[str, int] = {}
    transactions: List[PeerListTransaction] = []
    for record in trace.of_type(PEER_LIST_REQUEST, PEER_LIST_REPLY):
        if (record.msg_type == PEER_LIST_REQUEST
                and record.direction is Direction.OUT):
            latest_request[record.dst] = record.time
            outstanding[record.dst] = outstanding.get(record.dst, 0) + 1
        elif (record.msg_type == PEER_LIST_REPLY
                and record.direction is Direction.IN):
            request_time = latest_request.get(record.src)
            if request_time is None or request_time > record.time:
                continue
            if outstanding.get(record.src, 0) <= 0:
                continue
            outstanding[record.src] -= 1
            transactions.append(PeerListTransaction(
                remote=record.src, request_time=request_time,
                reply_time=record.time,
                peers=tuple(getattr(record.payload, "peers", ()))))
    unanswered = sum(n for n in outstanding.values() if n > 0)
    return transactions, unanswered


def match_all(trace: TraceStore) -> MatchReport:
    """Run both matchers over one trace."""
    data, misses, unanswered_data = match_data_transactions(trace)
    peer_lists, unanswered_pl = match_peerlist_transactions(trace)
    return MatchReport(data=data, data_misses=misses,
                       unanswered_data=unanswered_data,
                       peer_lists=peer_lists,
                       unanswered_peer_lists=unanswered_pl)
