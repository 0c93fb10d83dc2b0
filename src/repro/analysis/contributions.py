"""Per-neighbor request/contribution analysis (Figures 11-14).

From the matched data transactions of one probe session:

* the distinct peers actually connected for data transfer, by ISP,
* the per-peer data-request rank distribution, fitted with both the
  stretched-exponential and Zipf models,
* the per-peer byte-contribution CDF and the top-10 % share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..capture.matching import DataTransaction
from ..network.asn import AsnDirectory
from ..stats.cdf import contribution_cdf, top_fraction_share
from ..stats.se import StretchedExponentialFit, fit_stretched_exponential
from ..stats.zipf import ZipfFit, fit_zipf

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def requests_per_peer(transactions: Sequence[DataTransaction],
                      infrastructure: Set[str] = frozenset()
                      ) -> Dict[str, int]:
    """Number of matched data transactions per remote peer."""
    counts: Counter = Counter()
    for txn in transactions:
        if txn.remote not in infrastructure:
            counts[txn.remote] += 1
    return dict(counts)


def bytes_per_peer(transactions: Sequence[DataTransaction],
                   infrastructure: Set[str] = frozenset()
                   ) -> Dict[str, int]:
    """Downloaded payload bytes per remote peer."""
    totals: Counter = Counter()
    for txn in transactions:
        if txn.remote not in infrastructure:
            totals[txn.remote] += txn.payload_bytes
    return dict(totals)


def connected_peers_by_isp(transactions: Sequence[DataTransaction],
                           directory: AsnDirectory,
                           infrastructure: Set[str] = frozenset()
                           ) -> Counter:
    """Figure 11(a): distinct data-transfer peers per ISP category."""
    counts: Counter = Counter()
    for remote in requests_per_peer(transactions, infrastructure):
        category = directory.category_of(remote)
        if category is not None:
            counts[category] += 1
    return counts


@dataclass
class ContributionAnalysis:
    """The full panel set of one of Figures 11-14."""

    #: Distinct peers connected for data transfer.
    connected_unique: int
    #: Distinct connected peers per ISP category.
    connected_by_isp: Counter
    #: Per-peer request counts, descending.
    request_ranks: List[int]
    #: SE fit of the request rank distribution.
    se_fit: Optional[StretchedExponentialFit]
    #: Zipf fit of the same data (for the does-not-fit comparison).
    zipf_fit: Optional[ZipfFit]
    #: (ranks, cumulative byte share) of the contribution CDF.
    contribution_curve: Optional[Tuple[np.ndarray, np.ndarray]]
    #: Byte share of the top 10 % of connected peers.
    top10_byte_share: Optional[float]
    #: Request share of the top 10 % of connected peers.
    top10_request_share: Optional[float]


def analyze_contributions(transactions: Sequence[DataTransaction],
                          directory: AsnDirectory,
                          infrastructure: Set[str] = frozenset()
                          ) -> ContributionAnalysis:
    """Compute everything Figures 11-14 report for one session."""
    request_counts = requests_per_peer(transactions, infrastructure)
    byte_counts = bytes_per_peer(transactions, infrastructure)
    ranks = sorted(request_counts.values(), reverse=True)

    se_fit = None
    zipf_fit = None
    if len([v for v in ranks if v > 0]) >= 3:
        se_fit = fit_stretched_exponential(ranks)
        zipf_fit = fit_zipf(ranks)

    curve = None
    top10_bytes = None
    top10_requests = None
    byte_values = [v for v in byte_counts.values()]
    if byte_values and sum(byte_values) > 0:
        curve = contribution_cdf(byte_values)
        top10_bytes = top_fraction_share(byte_values, 0.10)
    if ranks and sum(ranks) > 0:
        top10_requests = top_fraction_share(ranks, 0.10)

    return ContributionAnalysis(
        connected_unique=len(request_counts),
        connected_by_isp=connected_peers_by_isp(transactions, directory,
                                                infrastructure),
        request_ranks=ranks,
        se_fit=se_fit,
        zipf_fit=zipf_fit,
        contribution_curve=curve,
        top10_byte_share=top10_bytes,
        top10_request_share=top10_requests,
    )
