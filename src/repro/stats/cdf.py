"""Empirical CDF/CCDF helpers and concentration metrics."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted values, P(X <= value))`` for plotting an ECDF."""
    import numpy as np
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a CDF from no data")
    ordered = np.sort(arr)
    probabilities = np.arange(1, ordered.size + 1, dtype=float) / ordered.size
    return ordered, probabilities


def empirical_ccdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted values, P(X >= value))``."""
    ordered, cdf = empirical_cdf(values)
    ccdf = 1.0 - cdf + 1.0 / ordered.size
    return ordered, ccdf


def contribution_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative share of the total contributed by the top-k ranked items.

    Returns ``(rank 1..n, cumulative fraction of sum)`` with items sorted
    by descending contribution — the quantity plotted in the paper's
    Figures 11-14(c).
    """
    import numpy as np
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a contribution CDF from no data")
    if np.any(arr < 0):
        raise ValueError("contributions must be non-negative")
    total = arr.sum()
    if total == 0:
        raise ValueError("total contribution is zero")
    ordered = np.sort(arr)[::-1]
    ranks = np.arange(1, ordered.size + 1, dtype=float)
    return ranks, np.cumsum(ordered) / total


def top_fraction_share(values: Sequence[float],
                       fraction: float = 0.10) -> float:
    """Share of the total contributed by the top ``fraction`` of items.

    ``top_fraction_share(bytes_by_peer, 0.10)`` answers the paper's
    headline question: how much of the streaming traffic do the top 10 %
    of connected peers upload?  The number of items counted is
    ``ceil(fraction * n)`` so small populations round up, as the paper's
    "top 10% of 326 peers" style statements do.
    """
    import numpy as np
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    total = arr.sum()
    if total <= 0:
        raise ValueError("total must be positive")
    k = int(np.ceil(fraction * arr.size))
    ordered = np.sort(arr)[::-1]
    return float(ordered[:k].sum() / total)
