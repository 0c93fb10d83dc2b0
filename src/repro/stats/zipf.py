"""Zipf (power-law) rank-distribution fitting.

The paper tests the per-neighbor data-request counts against a Zipf law
``y_i ∝ i^-alpha`` — a straight line in log-log space — and finds it
*does not* fit (the data bends away from the line), motivating the
stretched-exponential model instead.  This module provides the Zipf fit
so experiments can report both R² values side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .fitting import least_squares_line, r_squared, rank_values

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass(frozen=True)
class ZipfFit:
    """``value(rank) = scale * rank ** -alpha``."""

    alpha: float
    scale: float
    #: R² of the straight line in log-log space.
    r_squared: float

    def predict(self, ranks: Sequence[float]) -> np.ndarray:
        import numpy as np
        ranks_arr = np.asarray(ranks, dtype=float)
        return self.scale * ranks_arr ** -self.alpha


def fit_zipf(values: Sequence[float]) -> ZipfFit:
    """Fit a Zipf law to positive ``values`` (any order; ranked inside)."""
    import numpy as np
    ranks, ordered = rank_values(values)
    if np.any(ordered <= 0):
        positive = ordered[ordered > 0]
        if positive.size < 2:
            raise ValueError("need at least two positive values")
        ranks = np.arange(1, positive.size + 1, dtype=float)
        ordered = positive
    line = least_squares_line(np.log(ranks), np.log(ordered))
    return ZipfFit(alpha=-line.slope, scale=float(np.exp(line.intercept)),
                   r_squared=line.r_squared)
