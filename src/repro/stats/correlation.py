"""Correlation utilities for the request-count vs RTT analysis.

Section 3.5 of the paper computes "the correlation coefficient between
the logarithm of the number of requests and the logarithm of RTT" and
fits the RTT-vs-rank series with least squares in log space.  These
helpers implement both.
"""

from __future__ import annotations

from typing import Sequence

from .fitting import LinearFit, least_squares_line


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    import numpy as np
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape != y_arr.shape:
        raise ValueError("x and y must have the same length")
    if x_arr.size < 2:
        raise ValueError("need at least two points")
    x_std = x_arr.std()
    y_std = y_arr.std()
    if x_std == 0 or y_std == 0:
        raise ValueError("zero variance input")
    return float(((x_arr - x_arr.mean()) * (y_arr - y_arr.mean())).mean()
                 / (x_std * y_std))


def log_log_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of ``log(x)`` vs ``log(y)`` (positives only).

    Pairs where either value is non-positive are dropped, mirroring how
    log-scale plots silently discard them.
    """
    import numpy as np
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape != y_arr.shape:
        raise ValueError("x and y must have the same length")
    mask = (x_arr > 0) & (y_arr > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive pairs")
    return pearson(np.log(x_arr[mask]), np.log(y_arr[mask]))


def log_linear_fit(x: Sequence[float],
                   y: Sequence[float]) -> LinearFit:
    """Least-squares fit of ``log(y)`` against ``x``.

    Used for the "linear fit in log scale" line through the RTT-vs-rank
    scatter in Figures 15-18.
    """
    import numpy as np
    y_arr = np.asarray(y, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    mask = y_arr > 0
    if mask.sum() < 2:
        raise ValueError("need at least two positive y values")
    return least_squares_line(x_arr[mask], np.log(y_arr[mask]))
