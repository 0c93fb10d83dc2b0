"""Shared least-squares machinery for the rank-distribution fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """Result of a simple linear least-squares fit ``y = slope*x + intercept``."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        import numpy as np
        return self.slope * np.asarray(x, dtype=float) + self.intercept


def least_squares_line(x: Sequence[float],
                       y: Sequence[float]) -> LinearFit:
    """Fit ``y = slope*x + intercept`` and report R^2 in the same space."""
    import numpy as np
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape != y_arr.shape:
        raise ValueError("x and y must have the same length")
    if x_arr.size < 2:
        raise ValueError("need at least two points to fit a line")
    x_mean = x_arr.mean()
    y_mean = y_arr.mean()
    denominator = float(((x_arr - x_mean) ** 2).sum())
    if denominator == 0.0:
        raise ValueError("x values are all identical")
    slope = float(((x_arr - x_mean) * (y_arr - y_mean)).sum() / denominator)
    intercept = float(y_mean - slope * x_mean)
    return LinearFit(slope=slope, intercept=intercept,
                     r_squared=r_squared(y_arr, slope * x_arr + intercept))


def r_squared(observed: Sequence[float],
              predicted: Sequence[float]) -> float:
    """Coefficient of determination of ``predicted`` against ``observed``."""
    import numpy as np
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.shape != pred.shape:
        raise ValueError("observed and predicted must have the same length")
    ss_res = float(((obs - pred) ** 2).sum())
    ss_tot = float(((obs - obs.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def rank_values(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``values`` descending and return (ranks starting at 1, values)."""
    import numpy as np
    arr = np.asarray(sorted(values, reverse=True), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot rank an empty sequence")
    ranks = np.arange(1, arr.size + 1, dtype=float)
    return ranks, arr
