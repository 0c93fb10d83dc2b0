"""Stretched-exponential rank-distribution fitting.

Following Guo et al. (PODC'08) and the paper's Section 3.4: rank the
``n`` data values descending as ``x_i`` so ``P(X >= x_i) = i/n``; under a
stretched-exponential (Weibull-tailed) law the rank distribution obeys

    y_i^c = -a * log(i) + b      (1 <= i <= n)

i.e. a straight line when the y-axis is raised to the power ``c`` and the
x-axis is logarithmic ("the SE scale").  With ``y_n = 1`` the intercept
is constrained to ``b = 1 + a*log(n)`` (paper, Eq. 2).

:func:`fit_stretched_exponential` grid-searches the stretch exponent
``c`` and fits ``a, b`` by least squares in the transformed space,
reporting R² in that space — exactly the quantity printed inside the
paper's Figures 11-14(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .fitting import least_squares_line, r_squared, rank_values

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass(frozen=True)
class StretchedExponentialFit:
    """``value(rank) ** c = -a * log(rank) + b``."""

    c: float
    a: float
    b: float
    #: R² measured in the (log rank, y^c) space.
    r_squared: float
    n: int

    def predict(self, ranks: Sequence[float]) -> np.ndarray:
        """Predicted values at ``ranks`` (clipped at zero before the root)."""
        import numpy as np
        ranks_arr = np.asarray(ranks, dtype=float)
        transformed = -self.a * np.log(ranks_arr) + self.b
        return np.clip(transformed, 0.0, None) ** (1.0 / self.c)

    @property
    def x0(self) -> float:
        """Characteristic scale ``x_0 = a ** (1/c)`` of the Weibull CCDF."""
        return self.a ** (1.0 / self.c) if self.a > 0 else 0.0


def _fit_for_c(log_ranks: np.ndarray, ordered: np.ndarray,
               c: float) -> StretchedExponentialFit:
    transformed = ordered ** c
    line = least_squares_line(log_ranks, transformed)
    return StretchedExponentialFit(
        c=c, a=-line.slope, b=line.intercept,
        r_squared=line.r_squared, n=ordered.size)


def fit_stretched_exponential(
        values: Sequence[float],
        c_grid: Optional[Sequence[float]] = None) -> StretchedExponentialFit:
    """Fit the SE rank law to positive ``values``.

    ``c`` is chosen from ``c_grid`` (default 0.05..1.00 in steps of 0.05,
    matching the granularity the paper reports, e.g. c = 0.2, 0.3, 0.35,
    0.4) to maximise R² in the transformed space.
    """
    import numpy as np
    ranks, ordered = rank_values(values)
    positive = ordered[ordered > 0]
    if positive.size < 3:
        raise ValueError("need at least three positive values for an SE fit")
    ranks = np.arange(1, positive.size + 1, dtype=float)
    log_ranks = np.log(ranks)
    if c_grid is None:
        c_grid = np.round(np.arange(0.05, 1.0001, 0.05), 2)
    best: Optional[StretchedExponentialFit] = None
    for c in c_grid:
        candidate = _fit_for_c(log_ranks, positive, float(c))
        if best is None or candidate.r_squared > best.r_squared:
            best = candidate
    assert best is not None
    return best


def se_rank_curve(fit: StretchedExponentialFit,
                  n: Optional[int] = None) -> np.ndarray:
    """The fitted curve evaluated at ranks ``1..n`` (default: fit.n)."""
    import numpy as np
    count = n if n is not None else fit.n
    return fit.predict(np.arange(1, count + 1, dtype=float))


def weibull_ccdf(x: np.ndarray, x0: float, c: float) -> np.ndarray:
    """The Weibull CCDF ``exp(-(x/x0)^c)`` corresponding to an SE law."""
    import numpy as np
    if x0 <= 0 or c <= 0:
        raise ValueError("x0 and c must be positive")
    x_arr = np.asarray(x, dtype=float)
    return np.exp(-(x_arr / x0) ** c)
