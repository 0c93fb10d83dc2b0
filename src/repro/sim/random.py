"""Deterministic, named random-number substreams.

Distributed-systems simulations become irreproducible the moment two model
components share one RNG: adding a call in component A perturbs every draw
in component B.  :class:`RandomRouter` avoids that by deriving an
independent ``random.Random`` stream per *name* from a single master seed,
so the latency model, churn model, and protocol decisions each consume
their own sequence.

The derivation is stable across runs and Python versions: the substream
seed is ``sha256(master_seed || name)`` truncated to 64 bits.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Iterator, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for substream ``name``."""
    payload = f"{master_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RandomRouter:
    """Factory and cache of named :class:`random.Random` substreams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the substream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RandomRouter":
        """Return a child router whose master seed depends on ``name``.

        Useful to give each simulated node its own namespace of streams.
        """
        return RandomRouter(derive_seed(self.master_seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RandomRouter seed={self.master_seed} "
                f"streams={sorted(self._streams)}>")


def exponential(rng: random.Random, mean: float) -> float:
    """Exponential variate with the given ``mean`` (not rate)."""
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    return rng.expovariate(1.0 / mean)


def bounded_normal(rng: random.Random, mean: float, stddev: float,
                   low: float, high: float) -> float:
    """Normal variate clamped to ``[low, high]``.

    Clamping (rather than rejection sampling) keeps the draw count per call
    constant, which preserves cross-run determinism when parameters change.
    """
    if low > high:
        raise ValueError(f"empty interval [{low}, {high}]")
    value = rng.gauss(mean, stddev)
    return min(max(value, low), high)


def pareto(rng: random.Random, shape: float, scale: float) -> float:
    """Pareto variate: ``scale`` is the minimum value, ``shape`` the tail index."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    return scale * (1.0 / (1.0 - rng.random())) ** (1.0 / shape)


def lognormal_from_median(rng: random.Random, median: float,
                          sigma: float) -> float:
    """Log-normal variate parameterised by its median.

    RTT jitter is conventionally modelled as log-normal; parameterising by
    the median keeps configuration intuitive (mu = ln(median)).
    """
    if median <= 0:
        raise ValueError(f"median must be positive, got {median}")
    return math.exp(rng.gauss(math.log(median), sigma))


def weighted_choice(rng: random.Random, items: Sequence[T],
                    weights: Sequence[float]) -> T:
    """Pick one item proportionally to ``weights`` (all >= 0, sum > 0)."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    if any(weight < 0 for weight in weights):
        raise ValueError("weights must be non-negative")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if point < acc:
            return item
    return items[-1]


def sample_without_replacement(rng: random.Random, items: Sequence[T],
                               k: int) -> list[T]:
    """Uniform sample of ``min(k, len(items))`` distinct items."""
    k = min(k, len(items))
    if k <= 0:
        return []
    return rng.sample(list(items), k)


def shuffled(rng: random.Random, items: Sequence[T]) -> Iterator[T]:
    """Yield ``items`` in a uniformly random order without mutating input."""
    order = list(items)
    rng.shuffle(order)
    return iter(order)
