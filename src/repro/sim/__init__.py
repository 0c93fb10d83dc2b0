"""Discrete-event simulation engine (substrate S1).

Public surface:

* :class:`Simulator` — event loop, clock, scheduling, timers.
* :class:`Timer` — repeating timer with optional per-round jitter.
* :class:`RandomRouter` — deterministic named RNG substreams.
"""

from .clock import Clock
from .engine import Simulator, Timer
from .errors import EngineStoppedError, SchedulingError, SimulationError
from .events import Event, EventQueue
from .random import (RandomRouter, bounded_normal, derive_seed, exponential,
                     lognormal_from_median, pareto,
                     sample_without_replacement, shuffled, weighted_choice)

__all__ = [
    "Clock",
    "Simulator",
    "Timer",
    "SimulationError",
    "SchedulingError",
    "EngineStoppedError",
    "Event",
    "EventQueue",
    "RandomRouter",
    "derive_seed",
    "exponential",
    "bounded_normal",
    "pareto",
    "lognormal_from_median",
    "weighted_choice",
    "sample_without_replacement",
    "shuffled",
]
