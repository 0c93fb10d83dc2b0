"""Exception hierarchy for the simulation engine.

Keeping engine failures in a dedicated hierarchy lets callers distinguish
simulation bugs (scheduling in the past, running a stopped engine) from
ordinary Python errors raised by model code executing *inside* an event.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-engine errors."""


class SchedulingError(SimulationError):
    """An event was scheduled at an invalid time (e.g. in the past)."""


class EngineStoppedError(SimulationError):
    """An operation required a running engine but the engine has stopped."""
