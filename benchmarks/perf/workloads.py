"""The benchmark's workloads, as plain data.

This module imports nothing from ``repro``: the parent process reads
the table to plan reps, and only the per-rep child (``child.py``)
turns an entry into simulator configs.  Keeping the configs here,
instead of borrowing ``repro.experiments.bench``'s profiles, means an
edit to the simulator's own bench cannot silently change a workload.
Why each workload exists is recorded in ``BENCHMARK.json`` and the
README.

Sizes are chosen so one rep takes a few seconds on a 2-core x86 VM
(2.0 GHz Xeon, CPython 3.11): a timed run then holds several fresh-
process reps and reports their median.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    ``kind`` is ``"session"`` (one ``SessionScenario`` viewing session
    of the tele-popular recipe: TELE probe, popular channel mix) or
    ``"campaign"`` (the Figure 6 campaign plus its rendered table).
    """

    name: str
    kind: str
    default_seed: int
    #: Viewers (session) or the popular program's base audience
    #: (campaign).
    population: int
    warmup: float
    #: Probe viewing window (session) or per-day session length.
    duration: float
    #: Session kind only: every CLI observability sink on.
    observed: bool = False
    #: Campaign kind only.
    days: int = 0
    unpopular_population: int = 0

    @property
    def unreached(self) -> frozenset:
        """Layer wrappers this workload never reaches by construction;
        every other wrapper must fire in each traced rep."""
        names = set()
        if self.kind != "campaign":
            names.add("analysis.render")
        if not self.observed:
            names.add("obs.flow_sink")
        return frozenset(names)

    def tiny(self) -> "Workload":
        """A seconds-long variant with the same code paths (tests)."""
        if self.kind == "campaign":
            return replace(self, days=1, warmup=20.0, duration=30.0)
        return replace(self, population=min(self.population, 12),
                       warmup=20.0, duration=40.0)


#: The population manager spreads a session's first joins uniformly over
#: its first 120 simulated seconds; a session warm-up at least this long
#: means the probe views a full-size swarm.
JOIN_RAMP_S = 120.0

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("session", kind="session", default_seed=7, population=40,
             warmup=150.0, duration=270.0),
    Workload("session-observed", kind="session", default_seed=7,
             population=40, warmup=150.0, duration=270.0, observed=True),
    # The golden configuration of tests/test_campaign_goldens.py: its
    # sessions end within the join ramp by design.
    Workload("campaign", kind="campaign", default_seed=11, population=10,
             unpopular_population=6, days=3, warmup=60.0, duration=120.0),
    # The full scale's popular swarm past its join ramp, with a viewing
    # window kept short enough for three reps in a run.
    Workload("swarm-large", kind="session", default_seed=7,
             population=150, warmup=150.0, duration=30.0),
)}

def get(name: str, tiny: bool = False) -> Workload:
    """The named workload (``KeyError`` lists the valid names)."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; expected one of "
                       f"{sorted(WORKLOADS)}") from None
    return workload.tiny() if tiny else workload


def seed_for(workload: Workload, seed: Optional[int]) -> int:
    """The simulation seed: ``seed`` if given, else the pinned default."""
    return workload.default_seed if seed is None else seed
