"""Ablation experiments (DESIGN.md A1-A4).

The paper *attributes* PPLive's locality to the decentralized,
latency-based, neighbor-referral selection strategy; these ablations test
that attribution by swapping exactly the selection policy and measuring
the resulting traffic locality of a TELE probe on the popular channel:

* A1 — neighbor referral vs BitTorrent-style tracker-only random,
* A2 — the latency race vs the same referral lists with the handshake
  race neutralised (uniform latency on Hello/Ack is not possible without
  changing physics, so A2 disables the latency-driven *replacement*
  pressure instead, isolating that component),
* A3 — the oracle baselines (biased neighbor selection, Ono, P4P),
* A4 — channel-popularity sweep: locality vs concurrent audience size.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.locality import traffic_locality
from ..analysis.report import format_table
from ..baselines.oracles import IspOracle, ProximityOracle
from ..baselines.strategies import (BiasedNeighborPolicy, OnoPolicy,
                                    P4PPolicy, TrackerOnlyRandomPolicy)
from ..parallel.jobs import Job, run_jobs
from ..streaming.video import Popularity
from ..workload.popularity import popular_channel_mix
from ..workload.scenario import (ScenarioConfig, SessionScenario,
                                 TELE_PROBE)


# Policy factories must be module-level (not lambdas) so ablation grid
# points stay picklable and can fan out to worker processes.
def _tracker_only_policy(dep):
    return TrackerOnlyRandomPolicy()


def _biased_policy(dep):
    return BiasedNeighborPolicy(IspOracle(dep.internet.directory))


def _ono_policy(dep):
    return OnoPolicy(ProximityOracle(dep.internet.latency,
                                     dep.internet.udp,
                                     dep.sim.random.stream("ono-oracle")))


def _p4p_policy(dep):
    return P4PPolicy(IspOracle(dep.internet.directory))


@dataclass
class AblationPoint:
    """One measured configuration."""

    label: str
    locality: float
    data_transactions: int
    probe_continuity: float


@dataclass
class AblationResult:
    ablation_id: str
    title: str
    points: List[AblationPoint]

    def locality_of(self, label: str) -> Optional[float]:
        for point in self.points:
            if point.label == label:
                return point.locality
        return None

    def render(self) -> str:
        lines = [f"=== {self.ablation_id}: {self.title} ==="]
        rows = [[p.label, f"{p.locality:.1%}", p.data_transactions,
                 f"{p.probe_continuity:.2f}"]
                for p in self.points]
        lines.append(format_table(
            ["configuration", "traffic locality", "data txns",
             "probe continuity"], rows))
        return "\n".join(lines)


def _measure(config: ScenarioConfig, label: str) -> AblationPoint:
    result = SessionScenario(config).run()
    probe = result.probe()
    category = result.directory.category_of(probe.address)
    locality = traffic_locality(probe.report.data, result.directory,
                                category, result.infrastructure)
    return AblationPoint(
        label=label,
        locality=locality,
        data_transactions=len(probe.report.data),
        probe_continuity=probe.peer.player.continuity_index
        if probe.peer.player is not None else 0.0)


def _measure_all(labelled: Sequence[Tuple[str, ScenarioConfig]],
                 jobs: int = 1) -> List[AblationPoint]:
    """Measure every (label, config) grid point, in input order.

    Points are independent simulations seeded by their own configs, so
    the output is identical for every ``jobs`` value.
    """
    merged = run_jobs([Job(key=label, fn=_measure, args=(config, label))
                       for label, config in labelled], workers=jobs)
    return list(merged.values())


def _base_config(seed: int, population: int,
                 duration: float) -> ScenarioConfig:
    return ScenarioConfig(seed=seed, population=population,
                          mix=popular_channel_mix(),
                          popularity=Popularity.POPULAR,
                          probes=(TELE_PROBE,),
                          warmup=200.0, duration=duration)


# ----------------------------------------------------------------------
# A1 + A3: policy comparison
# ----------------------------------------------------------------------
def policy_comparison(seed: int = 7, population: int = 80,
                      duration: float = 900.0,
                      include_oracles: bool = True,
                      jobs: int = 1) -> AblationResult:
    """A1/A3: PPLive referral vs tracker-only vs oracle baselines."""
    config = _base_config(seed, population, duration)
    grid = [
        ("pplive-referral", config),
        ("tracker-only-random",
         dataclasses.replace(config, policy_factory=_tracker_only_policy)),
    ]
    if include_oracles:
        grid.extend([
            ("biased-neighbor",
             dataclasses.replace(config, policy_factory=_biased_policy)),
            ("ono",
             dataclasses.replace(config, policy_factory=_ono_policy)),
            ("p4p",
             dataclasses.replace(config, policy_factory=_p4p_policy)),
        ])
    return AblationResult(
        ablation_id="A1/A3",
        title="peer-selection policy vs ISP-level traffic locality",
        points=_measure_all(grid, jobs=jobs))


# ----------------------------------------------------------------------
# A2: latency-driven replacement pressure
# ----------------------------------------------------------------------
def latency_pressure(seed: int = 7, population: int = 80,
                     duration: float = 900.0,
                     jobs: int = 1) -> AblationResult:
    """A2: with vs without the latency-driven neighbor replacement."""
    config = _base_config(seed, population, duration)
    no_pressure_protocol = dataclasses.replace(
        config.protocol, neighbor_replace_probability=0.0)
    grid = [
        ("latency replacement on", config),
        ("latency replacement off",
         dataclasses.replace(config, protocol=no_pressure_protocol)),
    ]
    return AblationResult(
        ablation_id="A2",
        title="latency-driven neighbor replacement vs locality",
        points=_measure_all(grid, jobs=jobs))


# ----------------------------------------------------------------------
# A4: popularity sweep
# ----------------------------------------------------------------------
def popularity_sweep(seed: int = 7,
                     populations: tuple = (20, 40, 80, 140),
                     duration: float = 900.0,
                     jobs: int = 1) -> AblationResult:
    """A4: locality as a function of concurrent audience size."""
    grid = [(f"population={population}",
             _base_config(seed, population, duration))
            for population in populations]
    return AblationResult(
        ablation_id="A4",
        title="concurrent audience size vs traffic locality",
        points=_measure_all(grid, jobs=jobs))


# ----------------------------------------------------------------------
# A5: top-responder connection caching (paper Section 3.4 suggestion)
# ----------------------------------------------------------------------
def top_peer_caching(seed: int = 7, population: int = 80,
                     duration: float = 900.0,
                     pin_fraction: float = 0.10,
                     jobs: int = 1) -> AblationResult:
    """A5: does pinning the top 10% of responders help, as the paper
    speculates ("it might be worth caching these top 10% of
    neighbors")?"""
    config = _base_config(seed, population, duration)
    pinned_protocol = dataclasses.replace(
        config.protocol, pin_top_responders=pin_fraction)
    grid = [
        ("no pinning", config),
        (f"pin top {pin_fraction:.0%} responders",
         dataclasses.replace(config, protocol=pinned_protocol)),
    ]
    return AblationResult(
        ablation_id="A5",
        title="top-responder connection caching (paper Section 3.4)",
        points=_measure_all(grid, jobs=jobs))


# ----------------------------------------------------------------------
# A6: ISP-aware tracker (the paper's reference [28] design)
# ----------------------------------------------------------------------
def isp_aware_tracker(seed: int = 7, population: int = 80,
                      duration: float = 900.0,
                      jobs: int = 1) -> AblationResult:
    """A6: tracker-side ISP awareness vs PPLive's plain trackers.

    Both variants use the native referral policy; only the tracker
    changes — isolating how much infrastructure-side topology knowledge
    adds on top of the emergent client-side locality.
    """
    config = _base_config(seed, population, duration)
    grid = [
        ("random tracker (PPLive)", config),
        ("isp-aware tracker [28]",
         dataclasses.replace(config, isp_aware_trackers=True)),
    ]
    return AblationResult(
        ablation_id="A6",
        title="tracker-side ISP awareness vs emergent locality",
        points=_measure_all(grid, jobs=jobs))
