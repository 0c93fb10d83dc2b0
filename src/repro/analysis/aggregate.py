"""Cross-seed aggregation of session metrics.

A single simulated session is one draw from the model; conclusions about
shapes (who wins, by how much) should rest on several seeds.  This
module runs a scenario across seeds and summarises the headline metrics
with means and bootstrap confidence intervals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..parallel.sweeps import run_seed_sweep
from ..stats.bootstrap import BootstrapEstimate, bootstrap_mean
from ..workload.scenario import ScenarioConfig, SessionResult
from .contributions import analyze_contributions
from .locality import traffic_locality
from .rtt import analyze_requests_vs_rtt


@dataclass
class SessionMetrics:
    """Headline metrics of one probe session."""

    seed: int
    locality: float
    data_transactions: int
    top10_byte_share: Optional[float]
    rtt_correlation: Optional[float]
    probe_continuity: float


@dataclass
class AggregateResult:
    """Per-seed metrics plus cross-seed summaries."""

    per_seed: List[SessionMetrics]
    locality_mean: BootstrapEstimate
    top10_mean: Optional[BootstrapEstimate]
    correlation_mean: Optional[BootstrapEstimate]

    def render(self) -> str:
        lines = [f"aggregate over {len(self.per_seed)} seeds:"]
        for metrics in self.per_seed:
            corr = ("n/a" if metrics.rtt_correlation is None
                    else f"{metrics.rtt_correlation:+.2f}")
            top10 = ("n/a" if metrics.top10_byte_share is None
                     else f"{metrics.top10_byte_share:.0%}")
            lines.append(
                f"  seed {metrics.seed}: locality "
                f"{metrics.locality:.1%}, top10 {top10}, "
                f"rtt-corr {corr}, continuity "
                f"{metrics.probe_continuity:.2f}")
        lines.append(f"  locality mean: {self.locality_mean}")
        if self.top10_mean is not None:
            lines.append(f"  top10 mean:    {self.top10_mean}")
        if self.correlation_mean is not None:
            lines.append(f"  rtt-corr mean: {self.correlation_mean}")
        return "\n".join(lines)


def session_metrics(result: SessionResult,
                    probe_name: Optional[str] = None) -> SessionMetrics:
    """Extract the headline metrics from one finished session."""
    probe = result.probe(probe_name)
    directory = result.directory
    infrastructure = result.infrastructure
    category = directory.category_of(probe.address)
    contributions = analyze_contributions(probe.report.data, directory,
                                          infrastructure)
    rtt = analyze_requests_vs_rtt(probe.report.data, infrastructure)
    player = probe.peer.player
    return SessionMetrics(
        seed=result.config.seed,
        locality=traffic_locality(probe.report.data, directory, category,
                                  infrastructure),
        data_transactions=len(probe.report.data),
        top10_byte_share=contributions.top10_byte_share,
        rtt_correlation=rtt.correlation,
        probe_continuity=(player.continuity_index
                          if player is not None else 0.0),
    )


def aggregate_metrics(per_seed: Sequence[SessionMetrics],
                      resamples: int = 400) -> AggregateResult:
    """Summarise already-computed per-seed metrics with bootstrap CIs."""
    if not per_seed:
        raise ValueError("need metrics for at least one seed")
    per_seed = list(per_seed)
    rng = random.Random(len(per_seed) * 7919 + per_seed[0].seed)
    localities = [m.locality for m in per_seed]
    locality_mean = bootstrap_mean(localities, rng, resamples)

    top10_values = [m.top10_byte_share for m in per_seed
                    if m.top10_byte_share is not None]
    top10_mean = (bootstrap_mean(top10_values, rng, resamples)
                  if top10_values else None)

    correlations = [m.rtt_correlation for m in per_seed
                    if m.rtt_correlation is not None]
    correlation_mean = (bootstrap_mean(correlations, rng, resamples)
                        if correlations else None)

    return AggregateResult(per_seed=per_seed,
                           locality_mean=locality_mean,
                           top10_mean=top10_mean,
                           correlation_mean=correlation_mean)


def aggregate_sessions(config: ScenarioConfig,
                       seeds: Sequence[int],
                       probe_name: Optional[str] = None,
                       resamples: int = 400,
                       jobs: int = 1) -> AggregateResult:
    """Run ``config`` once per seed and aggregate the probe metrics.

    ``jobs`` fans the independent seeded sessions out to worker
    processes; the aggregate is identical for every ``jobs`` value.
    """
    per_seed = run_seed_sweep(config, seeds, jobs=jobs,
                              probe_name=probe_name)
    return aggregate_metrics(per_seed, resamples)
