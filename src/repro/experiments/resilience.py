"""Resilience experiment: adversarial peers vs the hardened protocol.

``repro run resilience`` sweeps misbehaving-peer models
(:mod:`repro.adversary`) over attachment fractions and scores each cell
against a clean baseline simulated from the same seed: transit-byte
locality (the paper's headline metric, from the flow ledger), playback
continuity, startup delay, and the contribution-rank shape (top-10%
upload share, the Figure 11-14 statistic).  Every cell runs with
:meth:`repro.protocol.ProtocolConfig.hardened` defenses on — including
the baseline, so deltas isolate the adversaries' damage rather than the
defenses' cost.

Determinism: cells are independent :mod:`repro.parallel` jobs whose
results carry only plain data; all experiment-level observability is
emitted by the parent after the deterministic merge, so artifacts are
byte-identical for every ``--jobs`` value.  With ``--checkpoint`` each
finished cell is persisted as a digest-stamped artifact
(:mod:`repro.checkpoint`) and ``--resume`` replays persisted cells
instead of re-simulating, byte-identically — the same contract the
fig06 campaign honours (``docs/CHECKPOINT.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..adversary import ADVERSARY_BEHAVIORS
from ..analysis.report import format_table
from ..checkpoint import CheckpointPolicy, config_digest_of
from ..faults import AdversaryEvent, FaultSchedule
from ..obs import INFO, FlowSpec, Instrumentation
from ..obs import resolve as resolve_obs
from ..obs.flows import intra_share, transit_share
from ..parallel.jobs import Job
from ..parallel.units import kill_switch_hook, open_checkpoint, run_units
from ..protocol.config import ProtocolConfig
from ..workload.popularity import popular_channel_mix
from ..workload.scenario import TELE_PROBE, ScenarioConfig, SessionScenario
from .base import SCALE_PARAMS, Scale
from .scorecard import Statistic

#: Default attachment fractions swept per behavior.
DEFAULT_FRACTIONS: Tuple[float, ...] = (0.1, 0.3)

#: Continuity may drop at most this much below the clean baseline.
CONTINUITY_TOLERANCE = 0.15
#: Transit-byte share may rise at most this much above the baseline.
TRANSIT_TOLERANCE = 0.15
#: Mean startup delay may rise at most this many seconds.
STARTUP_TOLERANCE = 10.0
#: Top-10% upload share must stay within this of the baseline's shape.
TOP10_TOLERANCE = 0.25


@dataclass(frozen=True)
class ResilienceParams:
    """Everything one resilience cell job needs (picklable)."""

    seed: int
    population: int
    warmup: float
    duration: float
    fractions: Tuple[float, ...]
    behaviors: Tuple[str, ...]

    @property
    def end_time(self) -> float:
        return self.warmup + self.duration


def resilience_params(scale: Scale = Scale.DEFAULT, seed: int = 7,
                      fractions: Optional[Tuple[float, ...]] = None,
                      behaviors: Optional[Tuple[str, ...]] = None
                      ) -> ResilienceParams:
    params = SCALE_PARAMS[scale]
    if fractions is None:
        fractions = DEFAULT_FRACTIONS
    if behaviors is None:
        behaviors = ADVERSARY_BEHAVIORS
    for behavior in behaviors:
        if behavior not in ADVERSARY_BEHAVIORS:
            raise ValueError(
                f"unknown adversary behavior {behavior!r}; expected one "
                f"of {list(ADVERSARY_BEHAVIORS)}")
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fractions must be in (0, 1]")
    return ResilienceParams(
        seed=seed, population=params.popular_population,
        warmup=params.warmup, duration=params.duration,
        fractions=tuple(fractions), behaviors=tuple(behaviors))


@dataclass(frozen=True)
class Cell:
    """One point of the sweep; index 0 is the clean baseline."""

    index: int
    behavior: str  # "" for the baseline
    fraction: float  # 0.0 for the baseline

    @property
    def label(self) -> str:
        if not self.behavior:
            return "baseline"
        return f"{self.behavior}@{self.fraction:g}"


def build_cells(params: ResilienceParams) -> List[Cell]:
    cells = [Cell(index=0, behavior="", fraction=0.0)]
    for behavior in params.behaviors:
        for fraction in params.fractions:
            cells.append(Cell(index=len(cells), behavior=behavior,
                              fraction=fraction))
    return cells


def _resilience_cell_job(params: ResilienceParams, cell: Cell) -> dict:
    """Worker entry point: one hardened session, clean or adversarial.

    Returns a plain JSON-safe dict so cell results checkpoint and merge
    without any pickle-only state.
    """
    schedule = None
    if cell.behavior:
        schedule = FaultSchedule(events=(
            AdversaryEvent(behavior=cell.behavior, start=0.0,
                           duration=params.end_time,
                           fraction=cell.fraction, label=cell.label),))
    config = ScenarioConfig(
        seed=params.seed,
        population=params.population,
        mix=popular_channel_mix(),
        probes=(TELE_PROBE,),
        warmup=params.warmup,
        duration=params.duration,
        protocol=ProtocolConfig().hardened(),
        flows=FlowSpec(),
        faults=schedule,
        run_hook=kill_switch_hook(("cell", cell.index)),
    )
    result = SessionScenario(config).run()

    probe = result.probe()
    player = probe.peer.player
    continuity = player.continuity_index if player is not None else 0.0
    startup = player.startup_delay if player is not None else None

    totals = result.flows.totals
    total_bytes = totals.get("bytes", 0)
    adversarial = totals.get("adversarial_bytes", 0)

    viewers = list(result.population.active) + [probe.peer]

    def total(counter: str) -> int:
        return sum(int(getattr(v, counter, 0)) for v in viewers)

    uploads = sorted((int(getattr(v, "bytes_uploaded", 0))
                      for v in viewers), reverse=True)
    upload_total = sum(uploads)
    top10_share = None
    if upload_total:
        top = max(1, math.ceil(0.1 * len(uploads)))
        top10_share = sum(uploads[:top]) / upload_total

    injector = result.injector
    return {
        "behavior": cell.behavior,
        "fraction": cell.fraction,
        "continuity": round(continuity, 6),
        "startup_delay": (round(startup, 6) if startup is not None
                          else None),
        "transit_share": round(transit_share(totals), 6),
        "intra_share": round(intra_share(totals), 6),
        "adversarial_byte_share": (round(adversarial / total_bytes, 6)
                                   if total_bytes else 0.0),
        "top10_upload_share": (round(top10_share, 6)
                               if top10_share is not None else None),
        "adversaries_attached": (injector.adversaries_attached
                                 if injector is not None else 0),
        "poisoned_replies": total("poisoned_replies"),
        "chunks_refetched": total("chunks_refetched"),
        "neighbors_banned": total("neighbors_banned"),
        "requests_rate_limited": total("requests_rate_limited"),
        "rejected_messages": total("rejected_messages"),
        "events_executed": result.deployment.sim.events_executed,
    }


# ----------------------------------------------------------------------
# Scoring and reports
# ----------------------------------------------------------------------
#: Fields a restored checkpoint payload must carry for a cell.
_CELL_FIELDS = (
    "behavior", "fraction", "continuity", "startup_delay",
    "transit_share", "intra_share", "adversarial_byte_share",
    "top10_upload_share", "adversaries_attached", "poisoned_replies",
    "chunks_refetched", "neighbors_banned", "requests_rate_limited",
    "rejected_messages", "events_executed")


def _cell_payload(outcome: dict) -> dict:
    """The checkpoint body of one cell, in stable field order."""
    return {name: outcome[name] for name in _CELL_FIELDS}


def _cell_from_payload(_key, payload: dict) -> dict:
    """A restored cell; one written before cells counted their engine
    events replays with 0, as a campaign unit without the field does."""
    return _cell_payload({"events_executed": 0, **payload})


def score_cells(cells: List[Cell], outcomes: Dict[int, dict]
                ) -> List[Statistic]:
    """Judge every adversarial cell against the clean baseline.

    Each statistic's target interval is the baseline's value widened by
    the metric's tolerance: the claim is not that adversaries cost
    nothing, but that the hardened protocol keeps the damage bounded.
    """
    baseline = outcomes[0]
    statistics: List[Statistic] = []
    for cell in cells[1:]:
        outcome = outcomes[cell.index]
        label = cell.label
        base_cont = baseline["continuity"]
        statistics.append(Statistic(
            label, "continuity", outcome["continuity"],
            (max(0.0, base_cont - CONTINUITY_TOLERANCE), 1.0),
            note="probe continuity index vs clean baseline"))
        base_transit = baseline["transit_share"]
        statistics.append(Statistic(
            label, "transit byte share", outcome["transit_share"],
            (0.0, min(1.0, base_transit + TRANSIT_TOLERANCE)),
            note="share of delivered bytes crossing an AS"))
        base_startup = baseline["startup_delay"]
        statistics.append(Statistic(
            label, "startup delay", outcome["startup_delay"],
            ((0.0, base_startup + STARTUP_TOLERANCE)
             if base_startup is not None else None),
            unit="s"))
        base_top10 = baseline["top10_upload_share"]
        statistics.append(Statistic(
            label, "top-10% upload share", outcome["top10_upload_share"],
            ((max(0.0, base_top10 - TOP10_TOLERANCE),
              min(1.0, base_top10 + TOP10_TOLERANCE))
             if base_top10 is not None else None),
            note="contribution-rank shape (fig11-14 statistic)"))
    return statistics


@dataclass
class ResilienceResult:
    """Everything ``repro run resilience`` produced."""

    params: ResilienceParams
    cells: List[Cell]
    #: cell index -> the worker's plain-data outcome.
    outcomes: Dict[int, dict]
    statistics: List[Statistic]

    @property
    def baseline(self) -> dict:
        return self.outcomes[0]

    @property
    def degraded(self) -> int:
        return sum(1 for s in self.statistics if s.status == "deviates")

    @property
    def scored(self) -> int:
        return sum(1 for s in self.statistics if s.status != "n/a")

    def render(self) -> str:
        def pct(value) -> str:
            return "-" if value is None else f"{100.0 * value:.1f}%"

        def seconds(value) -> str:
            return "-" if value is None else f"{value:.1f}s"

        by_cell: Dict[str, List[Statistic]] = {}
        for statistic in self.statistics:
            by_cell.setdefault(statistic.figure, []).append(statistic)

        rows = []
        for cell in self.cells[1:]:
            outcome = self.outcomes[cell.index]
            verdicts = by_cell.get(cell.label, [])
            bad = sum(1 for s in verdicts if s.status == "deviates")
            rows.append([
                cell.label,
                f"{outcome['adversaries_attached']}",
                pct(outcome["continuity"]),
                pct(outcome["transit_share"]),
                seconds(outcome["startup_delay"]),
                pct(outcome["top10_upload_share"]),
                pct(outcome["adversarial_byte_share"]),
                f"{outcome['neighbors_banned']}",
                f"{outcome['chunks_refetched']}",
                f"{outcome['requests_rate_limited']}",
                "ok" if bad == 0 else f"{bad} degraded",
            ])
        table = format_table(
            ["cell", "adv", "cont", "transit", "startup", "top10%",
             "adv-bytes", "banned", "refetched", "capped", "verdict"],
            rows)
        base = self.baseline
        lines = [
            "resilience: adversarial peers vs the hardened protocol",
            f"  seed={self.params.seed} population="
            f"{self.params.population} "
            f"window={self.params.warmup:.0f}+"
            f"{self.params.duration:.0f}s "
            f"cells={len(self.cells)} (1 baseline + "
            f"{len(self.cells) - 1} adversarial)",
            f"  baseline: continuity={pct(base['continuity'])} "
            f"transit={pct(base['transit_share'])} "
            f"startup={seconds(base['startup_delay'])} "
            f"top10%={pct(base['top10_upload_share'])}",
            f"  verdicts: {self.scored - self.degraded}/{self.scored} "
            f"statistics inside tolerance of the baseline",
            "",
            table,
            "",
            "  cont/transit/startup/top10% = the cell's own metrics;",
            "  adv-bytes = share of delivered bytes sent by adversarial",
            "  peers; banned/refetched/capped = defense counters.",
            "  A cell degrades when a metric leaves the baseline's",
            "  tolerance band (see the module's *_TOLERANCE knobs).",
        ]
        return "\n".join(lines)


def _emit_resilience(obs: Instrumentation,
                     result: ResilienceResult) -> None:
    """Parent-side observability: deterministic regardless of --jobs."""
    if not obs.enabled:
        return
    metrics = obs.metrics
    # Cells ran as uninstrumented jobs, so their engine events are
    # counted here: the run_summary footer sums them.
    metrics.counter("sim.events_executed").inc(
        sum(outcome["events_executed"]
            for outcome in result.outcomes.values()))
    base = result.baseline
    metrics.gauge("resilience.continuity_baseline").set(
        base["continuity"])
    metrics.gauge("resilience.transit_share_baseline").set(
        base["transit_share"])
    for cell in result.cells[1:]:
        outcome = result.outcomes[cell.index]
        tags = {"cell": cell.label}
        metrics.counter("resilience.cells", tags).inc()
        metrics.gauge("resilience.continuity", tags).set(
            outcome["continuity"])
        metrics.gauge("resilience.transit_share", tags).set(
            outcome["transit_share"])
        metrics.gauge("resilience.adversaries_attached", tags).set(
            outcome["adversaries_attached"])
        metrics.gauge("resilience.neighbors_banned", tags).set(
            outcome["neighbors_banned"])
    if obs.trace.enabled_for(INFO):
        obs.trace.emit(0.0, INFO, "resilience_report",
                       cells=len(result.cells) - 1,
                       degraded=result.degraded,
                       scored=result.scored)


def resilience_config_digest(params: ResilienceParams) -> str:
    """Digest of every cell-result-affecting field (checkpoint guard)."""
    return config_digest_of({
        "experiment": "resilience",
        "seed": params.seed,
        "population": params.population,
        "warmup": params.warmup,
        "duration": params.duration,
        "fractions": list(params.fractions),
        "behaviors": list(params.behaviors),
    })


def run_resilience(scale: Scale = Scale.DEFAULT, seed: int = 7,
                   instrumentation: Optional[Instrumentation] = None,
                   jobs: int = 1,
                   fractions: Optional[Tuple[float, ...]] = None,
                   behaviors: Optional[Tuple[str, ...]] = None,
                   checkpoint: Optional[CheckpointPolicy] = None
                   ) -> ResilienceResult:
    """Run the resilience sweep; byte-identical for every ``jobs``.

    Cells are independent jobs fanned out to ``jobs`` worker processes.
    ``checkpoint`` persists finished cells (``--checkpoint DIR``) and
    replays them on ``--resume``, byte-identically, through the same
    :func:`~repro.parallel.run_units` loop as the campaign — the cell
    key is ``("cell", index)``, stored as ``cell-NNNN``.
    """
    params = resilience_params(scale, seed, fractions, behaviors)
    cells = build_cells(params)
    job_list = [Job(key=("cell", cell.index), fn=_resilience_cell_job,
                    args=(params, cell)) for cell in cells]
    store, restored = open_checkpoint(
        checkpoint, resilience_config_digest(params),
        [job.key for job in job_list], seed=params.seed, days=0,
        encode=_cell_payload,
        decode=_cell_from_payload)
    merged = run_units(job_list, workers=jobs, checkpoint=store,
                       restored=restored)

    outcomes = {key[1]: _cell_payload(outcome)
                for key, outcome in merged.items()}
    result = ResilienceResult(
        params=params, cells=cells, outcomes=outcomes,
        statistics=score_cells(cells, outcomes))
    _emit_resilience(resolve_obs(instrumentation), result)
    return result
