"""Run-fidelity scorecard (the ``repro report`` subcommand).

One table answering "how faithfully does this build reproduce the
paper?": every headline statistic the analysis layer computes for
Figures 2-5 (locality shares), 11-14 (contribution concentration and
stretched-exponential fits), 15-18 (log-log RTT correlations) and
Table 1 (data-response averages), each judged against a target range.

Two reference columns per statistic:

* ``paper`` — the number the paper reports, straight from
  :data:`repro.experiments.collect.PAPER_TARGETS`'s prose.
* ``target range`` — what *this simulator at this scale* is expected to
  produce.  Absolute magnitudes deviate from the paper for documented
  reasons (see the "Known deviations" section of ``EXPERIMENTS.md``:
  ~100-peer swarms cannot concentrate traffic as hard as PPLive's
  multi-thousand-peer channels), so the ranges encode the *shape*
  claims — which ISP wins, the sign of the correlation, which model
  fits — with generous margins, not the paper's point values.

The scorecard serialises to markdown, HTML and a compact JSON trend
record appended to ``benchmarks/results/trend.jsonl``, so CI
accumulates a fidelity trajectory across commits.  Engine speed is not
scored here: ``benchmarks/perf`` is the one perf benchmark.
"""

from __future__ import annotations

import html as html_mod
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from ..analysis.response import ResponseGroup
from .base import Scale, WorkloadBank
from .collect import PAPER_TARGETS
from .registry import run_experiment

#: Statistics judged "reproduced" when inside these ranges.  Bounds are
#: simulator-calibrated (small/default scale); the asserted claim is the
#: paper's *shape*, per the module docstring.
_PASS = "pass"
_DEVIATES = "deviates"
_NA = "n/a"


@dataclass
class Statistic:
    """One scored line of the fidelity table."""

    figure: str
    name: str
    value: Optional[float]
    #: Inclusive target interval for the reproduced value.
    target: Optional[Tuple[float, float]]
    #: The paper's reported number, where it quotes one.
    paper: Optional[float] = None
    unit: str = ""
    note: str = ""

    @property
    def status(self) -> str:
        if self.value is None:
            return _NA
        if self.target is None:
            return _PASS  # informational: no acceptance band
        low, high = self.target
        return _PASS if low <= self.value <= high else _DEVIATES

    def format_value(self) -> str:
        if self.value is None:
            return "—"
        return f"{self.value:.3f}{self.unit}"

    def format_target(self) -> str:
        if self.target is None:
            return "—"
        low, high = self.target
        return f"[{low:g}, {high:g}]{self.unit}"

    def format_paper(self) -> str:
        if self.paper is None:
            return "—"
        return f"{self.paper:g}{self.unit}"


@dataclass
class Scorecard:
    """The full fidelity report for one build/scale/seed."""

    scale: str
    seed: int
    statistics: List[Statistic] = field(default_factory=list)
    label: str = ""

    @property
    def passed(self) -> int:
        return sum(1 for s in self.statistics if s.status == _PASS)

    @property
    def scored(self) -> int:
        return sum(1 for s in self.statistics if s.status != _NA)

    # ------------------------------------------------------------------
    # Renderers
    # ------------------------------------------------------------------
    def render_markdown(self) -> str:
        lines = ["# Run-fidelity scorecard", ""]
        if self.label:
            lines += [f"_{self.label}_", ""]
        lines += [f"Scale `{self.scale}`, seed {self.seed} — "
                  f"**{self.passed}/{self.scored}** statistics inside "
                  "their target ranges.", ""]
        lines += ["| figure | statistic | measured | target range "
                  "| paper | status |",
                  "|---|---|---|---|---|---|"]
        for s in self.statistics:
            lines.append(f"| {s.figure} | {s.name} | {s.format_value()} "
                         f"| {s.format_target()} | {s.format_paper()} "
                         f"| {s.status} |")
        lines += ["", "## Paper context", ""]
        for figure in _ordered_figures(self.statistics):
            prose = PAPER_TARGETS.get(figure)
            if prose:
                lines.append(f"- **{figure}** — {prose}")
        lines.append("")
        return "\n".join(lines)

    def render_html(self) -> str:
        esc = html_mod.escape
        colors = {_PASS: "#2e7d32", _DEVIATES: "#c62828", _NA: "#757575"}
        rows = []
        for s in self.statistics:
            color = colors[s.status]
            rows.append(
                "<tr>"
                f"<td>{esc(s.figure)}</td><td>{esc(s.name)}</td>"
                f"<td>{esc(s.format_value())}</td>"
                f"<td>{esc(s.format_target())}</td>"
                f"<td>{esc(s.format_paper())}</td>"
                f"<td style='color:{color}'>{esc(s.status)}</td>"
                "</tr>")
        return (
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>Run-fidelity scorecard</title>"
            "<style>body{font-family:sans-serif;margin:2em}"
            "table{border-collapse:collapse}"
            "td,th{border:1px solid #ccc;padding:4px 10px}</style>"
            "</head><body>"
            "<h1>Run-fidelity scorecard</h1>"
            f"<p>{esc(self.label)}</p>"
            f"<p>Scale <code>{esc(self.scale)}</code>, seed {self.seed} "
            f"&mdash; <b>{self.passed}/{self.scored}</b> statistics "
            "inside their target ranges.</p>"
            "<table><tr><th>figure</th><th>statistic</th>"
            "<th>measured</th><th>target range</th><th>paper</th>"
            f"<th>status</th></tr>{''.join(rows)}</table>"
            "</body></html>")

    # ------------------------------------------------------------------
    # Trend record
    # ------------------------------------------------------------------
    def trend_record(self) -> dict:
        """The compact JSON line appended to trend.jsonl."""
        return {
            "kind": "scorecard",
            "label": self.label,
            "scale": self.scale,
            "seed": self.seed,
            "passed": self.passed,
            "scored": self.scored,
            "statistics": {f"{s.figure}.{_slug(s.name)}":
                           (round(s.value, 6) if s.value is not None
                            else None)
                           for s in self.statistics},
        }


def _slug(name: str) -> str:
    return name.lower().replace(" ", "_").replace("%", "pct")


def _ordered_figures(statistics: List[Statistic]) -> List[str]:
    seen: List[str] = []
    for s in statistics:
        if s.figure not in seen:
            seen.append(s.figure)
    return seen


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
#: Target ranges per (figure, statistic), simulator-calibrated.
#: Locality/contribution shares are fractions in [0, 1].
_LOCALITY_TARGETS = {
    # (byte-locality range, returned-own-share range), paper byte share.
    "fig02": ((0.40, 1.00), (0.40, 1.00), 0.85),
    "fig03": ((0.25, 1.00), (0.15, 1.00), 0.55),
    "fig04": ((0.25, 1.00), (0.10, 1.00), 0.55),
    # Mason unpopular: Chinese peers dominate, own share must be LOW.
    "fig05": ((0.00, 0.40), (0.00, 0.60), None),
}
_CONTRIBUTION_TARGETS = {
    # top-10% byte share range, paper's value.
    "fig11": ((0.25, 1.00), 0.73),
    "fig12": ((0.25, 1.00), 0.67),
    "fig13": ((0.25, 1.00), 0.82),
    "fig14": ((0.25, 1.00), 0.77),
}
_SE_R2_TARGET = (0.85, 1.00)
_RTT_TARGETS = {
    # Negative correlation, with the paper's value.
    "fig15": ((-1.0, -0.05), -0.654),
    "fig16": ((-1.0, -0.05), -0.396),
    "fig17": ((-1.0, -0.05), -0.679),
    "fig18": ((-1.0, -0.05), -0.450),
}
#: Paper's Table 1 TELE-Popular row (TELE / CNC / OTHER seconds).
_TABLE1_PAPER = {"tele-popular": {ResponseGroup.TELE: 0.7889,
                                  ResponseGroup.CNC: 1.3155,
                                  ResponseGroup.OTHER: 0.7052}}


def build_scorecard(bank: Optional[WorkloadBank] = None,
                    scale: Scale = Scale.SMALL, seed: int = 7,
                    label: str = "") -> Scorecard:
    """Run the four canonical sessions and score every statistic.

    All of Figures 2-5, 11-18 and Table 1 derive from the bank's four
    memoised sessions, so the whole scorecard costs four simulations.
    """
    if bank is None:
        bank = WorkloadBank()

    card = Scorecard(scale=scale.value, seed=seed, label=label)
    stats = card.statistics

    for figure, (byte_t, returned_t, paper_bytes) in \
            sorted(_LOCALITY_TARGETS.items()):
        result = run_experiment(figure, bank=bank, scale=scale, seed=seed)
        stats.append(Statistic(
            figure, "byte locality (own-ISP share)",
            result.breakdown.locality, byte_t, paper=paper_bytes,
            note="fraction of downloaded bytes from the probe's ISP"))
        stats.append(Statistic(
            figure, "returned own-ISP share",
            result.returned_own_share, returned_t))

    for figure, (top10_t, paper_top10) in \
            sorted(_CONTRIBUTION_TARGETS.items()):
        result = run_experiment(figure, bank=bank, scale=scale, seed=seed)
        analysis = result.analysis
        stats.append(Statistic(
            figure, "top-10% neighbor byte share",
            analysis.top10_byte_share, top10_t, paper=paper_top10))
        se_r2 = analysis.se_fit.r_squared if analysis.se_fit else None
        zipf_r2 = (analysis.zipf_fit.r_squared
                   if analysis.zipf_fit else None)
        stats.append(Statistic(
            figure, "SE fit R^2", se_r2, _SE_R2_TARGET,
            note="stretched-exponential fit of request ranks"))
        better = None
        if se_r2 is not None and zipf_r2 is not None:
            better = 1.0 if se_r2 > zipf_r2 else 0.0
        stats.append(Statistic(
            figure, "SE beats Zipf", better, (1.0, 1.0),
            note="1 when the SE R^2 exceeds the Zipf R^2, as the paper "
                 "finds"))

    for figure, (corr_t, paper_corr) in sorted(_RTT_TARGETS.items()):
        result = run_experiment(figure, bank=bank, scale=scale, seed=seed)
        correlation = result.analysis.correlation
        stats.append(Statistic(
            figure, "log-log RTT correlation", correlation, corr_t,
            paper=paper_corr,
            note="corr(log #requests, log RTT); negative = nearest "
                 "peers used most"))

    table1 = run_experiment("table1", bank=bank, scale=scale, seed=seed)
    for row_label, averages in table1.rows.items():
        paper_row = _TABLE1_PAPER.get(row_label, {})
        for group in (ResponseGroup.TELE, ResponseGroup.CNC,
                      ResponseGroup.OTHER):
            stats.append(Statistic(
                "table1", f"{row_label} avg response ({group})",
                averages.get(group), (0.05, 5.0),
                paper=paper_row.get(group), unit="s"))
    return card


def append_trend(card: Scorecard, path: Path) -> dict:
    """Append the scorecard's trend record as one JSONL line."""
    record = card.trend_record()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return record


__all__ = ["Statistic", "Scorecard", "build_scorecard", "append_trend"]
