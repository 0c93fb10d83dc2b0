"""Figures 2-5: ISP-level locality panels for one probe session.

Each figure has three panels:

(a) total returned peer addresses per ISP (with duplicates),
(b) returned addresses split by replier bucket (CNC_p, CNC_s, ...),
(c) data transmissions and downloaded bytes per ISP.

The driver renders the same rows the paper plots, plus the headline
percentages quoted in its prose (share of own-ISP entries, transmission
and byte locality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.locality import (CATEGORY_ORDER, LocalityBreakdown,
                                 REPLIER_BUCKETS, locality_breakdown,
                                 own_isp_share_of_replies)
from ..analysis.report import format_table, percentage
from ..workload.scenario import SessionResult


@dataclass
class LocalityFigure:
    """One of Figures 2-5, computed from a probe trace."""

    figure_id: str
    title: str
    breakdown: LocalityBreakdown
    own_isp_reply_shares: dict

    @property
    def returned_own_share(self) -> float:
        """Fraction of returned addresses in the probe's own ISP."""
        total = self.breakdown.returned_total
        if total == 0:
            return 0.0
        own = self.breakdown.returned_counts.get(
            self.breakdown.probe_category, 0)
        return own / total

    def render(self) -> str:
        b = self.breakdown
        lines: List[str] = [
            f"=== {self.figure_id}: {self.title} ===",
            f"probe {b.probe} ({b.probe_category})",
            "",
            "(a) returned peer addresses by ISP (with duplicates):",
        ]
        rows = [[str(c), b.returned_counts.get(c, 0),
                 percentage(b.returned_counts.get(c, 0), b.returned_total)]
                for c in CATEGORY_ORDER]
        lines.append(format_table(["ISP", "addresses", "share"], rows))
        lines.append(f"  own-ISP share of returned addresses: "
                     f"{self.returned_own_share:.1%}")
        lines.append("")
        lines.append("(b) returned addresses by replier bucket:")
        rows = []
        for bucket in REPLIER_BUCKETS:
            counts = b.by_source.get(bucket, {})
            row = [bucket] + [counts.get(c, 0) for c in CATEGORY_ORDER]
            rows.append(row)
        lines.append(format_table(
            ["replier"] + [str(c) for c in CATEGORY_ORDER], rows))
        for bucket, share in sorted(self.own_isp_reply_shares.items()):
            lines.append(f"  {bucket}: {share:.1%} of entries in the "
                         f"replier's own ISP")
        lines.append("")
        lines.append("(c) data transmissions / downloaded bytes by ISP:")
        tx_total = sum(b.transmissions.values())
        rows = [[str(c), b.transmissions.get(c, 0),
                 percentage(b.transmissions.get(c, 0), tx_total),
                 b.bytes.get(c, 0),
                 percentage(b.bytes.get(c, 0), b.bytes_total)]
                for c in CATEGORY_ORDER]
        lines.append(format_table(
            ["ISP", "transmissions", "tx share", "bytes", "byte share"],
            rows))
        lines.append(f"  traffic locality (own-ISP byte share): "
                     f"{b.locality:.1%}")
        lines.append(f"  unique peers on returned lists: {b.unique_listed}")
        return "\n".join(lines)


def locality_figure(result: SessionResult, figure_id: str,
                    title: str) -> LocalityFigure:
    """Build one of Figures 2-5 from a canonical session."""
    probe = result.probe()
    breakdown = locality_breakdown(probe.trace, probe.report.data,
                                   result.directory, result.infrastructure)
    shares = own_isp_share_of_replies(probe.trace, result.directory,
                                      result.infrastructure)
    return LocalityFigure(figure_id=figure_id, title=title,
                          breakdown=breakdown,
                          own_isp_reply_shares=shares)
