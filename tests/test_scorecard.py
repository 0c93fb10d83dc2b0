"""Tests for the run-fidelity scorecard (``repro report``).

One real scorecard is built at SMALL scale (four memoised sessions) and
shared module-wide; rendering details and the trend file are tested on
cheap synthetic cards.
"""

import json

import pytest

from repro.analysis.response import ResponseGroup
from repro.experiments import Scale
from repro.experiments.collect import PAPER_TARGETS
from repro.experiments.scorecard import (Scorecard, Statistic,
                                         append_trend, build_scorecard)

#: Figures whose statistics must appear in every scorecard — all the
#: paper-target statistics repro.analysis computes.
EXPECTED_FIGURES = ("fig02", "fig03", "fig04", "fig05",
                    "fig11", "fig12", "fig13", "fig14",
                    "fig15", "fig16", "fig17", "fig18", "table1")


@pytest.fixture(scope="module")
def card():
    return build_scorecard(scale=Scale.SMALL, seed=5, label="unit test")


class TestStatistic:
    def test_status_pass_inside_range(self):
        assert Statistic("f", "s", 0.5, (0.4, 1.0)).status == "pass"
        assert Statistic("f", "s", 0.4, (0.4, 1.0)).status == "pass"

    def test_status_deviates_outside_range(self):
        assert Statistic("f", "s", 0.3, (0.4, 1.0)).status == "deviates"

    def test_no_target_is_informational(self):
        assert Statistic("f", "s", 0.3, None).status == "pass"

    def test_missing_value_is_na(self):
        stat = Statistic("f", "s", None, (0.0, 1.0))
        assert stat.status == "n/a"
        assert stat.format_value() == "—"

    def test_formatting(self):
        stat = Statistic("f", "s", 0.78894, (0.05, 5.0), paper=0.7889,
                         unit="s")
        assert stat.format_value() == "0.789s"
        assert stat.format_target() == "[0.05, 5]s"
        assert stat.format_paper() == "0.7889s"


class TestBuildScorecard:
    def test_covers_every_paper_statistic(self, card):
        figures = {s.figure for s in card.statistics}
        assert figures == set(EXPECTED_FIGURES)
        by_figure = {}
        for s in card.statistics:
            by_figure.setdefault(s.figure, []).append(s.name)
        for fig in ("fig02", "fig03", "fig04", "fig05"):
            assert "byte locality (own-ISP share)" in by_figure[fig]
            assert "returned own-ISP share" in by_figure[fig]
        for fig in ("fig11", "fig12", "fig13", "fig14"):
            assert "top-10% neighbor byte share" in by_figure[fig]
            assert "SE fit R^2" in by_figure[fig]
            assert "SE beats Zipf" in by_figure[fig]
        for fig in ("fig15", "fig16", "fig17", "fig18"):
            assert "log-log RTT correlation" in by_figure[fig]
        # Table 1: every response group of every row is scored.
        for group in ResponseGroup:
            assert any(str(group) in name
                       for name in by_figure["table1"])

    def test_mostly_in_range_at_small_scale(self, card):
        # Small-scale swarms deviate on a few absolute magnitudes
        # (documented in EXPERIMENTS.md); the shape claims must hold
        # for the overwhelming majority.
        assert card.scored == len(card.statistics)
        assert card.passed >= card.scored - 5

    def test_statistics_all_scored(self, card):
        # Every line carries a value and a target band at this scale —
        # "n/a" rows would silently shrink the denominator.
        assert all(s.value is not None for s in card.statistics)


class TestRendering:
    def test_markdown_contains_every_row_and_the_paper_prose(self, card):
        text = card.render_markdown()
        assert text.startswith("# Run-fidelity scorecard")
        assert f"**{card.passed}/{card.scored}**" in text
        for s in card.statistics:
            assert s.name in text
        for fig in EXPECTED_FIGURES[:-1]:
            assert PAPER_TARGETS[fig] in text
        # Speed belongs to benchmarks/perf; the scorecard scores fidelity.
        assert "Engine performance" not in text

    def test_html_renders_and_escapes(self, card):
        page = card.render_html()
        assert page.startswith("<!DOCTYPE html>")
        assert f"<b>{card.passed}/{card.scored}</b>" in page
        synthetic = Scorecard(scale="small", seed=1,
                              label="<script>alert(1)</script>")
        assert "<script>" not in synthetic.render_html()
        assert "&lt;script&gt;" in synthetic.render_html()
        assert "Engine performance" not in page

    def test_trend_record_shape(self, card):
        record = card.trend_record()
        assert record["kind"] == "scorecard"
        assert record["scale"] == "small" and record["seed"] == 5
        assert record["passed"] == card.passed
        assert record["scored"] == card.scored
        assert len(record["statistics"]) == len(card.statistics)
        assert "fig02.byte_locality_(own-isp_share)" in \
            record["statistics"]
        assert set(record) == {"kind", "label", "scale", "seed", "passed",
                               "scored", "statistics"}
        json.dumps(record)  # must be JSON-serialisable as-is


class TestTrendFile:
    def test_append_trend_writes_one_line(self, tmp_path):
        card = Scorecard(scale="small", seed=1)
        card.statistics.append(Statistic("fig02", "x", 0.5, (0.0, 1.0)))
        path = tmp_path / "nested" / "trend.jsonl"
        append_trend(card, path)
        append_trend(card, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["kind"] == "scorecard"
            assert record["passed"] == 1
