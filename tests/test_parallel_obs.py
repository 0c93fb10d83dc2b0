"""Heartbeat/profiler/span interaction with ``--jobs N`` runs.

Workers never receive the parent's Instrumentation bundle (sinks do
not pickle and worker completion order is racy), so everything here is
*parent-side*: the campaign's results and its campaign-level span and
event streams must be byte-equivalent between serial and parallel
execution even with a full bundle — spans, profiler, heartbeat —
enabled in the parent.
"""

import io

import pytest

from repro.obs import (EngineProfiler, Instrumentation, MemorySpanSink,
                       RingSink)
from repro.parallel import Job, execute_jobs
from repro.streaming.video import Popularity
from repro.workload.campaign import CampaignConfig, run_campaign

from .test_campaign_goldens import _series_digest

TINY_CAMPAIGN = dict(seed=11, days=2, popular_population=10,
                     unpopular_population=6, session_duration=120.0,
                     warmup=60.0)


def _square(x):
    return x * x


def _full_bundle():
    """Spans + trace + profiler + heartbeat, all parent-side."""
    return Instrumentation(trace=RingSink(capacity=500_000),
                           spans=MemorySpanSink(),
                           profiler=EngineProfiler(),
                           progress=True,
                           progress_stream=io.StringIO())


def _campaign(jobs):
    obs = _full_bundle()
    config = CampaignConfig(instrumentation=obs, **TINY_CAMPAIGN)
    result = run_campaign(config, jobs=jobs)
    return result, obs


@pytest.fixture(scope="module")
def serial():
    return _campaign(jobs=1)


@pytest.fixture(scope="module")
def parallel():
    return _campaign(jobs=2)


def _campaign_day_spans(obs):
    """The campaign-level span stream, stripped of allocation-order
    IDs (serial runs interleave per-session spans, so absolute IDs
    differ by construction while content must not)."""
    return [(s.name, s.start, s.actor, dict(s.attrs))
            for s in obs.spans.spans if s.name == "campaign_day"]


class TestByteEquivalenceWithFullBundle:
    def test_results_identical(self, serial, parallel):
        assert _series_digest(serial[0]) == _series_digest(parallel[0])

    def test_campaign_day_spans_identical(self, serial, parallel):
        serial_spans = _campaign_day_spans(serial[1])
        assert serial_spans
        assert serial_spans == _campaign_day_spans(parallel[1])

    def test_campaign_event_stream_identical(self, serial, parallel):
        def days(obs):
            return [r for r in obs.trace.records
                    if r["event"] == "campaign_day"]
        assert days(serial[1]) == days(parallel[1])

    def test_heartbeat_progress_lines_identical(self, serial, parallel):
        def lines(obs):
            return [line for line
                    in obs.progress_stream.getvalue().splitlines()
                    if line.startswith("[campaign]")]
        serial_lines = lines(serial[1])
        assert len(serial_lines) == 2 * TINY_CAMPAIGN["days"]
        assert serial_lines == lines(parallel[1])


class TestParallelSpanMerge:
    def test_parallel_run_gets_job_spans_in_key_order(self, parallel):
        obs = parallel[1]
        runs = [s for s in obs.spans.spans if s.name == "parallel_run"]
        assert len(runs) == 1
        (run_span,) = runs
        assert run_span.attrs["jobs"] == 2 * TINY_CAMPAIGN["days"]
        assert run_span.attrs["workers"] == 2
        job_spans = [s for s in obs.spans.spans if s.name == "job"]
        # Merged key order — (popular, 0..n), then (unpopular, 0..n) —
        # regardless of which worker finished first.
        expected = [str((popularity.value, day))
                    for popularity in (Popularity.POPULAR,
                                       Popularity.UNPOPULAR)
                    for day in range(TINY_CAMPAIGN["days"])]
        assert [s.attrs["key"] for s in job_spans] == expected
        for span in job_spans:
            assert span.parent_id == run_span.span_id
            assert span.trace_id == run_span.trace_id
            assert span.status == "ok"
        # Synthetic end-to-end timeline: jobs abut, run covers them.
        for earlier, later in zip(job_spans, job_spans[1:]):
            assert later.start >= earlier.end
        assert run_span.end == job_spans[-1].end

    def test_serial_campaign_has_no_job_spans(self, serial):
        names = {s.name for s in serial[1].spans.spans}
        assert "parallel_run" not in names and "job" not in names

    def test_execute_jobs_without_spans_records_none(self):
        obs = Instrumentation(trace=RingSink())
        execute_jobs([Job(key=i, fn=_square, args=(i,))
                      for i in range(3)], workers=2, obs=obs)
        assert obs.spans.spans_recorded == 0

    def test_execute_jobs_serial_path_also_spans(self):
        obs = Instrumentation(spans=MemorySpanSink())
        execute_jobs([Job(key=i, fn=_square, args=(i,))
                      for i in range(3)], workers=1, obs=obs)
        jobs = [s for s in obs.spans.spans if s.name == "job"]
        assert [s.attrs["key"] for s in jobs] == ["0", "1", "2"]
        assert all(s.attrs["where"] == "serial" for s in jobs)


class TestProfilerWithJobs:
    def test_parent_profiler_sees_only_parent_simulations(self,
                                                          parallel):
        # Workers run the sessions, so the parent profiler must not
        # have accumulated worker events; the parallel.* metrics carry
        # the fan-out accounting instead.
        obs = parallel[1]
        assert obs.profiler.total_events == 0
        pool = obs.metrics.get("parallel.jobs", {"where": "pool"})
        fallback = obs.metrics.get("parallel.jobs",
                                   {"where": "fallback"})
        counted = (pool.value if pool is not None else 0) + \
            (fallback.value if fallback is not None else 0)
        assert counted == 2 * TINY_CAMPAIGN["days"]
        assert obs.metrics.get("parallel.workers").value == 2

    def test_serial_profiler_accumulates_sessions(self, serial):
        obs = serial[1]
        assert obs.profiler.total_events > 0
        sessions = obs.metrics.counter("sim.sessions_run")
        assert sessions.value == 2 * TINY_CAMPAIGN["days"]


class TestCampaignEngineCounters:
    """What the run_summary footer and the engine gauges read from."""

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_event_counter_is_the_sum_of_unit_counts(self, request, mode):
        # Worker sessions never count into the parent bundle, so the
        # campaign folds their recorded counts; serial sessions count
        # themselves.  Either way the footer is the units' sum.
        result, obs = request.getfixturevalue(mode)
        total = sum(day.events_executed
                    for day in result.popular + result.unpopular)
        assert total > 0
        assert obs.metrics.get("sim.events_executed").value == total

    def test_engine_rates_never_span_two_days(self, serial):
        # Each campaign day is a fresh simulator whose event count
        # restarts from zero; a rate against the previous day's last
        # sample would be hugely negative.
        obs = serial[1]
        samples = obs.profiler.samples
        assert len(samples) > 2 * TINY_CAMPAIGN["days"]
        assert all(sample.events_per_sec >= 0.0 for sample in samples)
        assert obs.metrics.get("sim.events_per_sec_wall_mean").value > 0
