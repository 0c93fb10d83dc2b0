"""The chaos experiment: recovery measurement and --jobs determinism."""

import pytest

from repro.experiments.base import SCALE_PARAMS, Scale
from repro.experiments.chaos import (BinSample, ChaosRun,
                                     CONTINUITY_TOLERANCE, FaultReport,
                                     _recovery_time, build_reports,
                                     chaos_params, demo_schedule,
                                     run_chaos, window_stats)
from repro.experiments.registry import (ALL_EXPERIMENT_IDS,
                                        EXPERIMENT_DESCRIPTIONS)
from repro.faults import FaultSchedule
from repro.obs import Instrumentation, MetricsRegistry, MemorySpanSink


# ----------------------------------------------------------------------
# Cheap unit coverage (no sessions)
# ----------------------------------------------------------------------
def make_run(bins, **overrides):
    fields = dict(bins=tuple(bins), overall_continuity=1.0,
                  overall_locality=0.5, probe_startup_delay=10.0,
                  total_rebootstraps=0, total_crashed=0,
                  faults_begun=0, faults_ended=0)
    fields.update(overrides)
    return ChaosRun(**fields)


def sample(time, continuity, locality=0.5):
    return BinSample(time=time, continuity=continuity, locality=locality,
                     startup_mean=None, startup_count=0, viewers=10)


class TestRecoveryTime:
    def test_immediate_recovery(self):
        baseline = make_run([sample(t, 1.0) for t in (110, 120, 130)])
        faulted = make_run([sample(t, 1.0) for t in (110, 120, 130)])
        assert _recovery_time(faulted, baseline, 100.0, 130.0) == 10.0

    def test_degraded_then_healed(self):
        times = (110, 120, 130, 140, 150)
        baseline = make_run([sample(t, 1.0) for t in times])
        # A degraded first bin pulls the cumulative mean down; the tail
        # only passes once enough clean bins accumulate: cumulative
        # means 0.5, 0.75, 0.833, 0.875 — first >= 0.85 at t=140.
        faulted = make_run([sample(110, 0.5)]
                           + [sample(t, 1.0) for t in times[1:]])
        recovery = _recovery_time(faulted, baseline, 100.0, 150.0)
        assert recovery == 40.0

    def test_never_recovers(self):
        times = (110, 120, 130, 140)
        baseline = make_run([sample(t, 1.0) for t in times])
        floor = 1.0 - 2 * CONTINUITY_TOLERANCE
        faulted = make_run([sample(t, floor) for t in times])
        assert _recovery_time(faulted, baseline, 100.0, 140.0) is None

    def test_locality_alone_can_block_recovery(self):
        times = (110, 120, 130)
        baseline = make_run([sample(t, 1.0, locality=0.9)
                             for t in times])
        faulted = make_run([sample(t, 1.0, locality=0.1)
                            for t in times])
        assert _recovery_time(faulted, baseline, 100.0, 130.0) is None


class TestWindows:
    def test_window_stats_means(self):
        run = make_run([sample(10, 0.5, locality=0.2),
                        sample(20, 1.0, locality=0.4),
                        sample(30, None, locality=None)])
        stats = window_stats(run, 0.0, 30.0)
        assert stats.continuity == pytest.approx(0.75)
        assert stats.locality == pytest.approx(0.3)
        assert stats.viewers_mean == pytest.approx(10.0)
        empty = window_stats(run, 100.0, 200.0)
        assert empty.continuity is None

    def test_after_window_truncated_at_next_fault(self):
        params = chaos_params(Scale.SMALL, seed=7)
        schedule = demo_schedule(params.warmup, params.duration)
        bins = [sample(float(t), 1.0)
                for t in range(15, int(params.end_time) + 1, 15)]
        reports = build_reports(schedule, make_run(bins), make_run(bins),
                                params)
        by_start = sorted(schedule.events, key=lambda e: e.start)
        for report, nxt in zip(
                sorted(reports, key=lambda r: r.start), by_start[1:]):
            after = [b.time for b in make_run(bins).bins_between(
                report.end, nxt.start)]
            # Every report recovered within its own horizon, before the
            # next fault begins.
            assert report.recovery_time is not None
            assert report.end + report.recovery_time <= nxt.start + 1e-9
            assert after  # the storm leaves a gap to measure in


class TestScheduleScaling:
    def test_demo_schedule_fits_session(self):
        params = chaos_params(Scale.SMALL, seed=7)
        schedule = demo_schedule(params.warmup, params.duration)
        assert len(schedule) == 4
        kinds = {event.KIND for event in schedule}
        assert kinds == {"server_outage", "flash_crowd", "peer_blackout",
                         "link_degradation"}
        for event in schedule:
            assert params.warmup <= event.start < params.end_time
            assert event.end <= params.end_time

    def test_bin_seconds_floor(self):
        small = chaos_params(Scale.SMALL, seed=7)
        assert small.bin_seconds == 15.0
        assert chaos_params(Scale.SMALL, seed=7,
                            bin_seconds=40.0).bin_seconds == 40.0
        full = SCALE_PARAMS[Scale.DEFAULT]
        assert chaos_params(Scale.DEFAULT, seed=7).bin_seconds == \
            pytest.approx(max(15.0, full.duration / 28.0))


class TestRegistry:
    def test_chaos_registered(self):
        assert "chaos" in ALL_EXPERIMENT_IDS
        assert "chaos" in EXPERIMENT_DESCRIPTIONS


# ----------------------------------------------------------------------
# Full experiment runs (slow; shared module-scoped results)
# ----------------------------------------------------------------------
def instrumented():
    return Instrumentation(metrics=MetricsRegistry(),
                           spans=MemorySpanSink())


@pytest.fixture(scope="module")
def serial_result():
    obs = instrumented()
    result = run_chaos(scale=Scale.SMALL, instrumentation=obs, jobs=1)
    return result, obs


@pytest.fixture(scope="module")
def parallel_result():
    obs = instrumented()
    result = run_chaos(scale=Scale.SMALL, instrumentation=obs, jobs=2)
    return result, obs


class TestChaosRecovery:
    def test_every_fault_recovers(self, serial_result):
        result, _ = serial_result
        for report in result.reports:
            assert report.recovered, \
                f"{report.name} never recovered: {result.render()}"
        assert result.all_recovered

    def test_faults_all_fired_and_ended(self, serial_result):
        result, _ = serial_result
        assert result.faulted.faults_begun == 4
        assert result.faulted.faults_ended == 4
        assert result.baseline.faults_begun == 0
        assert result.baseline.total_crashed == 0

    def test_recovery_paths_exercised(self, serial_result):
        result, _ = serial_result
        # Tracker outage forced automatic re-bootstraps...
        assert result.faulted.total_rebootstraps > 0
        assert result.baseline.total_rebootstraps == 0
        # ...and the blackout actually crashed CNC viewers.
        assert result.faulted.total_crashed > 0

    def test_faults_visibly_hurt(self, serial_result):
        # The storm is not a no-op: at least one during-window is worse
        # than its before-window (otherwise recovery proves nothing).
        result, _ = serial_result
        drops = [report.before.continuity - report.during.continuity
                 for report in result.reports
                 if report.before.continuity is not None
                 and report.during.continuity is not None]
        assert drops and max(drops) > 0.0

    def test_render_mentions_recovery(self, serial_result):
        result, _ = serial_result
        text = result.render()
        assert "recovery" in text
        assert "4/4 recovered" in text

    def test_committed_example_script_recovers(self):
        schedule = FaultSchedule.load("examples/faults/chaos_demo.json")
        result = run_chaos(schedule=schedule, scale=Scale.SMALL)
        assert len(result.reports) == 2
        assert result.all_recovered, result.render()
        assert result.faulted.total_rebootstraps > 0


class TestChaosObservability:
    def test_chaos_metrics_emitted(self, serial_result):
        result, obs = serial_result
        names = {m.name for m in obs.metrics}
        assert {"chaos.continuity_baseline", "chaos.continuity_faulted",
                "chaos.locality_baseline", "chaos.locality_faulted",
                "chaos.rebootstraps", "chaos.faults",
                "chaos.faults_recovered",
                "chaos.recovery_seconds"} <= names
        recovered = [m for m in obs.metrics
                     if m.name == "chaos.faults_recovered"]
        assert sum(m.value for m in recovered) == len(result.reports)

    def test_chaos_spans_emitted(self, serial_result):
        result, obs = serial_result
        chaos_spans = obs.spans.by_category("chaos")
        windowed = [s for s in chaos_spans if s.end > s.start]
        instants = [s for s in chaos_spans if s.end == s.start]
        # Three windowed faults + the instantaneous blackout.
        assert len(windowed) == 3
        assert len(instants) == 1
        assert instants[0].name == "fault:peer_blackout"

    def test_events_executed_counts_both_sessions(self, serial_result,
                                                  parallel_result):
        # The run_summary footer reads this counter; the sessions run
        # uninstrumented, so without the fold it would read 0.
        counts = []
        for result, obs in (serial_result, parallel_result):
            counter = obs.metrics.get("sim.events_executed")
            assert counter.value == (result.baseline.events_executed
                                     + result.faulted.events_executed)
            counts.append(counter.value)
        assert counts[0] == counts[1] > 0


class TestJobsEquivalence:
    def test_results_identical_across_jobs(self, serial_result,
                                           parallel_result):
        serial, _ = serial_result
        parallel, _ = parallel_result
        # Dataclass equality covers every bin sample, window stat and
        # recovery time of both runs.
        assert serial.baseline == parallel.baseline
        assert serial.faulted == parallel.faulted
        assert serial.reports == parallel.reports
        assert serial.render() == parallel.render()

    def test_metrics_identical_across_jobs(self, serial_result,
                                           parallel_result):
        _, serial_obs = serial_result
        _, parallel_obs = parallel_result
        serial_records = sorted(
            str(m.to_record()) for m in serial_obs.metrics
            if m.name.startswith("chaos."))
        parallel_records = sorted(
            str(m.to_record()) for m in parallel_obs.metrics
            if m.name.startswith("chaos."))
        assert serial_records == parallel_records

    def test_spans_identical_across_jobs(self, serial_result,
                                         parallel_result):
        _, serial_obs = serial_result
        _, parallel_obs = parallel_result

        def shape(obs):
            return [(s.name, s.category, s.start, s.end, s.attrs)
                    for s in obs.spans.spans]

        assert shape(serial_obs) == shape(parallel_obs)
