"""Determinism-equivalence harness for the parallel execution layer.

The contract under test: because every simulation unit derives its RNG
streams from its own key, fanning units out to worker processes must
change *nothing* about the results — ``run_campaign(..., jobs=N)`` is
byte-identical for every ``N``, worker crashes degrade throughput but
never output, and the serial path's campaign-level event stream is
exactly what it was before the parallel layer existed.
"""

import io
import multiprocessing
import os

import pytest

import repro.parallel.units as units_module
from repro.checkpoint import (CheckpointError, CheckpointPolicy,
                              UnitCheckpointStore)
from repro.experiments.fig06 import Figure6
from repro.obs import (Instrumentation, MemorySpanSink, ProgressBus,
                       RingSink, read_progress, strip_wall_fields)
from repro.parallel import (KILL_SWITCH_ENV, WHERE_FALLBACK, WHERE_POOL,
                            WHERE_SERIAL, Job, JobFailure, execute_jobs,
                            kill_switch_hook, merge_by_key,
                            open_checkpoint, run_jobs, run_seed_sweep,
                            run_units)
from repro.workload.campaign import CampaignConfig, run_campaign
from repro.workload.scenario import ScenarioConfig

from .test_campaign_goldens import _series_digest


# ----------------------------------------------------------------------
# Job functions must be module-level so they pickle across processes.
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _crash_in_worker(x):
    """Poisoned job: kills any pool worker, succeeds in-process."""
    if multiprocessing.parent_process() is not None:
        os._exit(17)
    return x + 100


def _always_raise(x):
    raise ValueError(f"deterministic failure for {x}")


TINY_CAMPAIGN = dict(seed=11, days=2, popular_population=10,
                     unpopular_population=6, session_duration=120.0,
                     warmup=60.0)


# ----------------------------------------------------------------------
# run_jobs core behaviour
# ----------------------------------------------------------------------
class TestRunJobs:
    def test_serial_matches_input_order(self):
        jobs = [Job(key=i, fn=_square, args=(i,)) for i in (3, 1, 2)]
        merged = run_jobs(jobs)
        assert list(merged.items()) == [(3, 9), (1, 1), (2, 4)]

    def test_pool_matches_serial(self):
        jobs = [Job(key=i, fn=_square, args=(i,)) for i in range(8)]
        assert run_jobs(jobs, workers=2) == run_jobs(jobs)

    def test_empty_job_list(self):
        assert list(run_jobs([], workers=4)) == []

    def test_duplicate_keys_rejected(self):
        jobs = [Job(key="x", fn=_square, args=(1,)),
                Job(key="x", fn=_square, args=(2,))]
        with pytest.raises(ValueError, match="unique"):
            run_jobs(jobs)

    def test_serial_outcomes_are_marked_serial(self):
        outcomes = execute_jobs([Job(key=0, fn=_square, args=(5,))])
        assert [o.where for o in outcomes] == [WHERE_SERIAL]
        assert outcomes[0].attempts == 1
        assert outcomes[0].queue_wait == 0.0

    def test_pool_outcomes_record_timing(self):
        outcomes = execute_jobs([Job(key=i, fn=_square, args=(i,))
                                 for i in range(3)], workers=2)
        for outcome in outcomes:
            assert outcome.where == WHERE_POOL
            assert outcome.wall_clock >= 0.0
            assert outcome.queue_wait >= 0.0


class TestCrashAndTimeout:
    def test_poisoned_job_falls_back_in_process(self):
        jobs = [Job(key="a", fn=_square, args=(3,)),
                Job(key="poison", fn=_crash_in_worker, args=(1,)),
                Job(key="b", fn=_square, args=(4,))]
        outcomes = {o.key: o for o in execute_jobs(jobs, workers=2)}
        # Every job delivered the right value despite the crash ...
        assert outcomes["a"].value == 9
        assert outcomes["b"].value == 16
        assert outcomes["poison"].value == 101
        # ... and the poisoned one was retried then run in-process.
        assert outcomes["poison"].where == WHERE_FALLBACK
        assert outcomes["poison"].attempts == 3  # 2 pool rounds + fallback

    def test_deterministic_failure_raises_job_failure(self):
        with pytest.raises(JobFailure, match="bad"):
            run_jobs([Job(key="bad", fn=_always_raise, args=(0,))],
                     workers=2)

    def test_failure_raises_in_serial_mode_too(self):
        with pytest.raises(JobFailure):
            run_jobs([Job(key="bad", fn=_always_raise, args=(0,))])


class TestMergeByKey:
    def test_merge_follows_key_order_not_insertion_order(self):
        results = {"b": 2, "a": 1, "c": 3}  # "completion" order b, a, c
        merged = merge_by_key(["a", "b", "c"], results)
        assert list(merged.items()) == [("a", 1), ("b", 2), ("c", 3)]

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            merge_by_key(["a", "b"], {"a": 1})

    def test_unknown_result_key_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            merge_by_key(["a"], {"a": 1, "zzz": 9})

    def test_duplicate_key_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            merge_by_key(["a", "a"], {"a": 1})


# ----------------------------------------------------------------------
# Campaign: serial vs parallel byte-identical results
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_campaign():
    return run_campaign(CampaignConfig(**TINY_CAMPAIGN), jobs=1)


class TestCampaignEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_byte_identical_across_job_counts(self, serial_campaign,
                                              jobs):
        parallel = run_campaign(CampaignConfig(**TINY_CAMPAIGN),
                                jobs=jobs)
        # Rendered Figure 6 table: byte-identical.
        assert (Figure6(result=parallel).render()
                == Figure6(result=serial_campaign).render())
        # Per-day locality series: bit-identical floats.
        assert _series_digest(parallel) == _series_digest(serial_campaign)
        # Structured fields match exactly, day by day.
        for mine, theirs in zip(parallel.popular + parallel.unpopular,
                                serial_campaign.popular
                                + serial_campaign.unpopular):
            assert mine.day == theirs.day
            assert mine.popularity == theirs.popularity
            assert mine.population == theirs.population
            assert mine.locality_by_isp == theirs.locality_by_isp

    def test_pool_unavailable_falls_back_to_serial(self,
                                                   serial_campaign,
                                                   monkeypatch):
        # Platform cannot provide a process pool: the campaign must
        # degrade to in-process execution with byte-identical output.
        import repro.parallel.jobs as jobs_module
        real_make_pool = jobs_module._make_pool
        calls = {"n": 0}

        def flaky_pool(workers):
            calls["n"] += 1
            if calls["n"] == 1:
                return None  # pool "unavailable" -> serial fallback
            return real_make_pool(workers)

        monkeypatch.setattr(jobs_module, "_make_pool", flaky_pool)
        parallel = run_campaign(CampaignConfig(**TINY_CAMPAIGN), jobs=2)
        assert _series_digest(parallel) == _series_digest(serial_campaign)


def _campaign_events(jobs):
    """The campaign's ``day_complete`` progress records, wall fields
    stripped."""
    progress = io.StringIO()
    obs = Instrumentation(progress_bus=ProgressBus(progress))
    config = CampaignConfig(instrumentation=obs, **TINY_CAMPAIGN)
    run_campaign(config, jobs=jobs)
    progress.seek(0)
    return [strip_wall_fields(record) for record in read_progress(progress)
            if record["kind"] == "day_complete"]


@pytest.fixture(scope="module")
def serial_events():
    return _campaign_events(jobs=1)


class TestCampaignEventStream:
    """The serial path's campaign-level event stream is untouched, and
    the parallel path replays the identical stream after its merge."""

    def test_serial_event_stream_shape(self, serial_events):
        events = serial_events
        days = TINY_CAMPAIGN["days"]
        # One event per (program, day): all popular days in order, then
        # all unpopular days — exactly the pre-parallel serial protocol.
        assert [(e["popularity"], e["day"]) for e in events] == \
            [("popular", d + 1) for d in range(days)] \
            + [("unpopular", d + 1) for d in range(days)]
        for event in events:
            assert event["days"] == days
            assert set(event["locality_by_isp"]) == {"CNC", "TELE",
                                                     "Mason"}

    def test_parallel_emits_identical_campaign_events(self,
                                                      serial_events):
        parallel = _campaign_events(jobs=2)
        assert serial_events == parallel


# ----------------------------------------------------------------------
# Seed sweeps and ablation grids
# ----------------------------------------------------------------------
class TestSeedSweep:
    SCENARIO = dict(population=12, duration=120.0, warmup=60.0)

    def test_parallel_sweep_matches_serial(self):
        config = ScenarioConfig(**self.SCENARIO)
        serial = run_seed_sweep(config, [1, 2, 3], jobs=1)
        parallel = run_seed_sweep(config, [1, 2, 3], jobs=2)
        assert serial == parallel
        assert [m.seed for m in parallel] == [1, 2, 3]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_seed_sweep(ScenarioConfig(**self.SCENARIO), [])

    def test_duplicate_seeds_allowed(self):
        config = ScenarioConfig(**self.SCENARIO)
        metrics = run_seed_sweep(config, [5, 5], jobs=2)
        assert metrics[0] == metrics[1]


class TestParallelObservability:
    def test_job_metrics_flow_into_bundle(self):
        obs = Instrumentation(trace=RingSink(), spans=MemorySpanSink())
        jobs = [Job(key=i, fn=_square, args=(i,)) for i in range(4)]
        run_jobs(jobs, workers=2, obs=obs)
        pool_jobs = obs.metrics.get("parallel.jobs", {"where": "pool"})
        assert pool_jobs is not None and pool_jobs.value == 4
        assert obs.metrics.get("parallel.job_seconds").count == 4
        assert obs.metrics.get("parallel.queue_seconds").count == 4
        assert obs.metrics.get("parallel.workers").value == 2
        (run,) = obs.spans.by_name("parallel_run")
        assert run.attrs["jobs"] == 4
        assert obs.trace.events("parallel_run") == []

    def test_null_obs_costs_nothing(self):
        # No bundle: the runner must not allocate metrics anywhere.
        jobs = [Job(key=i, fn=_square, args=(i,)) for i in range(2)]
        merged = run_jobs(jobs, workers=2, obs=None)
        assert dict(merged) == {0: 0, 1: 1}


# ----------------------------------------------------------------------
# run_units: the checkpoint/resume loop over toy units
# ----------------------------------------------------------------------
def _toy_jobs(count):
    return [Job(key=("unit", i), fn=_square, args=(i,))
            for i in range(count)]


def _encode(value):
    return {"value": value}


def _decode(key, payload):
    return payload["value"]


def _open(tmp_path, keys, every=1, resume=False):
    return open_checkpoint(
        CheckpointPolicy(path=str(tmp_path / "ckpt"), every=every,
                         resume=resume),
        "d" * 64, keys, seed=1, days=0, encode=_encode, decode=_decode)


def _on_disk(checkpoint):
    return sorted(key[1] for key, _ in
                  checkpoint.store.iter_units(checkpoint.digest))


class TestRunUnits:
    def _record_calls(self, monkeypatch):
        """Wrap the runner's run_jobs to record each call's unit count."""
        calls = []
        real = units_module.run_jobs

        def counting(jobs, **kwargs):
            calls.append(len(jobs))
            return real(jobs, **kwargs)

        monkeypatch.setattr(units_module, "run_jobs", counting)
        return calls

    def _run(self, tmp_path, count, workers, every):
        jobs = _toy_jobs(count)
        checkpoint, restored = _open(tmp_path, [j.key for j in jobs],
                                     every=every)
        seen = []
        merged = run_units(
            jobs, workers=workers, checkpoint=checkpoint,
            restored=restored,
            on_unit=lambda key, value, replayed: seen.append(
                (key[1], _on_disk(checkpoint))))
        assert list(merged.values()) == [i * i for i in range(count)]
        assert _on_disk(checkpoint) == list(range(count))
        return seen

    def test_serial_flushes_every_n_units(self, tmp_path, monkeypatch):
        calls = self._record_calls(monkeypatch)
        seen = self._run(tmp_path, 5, workers=1, every=2)
        # One unit per call, reported as it finishes; a flush lands
        # before the report of every second unit, the tail at the end.
        assert calls == [1, 1, 1, 1, 1]
        assert seen == [(0, []), (1, [0, 1]), (2, [0, 1]),
                        (3, [0, 1, 2, 3]), (4, [0, 1, 2, 3])]

    def test_pool_flushes_every_max_of_n_and_workers(self, tmp_path,
                                                     monkeypatch):
        calls = self._record_calls(monkeypatch)
        seen = self._run(tmp_path, 5, workers=2, every=1)
        assert calls == [2, 2, 1]
        assert seen == [(0, [0, 1]), (1, [0, 1]), (2, [0, 1, 2, 3]),
                        (3, [0, 1, 2, 3]), (4, [0, 1, 2, 3, 4])]

    def test_pool_batch_follows_a_larger_every(self, tmp_path,
                                               monkeypatch):
        calls = self._record_calls(monkeypatch)
        seen = self._run(tmp_path, 5, workers=2, every=3)
        assert calls == [3, 2]
        # The short last batch waits for the final flush.
        assert seen == [(0, [0, 1, 2]), (1, [0, 1, 2]), (2, [0, 1, 2]),
                        (3, [0, 1, 2]), (4, [0, 1, 2])]

    def test_pool_without_store_is_one_call(self, monkeypatch):
        calls = self._record_calls(monkeypatch)
        merged = run_units(_toy_jobs(5), workers=2)
        assert calls == [5]
        assert list(merged.values()) == [0, 1, 4, 9, 16]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replayed_units_are_never_rerun(self, tmp_path, workers):
        jobs = [Job(key=("unit", 0), fn=_square, args=(3,)),
                Job(key=("unit", 1), fn=_always_raise, args=(1,)),
                Job(key=("unit", 2), fn=_square, args=(4,))]
        checkpoint, _ = _open(tmp_path, [j.key for j in jobs])
        seen = []
        merged = run_units(
            jobs, workers=workers, checkpoint=checkpoint,
            restored={("unit", 1): 100},
            on_unit=lambda key, value, replayed: seen.append(
                (key, value, replayed)))
        assert list(merged.items()) == [(("unit", 0), 9),
                                        (("unit", 1), 100),
                                        (("unit", 2), 16)]
        assert seen == [(("unit", 0), 9, False), (("unit", 1), 100, True),
                        (("unit", 2), 16, False)]
        # Only simulated units are persisted.
        assert _on_disk(checkpoint) == [0, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_unit_follows_job_order(self, workers):
        jobs = [Job(key=("unit", i), fn=_square, args=(i,))
                for i in (3, 1, 2, 0)]
        seen = []
        run_units(jobs, workers=workers, restored={("unit", 2): -1},
                  on_unit=lambda key, value, replayed: seen.append(
                      (key[1], value, replayed)))
        assert seen == [(3, 9, False), (1, 1, False), (2, -1, True),
                        (0, 0, False)]

    def test_pool_units_report_parallel_obs(self):
        obs = Instrumentation(trace=RingSink())
        run_units(_toy_jobs(3), workers=2, obs=obs)
        assert obs.metrics.get("parallel.jobs", {"where": "pool"}).value \
            == 3

    def test_in_process_units_keep_obs_to_themselves(self):
        obs = Instrumentation(trace=RingSink())
        run_units(_toy_jobs(3), workers=1, obs=obs)
        assert obs.metrics.get("parallel.jobs", {"where": "serial"}) \
            is None


class TestOpenCheckpoint:
    KEYS = [("unit", 0), ("unit", 1)]

    def test_no_policy_means_no_store(self):
        assert open_checkpoint(None, "d" * 64, self.KEYS, seed=1, days=0,
                               encode=_encode, decode=_decode) == (None, {})

    def test_fresh_run_writes_the_manifest(self, tmp_path):
        checkpoint, restored = _open(tmp_path, self.KEYS, every=3)
        assert restored == {}
        assert checkpoint.every == 3
        manifest = checkpoint.store.load_manifest("d" * 64)
        assert manifest["total_units"] == 2

    def test_resume_decodes_replayable_units(self, tmp_path):
        checkpoint, _ = _open(tmp_path, self.KEYS)
        checkpoint.store.write_unit(("unit", 1), "d" * 64, _encode(7))
        _, restored = _open(tmp_path, self.KEYS, resume=True)
        assert restored == {("unit", 1): 7}

    def test_resume_refuses_units_outside_the_keys(self, tmp_path):
        checkpoint, _ = _open(tmp_path, self.KEYS)
        checkpoint.store.write_unit(("unit", 5), "d" * 64, _encode(7))
        with pytest.raises(CheckpointError, match="unit-0005"):
            _open(tmp_path, self.KEYS, resume=True)

    def test_store_keeps_the_on_disk_names(self, tmp_path):
        store = UnitCheckpointStore(tmp_path)
        assert store.manifest_path.name == "campaign.json"
        assert store.unit_path(("cell", 1)).name == "cell-0001.json"
        assert store.unit_path(("unpopular", 12)).name \
            == "unpopular-0012.json"


class TestKillSwitch:
    @pytest.mark.parametrize("spec", ["popular-0000", "popular-0000:",
                                      ":500", "popular-0000:many",
                                      "popular-0000:-5"])
    def test_malformed_spec_names_the_variable(self, monkeypatch, spec):
        monkeypatch.setenv(KILL_SWITCH_ENV, spec)
        with pytest.raises(ValueError, match=KILL_SWITCH_ENV):
            kill_switch_hook(("popular", 0))

    def test_other_unit_gets_no_hook(self, monkeypatch):
        monkeypatch.setenv(KILL_SWITCH_ENV, "cell-0001:2000")
        assert kill_switch_hook(("cell", 0)) is None
        assert kill_switch_hook(("popular", 1)) is None
        assert callable(kill_switch_hook(("cell", 1)))

    def test_unset_means_no_hook(self, monkeypatch):
        monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
        assert kill_switch_hook(("cell", 1)) is None
