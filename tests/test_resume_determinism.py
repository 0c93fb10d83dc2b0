"""Resume-from-checkpoint is byte-identical to an uninterrupted run.

The checkpoint contract (``docs/CHECKPOINT.md``): a campaign killed at
any point and resumed from its checkpoint directory produces *exactly*
the bytes an uninterrupted run produces — same rendered Figure 6 table,
same locality series digest, same telemetry projection, same
``run_summary`` event totals — across checkpoint placement, ``--jobs``
level, active fault schedules, and telemetry on/off.

The golden campaign config from ``test_campaign_goldens`` anchors the
comparisons: resumed runs are asserted against the *pinned* golden
digests, not just against each other, so a resume bug cannot hide
behind a matching pair of equally-wrong runs.  The SIGKILL/--resume
cycle runs through the CLI for both checkpointed experiments, the
campaign and the resilience sweep, which share one unit runner.
"""

import dataclasses
import io
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointPolicy
from repro.faults import FaultSchedule, ServerOutage
from repro.obs import Instrumentation, ProgressBus
from repro.obs.live import (KIND_CAMPAIGN_START, KIND_DAY_COMPLETE,
                            KIND_RUN_SUMMARY, deterministic_records,
                            read_progress, summarize_progress)
from repro.parallel import KILL_SWITCH_ENV
from repro.workload.campaign import run_campaign

from .test_campaign_goldens import (GOLDEN_CONFIG, GOLDEN_SERIES_DIGEST,
                                    GOLDEN_TABLE_DIGEST, _series_digest)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _table_digest(result) -> str:
    import hashlib

    from repro.experiments.fig06 import Figure6
    return hashlib.sha256(
        Figure6(result=result).render().encode()).hexdigest()


def _assert_golden(result) -> None:
    assert _table_digest(result) == GOLDEN_TABLE_DIGEST
    assert _series_digest(result) == GOLDEN_SERIES_DIGEST


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A fresh, fully checkpointed golden campaign (serial, every=1)."""
    root = tmp_path_factory.mktemp("ckpt") / "campaign"
    result = run_campaign(GOLDEN_CONFIG(),
                          checkpoint=CheckpointPolicy(path=str(root)))
    return root, result


def _partial_copy(source: Path, target: Path, missing) -> Path:
    """Clone a checkpoint directory minus some units — the on-disk state
    a campaign killed at that point would have left behind."""
    shutil.copytree(source, target)
    for name in missing:
        os.unlink(target / "units" / f"{name}.json")
    return target


class TestResumeByteIdentity:
    def test_fresh_checkpointed_run_matches_goldens(self, checkpointed):
        _, result = checkpointed
        _assert_golden(result)

    @pytest.mark.parametrize("missing", [
        pytest.param(["unpopular-0002"], id="killed-at-last-unit"),
        pytest.param(["popular-0000"], id="first-unit-lost"),
        pytest.param(["popular-0002", "unpopular-0000"],
                     id="killed-mid-campaign"),
        pytest.param(["popular-0000", "popular-0001", "popular-0002",
                      "unpopular-0000", "unpopular-0001",
                      "unpopular-0002"], id="nothing-checkpointed"),
    ], )
    def test_resume_matches_goldens_at_any_kill_point(
            self, checkpointed, tmp_path, missing):
        source, _ = checkpointed
        root = _partial_copy(source, tmp_path / "campaign", missing)
        resumed = run_campaign(GOLDEN_CONFIG(),
                               checkpoint=CheckpointPolicy(
                                   path=str(root), resume=True))
        _assert_golden(resumed)

    def test_resume_with_parallel_workers(self, checkpointed, tmp_path):
        source, _ = checkpointed
        root = _partial_copy(source, tmp_path / "campaign",
                             ["popular-0001", "unpopular-0002"])
        resumed = run_campaign(GOLDEN_CONFIG(), jobs=2,
                               checkpoint=CheckpointPolicy(
                                   path=str(root), resume=True))
        _assert_golden(resumed)

    def test_parallel_checkpoint_then_serial_resume(self, tmp_path):
        root = tmp_path / "campaign"
        fresh = run_campaign(GOLDEN_CONFIG(), jobs=2,
                             checkpoint=CheckpointPolicy(
                                 path=str(root), every=4))
        _assert_golden(fresh)
        os.unlink(root / "units" / "unpopular-0001.json")
        resumed = run_campaign(GOLDEN_CONFIG(),
                               checkpoint=CheckpointPolicy(
                                   path=str(root), resume=True))
        _assert_golden(resumed)

    def test_resume_keeps_checkpointing_new_units(self, checkpointed,
                                                  tmp_path):
        source, _ = checkpointed
        root = _partial_copy(source, tmp_path / "campaign",
                             ["unpopular-0001", "unpopular-0002"])
        run_campaign(GOLDEN_CONFIG(),
                     checkpoint=CheckpointPolicy(path=str(root),
                                                 resume=True))
        units = sorted(p.name for p in (root / "units").glob("*.json"))
        assert units == ["popular-0000.json", "popular-0001.json",
                         "popular-0002.json", "unpopular-0000.json",
                         "unpopular-0001.json", "unpopular-0002.json"]


class TestResumeUnderFaults:
    def test_faulted_campaign_resumes_byte_identically(self, tmp_path):
        config = GOLDEN_CONFIG()
        config.faults = FaultSchedule(events=(
            ServerOutage(target="bootstrap", start=70.0, duration=20.0),))
        root = tmp_path / "campaign"
        fresh = run_campaign(config,
                             checkpoint=CheckpointPolicy(path=str(root)))
        # Faults shift the results away from the fault-free goldens...
        assert _series_digest(fresh) != GOLDEN_SERIES_DIGEST
        os.unlink(root / "units" / "popular-0001.json")
        os.unlink(root / "units" / "unpopular-0000.json")
        resumed = run_campaign(config,
                               checkpoint=CheckpointPolicy(
                                   path=str(root), resume=True))
        # ...but resume under the same schedule is still byte-identical.
        assert resumed == fresh
        assert _series_digest(resumed) == _series_digest(fresh)
        assert _table_digest(resumed) == _table_digest(fresh)


def _instrumented_run(checkpoint=None):
    stream = io.StringIO()
    obs = Instrumentation(progress_bus=ProgressBus(stream),
                          heartbeat=False)
    config = dataclasses.replace(GOLDEN_CONFIG(), instrumentation=obs)
    result = run_campaign(config, checkpoint=checkpoint)
    events = obs.metrics.get("sim.events_executed")
    return result, read_progress(io.StringIO(stream.getvalue())), \
        int(events.value) if events is not None else 0


class TestResumeTelemetry:
    def test_telemetry_projection_and_event_totals_match(
            self, checkpointed, tmp_path):
        source, _ = checkpointed
        _, full_records, full_events = _instrumented_run()
        root = _partial_copy(source, tmp_path / "campaign",
                             ["popular-0002", "unpopular-0001"])
        resumed, resumed_records, resumed_events = _instrumented_run(
            checkpoint=CheckpointPolicy(path=str(root), resume=True))
        _assert_golden(resumed)
        # The mode-independent projection is identical: restored days
        # re-emit their day_complete records in canonical order, and
        # the restored/resumed_units markers are mode metadata.
        assert deterministic_records(resumed_records) \
            == deterministic_records(full_records)
        # The resumed run's event total folds the checkpointed days'
        # recorded counts, so the run_summary footer cannot drift.
        assert resumed_events == full_events > 0

    def test_restored_days_are_marked(self, checkpointed, tmp_path):
        source, _ = checkpointed
        root = _partial_copy(source, tmp_path / "campaign",
                             ["unpopular-0002"])
        _, records, _ = _instrumented_run(
            checkpoint=CheckpointPolicy(path=str(root), resume=True))
        start = next(r for r in records
                     if r["kind"] == KIND_CAMPAIGN_START)
        assert start["resumed_units"] == 5
        days = [r for r in records if r["kind"] == KIND_DAY_COMPLETE]
        assert sum(1 for r in days if r.get("restored")) == 5
        assert len(days) == 6

    def test_telemetry_off_run_resumes_telemetry_on_checkpoint(
            self, checkpointed, tmp_path):
        source, _ = checkpointed
        root = _partial_copy(source, tmp_path / "campaign",
                             ["popular-0000"])
        resumed, _, _ = _instrumented_run(
            checkpoint=CheckpointPolicy(path=str(root), resume=True))
        _assert_golden(resumed)


class TestStatusAfterResume:
    """``repro status`` ETA must not be wrecked by near-instant
    checkpoint replays at the start of a resumed run."""

    @staticmethod
    def _day(wall, restored=False):
        record = {"kind": KIND_DAY_COMPLETE, "day": 1, "days": 2,
                  "popularity": "popular", "wall_seconds": wall}
        if restored:
            record["restored"] = True
        return record

    def test_eta_ignores_restored_units(self):
        records = [
            {"kind": "run_start", "unix": 0.0, "wall_seconds": 0.0},
            {"kind": KIND_CAMPAIGN_START, "days": 2, "total_units": 4,
             "seed": 11, "resumed_units": 2, "wall_seconds": 0.0},
            self._day(0.01, restored=True),
            self._day(0.02, restored=True),
            self._day(10.0),
        ]
        summary = summarize_progress(records, now_unix=10.0)
        assert summary["campaign"]["units_done"] == 3
        assert summary["campaign"]["units_restored"] == 2
        # One fresh unit took ~10s of wall and one unit remains: the ETA
        # is ~10s, not the ~3.3s a naive wall/units_done rate would say.
        assert summary["eta_seconds"] == pytest.approx(10.0, abs=0.5)

    def test_eta_none_while_only_replays_have_landed(self):
        records = [
            {"kind": KIND_CAMPAIGN_START, "days": 2, "total_units": 4,
             "seed": 11, "resumed_units": 2, "wall_seconds": 0.0},
            self._day(0.01, restored=True),
            self._day(0.02, restored=True),
        ]
        summary = summarize_progress(records, now_unix=1.0)
        assert summary["eta_seconds"] is None

    def test_eta_unchanged_for_non_resumed_runs(self):
        records = [
            {"kind": KIND_CAMPAIGN_START, "days": 2, "total_units": 4,
             "seed": 11, "wall_seconds": 0.0},
            self._day(4.0),
            self._day(8.0),
        ]
        summary = summarize_progress(records, now_unix=8.0)
        assert summary["eta_seconds"] == pytest.approx(8.0, abs=0.5)
        assert "units_restored" not in summary["campaign"]


# ----------------------------------------------------------------------
# Kill -9 mid-run, then resume (full CLI path, both checkpointed runs)
# ----------------------------------------------------------------------
#: Child entry points: the real CLI with the SMALL scale shrunk to a
#: seconds-long run, so the kill/resume cycle stays CI-sized.
_FIG06_CHILD = """\
import sys
import repro.experiments.fig06 as fig06
from repro.experiments.base import Scale
fig06._CAMPAIGN_SCALES[Scale.SMALL] = dict(
    days=2, popular_population=10, unpopular_population=6,
    session_duration=60.0, warmup=30.0)
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""

#: The resilience sweep cut to a baseline plus one adversarial cell.
_RESILIENCE_CHILD = """\
import sys
import repro.experiments.resilience as resilience
from repro.experiments.base import SCALE_PARAMS, Scale, ScaleParams
SCALE_PARAMS[Scale.SMALL] = ScaleParams(
    popular_population=12, unpopular_population=6,
    duration=180.0, warmup=90.0)
resilience.DEFAULT_FRACTIONS = (0.4,)
resilience.ADVERSARY_BEHAVIORS = ("chunk_polluter",)
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


@dataclasses.dataclass(frozen=True)
class KillCase:
    experiment: str
    child: str
    #: ``REPRO_UNIT_SIGKILL`` for the killed run: early in this unit.
    kill_at: str
    every: int
    #: Unit artifacts on disk after the kill.
    flushed: tuple
    #: ``repro status`` units done in the killed run's torn stream
    #: (``None``: the run reports no campaign progress).
    units_done: object


KILL_CASES = [
    # Units flushed in batches of two, killed early in the third unit:
    # units 1-2 are on disk, the in-flight day dies un-checkpointed.
    KillCase("fig06", _FIG06_CHILD, "unpopular-0000:2000", every=2,
             flushed=("popular-0000.json", "popular-0001.json"),
             units_done=2),
    # Killed early in the adversarial cell: the baseline is flushed.
    KillCase("resilience", _RESILIENCE_CHILD, "cell-0001:2000", every=1,
             flushed=("cell-0000.json",), units_done=None),
]


def _cli(case, args, tmp_path, kill_at=None, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop(KILL_SWITCH_ENV, None)
    if kill_at is not None:
        env[KILL_SWITCH_ENV] = kill_at
    return subprocess.run(
        [sys.executable, "-c", case.child, "run", case.experiment,
         "--scale", "small"] + args,
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=timeout)


def _report_lines(case, stdout: str):
    """The deterministic part of the CLI output: the rendered report,
    without the wall-clock timing footer."""
    return [line for line in stdout.splitlines()
            if not line.startswith(f"[{case.experiment} regenerated")]


class TestKillResume:
    @pytest.mark.parametrize("case", KILL_CASES,
                             ids=[case.experiment for case in KILL_CASES])
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path,
                                                       case):
        ckpt = tmp_path / "ckpt"

        full = _cli(case, ["--progress-jsonl",
                           str(tmp_path / "full.jsonl")], tmp_path)
        assert full.returncode == 0, full.stderr

        killed = _cli(case, ["--checkpoint", str(ckpt),
                             "--checkpoint-every", str(case.every),
                             "--progress-jsonl",
                             str(tmp_path / "killed.jsonl")],
                      tmp_path, kill_at=case.kill_at)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        flushed = sorted(p.name for p in (ckpt / "units").glob("*.json"))
        assert flushed == list(case.flushed)

        resumed = _cli(case, ["--resume", str(ckpt), "--progress-jsonl",
                              str(tmp_path / "resumed.jsonl")], tmp_path)
        assert resumed.returncode == 0, resumed.stderr

        # Scorecard: the resumed run prints the exact same report.
        assert _report_lines(case, resumed.stdout) \
            == _report_lines(case, full.stdout)

        # Telemetry: the resumed stream's deterministic projection —
        # including the run_summary footer's event total — matches the
        # uninterrupted run's.
        full_records = read_progress(str(tmp_path / "full.jsonl"))
        resumed_records = read_progress(str(tmp_path / "resumed.jsonl"))
        assert deterministic_records(resumed_records) \
            == deterministic_records(full_records)
        full_footer = next(r for r in reversed(full_records)
                           if r["kind"] == KIND_RUN_SUMMARY)
        resumed_footer = next(r for r in reversed(resumed_records)
                              if r["kind"] == KIND_RUN_SUMMARY)
        assert resumed_footer["events_executed"] \
            == full_footer["events_executed"]
        # Every unit carries its engine event count, a restored one
        # from its checkpoint payload.
        assert full_footer["events_executed"] > 0
        assert resumed_footer["status"] == "ok"

        # The killed run's torn stream is still a readable artifact and
        # summarises as a running run with the flushed units done.
        killed_summary = summarize_progress(
            read_progress(str(tmp_path / "killed.jsonl")))
        assert killed_summary["state"] == "running"
        assert killed_summary.get("campaign", {}).get("units_done") \
            == case.units_done
