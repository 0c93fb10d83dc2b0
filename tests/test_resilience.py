"""The resilience sweep: scoring, --jobs byte-identity and
checkpointing (the SIGKILL/--resume cycle is in
``test_resume_determinism.py``, shared with the fig06 campaign).

The full sweep is an experiment-sized run; these tests shrink the SMALL
scale and restrict the sweep to one behavior × one fraction (a baseline
plus a single adversarial cell), which exercises every code path —
fan-out, scoring, checkpoint write/replay — at unit-test cost.
"""

import os

import pytest

from repro.checkpoint import (CheckpointError, CheckpointPolicy,
                              UnitCheckpointStore)
from repro.experiments.base import SCALE_PARAMS, Scale, ScaleParams
from repro.experiments.registry import run_experiment
from repro.experiments.resilience import (build_cells,
                                          resilience_config_digest,
                                          resilience_params,
                                          run_resilience)

#: A seconds-long stand-in for the SMALL scale.
TINY = ScaleParams(popular_population=12, unpopular_population=6,
                   duration=180.0, warmup=90.0)
BEHAVIORS = ("chunk_polluter",)
FRACTIONS = (0.4,)


@pytest.fixture(scope="module", autouse=True)
def tiny_small_scale():
    saved = SCALE_PARAMS[Scale.SMALL]
    SCALE_PARAMS[Scale.SMALL] = TINY
    yield
    SCALE_PARAMS[Scale.SMALL] = saved


def tiny_sweep(jobs=1, checkpoint=None):
    return run_resilience(scale=Scale.SMALL, seed=7, jobs=jobs,
                          fractions=FRACTIONS, behaviors=BEHAVIORS,
                          checkpoint=checkpoint)


@pytest.fixture(scope="module")
def serial():
    return tiny_sweep()


class TestParams:
    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            resilience_params(behaviors=("meteor",))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fractions"):
            resilience_params(fractions=(0.0,))
        with pytest.raises(ValueError, match="fractions"):
            resilience_params(fractions=(1.5,))

    def test_cell_zero_is_baseline(self):
        cells = build_cells(resilience_params(
            behaviors=("free_rider", "chunk_polluter"),
            fractions=(0.1, 0.3)))
        assert cells[0].label == "baseline"
        assert [c.label for c in cells[1:]] == [
            "free_rider@0.1", "free_rider@0.3",
            "chunk_polluter@0.1", "chunk_polluter@0.3"]


class TestScoring:
    def test_four_statistics_per_adversarial_cell(self, serial):
        labels = [cell.label for cell in serial.cells[1:]]
        for label in labels:
            stats = [s for s in serial.statistics if s.figure == label]
            assert [s.name for s in stats] == [
                "continuity", "transit byte share", "startup delay",
                "top-10% upload share"]

    def test_baseline_not_scored_against_itself(self, serial):
        assert all(s.figure != "baseline" for s in serial.statistics)

    def test_render_mentions_every_cell(self, serial):
        rendered = serial.render()
        assert "baseline:" in rendered
        for cell in serial.cells[1:]:
            assert cell.label in rendered


class TestJobsByteIdentity:
    def test_parallel_matches_serial(self, serial):
        parallel = tiny_sweep(jobs=2)
        assert parallel.outcomes == serial.outcomes
        assert parallel.render() == serial.render()


class TestCheckpoint:
    def test_fresh_checkpointed_run_matches_plain(self, serial,
                                                  tmp_path):
        root = tmp_path / "ckpt"
        fresh = tiny_sweep(checkpoint=CheckpointPolicy(path=str(root)))
        assert fresh.outcomes == serial.outcomes
        assert fresh.render() == serial.render()
        units = sorted(p.name for p in (root / "units").glob("*.json"))
        assert units == ["cell-0000.json", "cell-0001.json"]

    def test_resume_replays_missing_cell(self, serial, tmp_path):
        root = tmp_path / "ckpt"
        tiny_sweep(checkpoint=CheckpointPolicy(path=str(root)))
        os.unlink(root / "units" / "cell-0001.json")
        resumed = tiny_sweep(checkpoint=CheckpointPolicy(
            path=str(root), resume=True))
        assert resumed.outcomes == serial.outcomes
        assert resumed.render() == serial.render()
        units = sorted(p.name for p in (root / "units").glob("*.json"))
        assert units == ["cell-0000.json", "cell-0001.json"]

    def test_resume_refuses_a_cell_outside_the_sweep(self, serial,
                                                     tmp_path):
        # A valid, digest-matching artifact for a cell this sweep does
        # not have belongs to a run of another shape: refuse it rather
        # than score it.
        root = tmp_path / "ckpt"
        digest = resilience_config_digest(
            resilience_params(Scale.SMALL, 7, FRACTIONS, BEHAVIORS))
        store = UnitCheckpointStore(root)
        store.initialize(digest, seed=7, days=0, total_units=2)
        for index in (0, 1, 9):
            store.write_unit(("cell", index), digest,
                             serial.outcomes[min(index, 1)])
        with pytest.raises(CheckpointError, match="cell-0009"):
            tiny_sweep(checkpoint=CheckpointPolicy(path=str(root),
                                                   resume=True))

    def test_cell_written_without_event_count_replays_with_zero(
            self, serial, tmp_path):
        # Cells checkpointed before cells carried their engine event
        # count still resume, with the count read as 0.
        assert all(outcome["events_executed"] > 0
                   for outcome in serial.outcomes.values())
        root = tmp_path / "ckpt"
        digest = resilience_config_digest(
            resilience_params(Scale.SMALL, 7, FRACTIONS, BEHAVIORS))
        store = UnitCheckpointStore(root)
        store.initialize(digest, seed=7, days=0, total_units=2)
        for index, outcome in serial.outcomes.items():
            legacy = dict(outcome)
            del legacy["events_executed"]
            store.write_unit(("cell", index), digest, legacy)
        resumed = tiny_sweep(checkpoint=CheckpointPolicy(path=str(root),
                                                         resume=True))
        assert resumed.render() == serial.render()
        assert [outcome["events_executed"]
                for outcome in resumed.outcomes.values()] == [0, 0]

    def test_other_experiments_still_reject_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match="only apply"):
            run_experiment("table1", checkpoint=CheckpointPolicy(
                path=str(tmp_path / "nope")))
