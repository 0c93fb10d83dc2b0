"""Self-tests of the perf harness on seconds-long workload variants.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Not part of the tier-1 suite (``testpaths`` is ``tests/``).
"""

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import child
import compare
import layers
import run
import workloads

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
E2E = [entry["name"] for entry in SPEC["end_to_end"]]
PER_LAYER = [entry["name"] for entry in SPEC["per_layer"]]


@pytest.fixture(scope="module")
def tiny_suite():
    """One round-robin rep plus one traced rep of every tiny workload."""
    return run.suite(list(workloads.WORKLOADS), reps=1, seed=5, tiny=True)


class TestTracing:
    def test_traced_digest_equals_untraced(self):
        workload = workloads.get("session", tiny=True)
        plain = child.run_rep(workload, seed=5)
        traced = child.run_rep(workload, seed=5, traced=True)
        assert traced["digest"] == plain["digest"]
        assert traced["events"] == plain["events"]

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_every_wrapper_fires(self, name):
        # A wrapper that never fires sits on a name no caller looks up;
        # run_rep reports it (and any failed output check) as a problem.
        record = child.run_rep(workloads.get(name, tiny=True), seed=5,
                               traced=True)
        assert record["problems"] == []
        assert record["layers"]["sim.events"] == record["events"]

    def test_defining_module_alone_misses_importers(self):
        # Why FUNCTIONS are patched in every namespace: callers did
        # `from .wire import wire_size`, so patching only the defining
        # module would leave the wrapper silent.
        import repro.protocol.wire as wire
        tracer = layers.LayerTracer()
        original = wire.wire_size
        wire.wire_size = tracer.wrap("wire.size", original)
        try:
            child.run_rep(workloads.get("session", tiny=True), seed=5)
        finally:
            wire.wire_size = original
        assert tracer.totals["wire.size"].calls == 0

    def test_uninstall_restores_every_target(self):
        from repro.protocol import wire
        from repro.sim.engine import Simulator
        post, wire_size = Simulator.post, wire.wire_size
        tracer = layers.LayerTracer()
        tracer.install()
        try:
            assert Simulator.post is not post
            assert wire.wire_size is not wire_size
        finally:
            tracer.uninstall()
        assert Simulator.post is post and wire.wire_size is wire_size

    def test_self_time_excludes_children(self):
        tracer = layers.LayerTracer()
        inner = tracer.wrap("inner", lambda: sum(range(20_000)))
        outer = tracer.wrap("outer", lambda: inner() + inner())
        outer()
        out, kid = tracer.totals["outer"], tracer.totals["inner"]
        assert (out.calls, out.child_calls, out.descendants) == (1, 2, 2)
        assert out.child_elapsed == pytest.approx(kid.elapsed)
        inclusive, self_time = layers._corrected(out, 0.0, 0.0)
        assert self_time == pytest.approx(out.elapsed - kid.elapsed)


class TestSuite:
    def test_round_robin_order(self, monkeypatch):
        calls = []

        def fake_spawn(name, seed, traced=False, tiny=False, timeout=0.0):
            calls.append((name, traced))
            record = {"wall_s": 1.0, "events": 10, "setup_s": 0.5,
                      "progress": [[0.0, 0], [1.0, 10]],
                      "peak_rss_mb": 50.0, "calib_s": 0.1,
                      "digest": {"counters": "x"},
                      "problems": [], "layers": {}}
            return run.Rep(name, seed, traced, record=record)

        monkeypatch.setattr(run, "spawn", fake_spawn)
        names = ["session", "campaign", "swarm-large"]
        result = run.suite(names, reps=3, seed=5)
        timed = [name for name, traced in calls if not traced]
        assert timed == names * 3
        assert [name for name, traced in calls if traced] == names
        assert calls.index(("session", True)) == len(timed)
        assert result["order"][:4] == ["session#1", "campaign#1",
                                       "swarm-large#1", "session#2"]
        assert run.schedule(["a", "b"], 2) == [(1, "a"), (1, "b"),
                                               (2, "a"), (2, "b")]

    def test_result_names_every_benchmark_metric(self, tiny_suite):
        assert tiny_suite["failures"] == 0
        for name, entry in tiny_suite["workloads"].items():
            assert entry["failed_share"] == 0.0
            assert set(E2E) <= set(entry["metrics"]), name
            assert set(PER_LAYER) <= set(entry["layers"]), name
            for metric in ("transport.cohort_ge48_share",
                           "transport.deliver_self_s"):
                assert metric in entry["layers"]
        observed = tiny_suite["workloads"]["session-observed"]["layers"]
        assert observed["obs.overhead_ratio"] > 0
        assert observed["obs.artifact_bytes"] > 0

    def test_per_layer_list_is_what_every_workload_reports(self,
                                                           tiny_suite):
        reported = [set(entry["layers"])
                    for entry in tiny_suite["workloads"].values()]
        assert set(PER_LAYER) == set.intersection(*reported)

    def test_session_workloads_view_a_full_swarm(self):
        for workload in workloads.WORKLOADS.values():
            if workload.kind == "session":
                assert workload.warmup >= workloads.JOIN_RAMP_S, \
                    workload.name

    def test_units_agree_with_benchmark_json(self):
        for entry in SPEC["end_to_end"]:
            assert run.E2E_UNITS[entry["name"]] == entry["unit"]
        for entry in SPEC["per_layer"]:
            assert layers.UNITS[entry["name"]] == entry["unit"]
        assert [w["name"] for w in SPEC["workloads"]] \
            == list(workloads.WORKLOADS)

    def test_digest_mismatch_fails_the_rep(self):
        def rep(digest):
            return run.Rep("session", 7, False, record={
                "digest": {"counters": digest}, "problems": []})
        reps = [rep("a"), rep("a"), rep("b")]
        pins = {"session": {"seed": 7, "digest": {"counters": "a"}}}
        assert run.judge(reps, pins) == 1
        assert run.judge([rep("c")], pins) == 1
        assert run.judge([rep("c"), rep("c")], {}) == 0


class TestTimedRun:
    @pytest.mark.parametrize("trace,names", [(False, E2E),
                                             (True, PER_LAYER)])
    def test_timed_run_result_shape(self, trace, names, capsys):
        result = run.timed_run("session-observed", 5, seconds=0.0,
                               trace=trace, tiny=True)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(names)
        printed = {tuple(line.split()[::2]) for line
                   in capsys.readouterr().out.splitlines()
                   if line.startswith("  ")}
        for name, entry in result["metrics"].items():
            assert (name, entry["unit"]) in printed

    def test_bare_directory_fails_without_a_result(self, tmp_path):
        shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
        shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/perf/run.py", "--workload",
             "session", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout


class TestArithmetic:
    def test_best_wall_keeps_each_segment_fastest_rep(self):
        steady = {"events": 1600, "wall_s": 2.0,
                  "progress": [[0.0, 0], [2.0, 1600]]}
        # Fast through the first half of the events, then slowed down.
        bursty = {"events": 1600, "wall_s": 2.5,
                  "progress": [[0.0, 0], [0.5, 800], [2.5, 1600]]}
        assert run.best_wall([steady]) == pytest.approx(2.0)
        assert run.best_wall([steady, bursty]) == pytest.approx(1.5)

    def test_best_wall_ignores_reps_past_the_first_few(self):
        # A run that fits more reps in its seconds must not read faster
        # for that alone.
        def rep(wall):
            return {"events": 1600, "wall_s": wall,
                    "progress": [[0.0, 0], [wall, 1600]]}
        first = [rep(2.0 + index) for index in range(run.BEST_OF)]
        assert run.best_wall(first + [rep(1.0)]) == pytest.approx(2.0)

    def test_run_metrics(self):
        records = [{"events": 1000, "wall_s": wall, "setup_s": setup,
                    "peak_rss_mb": 50.0, "progress": [[0.0, 0],
                                                      [wall, 1000]]}
                   for wall, setup in ((2.0, 0.5), (4.0, 0.7), (3.0, 0.6),
                                       (1.0, 0.4), (1.5, 0.3))]
        metrics = run.run_metrics(records)
        # Best wall of the first three reps; medians over all five.
        assert metrics["events_per_s"] == pytest.approx(500.0)
        assert metrics["setup_s"] == pytest.approx(0.5)
        assert metrics["wall_s"] == pytest.approx(2.0)


class TestCompare:
    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
        q1, median, q3 = compare.quartiles(values)
        assert [q1, median, q3] == statistics.quantiles(values, n=4)
        assert compare.spread(values) == pytest.approx((q3 - q1) / median)
        assert compare.quartiles([2.0]) == (2.0, 2.0, 2.0)

    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05]
        assert compare.verdict(base, [10.2, 10.3, 10.1, 10.2, 10.25],
                               0.05, "lower")[0] == compare.WITHIN
        assert compare.verdict(base, [11.0, 11.1, 10.9, 11.0, 11.05],
                               0.05, "lower")[0] == compare.OUTSIDE
        # Higher-is-better metrics: a drop is the regression.
        verdict, worse = compare.verdict(base, [9.0, 9.1, 8.9, 9.0, 9.05],
                                         0.05, "higher")
        assert verdict == compare.OUTSIDE and worse == pytest.approx(0.1)
        noisy = [8.0, 12.0, 10.0, 9.0, 11.0]
        assert compare.verdict(noisy, base, 0.05,
                               "lower")[0] == compare.UNRESOLVED
        # Every candidate rep better than every baseline rep settles it.
        assert compare.verdict(noisy, [5.0, 5.5, 6.0, 7.0, 7.5], 0.05,
                               "lower")[0] == compare.WITHIN

    def test_cli_pools_a_directory(self, tmp_path, tiny_suite, capsys):
        (tmp_path / "a").mkdir()
        for index in range(2):
            (tmp_path / "a" / f"{index}.json").write_text(
                json.dumps(tiny_suite))
        (tmp_path / "b.json").write_text(json.dumps(tiny_suite))
        assert compare.main([str(tmp_path / "a"),
                             str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("within bound") + out.count("unresolved") \
            == len(workloads.WORKLOADS) * len(E2E)
        assert "n=2" in out
