"""Tests for the command-line interface."""

import io
import json
import sys

import pytest

from repro import __version__
from repro.cli import (build_flows_parser, build_instrumentation,
                       build_parser, build_report_parser,
                       build_status_parser, build_top_parser, main)
from repro.experiments import ALL_EXPERIMENT_IDS, EXPERIMENT_DESCRIPTIONS

from .test_obs import RETIRED_TRACE_KINDS, TRACE_KINDS


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig02"])
        assert args.experiment == "fig02"
        assert args.scale == "small"
        assert args.seed == 7
        assert args.metrics is None
        assert args.trace is None
        assert args.log_level is None
        assert args.progress_jsonl is None

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig02", "--scale", "huge"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_obs_flags(self):
        args = build_parser().parse_args(
            ["fig02", "--metrics", "m.jsonl", "--trace", "t.jsonl",
             "--log-level", "warning", "--flows", "f.jsonl"])
        assert args.metrics == "m.jsonl"
        assert args.trace == "t.jsonl"
        assert args.log_level == "warning"
        assert args.flows == "f.jsonl"

    def test_observability_group_lists_six_flags(self):
        parser = build_parser()
        (group,) = [g for g in parser._action_groups
                    if g.title == "observability"]
        flags = [a.option_strings[0] for a in group._group_actions]
        assert flags == ["--metrics", "--trace", "--spans", "--log-level",
                         "--progress-jsonl", "--flows"]

    def test_jobs_default_is_serial(self):
        assert build_parser().parse_args(["fig06"]).jobs == 1

    def test_jobs_flag(self):
        args = build_parser().parse_args(["fig06", "--jobs", "4"])
        assert args.jobs == 4

    def test_jobs_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "--jobs" in capsys.readouterr().out

    def test_spans_flag(self):
        args = build_parser().parse_args(
            ["fig02", "--spans", "out.json"])
        assert args.spans == "out.json"
        assert build_parser().parse_args(["fig02"]).spans is None

    def test_report_parser_defaults(self):
        args = build_report_parser().parse_args([])
        assert args.scale == "small"
        assert args.seed == 7
        assert args.out is None
        assert args.format is None
        assert args.trend == "benchmarks/results/trend.jsonl"
        assert args.no_trend is False

    @pytest.mark.parametrize("build, argv", [
        (build_parser, ["fig02", "--progress", "p.jsonl"]),
        (build_parser, ["fig02", "--met", "m.jsonl"]),
        (build_status_parser, ["p.jsonl", "--js"]),
        (build_top_parser, ["p.jsonl", "--inter", "1"]),
        (build_flows_parser, ["summary", "f.jsonl", "--by"]),
        (build_report_parser, ["--no-tr"]),
    ], ids=["progress", "met", "status-js", "top-inter", "flows-by",
            "report-no-tr"])
    def test_flag_prefixes_are_refused(self, build, argv, capsys):
        # A prefix of a long flag is an unknown flag, never that flag:
        # a retired flag that prefixes a live one must not alias it.
        with pytest.raises(SystemExit) as excinfo:
            build().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_progress_jsonl_flag(self):
        args = build_parser().parse_args(
            ["fig06", "--progress-jsonl", "p.jsonl"])
        assert args.progress_jsonl == "p.jsonl"
        assert build_parser().parse_args(["fig06"]).progress_jsonl is None

    def test_status_and_top_parsers(self):
        args = build_status_parser().parse_args(["p.jsonl", "--json"])
        assert args.path == "p.jsonl"
        assert args.json is True
        args = build_top_parser().parse_args(
            ["p.jsonl", "--interval", "0.5", "--iterations", "3"])
        assert args.interval == 0.5
        assert args.iterations == 3

    def test_experiment_help_lists_every_registered_id(self):
        # The help string is generated from the registry; drift between
        # the two is impossible by construction, and this pins it.
        help_text = build_parser().format_help()
        for experiment_id in ALL_EXPERIMENT_IDS:
            assert experiment_id in help_text


class TestRegistryCliSync:
    def test_every_experiment_has_a_description(self):
        assert set(EXPERIMENT_DESCRIPTIONS) == set(ALL_EXPERIMENT_IDS)
        for experiment_id, description in EXPERIMENT_DESCRIPTIONS.items():
            assert description.strip(), f"{experiment_id} undescribed"

    def test_list_outputs_cover_the_registry(self, capsys):
        assert main(["list"]) == 0
        plain = capsys.readouterr().out
        assert main(["list", "--json"]) == 0
        as_json = {r["id"] for r in json.loads(capsys.readouterr().out)}
        listed = {line.split()[0] for line
                  in plain.strip().splitlines()}
        assert listed == as_json == set(ALL_EXPERIMENT_IDS)

    def test_broken_pipe_exits_cleanly(self, monkeypatch):
        # `repro list | head` must not traceback when head exits.
        class _GonePipe:
            def write(self, data):
                raise BrokenPipeError
            def flush(self):
                raise BrokenPipeError
            def fileno(self):
                raise io.UnsupportedOperation("fileno")
        monkeypatch.setattr(sys, "stdout", _GonePipe())
        assert main(["list"]) == 0


class TestInstrumentationFromFlags:
    def test_no_flags_means_none(self):
        args = build_parser().parse_args(["fig02"])
        assert build_instrumentation(args) is None

    def test_metrics_flag_enables_bundle(self, tmp_path):
        args = build_parser().parse_args(
            ["fig02", "--metrics", str(tmp_path / "m.jsonl")])
        obs = build_instrumentation(args)
        assert obs is not None and obs.enabled
        assert obs.profiler is not None
        obs.close()

    def test_spans_extension_picks_the_sink(self, tmp_path):
        from repro.obs import ChromeTraceSink, JsonlSpanSink
        args = build_parser().parse_args(
            ["fig02", "--spans", str(tmp_path / "s.json")])
        obs = build_instrumentation(args)
        assert isinstance(obs.spans, ChromeTraceSink)
        obs.close()
        args = build_parser().parse_args(
            ["fig02", "--spans", str(tmp_path / "s.jsonl")])
        obs = build_instrumentation(args)
        assert isinstance(obs.spans, JsonlSpanSink)
        obs.close()


class TestMain:
    @pytest.mark.parametrize("flags", [["--progress"],
                                       ["--flows-window", "30"],
                                       ["--flows-top", "8"]],
                             ids=["progress", "flows-window", "flows-top"])
    def test_retired_obs_flags_exit_2(self, flags, capsys):
        # Run progress is watched through --progress-jsonl; the flow
        # ledger's knobs are FlowSpec fields.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig02", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_list(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ids = [line.split()[0] for line in lines]
        assert ids == list(ALL_EXPERIMENT_IDS)
        # Every line carries a one-line description from the registry.
        for line in lines:
            eid = line.split()[0]
            assert EXPERIMENT_DESCRIPTIONS[eid] in line

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_leading_run_token_is_accepted(self, capsys):
        # "repro run list" == "repro list"
        assert main(["run", "list"]) == 0
        assert "fig06" in capsys.readouterr().out

    def test_runs_one_small_experiment(self, capsys):
        # Smallest meaningful run: uses the SMALL scale TELE-popular
        # session (tens of seconds).
        assert main(["fig15", "--scale", "small", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out
        assert "regenerated" in out

    def test_obs_flags_produce_parseable_files(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.jsonl"
        trace_path = tmp_path / "t.jsonl"
        assert main(["fig15", "--scale", "small", "--seed", "3",
                     "--metrics", str(metrics_path),
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()

        names = set()
        with open(metrics_path) as handle:
            for line in handle:
                record = json.loads(line)
                assert {"name", "type", "tags"} <= set(record)
                names.add(record["name"])
        assert len(names) >= 10
        layers = {name.split(".")[0] for name in names}
        assert {"sim", "net", "proto", "streaming"} <= layers

        events = set()
        with open(trace_path) as handle:
            for line in handle:
                record = json.loads(line)
                assert {"t", "level", "event"} <= set(record)
                events.add(record["event"])
        assert events and events <= TRACE_KINDS
        assert not events & RETIRED_TRACE_KINDS

    def test_metrics_csv_extension_writes_csv(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.csv"
        assert main(["fig15", "--scale", "small", "--seed", "3",
                     "--metrics", str(metrics_path)]) == 0
        capsys.readouterr()
        header = metrics_path.read_text().splitlines()[0]
        assert header.startswith("name,")

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["id"] for r in records] == list(ALL_EXPERIMENT_IDS)
        for record in records:
            assert set(record) == {"id", "description", "paper"}
            assert record["description"] == \
                EXPERIMENT_DESCRIPTIONS[record["id"]]
        # Paper-target prose rides along where the registry has it.
        by_id = {r["id"]: r for r in records}
        assert "TELE" in by_id["fig02"]["paper"]

    def test_crashed_run_still_flushes_artifacts(self, tmp_path,
                                                 monkeypatch, capsys):
        """A mid-run crash must still close every sink: the spans file
        ends up valid (ChromeTraceSink writes its tail on close) and the
        partial metrics are written."""
        import repro.cli as cli_module
        from repro.obs import read_chrome_trace, validate_chrome_trace

        def boom(*args, **kwargs):
            raise RuntimeError("mid-run crash")

        monkeypatch.setattr(cli_module, "run_experiment", boom)
        spans_path = tmp_path / "s.json"
        metrics_path = tmp_path / "m.jsonl"
        with pytest.raises(RuntimeError):
            main(["fig15", "--scale", "small",
                  "--spans", str(spans_path),
                  "--metrics", str(metrics_path)])
        capsys.readouterr()
        events = read_chrome_trace(str(spans_path))
        assert validate_chrome_trace(events) == []
        assert metrics_path.exists()


class TestReportCommand:
    @pytest.fixture
    def fake_scorecard(self, monkeypatch):
        from repro.experiments.scorecard import Scorecard, Statistic
        captured = {}

        def fake_build(scale, seed, label=""):
            captured["scale"] = scale
            captured["seed"] = seed
            card = Scorecard(scale=scale.value, seed=seed, label=label)
            card.statistics.append(
                Statistic("fig02", "byte locality (own-ISP share)",
                          0.6, (0.4, 1.0), paper=0.85))
            return card

        monkeypatch.setattr("repro.experiments.scorecard.build_scorecard",
                            fake_build)
        return captured

    def test_report_writes_markdown_and_trend(self, tmp_path, capsys,
                                              fake_scorecard):
        out = tmp_path / "card.md"
        trend = tmp_path / "trend.jsonl"
        assert main(["report", "--scale", "small", "--seed", "3",
                     "--out", str(out), "--trend", str(trend)]) == 0
        err = capsys.readouterr().err
        assert "[scorecard: 1/1 in range" in err
        assert "trend record appended" in err
        assert fake_scorecard["seed"] == 3
        assert out.read_text().startswith("# Run-fidelity scorecard")
        record = json.loads(trend.read_text())
        assert record["kind"] == "scorecard"

    def test_report_html_by_extension(self, tmp_path, capsys,
                                      fake_scorecard):
        out = tmp_path / "card.html"
        assert main(["report", "--out", str(out), "--no-trend"]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_report_stdout_and_no_trend(self, tmp_path, capsys,
                                        fake_scorecard, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--no-trend"]) == 0
        out = capsys.readouterr().out
        assert "# Run-fidelity scorecard" in out
        assert not (tmp_path / "benchmarks").exists()

    def test_run_report_spelling(self, tmp_path, capsys,
                                 fake_scorecard):
        # "repro run report" == "repro report".
        assert main(["run", "report", "--no-trend"]) == 0
        assert "scorecard" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("flag", ["--metrics-in", "--spans-in"])
    def test_report_refuses_the_retired_artifact_flags(self, flag, tmp_path,
                                                       capsys,
                                                       fake_scorecard):
        # The scorecard scores fidelity only; speed is benchmarks/perf's.
        artifact = tmp_path / "a.jsonl"
        artifact.write_text('{"name":"a","value":1}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--no-trend", flag, str(artifact)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert "seed" not in fake_scorecard  # nothing was scored


class TestProgressTelemetry:
    def test_run_emits_wellformed_progress_stream(self, tmp_path, capsys):
        from repro.obs.live import read_progress
        path = tmp_path / "progress.jsonl"
        assert main(["fig15", "--scale", "small", "--seed", "3",
                     "--progress-jsonl", str(path)]) == 0
        err = capsys.readouterr().err
        assert "[progress (ok)" in err
        records = read_progress(str(path))
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_summary"
        assert "heartbeat" in kinds
        start = records[0]
        assert start["experiment"] == "fig15"
        assert start["seed"] == 3
        footer = records[-1]
        assert footer["status"] == "ok"
        assert footer["events_executed"] > 0
        assert footer["peak_rss_bytes"] > 0
        beat = next(r for r in records if r["kind"] == "heartbeat")
        assert beat["sim_end"] > beat["t"] > 0
        assert beat["peers_by_isp"]
        assert beat["rss_bytes"] > 0

    def test_footer_lands_on_crash(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli_module
        from repro.obs.live import read_progress

        def boom(*args, **kwargs):
            raise RuntimeError("mid-run crash")

        monkeypatch.setattr(cli_module, "run_experiment", boom)
        path = tmp_path / "progress.jsonl"
        with pytest.raises(RuntimeError):
            main(["fig15", "--progress-jsonl", str(path)])
        capsys.readouterr()
        footer = read_progress(str(path))[-1]
        assert footer["kind"] == "run_summary"
        assert footer["status"] == "crashed:RuntimeError"

    def test_footer_lands_on_keyboard_interrupt(self, tmp_path,
                                                monkeypatch, capsys):
        import repro.cli as cli_module
        from repro.obs.live import read_progress

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "run_experiment", interrupted)
        path = tmp_path / "progress.jsonl"
        with pytest.raises(KeyboardInterrupt):
            main(["fig15", "--progress-jsonl", str(path)])
        capsys.readouterr()
        footer = read_progress(str(path))[-1]
        assert footer["status"] == "interrupted"


class TestStatusCommand:
    def _write_stream(self, path, footer=True):
        lines = [
            {"kind": "run_start", "experiment": "fig02", "scale": "small",
             "seed": 7, "jobs": 1, "unix": 1000.0, "wall_seconds": 0.0},
            {"kind": "heartbeat", "t": 60.0, "sim_end": 240.0,
             "viewers": 9, "events_executed": 1200,
             "peers_by_isp": {"ChinaTelecom": 5}, "wall_seconds": 1.0},
        ]
        if footer:
            lines.append({"kind": "run_summary", "status": "ok",
                          "events_executed": 4800,
                          "peak_rss_bytes": 1 << 26, "wall_seconds": 4.0})
        path.write_text("".join(json.dumps(line) + "\n"
                                for line in lines))

    def test_status_on_finished_run(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        self._write_stream(path)
        assert main(["status", str(path)]) == 0
        out = capsys.readouterr().out
        assert "state=finished" in out
        assert "experiment=fig02" in out

    def test_status_json(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        self._write_stream(path)
        assert main(["status", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["state"] == "finished"
        assert summary["events_executed"] == 4800

    def test_status_on_midflight_run_with_torn_tail(self, tmp_path,
                                                    capsys):
        # A live run flushing mid-record: the artifact ends in a torn
        # line and carries no footer.  status must still work and show
        # a running state with an ETA.
        path = tmp_path / "p.jsonl"
        self._write_stream(path, footer=False)
        with open(path, "a") as handle:
            handle.write('{"kind":"heartbeat","t":90.0,"wal')
        assert main(["status", str(path)]) == 0
        out = capsys.readouterr().out
        assert "state=running" in out
        assert "ETA" in out
        assert "60s / 240s" in out  # the torn record was ignored

    def test_status_on_torn_only_first_line(self, tmp_path, capsys):
        # A run caught while flushing its very first record: the file
        # holds nothing but a torn fragment.  That is not "no records
        # yet" (the run IS emitting) and not corruption — status must
        # say so kindly and exit nonzero so scripts can retry.
        path = tmp_path / "p.jsonl"
        path.write_text('{"kind":"run_start","experiment":"fi')
        assert main(["status", str(path)]) == 1
        err = capsys.readouterr().err
        assert "no complete records yet" in err
        assert "Traceback" not in err

    def test_top_on_torn_only_first_line(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        path.write_text('{"kind":"run_start","experiment":"fi')
        assert main(["top", str(path), "--interval", "0.01",
                     "--iterations", "2"]) == 1
        assert "no complete records yet" in capsys.readouterr().err

    def test_status_on_truly_empty_file_still_exits_zero(self, tmp_path,
                                                         capsys):
        path = tmp_path / "p.jsonl"
        path.write_text("")
        assert main(["status", str(path)]) == 0
        assert "no records yet" in capsys.readouterr().out

    def test_status_missing_file(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_status_corrupt_stream(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        path.write_text('not json\n{"kind":"heartbeat"}\n')
        assert main(["status", str(path)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_top_bounded_iterations(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        self._write_stream(path, footer=False)
        assert main(["top", str(path), "--interval", "0.01",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("state=running") == 2

    def test_top_exits_when_the_run_finishes(self, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        self._write_stream(path, footer=True)
        # No --iterations bound needed: the footer ends the loop.
        assert main(["top", str(path), "--interval", "0.01"]) == 0
        assert "state=finished" in capsys.readouterr().out
