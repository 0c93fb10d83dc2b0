"""The layered perf benchmark: timed fresh-process reps plus a layer trace.

One timed run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/perf/run.py --workload session --seed 3 \\
        --seconds 25 --trace 0

runs reps of the workload, each in a fresh ``child.py`` interpreter, one
at a time (a closed loop with one client) until ``--seconds`` is used
up, checks every rep's outputs, prints each metric by name with its
unit and, as the last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` alternates untraced and
traced reps and reports the per-layer metrics.

The whole suite, round-robin across workloads::

    python3 benchmarks/perf/run.py [--seed S] [--reps R] [--out FILE]

runs rep 1 of every workload, then rep 2, and so on, then one traced
rep per workload, and writes one JSON result for ``compare.py``.
Without ``--seed`` each workload runs at its default seed and its
output digests must equal the ones pinned in ``pins.json``; with
``--seed`` all reps of a workload must agree with each other, and the
digests are printed so two commits can be compared.  Any failed check
exits non-zero.
"""

from __future__ import annotations

import argparse
import bisect
import json
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads
from layers import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

#: End-to-end metrics and their units.  ``BENCHMARK.json`` names the
#: gated ones with their bounds.  ``wall_s`` is reported, not gated: it
#: moves with input size, and a benchmark run draws its inputs from its
#: seed (between seeds 1-10 the campaign's event count varies by 9%).
E2E_UNITS = {"events_per_s": "events/s", "setup_s": "s",
             "peak_rss_mb": "MB", "wall_s": "s"}
#: ``best_wall`` uses the first this many reps of a run, in both modes:
#: with more reps to pick from, the fastest segments only get faster, so
#: the count must not depend on how fast the host or commit is.  A timed
#: run holds at least this many reps, whatever ``--seconds`` says.
BEST_OF = 3
#: Wall-clock budget of one ``--workload`` run, including its last rep.
RUN_LIMIT_S = 170.0
#: Event-count segments ``best_wall`` lines the reps up by.
SEGMENTS = 16


class Rep:
    """One child run: its record, or why there is none."""

    def __init__(self, workload: str, seed: int, traced: bool,
                 record: Optional[dict] = None, error: str = "") -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.record = record
        self.error = error
        #: Reasons this rep counts as failed (filled by ``judge``).
        self.failures: List[str] = []

    @property
    def ok(self) -> bool:
        return self.record is not None and not self.failures


def spawn(name: str, seed: int, traced: bool = False, tiny: bool = False,
          timeout: float = 120.0) -> Rep:
    """Run one rep in a fresh interpreter and wait for it to end."""
    argv = [sys.executable, str(CHILD), "--workload", name,
            "--seed", str(seed)]
    argv += ["--traced"] * traced + ["--tiny"] * tiny
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(1.0, timeout), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return Rep(name, seed, traced,
                   error=f"timed out after {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return Rep(name, seed, traced,
                   error=f"exit {proc.returncode}: {tail}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["setup_done"] - spawned_at
    return Rep(name, seed, traced, record=record)


def schedule(names: List[str], reps: int) -> List[tuple]:
    """Round-robin order: rep 1 of every workload, then rep 2, ..."""
    return [(rep, name) for rep in range(1, reps + 1) for name in names]


def load_pins() -> Dict[str, dict]:
    return json.loads(PINS.read_text(encoding="utf-8"))


def judge(reps: List[Rep], pins: Dict[str, dict]) -> int:
    """Mark failed reps; returns how many failed.

    A rep fails when it crashed or timed out, when an output check in
    the child failed, when its digest differs from the first complete
    rep of the same workload and seed, or — at a workload's pinned seed
    — when its digest differs from the pin.
    """
    reference: Dict[tuple, dict] = {}
    for rep in reps:
        if rep.record is None:
            rep.failures.append(rep.error)
            continue
        rep.failures.extend(rep.record["problems"])
        digest = rep.record["digest"]
        first = reference.setdefault((rep.workload, rep.seed), digest)
        if digest != first:
            rep.failures.append(f"digest {_short(digest)} differs from "
                                f"the run's first rep {_short(first)}")
        pin = pins.get(rep.workload)
        if pin and pin["seed"] == rep.seed and digest != pin["digest"]:
            rep.failures.append(f"digest {_short(digest)} differs from "
                                f"the pinned {_short(pin['digest'])}")
    return sum(1 for rep in reps if not rep.ok)


def _short(digest: dict) -> str:
    return ",".join(f"{key}={value[:12]}"
                    for key, value in sorted(digest.items()))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _time_at(progress: List[list], events: float) -> float:
    """When a rep's progress samples passed ``events`` (interpolated)."""
    counts = [sample[1] for sample in progress]
    index = bisect.bisect_left(counts, events)
    (t0, e0), (t1, e1) = progress[index - 1], progress[index]
    return t0 + (events - e0) / (e1 - e0) * (t1 - t0)


def best_wall(records: List[dict]) -> float:
    """The workload call's wall time with transient slowdowns removed.

    Reps of one workload and seed run the same event sequence (their
    digests agree), so each rep's progress samples say when it passed
    each 1/``SEGMENTS`` of the events.  Host interference only ever adds
    time; summing, segment by segment, the fastest rep's time keeps a
    slowdown that hit one rep out of the result.  Only the first
    ``BEST_OF`` reps count; with one rep this is that rep's wall time.
    """
    records = records[:BEST_OF]
    total = records[0]["events"]
    bounds = [total * k / SEGMENTS for k in range(1, SEGMENTS)]
    fastest = [float("inf")] * SEGMENTS
    for record in records:
        edges = ([0.0] + [_time_at(record["progress"], bound)
                          for bound in bounds] + [record["wall_s"]])
        for index in range(SEGMENTS):
            fastest[index] = min(fastest[index],
                                 edges[index + 1] - edges[index])
    return sum(fastest)


def run_metrics(records: List[dict]) -> Dict[str, float]:
    """A run's end-to-end metrics from its good untraced reps, in order:
    ``events_per_s`` from the first ``BEST_OF``, medians over all."""
    return {"events_per_s": records[0]["events"] / best_wall(records),
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in records),
            "wall_s": statistics.median(r["wall_s"] for r in records)}


def _records(good: List[Rep], name: str, traced: bool) -> List[dict]:
    return [rep.record for rep in good
            if rep.workload == name and rep.traced == traced]


def traced_metrics(name: str, good: List[Rep]) -> Dict[str, float]:
    """Per-layer metrics of workload ``name`` from the good reps of a run
    or suite: medians over its traced reps (the lower middle one, so
    counts stay whole), plus ratios against its untraced reps."""
    traced = _records(good, name, traced=True)
    timed = _records(good, name, traced=False)
    if not traced or not timed:
        return {}
    layer = {metric: statistics.median_low(record["layers"][metric]
                                           for record in traced)
             for metric in traced[0]["layers"]}
    wall = statistics.median(record["wall_s"] for record in timed)
    layer["trace.overhead_ratio"] = statistics.median(
        record["wall_s"] for record in traced) / wall
    layer["host.calib_s"] = statistics.median(record["calib_s"]
                                              for record in timed)
    plain = _records(good, "session", traced=False)
    if workloads.get(name).observed and plain:
        layer["obs.overhead_ratio"] = wall / statistics.median(
            record["wall_s"] for record in plain)
    return layer


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<32} {value:>16.6g} {unit:<11} {note}".rstrip())


def print_rep(rep: Rep) -> None:
    kind = "traced" if rep.traced else "timed"
    if rep.record is None:
        print(f"[perf] {rep.workload} seed={rep.seed} {kind} rep FAILED: "
              f"{rep.error}")
        return
    status = "ok" if rep.ok else "FAILED: " + "; ".join(rep.failures)
    record = rep.record
    print(f"[perf] {rep.workload} seed={rep.seed} {kind} rep: wall "
          f"{record['wall_s']:.3f} s, setup {record['setup_s']:.3f} s, "
          f"calib {record['calib_s']:.4f} s, {record['events']} events, "
          f"digest {_short(record['digest'])} {status}")


# ----------------------------------------------------------------------
# One timed run of one workload
# ----------------------------------------------------------------------
def timed_run(name: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False) -> dict:
    """Reps of one workload until ``seconds`` is used up; the result."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    # A traced run times each untraced rep against a traced rep of the
    # same inputs; the observed workload also needs the plain session
    # it is the observed copy of.
    rounds = [(name, False)]
    if trace:
        rounds.append((name, True))
        if workloads.get(name).observed:
            rounds.append(("session", False))
    reps: List[Rep] = []
    durations: List[float] = []
    while True:
        round_started = time.monotonic()
        for rep_name, traced in rounds:
            reps.append(spawn(rep_name, seed, traced, tiny,
                              timeout=deadline - time.monotonic()))
            print_rep(reps[-1])
        durations.append(time.monotonic() - round_started)
        now = time.monotonic()
        enough = len(durations) >= (1 if trace else BEST_OF)
        if any(rep.record is None for rep in reps) or now >= deadline or (
                enough and now + statistics.median(durations)
                > started + seconds):
            break
    failed = judge(reps, {} if tiny else load_pins())
    for rep in reps:
        if rep.failures and rep.record is not None:
            print_rep(rep)
    good = [rep for rep in reps if rep.ok]
    if trace:
        values = traced_metrics(name, good)
        wanted = spec["per_layer"]
    else:
        values = run_metrics([rep.record for rep in good]) if good else {}
        wanted = spec["end_to_end"]
    digests = sorted({_short(rep.record["digest"]) for rep in good
                      if rep.workload == name})
    print(f"[perf] {name} seed={seed}: {len(reps)} reps, {failed} failed, "
          f"best wall over the first {BEST_OF}, "
          f"digest {' / '.join(digests) or '-'}")
    units = dict(E2E_UNITS, **LAYER_UNITS)
    for metric, value in values.items():
        print_metric(metric, value, units[metric])
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in wanted if values}
    return {"correct": failed == 0 and bool(metrics), "attempted": len(reps),
            "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# The whole suite, round-robin
# ----------------------------------------------------------------------
def _per_rep(record: dict) -> Dict[str, float]:
    wall = record["wall_s"]
    return {"events_per_s": record["events"] / wall,
            "setup_s": record["setup_s"],
            "peak_rss_mb": record["peak_rss_mb"], "wall_s": wall}


def suite(names: List[str], reps: int, seed: Optional[int],
          tiny: bool = False) -> dict:
    """R round-robin timed reps of every workload, then a traced rep."""
    started = time.monotonic()
    pins = {} if tiny else load_pins()
    order = schedule(names, reps)
    seeds = {name: workloads.seed_for(workloads.get(name), seed)
             for name in names}
    timed: Dict[str, List[Rep]] = {name: [] for name in names}
    for index, (rep_number, name) in enumerate(order, 1):
        timed[name].append(spawn(name, seeds[name], tiny=tiny))
        print(f"[perf] {index}/{len(order)} rep {rep_number}", end=" ")
        print_rep(timed[name][-1])
    traced = {name: spawn(name, seeds[name], traced=True, tiny=tiny)
              for name in names}
    for rep in traced.values():
        print_rep(rep)

    every = {name: timed[name] + [traced[name]] for name in names}
    failures = sum(judge(every[name], pins) for name in names)
    good = [rep for name in names for rep in every[name] if rep.ok]
    calibrations = [rep.record["calib_s"] for rep in good]
    result = {
        "schema": 1,
        "command": sys.argv,
        "seed": seed,
        "reps": reps,
        "best_of": min(reps, BEST_OF),
        "order": [f"{name}#{rep}" for rep, name in order],
        "host": {"python": platform.python_version(),
                 "platform": platform.platform(),
                 "calib_s_median": (statistics.median(calibrations)
                                    if calibrations else None)},
        "workloads": {},
    }
    for name in names:
        failed = sum(1 for rep in every[name] if not rep.ok)
        records = _records(good, name, traced=False)
        entry = {
            "seed": seeds[name],
            "attempted": len(every[name]),
            "failed": failed,
            "failed_share": failed / len(every[name]),
            "failures": [reason for rep in every[name]
                         for reason in rep.failures],
            "digest": records[0]["digest"] if records else None,
            "metrics": {},
            "layers": traced_metrics(name, good),
        }
        if records:
            per_rep = [_per_rep(record) for record in records]
            for metric, value in run_metrics(records).items():
                values = [row[metric] for row in per_rep]
                entry["metrics"][metric] = {
                    "value": value, "unit": E2E_UNITS[metric],
                    "reps": {"median": statistics.median(values),
                             "min": min(values), "max": max(values),
                             "n": len(values), "values": values}}
        result["workloads"][name] = entry
    result["failures"] = failures
    result["total_s"] = time.monotonic() - started
    return result


def print_suite(result: dict) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n== {name} (seed {entry['seed']}): {entry['attempted']} "
              f"reps, failed_share {entry['failed_share']:.3g}")
        if entry["digest"]:
            print(f"   digest {_short(entry['digest'])}")
        for reason in entry["failures"]:
            print(f"   FAILED {reason}")
        for metric, stats in entry["metrics"].items():
            reps = stats["reps"]
            print_metric(metric, stats["value"], stats["unit"],
                         f"per rep: median {reps['median']:.6g}, min "
                         f"{reps['min']:.6g}, max {reps['max']:.6g}, "
                         f"n {reps['n']}")
        print_metric("failed_share", entry["failed_share"], "share")
        for metric, value in sorted(entry["layers"].items()):
            print_metric(metric, value, LAYER_UNITS[metric], "traced rep")
    print(f"\ntotal {result['total_s']:.1f} s")


def _terminate(signum, frame) -> None:
    # SystemExit unwinds through subprocess.run, which kills and reaps
    # the running child before the parent exits.
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered perf benchmark of the repro simulator.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one timed run of this workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload run: 1 reports per-layer metrics")
    parser.add_argument("--reps", type=int, default=5,
                        help="suite: timed reps per workload")
    parser.add_argument("--out", default=str(HERE / "out" / "result.json"),
                        help="suite: where to write the JSON result")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)

    if args.workload:
        seed = workloads.seed_for(workloads.get(args.workload), args.seed)
        result = timed_run(args.workload, seed, args.seconds,
                           bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1

    result = suite(list(workloads.WORKLOADS), args.reps, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print_suite(result)
    print(f"[perf] wrote {out}")
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
