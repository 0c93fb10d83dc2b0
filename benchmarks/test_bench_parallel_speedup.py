"""Benchmark: serial vs parallel wall-clock for an 8-day campaign.

Runs the same campaign with ``jobs`` in {1, 2, 4} and records the
wall-clock of each, plus the speedup over serial and a proof line that
all three produced byte-identical results.  On a single-core host the
parallel runs are expected to cost slightly *more* than serial (pool
overhead with nothing to overlap) — the numbers are recorded either
way, with the host's CPU count, so they are interpretable.

Knobs: ``REPRO_BENCH_PARALLEL_DAYS`` (default 8) and
``REPRO_BENCH_SEED`` (default 7).
"""

import hashlib
import os
import time

import pytest

from repro.analysis.report import format_table
from repro.experiments.fig06 import Figure6
from repro.workload.campaign import CampaignConfig, run_campaign

from conftest import bench_knob, bench_seed


def _parallel_days() -> int:
    return bench_knob("REPRO_BENCH_PARALLEL_DAYS")


def _config() -> CampaignConfig:
    return CampaignConfig(
        seed=bench_seed(),
        days=_parallel_days(),
        popular_population=12,
        unpopular_population=7,
        session_duration=150.0,
        warmup=90.0,
    )


def test_bench_parallel_speedup(benchmark, save_result):
    timings = {}
    digests = {}

    def run_all():
        for jobs in (1, 2, 4):
            started = time.perf_counter()
            result = run_campaign(_config(), jobs=jobs)
            timings[jobs] = time.perf_counter() - started
            rendered = Figure6(result=result).render()
            digests[jobs] = hashlib.sha256(rendered.encode()).hexdigest()
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    serial = timings[1]
    rows = [[f"jobs={jobs}", f"{elapsed:.1f}s",
             f"{serial / elapsed:.2f}x",
             "identical" if digests[jobs] == digests[1] else "DRIFTED"]
            for jobs, elapsed in sorted(timings.items())]
    text = "\n".join([
        f"=== parallel campaign speedup "
        f"({_parallel_days()} days, seed {bench_seed()}, "
        f"{os.cpu_count()} cpu) ===",
        format_table(["configuration", "wall-clock", "speedup vs serial",
                      "figure 6 output"], rows),
    ])
    save_result("parallel_speedup", text)

    # Correctness is non-negotiable even in a perf bench.
    assert digests[2] == digests[1]
    assert digests[4] == digests[1]
