"""Shared fixtures for the benchmark suite.

The canonical sessions are simulated once per benchmark run (session
scope) and reused by every figure bench, mirroring how the paper's four
featured traces feed fourteen figures.  Environment knobs:

* ``REPRO_BENCH_SCALE``  — small | default | full   (default: default)
* ``REPRO_BENCH_SEED``   — integer master seed       (default: 7)
* ``REPRO_BENCH_DAYS``   — Figure 6 campaign length  (default: 28)

Each bench writes its rendered table/series to
``benchmarks/results/<id>.txt`` so the numbers behind EXPERIMENTS.md are
regenerable artifacts.
"""

import os
from pathlib import Path

import pytest

from repro.experiments import Scale, WorkloadBank

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> Scale:
    name = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    return Scale(name)


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "7"))


def bench_days() -> int:
    return int(os.environ.get("REPRO_BENCH_DAYS", "28"))


@pytest.fixture(scope="session")
def bank():
    return WorkloadBank()


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def seed():
    return bench_seed()


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(experiment_id: str, text: str) -> None:
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return _save
