"""Shared fixtures for the benchmark suite.

The canonical sessions are simulated once per benchmark run (session
scope) and reused by every figure bench, mirroring how the paper's four
featured traces feed fourteen figures.  Environment knobs:

* ``REPRO_BENCH_SCALE``  — small | default | full   (default: default)
* ``REPRO_BENCH_SEED``   — integer master seed       (default: 7)
* ``REPRO_BENCH_DAYS``   — Figure 6 campaign length  (default: 28)
* ``REPRO_BENCH_ABLATION_POP`` / ``REPRO_BENCH_ABLATION_DURATION`` —
  ablation audience and viewing seconds (default: 60 / 700)
* ``REPRO_BENCH_PARALLEL_DAYS`` — speedup campaign length (default: 8)

Each bench prints its rendered table/series.  A run with every knob
unset or at its default also writes it to the tracked
``benchmarks/results/<id>.txt``, so the numbers behind EXPERIMENTS.md
are regenerable artifacts that a smoke run (say
``REPRO_BENCH_SCALE=small``) never overwrites.
"""

import os
from pathlib import Path

import pytest

from repro.experiments import Scale, WorkloadBank

RESULTS_DIR = Path(__file__).parent / "results"

#: Every environment knob: its default and its parser.
KNOBS = {
    "REPRO_BENCH_SCALE": ("default", lambda value: Scale(value.lower())),
    "REPRO_BENCH_SEED": ("7", int),
    "REPRO_BENCH_DAYS": ("28", int),
    "REPRO_BENCH_ABLATION_POP": ("60", int),
    "REPRO_BENCH_ABLATION_DURATION": ("700", float),
    "REPRO_BENCH_PARALLEL_DAYS": ("8", int),
}


def bench_knob(name: str):
    """The parsed value of knob ``name``, its default when unset."""
    default, parse = KNOBS[name]
    return parse(os.environ.get(name, default))


def knobs_at_defaults() -> bool:
    return all(bench_knob(name) == parse(default)
               for name, (default, parse) in KNOBS.items())


def bench_scale() -> Scale:
    return bench_knob("REPRO_BENCH_SCALE")


def bench_seed() -> int:
    return bench_knob("REPRO_BENCH_SEED")


def bench_days() -> int:
    return bench_knob("REPRO_BENCH_DAYS")


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
    write = knobs_at_defaults()

    def _save(experiment_id: str, text: str) -> None:
        if write:
            RESULTS_DIR.mkdir(exist_ok=True)
            path = RESULTS_DIR / f"{experiment_id}.txt"
            path.write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return _save
