"""Compare two suite results against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the baseline, ``B`` the candidate; each is a result written by
``run.py`` (suite form) or a directory of them, one value per result
and metric, as a ``--workload`` run reports it.  For every workload x
end-to-end metric it prints both sides' median and quartiles and one
verdict:

* ``within bound`` — B's median is no worse than A's by more than the
  metric's bound;
* ``outside bound`` — it is worse by more than the bound;
* ``unresolved`` — either side's run-to-run spread (interquartile range
  over median) is wider than the bound, so the medians cannot settle
  it; unless every run of B reads better than every run of A.

Exits 1 when any pairing is outside its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

WITHIN, OUTSIDE, UNRESOLVED = "within bound", "outside bound", "unresolved"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(base: List[float], new: List[float], bound: float,
            better: str) -> Tuple[str, float]:
    """The verdict for one pairing and B's signed change vs A's median
    (positive = worse, whatever the metric's direction)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse = sign * (statistics.median(new) - base_median) / base_median
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if max(spread(base), spread(new)) > bound and not all_better:
        return UNRESOLVED, worse
    return (OUTSIDE if worse > bound else WITHIN), worse


def load_values(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per result file under ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    pooled: Dict[Tuple[str, str], List[float]] = {}
    for file in files:
        result = json.loads(file.read_text(encoding="utf-8"))
        for workload, entry in result["workloads"].items():
            for metric, stats in entry["metrics"].items():
                pooled.setdefault((workload, metric), []).append(
                    stats["value"])
    return pooled


def compare(base: Dict[tuple, List[float]], new: Dict[tuple, List[float]],
            end_to_end: List[dict], out=None) -> int:
    out = out if out is not None else sys.stdout
    outside = 0
    workloads = sorted({workload for workload, _ in base}
                       & {workload for workload, _ in new})
    print(f"{'workload':<17} {'metric':<13} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'worse by':>8}  verdict", file=out)
    for workload in workloads:
        for metric in end_to_end:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            result, worse = verdict(base[key], new[key], metric["bound"],
                                    metric["better"])
            outside += result == OUTSIDE
            print(f"{workload:<17} {metric['name']:<13} "
                  f"{_triple(base[key]):>30} {_triple(new[key]):>30} "
                  f"{worse:>+8.1%}  {result} (bound "
                  f"{metric['bound']:.0%}, {metric['unit']}, "
                  f"{metric['better']} is better)", file=out)
    return 1 if outside else 0


def _triple(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{q1:.4g}/{median:.4g}/{q3:.4g} n={len(values)}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline result or directory")
    parser.add_argument("b", type=Path, help="candidate result or directory")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return compare(load_values(args.a), load_values(args.b),
                   spec["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
