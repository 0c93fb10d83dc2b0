"""Benchmarks for the DESIGN.md ablations (A1-A4).

These test the paper's *attribution*: locality should degrade when the
neighbor-referral/latency machinery is removed, and the oracle baselines
(which use infrastructure PPLive does not need) should reach at least
comparable locality.
"""

import pytest

from repro.experiments.ablations import (isp_aware_tracker,
                                         latency_pressure,
                                         policy_comparison,
                                         popularity_sweep,
                                         top_peer_caching)

from conftest import bench_knob, bench_seed

#: Ablations are medium-cost; keep them smaller than the figure benches.
POPULATION = bench_knob("REPRO_BENCH_ABLATION_POP")
DURATION = bench_knob("REPRO_BENCH_ABLATION_DURATION")


@pytest.fixture(scope="module")
def comparison():
    return policy_comparison(seed=bench_seed(), population=POPULATION,
                             duration=DURATION)


def test_bench_ablation_a1_a3_policies(benchmark, comparison, save_result):
    result = benchmark.pedantic(lambda: comparison, rounds=1, iterations=1)
    save_result("ablation_a1_a3", result.render())
    pplive = result.locality_of("pplive-referral")
    tracker_only = result.locality_of("tracker-only-random")
    assert pplive is not None and tracker_only is not None
    # A1: the infrastructure-free referral strategy reaches locality at
    # least comparable to blind tracker-random selection.  (Single-seed
    # sessions are noisy; the tolerance absorbs that — see
    # examples/multi_seed_confidence.py for the averaged statement.)
    assert pplive > tracker_only - 0.12
    # A3: the explicit-topology baselines achieve high locality too.
    p4p = result.locality_of("p4p")
    if p4p is not None:
        assert p4p > tracker_only - 0.10


def test_bench_ablation_a2_latency_pressure(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: latency_pressure(seed=bench_seed(), population=POPULATION,
                                 duration=DURATION),
        rounds=1, iterations=1)
    save_result("ablation_a2", result.render())
    with_pressure = result.locality_of("latency replacement on")
    without = result.locality_of("latency replacement off")
    assert with_pressure is not None and without is not None
    # Removing the latency-driven replacement should not help locality.
    assert with_pressure > without - 0.10


def test_bench_ablation_a4_popularity_sweep(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: popularity_sweep(seed=bench_seed(),
                                 populations=(20, 45, 90),
                                 duration=DURATION),
        rounds=1, iterations=1)
    save_result("ablation_a4", result.render())
    localities = [p.locality for p in result.points]
    assert len(localities) == 3
    # More concurrent same-ISP viewers -> more achievable locality: the
    # largest audience should not be the least local.
    assert localities[-1] >= min(localities)


def test_bench_ablation_a5_top_peer_caching(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: top_peer_caching(seed=bench_seed(), population=POPULATION,
                                 duration=DURATION),
        rounds=1, iterations=1)
    save_result("ablation_a5", result.render())
    # The paper only *speculates* that caching the top 10% helps; this
    # bench reports the comparison (single-seed, so noisy) and asserts
    # sanity, not an ordering.
    for point in result.points:
        assert 0.0 <= point.locality <= 1.0
        assert point.data_transactions > 0


def test_bench_ablation_a6_isp_aware_tracker(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: isp_aware_tracker(seed=bench_seed(), population=POPULATION,
                                  duration=DURATION),
        rounds=1, iterations=1)
    save_result("ablation_a6", result.render())
    plain = result.locality_of("random tracker (PPLive)")
    aware = result.locality_of("isp-aware tracker [28]")
    # Reported for comparison; single-seed orderings between these two
    # high-locality configurations are noise-dominated, so only sanity
    # is asserted (see examples/multi_seed_confidence.py for the
    # averaged methodology).
    assert plain is not None and aware is not None
    assert 0.0 <= plain <= 1.0 and 0.0 <= aware <= 1.0
