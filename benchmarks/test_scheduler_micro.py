"""Micro-benchmarks of the core machinery (not a paper table).

These track the throughput the design-space exploration depends on: one
tabu-search iteration evaluates dozens of candidate implementations, each a
full list-scheduling + worst-case-analysis pass.

``test_pipeline_throughput_records_bench_json`` additionally writes
``BENCH_scheduler.json`` at the repository root (under
``REPRO_BENCH_RECORD=1``) so the performance trajectory of the
evaluation pipeline is tracked from PR to PR (see EXPERIMENTS.md).
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import pytest

from repro.gen.suite import generate_case
from repro.model.ftgraph import build_ft_graph
from repro.model.merge import merge_application
from repro.opt.evaluator import Evaluator
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.schedule.list_scheduler import build_schedule_record
from repro.sim.engine import SystemSimulator
from repro.sim.faults import FAULT_FREE

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_scheduler.json"


def _setup(n, nodes, k):
    case = generate_case(n, nodes, k, mu=5.0, seed=0)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    evaluator = Evaluator(merged, case.faults, cache_size=0)
    impl = initial_mpa(merged, case.architecture, case.faults, bus)
    return evaluator, impl


def _cold_pass(merged, faults, impl):
    """One cold pricing: FT expansion, list scheduling, cost derivation."""
    ft = build_ft_graph(merged, impl.policies, impl.mapping, faults)
    record = build_schedule_record(merged, ft, faults, impl.bus)
    return record.degree_of_schedulability(), record.makespan


@pytest.mark.parametrize("n,nodes,k", [(20, 2, 3), (60, 4, 5), (100, 6, 7)])
def test_schedule_evaluation_throughput(benchmark, n, nodes, k):
    """Full schedule + (k, µ) worst-case analysis of one implementation."""
    evaluator, impl = _setup(n, nodes, k)
    benchmark(evaluator.evaluate_record, impl)


@pytest.mark.parametrize("n,nodes,k", [(20, 2, 3), (60, 4, 5)])
def test_fault_injection_throughput(benchmark, n, nodes, k):
    """One simulated cycle of a synthesized schedule (fault-free scenario)."""
    evaluator, impl = _setup(n, nodes, k)
    schedule = evaluator.evaluate_full(impl)[1]
    simulator = SystemSimulator(schedule)
    benchmark(simulator.run, FAULT_FREE)


def _best_of(windows: int, run) -> float:
    """Minimum elapsed seconds of ``run()`` over ``windows`` attempts.

    Best-of measurement windows, so transient machine load does not
    masquerade as a pipeline regression in the recorded trajectory; the
    cyclic GC is suspended during the windows so collector pauses over the
    test harness's own module graph don't pollute the number.
    """
    elapsed = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(windows):
            started = time.perf_counter()
            run()
            elapsed = min(elapsed, time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed


def test_pipeline_throughput_records_bench_json():
    """Measure the 40-process evaluation pipeline and write BENCH_scheduler.json.

    Numbers tracked from PR to PR:

    * ``evaluations_per_sec`` — the headline: candidate design points
      priced per second by the *delta evaluation kernel*
      (``Evaluator.evaluate_many``, ``cache_size=0``) over the critical-path
      move neighbourhood of the 40-process case.  Each pricing is a
      replay from rank 0 that copies the rows the move leaves unchanged
      from the shared base context; no schedule record is sealed.  This is the throughput one search iteration
      scales with.
    * ``delta.cold_neighbourhood_per_sec`` — the same neighbourhood priced
      by cold full passes; the headline divided by this is the delta
      kernel's measured speedup on identical work.
    * ``full_evaluations_per_sec`` — the pre-delta headline (repeated cold
      pricing of the initial implementation), kept for trajectory
      continuity with earlier PRs.
    * ``pipeline`` — a miniature MXR strategy run (greedy + tabu, no time
      limit) measured through the caching pipeline: evaluation requests
      per second and the cache hit rate the strategy achieves.
    * ``obs.overhead_pct`` — the telemetry tax: the same strategy run
      with ``--trace`` enabled against its untraced twin (best-of
      windows each).  ``scripts/check_bench_regression.py`` holds this
      under an absolute ceiling, so span writes creeping into a hot loop
      fail CI instead of silently taxing every traced sweep.
    """
    from benchmarks.conftest import bench_stamp, write_bench_record
    from repro.opt.moves import generate_moves
    from repro.opt.strategy import OptimizationConfig, optimize

    case = generate_case(40, 3, 4, mu=5.0, seed=0)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(merged, case.architecture, case.faults, bus)

    # The real neighbourhood the search prices every iteration: all
    # critical-path moves (remap / policy / replica-remap) of the initial
    # implementation.
    base_record = Evaluator(merged, case.faults).evaluate_record(impl)[1]
    moves = generate_moves(
        merged, case.faults, impl, base_record.critical_path(), (1, 2, 3)
    )
    assert moves, "empty neighbourhood — benchmark case degenerated"

    # Headline: delta-kernel pricing (capture amortized inside the window,
    # cache disabled so every window re-prices every candidate).
    delta_eval = Evaluator(merged, case.faults, cache_size=0)
    delta_eval.evaluate_many(impl, moves)  # warm-up (and context capture)
    delta_elapsed = _best_of(
        3, lambda: delta_eval.evaluate_many(impl, moves)
    )
    evaluations_per_sec = len(moves) / delta_elapsed

    # The same neighbourhood, cold: one full list-scheduling pass each.
    candidates = [move.apply(impl) for move in moves]
    _cold_pass(merged, case.faults, candidates[0])  # warm-up

    def _cold_window():
        for candidate in candidates:
            _cold_pass(merged, case.faults, candidate)

    cold_elapsed = _best_of(3, _cold_window)
    cold_per_sec = len(moves) / cold_elapsed

    # Pre-delta headline, unchanged definition: repeated cold evaluation
    # of the initial implementation.
    _cold_pass(merged, case.faults, impl)  # warm-up
    n_raw = 60

    def _raw_window():
        for _ in range(n_raw):
            _cold_pass(merged, case.faults, impl)

    full_evaluations_per_sec = n_raw / _best_of(3, _raw_window)

    # Cached-evaluator statistics come from the public cache_info() (hits/
    # misses/size/bound a la functools.lru_cache), not private fields.
    cached = Evaluator(merged, case.faults)
    cached.evaluate_record(impl)
    cached.evaluate_record(impl)
    info = cached.cache_info()
    assert info.hits == 1 and info.misses == 1 and info.size == 1

    # Full single-pass pipeline: one scaled-down strategy run.
    config = OptimizationConfig(
        minimize=True, rounds=1, greedy_max_iterations=3,
        tabu_max_iterations=3, time_limit_s=None,
    )
    started = time.perf_counter()
    result = optimize(
        case.application, case.architecture, case.faults, "MXR", config
    )
    pipeline_elapsed = time.perf_counter() - started
    requests = result.evaluations + result.cache_hits

    # Telemetry tax: the identical strategy run traced vs untraced.
    import os
    import tempfile

    from repro import obs

    def _pipeline_window():
        optimize(
            case.application, case.architecture, case.faults, "MXR", config
        )

    untraced_s = _best_of(2, _pipeline_window)
    with tempfile.TemporaryDirectory() as tmp:
        obs.enable_tracing(os.path.join(tmp, "bench.jsonl"), label="bench")
        try:
            traced_s = _best_of(2, _pipeline_window)
        finally:
            obs.disable_tracing()
    obs_overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s

    record = {
        "case": {"n_processes": 40, "n_nodes": 3, "k": 4, "mu": 5.0, "seed": 0},
        "stamp": bench_stamp(),
        "evaluations_per_sec": round(evaluations_per_sec, 1),
        "full_evaluations_per_sec": round(full_evaluations_per_sec, 1),
        "delta": {
            "neighbourhood_moves": len(moves),
            "cold_neighbourhood_per_sec": round(cold_per_sec, 1),
            "speedup_vs_cold": round(cold_elapsed / delta_elapsed, 2),
        },
        "pipeline": {
            "requests_per_sec": round(requests / pipeline_elapsed, 1),
            "cache_hit_rate": round(
                result.cache_hits / requests if requests else 0.0, 4
            ),
            "evaluations": result.evaluations,  # design pricings (cache misses)
            "elapsed_s": round(pipeline_elapsed, 3),
            "cache_bound": info.bound,  # Evaluator DEFAULT_CACHE_SIZE
        },
        "obs": {
            "overhead_pct": round(obs_overhead_pct, 2),
            "untraced_s": round(untraced_s, 3),
            "traced_s": round(traced_s, 3),
        },
    }
    write_bench_record(BENCH_PATH, record)

    assert record["evaluations_per_sec"] > 0
    assert record["delta"]["speedup_vs_cold"] > 1.0
    assert 0.0 <= record["pipeline"]["cache_hit_rate"] < 1.0
    assert result.evaluations > 0
