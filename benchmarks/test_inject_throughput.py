"""Fault-injection throughput benchmark -> ``BENCH_inject.json``.

Three measurements on one deterministic initial-MPA target whose <=k
fault space (46k scenarios at 30 processes, k=4) exceeds the sweep
budget, so the planner exercises both tiers — exhaustive low strata,
stratified draws on the top stratum — next to the importance wave:

* **inline batched sweep** — shards stream through the columnar
  replay kernel (:mod:`repro.sim.batch`); ``inject.scenarios_per_sec``
  is the headline throughput CI gates against the committed baseline,
  and ``inject.batch.speedup_vs_scalar`` prices the kernel against the
  scalar reference on identical shards;
* **inline scalar sweep** — the same plan with ``batch_size=0``
  (scenario-by-scenario ``SystemSimulator.run``), the reference the
  batch tier must match byte for byte;
* **queued sweep** — the identical plan through a SQLite broker with
  two worker processes (workers replay batched); the per-shard delta
  prices the distribution plumbing a multi-machine million-scenario
  run pays for resumability.

Wall-clock numbers are noisy; CI records the trend, assertions only
guard sanity (identical aggregates across all three paths, every
scenario accounted for).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.gen.suite import generate_case
from repro.inject.driver import run_inject_sweep
from repro.inject.importance import importance_scenarios
from repro.inject.plan import plan_sweep
from repro.inject.runner import DEFAULT_BATCH_SIZE
from repro.inject.space import ScenarioSpace
from repro.inject.target import InjectTarget
from repro.model.merge import merge_application
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.queue.sqlite import SqliteBroker
from repro.schedule.list_scheduler import list_schedule

from benchmarks.conftest import bench_stamp, write_bench_record

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_inject.json"

_PROCESSES, _NODES, _K, _SEED = 30, 3, 4, 1
_BUDGET = 30_000
_SHARD_SIZE = 2_000
_WORKERS = 2


def _bench_target() -> InjectTarget:
    case = generate_case(_PROCESSES, _NODES, _K, mu=5.0, seed=_SEED)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    implementation = initial_mpa(merged, case.architecture, case.faults, bus)
    schedule = list_schedule(
        merged, case.faults, implementation.policies,
        implementation.mapping, bus,
    )
    return InjectTarget(
        application=case.application,
        faults=case.faults,
        implementation=implementation,
        record=schedule.record,
        label=f"bench-{_PROCESSES}p{_NODES}n-k{_K}",
    )


def test_inject_throughput_records_bench_json(tmp_path):
    target = _bench_target()
    context = target.build_context()
    space = ScenarioSpace.of(context.ft, target.faults.k)
    ranked = importance_scenarios(target.record, context.ft, target.faults.k)
    plan = plan_sweep(
        space, len(ranked), budget=_BUDGET, shard_size=_SHARD_SIZE
    )

    started = time.perf_counter()
    scalar, scalar_stats = run_inject_sweep(target, plan, batch_size=0)
    scalar_s = time.perf_counter() - started

    started = time.perf_counter()
    inline, inline_stats = run_inject_sweep(target, plan)
    inline_s = time.perf_counter() - started

    broker = SqliteBroker(tmp_path / "bench-inject.db")
    try:
        started = time.perf_counter()
        queued, queued_stats = run_inject_sweep(
            target, plan, broker=broker, local_workers=_WORKERS,
        )
        queued_s = time.perf_counter() - started
    finally:
        broker.close()

    # Identical deterministic shards on every path: batched inline,
    # scalar reference, and batched through the queue.
    assert (
        scalar_stats.completed == inline_stats.completed
        == queued_stats.completed == len(plan.shards)
    )
    scalar_summary = scalar.to_dict()
    inline_summary = inline.to_dict()
    queued_summary = queued.to_dict()
    for summary in (scalar_summary, inline_summary, queued_summary):
        summary.pop("elapsed_s")
        summary.pop("scenarios_per_sec")
        summary.pop("phase_s")
    assert inline_summary == scalar_summary == queued_summary

    record = {
        "stamp": bench_stamp(),
        "benchmark": "inject_throughput",
        "target": {
            "label": target.label,
            "space": space.total,
            "budget": _BUDGET,
            "shards": len(plan.shards),
            "plan": plan.describe(),
        },
        "inject": {
            "scenarios": inline.scenarios,
            "draws": inline.draws,
            "elapsed_s": round(inline_s, 3),
            "scenarios_per_sec": round(inline.scenarios / inline_s, 1),
            "residual_upper_bound": inline.residual_upper_bound(),
            "ok": inline.ok,
            "batch": {
                "batch_size": DEFAULT_BATCH_SIZE,
                "scenarios_per_sec": round(inline.scenarios / inline_s, 1),
                "speedup_vs_scalar": round(scalar_s / inline_s, 2),
                "phase_s": {
                    "materialize": round(inline.phase_s.materialize, 3),
                    "simulate": round(inline.phase_s.simulate, 3),
                    "classify": round(inline.phase_s.classify, 3),
                    "fold": round(inline.phase_s.fold, 3),
                },
            },
            "scalar": {
                "elapsed_s": round(scalar_s, 3),
                "scenarios_per_sec": round(scalar.scenarios / scalar_s, 1),
            },
        },
        "queue": {
            "workers": _WORKERS,
            "elapsed_s": round(queued_s, 3),
            "scenarios_per_sec": round(queued.scenarios / queued_s, 1),
            "overhead_per_shard_s": round(
                (queued_s - inline_s) / len(plan.shards), 3
            ),
            "note": (
                "queue path includes spawn-context worker start-up and "
                "per-shard target decoding (amortized by worker-side "
                "context caches); workers replay through the batched "
                "kernel"
            ),
        },
    }
    write_bench_record(BENCH_PATH, record)

    assert record["inject"]["ok"] is True
    assert record["inject"]["scenarios_per_sec"] > 0
    assert record["inject"]["batch"]["speedup_vs_scalar"] > 1.0
    assert inline.draws == plan.total_scenarios
