"""Queue-overhead benchmark: what does broker plumbing cost per job?

Two measurements, recorded to ``BENCH_queue.json`` at the repository root
(uploaded by CI next to the other BENCH artifacts):

* **broker micro-ops** — enqueue / lease+ack throughput of both backends
  on synthetic payloads, i.e. the queue's bookkeeping ceiling;
* **sweep overhead** — one tiny deterministic sweep run through the
  process pool versus through the SQLite broker with the same number of
  worker processes; the per-job delta is the end-to-end price of
  durability (JSON codec + SQLite writes + worker validation), the cost a
  multi-machine run pays for resumability.

The numbers are wall-clock and therefore noisy; CI records the trend, the
assertions only guard sanity (every op completes, results match).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.experiments.parallel import run_case_jobs, sweep_jobs
from repro.opt.strategy import OptimizationConfig
from repro.queue.memory import MemoryBroker
from repro.queue.sqlite import SqliteBroker

from benchmarks.conftest import bench_stamp, write_bench_record

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_queue.json"

#: Synthetic payload roughly the size of an encoded CaseJob.
_PAYLOAD = json.dumps({"n_processes": 40, "variants": ["NFT", "MXR"]} | {
    f"knob_{i}": i * 0.5 for i in range(10)
})
_MICRO_OPS = 300

#: Deterministic sweep (no wall-clock limit): pool and queue runs search
#: identically, so their wall-clock difference is pure plumbing.
_TINY = OptimizationConfig(
    minimize=True, rounds=1, greedy_max_iterations=3, tabu_max_iterations=2
)
_DIMS = ((8, 2, 2), (10, 2, 2))
_SEEDS = (0, 1)
_WORKERS = 2


def _micro_ops(make_broker) -> dict:
    broker = make_broker()
    try:
        started = time.perf_counter()
        for index in range(_MICRO_OPS):
            broker.enqueue(f"fp{index}", _PAYLOAD)
        enqueue_s = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(_MICRO_OPS):
            leased = broker.lease("bench-worker", 60.0)
            broker.ack(leased.fingerprint, _PAYLOAD)
        lease_ack_s = time.perf_counter() - started
    finally:
        broker.close()
    return {
        "ops": _MICRO_OPS,
        "enqueue_per_sec": round(_MICRO_OPS / enqueue_s, 1),
        "lease_ack_per_sec": round(_MICRO_OPS / lease_ack_s, 1),
    }


def test_queue_overhead_records_bench_json(tmp_path):
    jobs = sweep_jobs(_DIMS, _SEEDS, ("NFT",), 5.0, 1.0, _TINY, tag="bench")

    started = time.perf_counter()
    pool_results = run_case_jobs(jobs, n_jobs=_WORKERS)
    pool_s = time.perf_counter() - started

    broker = SqliteBroker(tmp_path / "bench-queue.db")
    try:
        started = time.perf_counter()
        queue_results = run_case_jobs(jobs, n_jobs=_WORKERS, broker=broker)
        queue_s = time.perf_counter() - started
    finally:
        broker.close()

    # Same deterministic searches either way.
    assert [r["NFT"].makespan for r in pool_results] == [
        r["NFT"].makespan for r in queue_results
    ]

    record = {
        "stamp": bench_stamp(),
        "benchmark": "queue_overhead",
        "brokers": {
            "memory": _micro_ops(MemoryBroker),
            "sqlite": _micro_ops(
                lambda: SqliteBroker(tmp_path / "bench-micro.db")
            ),
        },
        "sweep": {
            "n_jobs": len(jobs),
            "workers": _WORKERS,
            "pool_elapsed_s": round(pool_s, 3),
            "queue_elapsed_s": round(queue_s, 3),
            "overhead_per_job_s": round((queue_s - pool_s) / len(jobs), 3),
            "note": (
                "queue path includes worker-side validate_record fault "
                "injection and spawn-context worker start-up; the pool "
                "path does neither"
            ),
        },
    }
    write_bench_record(BENCH_PATH, record)

    for backend in record["brokers"].values():
        assert backend["enqueue_per_sec"] > 0
        assert backend["lease_ack_per_sec"] > 0
