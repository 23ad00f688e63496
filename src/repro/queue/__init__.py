"""Distributed experiment queue: brokers, workers and the sweep driver.

The paper-scale Table 1 / Figure 10 sweeps and the fault-injection
campaigns are embarrassingly parallel; this package fans them out beyond
one machine.  A *broker* stores durable JSON job payloads with
at-least-once delivery (``enqueue / lease / ack / nack``), *workers*
lease jobs, optimize and fault-inject the winning schedules (or replay
injection shards) and ack validated results, and the one *driver*
enqueues either kind of sweep with resumable checkpoints and hands
results back as they land — experiment results in deterministic
submission order.  See EXPERIMENTS.md ("Distributed runs").
"""

from repro.queue.broker import (
    Broker,
    DEAD,
    DEFAULT_MAX_ATTEMPTS,
    DONE,
    DeadLetter,
    LEASED,
    LeasedJob,
    QUEUED,
    QueueCounts,
)
from repro.queue.driver import (
    SweepPlan,
    SweepStats,
    enqueue_sweep,
    run_sweep,
)
from repro.queue.memory import MemoryBroker
from repro.queue.sqlite import SqliteBroker
from repro.queue.worker import (
    DEFAULT_LEASE_S,
    DEFAULT_VALIDATE_SAMPLES,
    Worker,
    default_worker_id,
)

__all__ = [
    "Broker",
    "DEAD",
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_VALIDATE_SAMPLES",
    "DONE",
    "DeadLetter",
    "LEASED",
    "LeasedJob",
    "MemoryBroker",
    "QUEUED",
    "QueueCounts",
    "SqliteBroker",
    "SweepPlan",
    "SweepStats",
    "Worker",
    "default_worker_id",
    "enqueue_sweep",
    "run_sweep",
]
