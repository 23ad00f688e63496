"""Broker protocol of the distributed experiment queue.

A *broker* is a durable (or test-scoped) job store with at-least-once
delivery semantics:

* :meth:`Broker.enqueue` registers a job under a caller-chosen
  *fingerprint* (the durable identity used for resume/checkpointing;
  see :func:`repro.io.queue_codec.job_fingerprint`).  Enqueueing an
  already-known fingerprint is a no-op, which is what makes sweep
  submission idempotent.
* :meth:`Broker.lease` hands the oldest queued job to a worker for at
  most ``lease_s`` seconds.  A worker that crashes simply never acks;
  once the lease expires the job is redelivered to the next caller.
  Every delivery increments the job's attempt counter, and a job that
  exhausts ``max_attempts`` deliveries is *dead-lettered* instead of
  being retried forever.
* :meth:`Broker.ack` stores the result and completes the job.  Results
  of this workload are deterministic functions of the payload, so acks
  are accepted even after a lease expired and the job was handed to a
  second worker — last write wins and both writes are identical.
* :meth:`Broker.nack` returns a failed job to the queue (or dead-letters
  it once its attempts are exhausted), recording the error.

Payloads, results and errors are opaque text to the broker; the codecs
in :mod:`repro.io.queue_codec` define what travels inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

#: Default delivery budget before a job is dead-lettered.
DEFAULT_MAX_ATTEMPTS = 3

#: Job lifecycle states as stored by every backend.
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
DEAD = "dead"


@dataclass(frozen=True)
class LeasedJob:
    """One delivery: the payload plus its delivery metadata."""

    fingerprint: str
    payload: str
    attempt: int  # 1-based delivery count, this delivery included
    worker_id: str


@dataclass(frozen=True)
class QueueCounts:
    """Aggregate queue state (one row per lifecycle state)."""

    queued: int = 0
    leased: int = 0
    done: int = 0
    dead: int = 0

    @property
    def unfinished(self) -> int:
        """Jobs that may still produce a result (queued or in flight)."""
        return self.queued + self.leased

    @property
    def total(self) -> int:
        return self.queued + self.leased + self.done + self.dead


def publish_queue_counts(counts: QueueCounts, registry=None) -> QueueCounts:
    """Mirror a pending() poll into ``queue.depth.*`` gauges; returns it.

    Drivers call this on every collection poll so a registry snapshot (or
    Prometheus export) always carries the last observed queue depth.
    """
    if registry is None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
    registry.set("queue.depth.queued", counts.queued)
    registry.set("queue.depth.leased", counts.leased)
    registry.set("queue.depth.done", counts.done)
    registry.set("queue.depth.dead", counts.dead)
    return counts


@dataclass(frozen=True)
class DeadLetter:
    """A job that exhausted its delivery attempts, with its last error."""

    fingerprint: str
    payload: str
    attempts: int
    error: str


class Broker(Protocol):
    """Work-queue backend contract (see module docstring for semantics)."""

    def enqueue(
        self,
        fingerprint: str,
        payload: str,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> bool:
        """Register a job; returns False if the fingerprint already exists."""
        ...

    def lease(self, worker_id: str, lease_s: float) -> LeasedJob | None:
        """Deliver the oldest queued job, or None if nothing is queued."""
        ...

    def ack(self, fingerprint: str, result: str) -> None:
        """Complete a job, storing its result."""
        ...

    def nack(self, fingerprint: str, error: str) -> None:
        """Fail a delivery: requeue the job or dead-letter it."""
        ...

    def pending(self) -> QueueCounts:
        """Counts per lifecycle state, after sweeping lapsed leases."""
        ...

    def state(self, fingerprint: str) -> str | None:
        """Lifecycle state of one job (None if unknown)."""
        ...

    def states(self) -> dict[str, str]:
        """fingerprint -> stored lifecycle state for every known job.

        A plain read: a lapsed lease reads ``leased`` until the next
        :meth:`pending` or :meth:`lease` sweeps it.
        """
        ...

    def result(self, fingerprint: str) -> str | None:
        """The acked result of a done job (None otherwise)."""
        ...

    def dead_letters(self) -> list[DeadLetter]:
        """Every dead-lettered job with its final error."""
        ...

    def reset_dead(self) -> int:
        """Requeue all dead jobs with a fresh attempt budget; returns count."""
        ...

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        ...
