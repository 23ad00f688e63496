"""In-memory broker: the reference implementation of the queue contract.

Backs tests and single-process "local distributed" runs (thread workers).
Thread-safe; the clock is injectable so lease-expiry behaviour can be
tested without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import QueueError
from repro.queue.broker import (
    DEAD,
    DEFAULT_MAX_ATTEMPTS,
    DONE,
    LEASED,
    QUEUED,
    DeadLetter,
    LeasedJob,
    QueueCounts,
)


@dataclass
class _Job:
    fingerprint: str
    payload: str
    max_attempts: int
    state: str = QUEUED
    attempts: int = 0
    worker_id: str = ""
    lease_expires: float = 0.0
    result: str | None = None
    error: str = ""


class MemoryBroker:
    """Queue contract over plain dicts guarded by one lock."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._order: list[str] = []  # FIFO of enqueue order

    # -- producer side -----------------------------------------------------

    def enqueue(
        self,
        fingerprint: str,
        payload: str,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> bool:
        with self._lock:
            if fingerprint in self._jobs:
                return False
            self._jobs[fingerprint] = _Job(fingerprint, payload, max_attempts)
            self._order.append(fingerprint)
            return True

    # -- consumer side -----------------------------------------------------

    def lease(self, worker_id: str, lease_s: float) -> LeasedJob | None:
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            for fingerprint in self._order:
                job = self._jobs[fingerprint]
                if job.state != QUEUED:
                    continue
                job.state = LEASED
                job.attempts += 1
                job.worker_id = worker_id
                job.lease_expires = now + lease_s
                return LeasedJob(
                    fingerprint=fingerprint,
                    payload=job.payload,
                    attempt=job.attempts,
                    worker_id=worker_id,
                )
            return None

    def ack(self, fingerprint: str, result: str) -> None:
        with self._lock:
            job = self._require(fingerprint)
            job.state = DONE
            job.result = result
            job.error = ""

    def nack(self, fingerprint: str, error: str) -> None:
        with self._lock:
            job = self._require(fingerprint)
            if job.state == DONE:
                return  # a twin delivery already completed the job
            job.error = error
            if job.attempts >= job.max_attempts:
                job.state = DEAD
            else:
                job.state = QUEUED

    # -- observation -------------------------------------------------------

    def pending(self) -> QueueCounts:
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            counts = {QUEUED: 0, LEASED: 0, DONE: 0, DEAD: 0}
            for job in self._jobs.values():
                counts[job.state] += 1
            return QueueCounts(
                queued=counts[QUEUED],
                leased=counts[LEASED],
                done=counts[DONE],
                dead=counts[DEAD],
            )

    def state(self, fingerprint: str) -> str | None:
        with self._lock:
            job = self._jobs.get(fingerprint)
            return None if job is None else job.state

    def states(self) -> dict[str, str]:
        with self._lock:
            return {fp: job.state for fp, job in self._jobs.items()}

    def result(self, fingerprint: str) -> str | None:
        with self._lock:
            job = self._jobs.get(fingerprint)
            return None if job is None else job.result

    def attempts(self, fingerprint: str) -> int:
        with self._lock:
            return self._require(fingerprint).attempts

    def dead_letters(self) -> list[DeadLetter]:
        with self._lock:
            return [
                DeadLetter(job.fingerprint, job.payload, job.attempts, job.error)
                for fp in self._order
                if (job := self._jobs[fp]).state == DEAD
            ]

    def reset_dead(self) -> int:
        with self._lock:
            count = 0
            for job in self._jobs.values():
                if job.state == DEAD:
                    job.state = QUEUED
                    job.attempts = 0
                    count += 1
            return count

    def close(self) -> None:
        pass

    # -- internals ---------------------------------------------------------

    def _require(self, fingerprint: str) -> _Job:
        job = self._jobs.get(fingerprint)
        if job is None:
            raise QueueError(f"unknown job fingerprint {fingerprint!r}")
        return job

    def _expire_locked(self, now: float) -> None:
        """Requeue (or dead-letter) every job whose lease has lapsed."""
        for job in self._jobs.values():
            if job.state == LEASED and job.lease_expires < now:
                job.error = (
                    f"lease expired after delivery {job.attempts} "
                    f"(worker {job.worker_id})"
                )
                if job.attempts >= job.max_attempts:
                    job.state = DEAD
                else:
                    job.state = QUEUED
