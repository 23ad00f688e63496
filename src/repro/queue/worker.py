"""Worker daemon: lease -> optimize -> validate -> ack.

A worker is the consumer side of the distributed experiment queue.  Each
iteration leases one JSON job payload, decodes it to a
:class:`~repro.experiments.parallel.CaseJob`, regenerates the case from
its deterministic seed and optimizes it via
:func:`~repro.experiments.parallel.run_case_job`.  Before acking, every
winning schedule is re-checked by fault injection
(:func:`repro.sim.validate.validate_record`) — a shipped schedule is never
trusted without the simulator having replayed it — and the validated
results travel back as canonical JSON.

Failures (decode errors, scheduling errors, validation violations) nack
the delivery with a descriptive error; the broker's bounded-retry policy
decides between redelivery and the dead-letter state.  A crash needs no
handling at all: the un-acked lease simply expires.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable

from repro import obs
from repro.queue.broker import Broker

#: Fault-injection sample budget per validated schedule (small systems are
#: enumerated exhaustively regardless; see repro.sim.validate).
DEFAULT_VALIDATE_SAMPLES = 20

#: Default lease duration; generous versus per-job optimization budgets so
#: healthy-but-slow workers are not preempted mid-search.
DEFAULT_LEASE_S = 600.0


def default_worker_id(suffix: str = "") -> str:
    host = socket.gethostname() or "worker"
    base = f"{host}-{os.getpid()}"
    return f"{base}-{suffix}" if suffix else base


class Worker:
    """Single-threaded consumer loop bound to one broker."""

    def __init__(
        self,
        broker: Broker,
        worker_id: str | None = None,
        lease_s: float = DEFAULT_LEASE_S,
        validate_samples: int | None = DEFAULT_VALIDATE_SAMPLES,
        poll_interval_s: float = 0.2,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.broker = broker
        self.worker_id = worker_id or default_worker_id()
        self.lease_s = lease_s
        self.validate_samples = validate_samples
        self.poll_interval_s = poll_interval_s
        self.progress = progress
        self.processed = 0
        self.failed = 0

    def run(self, drain: bool = False, max_jobs: int | None = None) -> int:
        """Consume jobs until stopped; returns the number acked.

        ``drain=True`` exits once the queue holds no queued *or* leased
        jobs (i.e. the sweep is fully acked or dead-lettered) instead of
        polling forever; ``max_jobs`` bounds the acks of this call (used
        by tests to simulate a worker that stops mid-sweep).
        """
        acked = 0
        registry = obs.get_registry()
        last_beat = time.monotonic()
        while max_jobs is None or acked < max_jobs:
            leased = self.broker.lease(self.worker_id, self.lease_s)
            if leased is None:
                if drain and self.broker.pending().unfinished == 0:
                    break
                time.sleep(self.poll_interval_s)
            else:
                registry.inc("queue.leases")
                if self.step(
                    leased.fingerprint, leased.payload, leased.attempt
                ):
                    acked += 1
            # Heartbeats (traced runs only): liveness + progress, at most
            # one every ~10s so an idle poll loop stays quiet.
            now = time.monotonic()
            if obs.enabled() and now - last_beat >= 10.0:
                last_beat = now
                obs.event(
                    "worker.heartbeat",
                    worker=self.worker_id,
                    processed=self.processed,
                    failed=self.failed,
                )
        return acked

    def step(self, fingerprint: str, payload: str, attempt: int) -> bool:
        """Process one delivery; returns True if the job was acked.

        Dispatches on the payload's ``"kind"`` marker: fault-injection
        shards (``"inject_shard"``) are simulated, everything else is the
        legacy optimizer job path — one worker fleet drains both.
        """
        # Imported here so worker processes pay the experiments-layer import
        # on first use and module import stays cheap for the CLI.
        from repro.io.queue_codec import parse_payload

        started = time.monotonic()
        label = fingerprint[:12]
        registry = obs.get_registry()
        with obs.span("job", fingerprint=fingerprint[:12]) as sp:
            try:
                data = parse_payload(payload)
                kind = data.get("kind")
                sp.set(kind=kind if isinstance(kind, str) else "case")
                if kind == "inject_shard":
                    from repro.inject.runner import replay_shard
                    from repro.inject.target import cached_context
                    from repro.io.inject_codec import (
                        decode_shard_job,
                        encode_shard_result,
                    )

                    # The target is decoded (and its claimed fingerprint
                    # checked) only when this worker has no context for it.
                    spec, target_fp, load_target = decode_shard_job(data)
                    label = f"{label}:{spec.describe()}"
                    context = cached_context(
                        target_fp, lambda: load_target().build_context()
                    )
                    result = replay_shard(context, spec, target_fp)
                    elapsed = time.monotonic() - started
                    self.broker.ack(fingerprint, encode_shard_result(result))
                else:
                    from repro.experiments.parallel import run_case_job
                    from repro.io.queue_codec import decode_job, encode_result

                    job = decode_job(payload)
                    label = job.describe()
                    runs = run_case_job(
                        job, validate_samples=self.validate_samples
                    )
                    elapsed = time.monotonic() - started
                    self.broker.ack(fingerprint, encode_result(runs, elapsed))
            except Exception as error:  # nack failures; broker bounds retries
                self.failed += 1
                registry.inc("queue.nacks")
                sp.set(outcome="nack", error=type(error).__name__)
                self.broker.nack(
                    fingerprint, f"{label}: {type(error).__name__}: {error}"
                )
                if self.progress is not None:
                    self.progress(
                        f"nack {label} (attempt {attempt}): "
                        f"{type(error).__name__}: {error}"
                    )
                return False
            registry.inc("queue.acks")
            registry.observe("queue.job_s", elapsed)
            sp.set(outcome="ack")
        self.processed += 1
        if self.progress is not None:
            self.progress(f"ack {label} ({elapsed:.1f}s, attempt {attempt})")
        return True
