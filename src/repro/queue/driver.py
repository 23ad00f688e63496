"""Sweep driver: enqueue jobs, attach workers, hand back results as they land.

The one broker loop both sweep families share: experiment jobs (Table 1
/ Figure 10 optimizations, :func:`run_sweep`) and fault-injection shards
(:func:`repro.inject.driver.run_inject_sweep`).  Each family is a thin
adapter that encodes its jobs to ``(fingerprint, payload)`` pairs and
decodes the result texts :func:`drive` hands back; submission, resume,
local workers, polling, dead letters, liveness and timeouts live here.

Resume semantics
----------------
A job's durable identity is the fingerprint its adapter chose: slot plus
canonical payload for experiment jobs
(:func:`repro.io.queue_codec.job_fingerprint`), target fingerprint plus
shard coordinates for shards
(:func:`repro.inject.partition.shard_fingerprint`).  Re-invoking the same
sweep against the same broker with ``resume=True``:

* jobs already ``done`` are *checkpoint hits* — their stored results are
  handed back instead of re-executed;
* ``queued``/``leased`` jobs are left alone (in-flight work is kept;
  leases of crashed workers lapse on their own);
* ``dead`` jobs get a fresh attempt budget, including a job whose final
  lease has lapsed: lapsed leases are swept before the states are read;
* unknown fingerprints are enqueued.

Without ``resume``, a broker that already holds jobs is refused — mixing
two different sweeps in one queue file is almost certainly a mistake —
and a broker holding jobs that are not part of this sweep is refused
either way, before anything is enqueued.

Results land in any order.  Experiment sweeps buffer them by slot and
report and return them **in submission order**, so the table/figure
aggregation code downstream is byte-for-byte shared with the serial
path; injection shards fold as they land (their aggregate is
order-independent).  Dead letters never hang the driver: once nothing is
queued or in flight, remaining dead jobs are reported via
:class:`~repro.errors.QueueError` with each job's description and final
error.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.errors import ConfigurationError, QueueError
from repro.experiments.parallel import CaseJob
from repro.experiments.runner import VariantRun
from repro.obs.progress import ProgressReporter
from repro.queue.broker import (
    Broker,
    DEFAULT_MAX_ATTEMPTS,
    DONE,
    DeadLetter,
    publish_queue_counts,
)
from repro.queue.memory import MemoryBroker
from repro.queue.sqlite import SqliteBroker
from repro.queue.worker import DEFAULT_LEASE_S, Worker


@dataclass
class SweepStats:
    """Bookkeeping of one driven sweep (checkpoint hits back resume tests)."""

    total: int = 0
    enqueued: int = 0
    checkpoint_hits: int = 0  # jobs already done when the sweep was submitted
    reset_dead: int = 0  # dead jobs granted a fresh budget on resume
    completed: int = 0  # results handed back this invocation
    dead: int = 0

    def summary(self) -> str:
        parts = [f"{self.completed}/{self.total} jobs completed"]
        if self.checkpoint_hits:
            parts.append(f"{self.checkpoint_hits} from checkpoint")
        if self.reset_dead:
            parts.append(f"{self.reset_dead} dead jobs retried")
        if self.dead:
            parts.append(f"{self.dead} dead-lettered")
        return ", ".join(parts)


@dataclass
class SweepPlan:
    """The enqueue outcome: per-slot identities plus submission stats."""

    fingerprints: list[str]
    stats: SweepStats = field(default_factory=SweepStats)


def enqueue(
    broker: Broker,
    fingerprints: Sequence[str],
    payloads: Iterable[str],
    resume: bool = False,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> SweepPlan:
    """Submit one sweep idempotently; see the module docstring for resume.

    ``payloads`` parallels ``fingerprints`` and is consumed once, in
    order, so an adapter may pass a generator.
    """
    # pending() sweeps lapsed leases (states() does not), so a job whose
    # final lease lapsed reads dead below and a resume re-budgets it.
    held = broker.pending().total
    if held and not resume:
        raise ConfigurationError(
            "broker already holds jobs; pass resume=True (--resume) to "
            "continue that sweep, or point at a fresh broker path"
        )
    plan = SweepPlan(list(fingerprints), SweepStats(total=len(fingerprints)))
    known = broker.states()
    orphans = set(known) - set(plan.fingerprints)
    if orphans:
        # Resuming with changed parameters produces all-new fingerprints:
        # without this check (done BEFORE any enqueue mutates the broker)
        # the old sweep's jobs would silently keep running — and keep
        # being paid for — alongside the new ones.
        raise ConfigurationError(
            f"broker holds {len(orphans)} job(s) that are not part of this "
            "sweep; a resumed sweep must use the original parameters — "
            "point changed sweeps at a fresh broker path"
        )
    if resume:
        plan.stats.reset_dead = broker.reset_dead()
    for fingerprint, payload in zip(plan.fingerprints, payloads):
        state = known.get(fingerprint)
        if state is None:
            broker.enqueue(fingerprint, payload, max_attempts)
            plan.stats.enqueued += 1
        elif state == DONE:
            plan.stats.checkpoint_hits += 1
    return plan


def drive(
    broker: Broker,
    fingerprints: Sequence[str],
    payloads: Iterable[str],
    on_result: Callable[[int, str], None],
    describe: Callable[[int], str],
    resume: bool = False,
    local_workers: int = 0,
    progress: Callable[[str], None] | None = None,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll_interval_s: float = 0.1,
    timeout_s: float | None = None,
) -> SweepStats:
    """Enqueue one sweep, attach local workers and collect every result.

    ``on_result(index, text)`` receives each job's stored result text as
    it lands (checkpoint hits included); ``describe(index)`` labels a job
    in dead-letter reports.  ``local_workers`` consumer loops run for the
    duration of the call — OS processes for a :class:`SqliteBroker` (the
    entry point ``ftds worker`` uses on other machines), daemon threads
    for a :class:`MemoryBroker`; with 0 the call relies entirely on
    externally attached workers.
    """
    with obs.span("enqueue") as sp:
        plan = enqueue(broker, fingerprints, payloads, resume, max_attempts)
        stats = plan.stats
        sp.set(total=stats.total, enqueued=stats.enqueued,
               checkpoint_hits=stats.checkpoint_hits)
    if stats.checkpoint_hits:
        ProgressReporter(progress, stats.total).announce(
            f"resume: {stats.checkpoint_hits}/{stats.total} jobs "
            "already complete (checkpoint hits)"
        )
    workers = _spawn_local_workers(broker, local_workers, lease_s)
    try:
        with obs.span("collect", jobs=stats.total) as sp:
            _collect(plan, broker, on_result, describe, workers,
                     poll_interval_s, timeout_s)
            sp.set(completed=stats.completed,
                   checkpoint_hits=stats.checkpoint_hits)
    except BaseException:
        # The caller asked to stop (timeout, dead letters, interrupt):
        # don't block on drain workers finishing the rest of the queue —
        # they are daemons and die with the process.
        for worker in workers:
            worker.join(timeout=1.0)
        raise
    for worker in workers:
        # Every slot is acked, so drain workers exit promptly.
        worker.join(timeout=lease_s + 30.0)
    return stats


def _collect(
    plan: SweepPlan,
    broker: Broker,
    on_result: Callable[[int, str], None],
    describe: Callable[[int], str],
    workers: list,
    poll_interval_s: float,
    timeout_s: float | None,
) -> None:
    """Poll until every result was handed to ``on_result``, or raise."""
    stats = plan.stats
    total = len(plan.fingerprints)
    index_of = {fp: index for index, fp in enumerate(plan.fingerprints)}
    waiting = dict(index_of)  # submission order
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while waiting:
        states = broker.states()
        for fingerprint in [fp for fp in waiting if states.get(fp) == DONE]:
            on_result(waiting.pop(fingerprint), broker.result(fingerprint))
            stats.completed += 1
        if not waiting:
            break
        counts = publish_queue_counts(broker.pending())
        if counts.unfinished == 0:
            # The final ack may have landed between the states() snapshot
            # and this pending() read; only an actual dead letter is
            # terminal — otherwise re-poll and collect the fresh results.
            letters = broker.dead_letters()
            if letters:
                _raise_dead_letters(letters, index_of, describe, stats)
            continue
        if workers and not any(worker.is_alive() for worker in workers):
            raise QueueError(
                f"all local workers exited with {len(waiting)} jobs "
                "unfinished and no remote workers attached"
            )
        if deadline is not None and time.monotonic() > deadline:
            raise QueueError(
                f"sweep timed out with {len(waiting)} of {total} jobs "
                "unfinished"
            )
        time.sleep(poll_interval_s)


def _raise_dead_letters(
    letters: list[DeadLetter],
    index_of: dict[str, int],
    describe: Callable[[int], str],
    stats: SweepStats,
) -> None:
    """Report dead-lettered jobs by description instead of hanging."""
    stats.dead = len(letters)
    obs.get_registry().set("queue.depth.dead", len(letters))
    details = []
    for letter in letters[:10]:
        index = index_of.get(letter.fingerprint)
        label = letter.fingerprint[:12] if index is None else describe(index)
        details.append(
            f"{label} (attempts {letter.attempts}): {letter.error}"
        )
    raise QueueError(
        f"sweep dead-lettered {len(letters)} job(s) after bounded retries: "
        + "; ".join(details)
    )


# -- experiment sweeps ------------------------------------------------------


def _encode_jobs(jobs: Sequence[CaseJob]) -> tuple[list[str], list[str]]:
    """(fingerprints, payloads) of an experiment job list."""
    from repro.io.queue_codec import encode_job, job_fingerprint

    payloads = [encode_job(job) for job in jobs]
    fingerprints = [
        job_fingerprint(index, payload)
        for index, payload in enumerate(payloads)
    ]
    return fingerprints, payloads


def enqueue_sweep(
    jobs: Sequence[CaseJob],
    broker: Broker,
    resume: bool = False,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> SweepPlan:
    """Submit ``jobs`` idempotently; see the module docstring for resume."""
    fingerprints, payloads = _encode_jobs(list(jobs))
    return enqueue(broker, fingerprints, payloads, resume, max_attempts)


def run_sweep(
    jobs: Sequence[CaseJob],
    broker: Broker,
    resume: bool = False,
    local_workers: int = 0,
    progress: Callable[[str], None] | None = None,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll_interval_s: float = 0.1,
    timeout_s: float | None = None,
) -> tuple[list[dict[str, VariantRun]], SweepStats]:
    """Drive one experiment sweep through ``broker`` (see :func:`drive`);
    results and progress lines come back in submission order."""
    from repro.io.queue_codec import decode_result

    job_list = list(jobs)
    fingerprints, payloads = _encode_jobs(job_list)
    slots: list = [None] * len(job_list)  # (runs, elapsed) per slot
    reporter = ProgressReporter(progress, len(job_list), metric="queue.results")

    def land(index: int, text: str) -> None:
        slots[index] = decode_result(text)
        # Report from the cursor (the first slot not yet reported) up to
        # the next slot still missing.
        while reporter.done < len(slots) and slots[reporter.done] is not None:
            _, elapsed = slots[reporter.done]
            reporter.step(job_list[reporter.done].describe(), elapsed_s=elapsed)

    stats = drive(
        broker, fingerprints, payloads, land,
        lambda index: job_list[index].describe(),
        resume=resume, local_workers=local_workers, progress=progress,
        lease_s=lease_s, max_attempts=max_attempts,
        poll_interval_s=poll_interval_s, timeout_s=timeout_s,
    )
    return [runs for runs, _ in slots], stats


# -- local worker attachment --------------------------------------------------

def _sqlite_worker_main(path: str, lease_s: float, suffix: str) -> None:
    """Entry point of one spawned local worker process."""
    from repro.queue.worker import default_worker_id

    worker_id = default_worker_id(suffix)
    # The spawn context copies os.environ, so a driver tracing with
    # export_env=True hands its run id to every local worker; each worker
    # writes its own shard file stitched back by `ftds trace summarize`.
    tracer = obs.adopt_env_tracing(worker_id)
    broker = SqliteBroker(path)
    try:
        Worker(
            broker,
            worker_id=worker_id,
            lease_s=lease_s,
            poll_interval_s=0.05,
        ).run(drain=True)
    finally:
        broker.close()
        if tracer is not None:
            tracer.snapshot_metrics()
            obs.disable_tracing()


def _spawn_local_workers(broker: Broker, count: int, lease_s: float) -> list:
    if count <= 0:
        return []
    if isinstance(broker, SqliteBroker):
        # "spawn" keeps the parent's live SQLite connection out of the
        # children; each worker process opens the file itself, exactly as
        # a remote `ftds worker --broker PATH` would.
        context = multiprocessing.get_context("spawn")
        processes = [
            context.Process(
                target=_sqlite_worker_main,
                args=(broker.path, lease_s, str(i)),
                daemon=True,
            )
            for i in range(count)
        ]
        for process in processes:
            process.start()
        return processes
    if isinstance(broker, MemoryBroker):
        threads = [
            threading.Thread(
                target=Worker(
                    broker,
                    worker_id=f"thread-{i}",
                    lease_s=lease_s,
                    poll_interval_s=0.01,
                ).run,
                kwargs={"drain": True},
                daemon=True,
            )
            for i in range(count)
        ]
        for thread in threads:
            thread.start()
        return threads
    raise ConfigurationError(
        f"cannot attach local workers to {type(broker).__name__}; "
        "run workers against it externally and call with local_workers=0"
    )
