"""Injection sweep driver: encode shards, fold their results as they land.

The shard adapter of the shared sweep driver
(:func:`repro.queue.driver.drive`, which owns submission, resume, dead
letters, liveness and timeouts, as for ``ftds sweep``).  A shard's
durable identity is :func:`~repro.inject.partition.shard_fingerprint`
(target fingerprint × shard coordinates).  Results are **folded as they
land, in any order**: the streaming
:class:`~repro.inject.aggregate.InjectAggregate` is order-independent,
so nothing stalls behind a slow early shard.

With ``broker=None`` the sweep runs inline — same plan, same shards,
same aggregate, no queue, no checkpointing — which is both the
no-dependency fallback and the reference the distributed path is tested
against.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.inject.aggregate import InjectAggregate
from repro.inject.partition import shard_fingerprint
from repro.inject.plan import SamplingPlan
from repro.inject.runner import DEFAULT_BATCH_SIZE, run_shard
from repro.inject.target import InjectTarget
from repro.obs.progress import ProgressReporter
from repro.queue.broker import Broker, DEFAULT_MAX_ATTEMPTS
from repro.queue.driver import SweepPlan, SweepStats, drive, enqueue
from repro.queue.worker import DEFAULT_LEASE_S


def _shard_jobs(
    target: InjectTarget, plan: SamplingPlan
) -> tuple[list[str], Iterator[str]]:
    """(fingerprints, lazily encoded payloads) of every shard of ``plan``.

    The target is serialized once per sweep; each payload adds only its
    shard's spec.
    """
    from repro.io.codec import encode
    from repro.io.inject_codec import shard_job_encoder

    target_fp = target.fingerprint()
    encode_job = shard_job_encoder(encode(target), target_fp)
    fingerprints = [shard_fingerprint(target_fp, spec) for spec in plan.shards]
    payloads = (encode_job(spec) for spec in plan.shards)
    return fingerprints, payloads


def enqueue_shards(
    target: InjectTarget,
    plan: SamplingPlan,
    broker: Broker,
    resume: bool = False,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> SweepPlan:
    """Submit every shard of ``plan`` idempotently (see
    :mod:`repro.queue.driver` for resume)."""
    fingerprints, payloads = _shard_jobs(target, plan)
    return enqueue(broker, fingerprints, payloads, resume, max_attempts)


def _phase_note(result) -> str:
    """Compact per-shard phase timing for progress lines."""
    phases = result.phase_s
    return (
        f"mat {phases.materialize:.2f}s/"
        f"sim {phases.simulate:.2f}s/"
        f"cls {phases.classify:.2f}s/"
        f"fold {phases.fold:.2f}s"
    )


def run_inject_sweep(
    target: InjectTarget,
    plan: SamplingPlan,
    broker: Broker | None = None,
    resume: bool = False,
    local_workers: int = 0,
    alpha: float = 0.05,
    progress: Callable[[str], None] | None = None,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll_interval_s: float = 0.1,
    timeout_s: float | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> tuple[InjectAggregate, SweepStats]:
    """Drive one injection sweep and return its folded aggregate.

    ``broker=None`` executes every shard inline in this process (no
    checkpointing); otherwise shards flow through the broker and
    ``local_workers`` consumer loops are attached for the duration, the
    same way ``ftds sweep`` does it.  ``batch_size`` controls the inline
    columnar replay block width (0 = scalar reference path); queue
    workers always replay through the batch default.
    """
    aggregate = InjectAggregate(plan=plan, alpha=alpha)
    reporter = ProgressReporter(
        progress, len(plan.shards), metric="inject.results"
    )
    if broker is None:
        stats = SweepStats(total=len(plan.shards))
        target_fp = target.fingerprint()
        for spec in plan.shards:
            result = run_shard(target, spec, target_fp, batch_size=batch_size)
            aggregate.fold(result)
            stats.completed += 1
            reporter.step(
                spec.describe(),
                note=(
                    f"{result.scenarios} scenarios, "
                    f"{result.violation_scenarios} violations, "
                    f"{_phase_note(result)}"
                ),
            )
        aggregate.publish_metrics()
        return aggregate, stats

    from repro.io.inject_codec import decode_shard_result

    def fold(index: int, text: str) -> None:
        result = decode_shard_result(text)
        aggregate.fold(result)
        reporter.step(
            plan.shards[index].describe(),
            note=(
                f"{result.scenarios} scenarios, "
                f"{result.violation_scenarios} violations, "
                f"residual<={aggregate.residual_upper_bound():.2e}, "
                f"{_phase_note(result)}"
            ),
        )

    fingerprints, payloads = _shard_jobs(target, plan)
    stats = drive(
        broker, fingerprints, payloads, fold,
        lambda index: plan.shards[index].describe(),
        resume=resume, local_workers=local_workers, progress=progress,
        lease_s=lease_s, max_attempts=max_attempts,
        poll_interval_s=poll_interval_s, timeout_s=timeout_s,
    )
    aggregate.publish_metrics()
    return aggregate, stats
