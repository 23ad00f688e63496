"""Wire format of fault-injection shard jobs and results.

Shard jobs ride the same broker as optimizer jobs
(:mod:`repro.io.queue_codec`), distinguished by a ``"kind"`` marker in
the payload — legacy :class:`~repro.experiments.parallel.CaseJob`
payloads carry no marker and stay byte-identical, so existing sweep
fingerprints are unaffected.

A shard job embeds the full :class:`~repro.inject.target.InjectTarget`
(application, fault model, implementation, schedule record) as canonical
JSON next to its fingerprint: any ``ftds worker`` on any machine can
lease it cold, rebuild the replay context deterministically and
re-materialize the shard's scenario set from coordinates alone.  A
worker that already holds the context for that fingerprint never decodes
the target; one that does not decodes it and checks it against the
claimed fingerprint before caching the context.  The job's durable
identity is :func:`repro.inject.partition.shard_fingerprint` — a function
of the target fingerprint and the shard coordinates, **not** of the
payload text, so it survives codec-layer reformatting.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import QueueError
from repro.inject.aggregate import PhaseSeconds, ShardResult
from repro.inject.partition import ShardSpec
from repro.inject.target import InjectTarget
from repro.io.codec import (
    FORMAT_VERSION,
    canonical_json,
    check_version,
    decode,
    encode,
)
from repro.io.queue_codec import parse_payload

#: Payload marker of shard jobs (see :func:`repro.io.queue_codec.payload_kind`).
INJECT_JOB_KIND = "inject_shard"


#: Stand-in for the spec while a target's shared envelope text is built.
_SPEC_SLOT = "<spec>"


def shard_job_encoder(
    target_dict: dict[str, Any], target_fp: str
) -> Callable[[ShardSpec], str]:
    """The shard-job payload encoder of one target.

    A driver enqueueing hundreds of shards of one target serializes the
    (large, shared) target once, here: the job envelope is encoded with a
    stand-in spec and split around it, and each payload splices its own
    spec's canonical JSON in between.  Sorted keys put ``spec`` right
    after the constant ``kind``, so the first occurrence of the stand-in
    is the spec's slot whatever the target holds.
    """
    head, _, tail = canonical_json(
        {
            "kind": INJECT_JOB_KIND,
            "version": FORMAT_VERSION,
            "target": target_dict,
            "target_fingerprint": target_fp,
            "spec": _SPEC_SLOT,
        }
    ).partition(canonical_json(_SPEC_SLOT))

    def encode_job(spec: ShardSpec) -> str:
        return head + canonical_json(encode(spec)) + tail

    return encode_job


def encode_shard_job(
    target_dict: dict[str, Any], target_fp: str, spec: ShardSpec
) -> str:
    """Canonical payload of one shard job (see :func:`shard_job_encoder`)."""
    return shard_job_encoder(target_dict, target_fp)(spec)


def decode_shard_job(
    data: dict[str, Any],
) -> tuple[ShardSpec, str, Callable[[], InjectTarget]]:
    """Decode one parsed shard job: ``(spec, target fingerprint, load)``.

    ``load()`` decodes the embedded target and raises
    :class:`QueueError` unless it hashes to the claimed fingerprint, so
    a context is never cached under a key its target does not have.
    """
    _check_envelope(data, "shard job")
    for key in ("target", "target_fingerprint", "spec"):
        if key not in data:
            raise QueueError(f"shard job payload has no {key!r}")
    target_fp = data["target_fingerprint"]

    def load() -> InjectTarget:
        target = decode(InjectTarget, data["target"], QueueError)
        actual = target.fingerprint()
        if actual != target_fp:
            raise QueueError(
                f"shard target hashes to {actual[:12]}, "
                f"its payload claims {str(target_fp)[:12]}"
            )
        return target

    return decode(ShardSpec, data["spec"], QueueError), target_fp, load


def encode_shard_result(result: ShardResult) -> str:
    """One acked shard result (the broker's stored result text)."""
    return canonical_json(
        {
            "kind": INJECT_JOB_KIND,
            "version": FORMAT_VERSION,
            "result": encode(result),
        }
    )


def decode_shard_result(text: str) -> ShardResult:
    data = parse_payload(text)
    _check_envelope(data, "shard result")
    result = data["result"]
    if isinstance(result, dict) and "phase_s" not in result:
        # Results stored before per-phase timing existed fold with zero
        # phase times.
        result = {**result, "phase_s": encode(PhaseSeconds())}
    return decode(ShardResult, result, QueueError)


def _check_envelope(data: dict[str, Any], name: str) -> None:
    if data.get("kind") != INJECT_JOB_KIND:
        raise QueueError(f"payload is not an inject {name}")
    check_version(data, QueueError, name)
