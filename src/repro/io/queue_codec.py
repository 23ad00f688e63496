"""Wire format of the distributed experiment queue (canonical JSON).

Jobs (:class:`~repro.experiments.parallel.CaseJob`) and results
(:class:`~repro.experiments.runner.VariantRun` maps carrying
:class:`~repro.schedule.record.ScheduleRecord` IRs) cross machine
boundaries as canonical JSON text — sorted keys, no whitespace — so

* payloads are **pickle-free**: any worker process on any machine (or a
  non-Python consumer) can decode them;
* encoding is **byte-stable**: ``encode(decode(text)) == text``, which is
  what lets a job's canonical payload double as its durable identity
  (:func:`job_fingerprint`) for resume/checkpoint bookkeeping.

Jobs and runs go through :mod:`repro.io.codec`, so every field of a job
and of its optimization config crosses the wire, and a payload that
breaks the codec's decode rule raises :class:`QueueError`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import QueueError
from repro.experiments.parallel import CaseJob
from repro.experiments.runner import VariantRun
from repro.io.codec import (
    FORMAT_VERSION,
    canonical_json,
    check_version,
    decode,
    encode,
)


def parse_payload(text: str) -> dict[str, Any]:
    """The JSON object of one queue payload (job or result text)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise QueueError(f"undecodable queue payload: {error}") from None
    if not isinstance(data, dict):
        raise QueueError("queue payload must be a JSON object")
    return data


def payload_kind(text: str) -> str | None:
    """The ``"kind"`` marker of a queue payload, if it carries one.

    Workers dispatch on this: fault-injection shards declare
    ``"inject_shard"`` (:mod:`repro.io.inject_codec`) while legacy
    :class:`CaseJob` payloads carry no marker (``None``) and keep their
    original, byte-stable encoding.
    """
    kind = parse_payload(text).get("kind")
    return kind if isinstance(kind, str) else None


# -- jobs ---------------------------------------------------------------------

def encode_job(job: CaseJob) -> str:
    """Canonical job payload — the text whose hash identifies the job."""
    return canonical_json(encode(job))


def decode_job(text: str) -> CaseJob:
    return decode(CaseJob, parse_payload(text), QueueError)


def job_fingerprint(index: int, payload: str) -> str:
    """Durable identity of submission slot ``index`` of a sweep.

    The slot index participates so that a sweep may legitimately contain
    two identical jobs, and so that resuming re-maps results onto the same
    deterministic submission order the serial path uses.
    """
    return hashlib.sha256(f"{index}:{payload}".encode()).hexdigest()


# -- results ------------------------------------------------------------------

def encode_result(runs: dict[str, VariantRun], elapsed_s: float) -> str:
    """One acked job result: every variant's run plus worker wall-clock."""
    return canonical_json(
        {
            "version": FORMAT_VERSION,
            "elapsed_s": elapsed_s,
            "runs": {variant: encode(run) for variant, run in runs.items()},
        }
    )


def decode_result(text: str) -> tuple[dict[str, VariantRun], float]:
    data = parse_payload(text)
    check_version(data, QueueError, "job result")
    runs = decode(dict[str, VariantRun], data["runs"], QueueError)
    return runs, data["elapsed_s"]
