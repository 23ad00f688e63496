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

Bus configurations reuse the dict codec of :mod:`repro.io.json_codec`;
the optimization config is encoded field by field from its dataclass
definition, so no field can be dropped on the wire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.errors import QueueError
from repro.experiments.parallel import CaseJob
from repro.experiments.runner import VariantRun
from repro.io.json_codec import _bus_from_dict, _bus_to_dict
from repro.opt.strategy import OptimizationConfig
from repro.schedule.record import ScheduleRecord

QUEUE_FORMAT_VERSION = 1


def canonical_json(data: Any) -> str:
    """Serialize ``data`` deterministically (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def payload_kind(text: str) -> str | None:
    """The ``"kind"`` marker of a queue payload, if it carries one.

    Workers dispatch on this: fault-injection shards declare
    ``"inject_shard"`` (:mod:`repro.io.inject_codec`) while legacy
    :class:`CaseJob` payloads carry no marker (``None``) and keep their
    original, byte-stable encoding.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise QueueError(f"undecodable job payload: {error}") from None
    if not isinstance(data, dict):
        raise QueueError("job payload must be a JSON object")
    kind = data.get("kind")
    return kind if isinstance(kind, str) else None


# -- optimization config ------------------------------------------------------

#: Wire codecs ``(encode, decode)`` of the config fields whose JSON form
#: differs from the attribute; every other field crosses as-is.
_CONFIG_CODECS = {
    "bus": (
        lambda bus: None if bus is None else _bus_to_dict(bus),
        lambda data: None if data is None else _bus_from_dict(data),
    ),
    "bus_scale_factors": (list, tuple),
}

#: Every :class:`OptimizationConfig` field, so a new field is encoded (and
#: demanded on decode) without touching this module.
_CONFIG_FIELDS = tuple(
    field.name for field in dataclasses.fields(OptimizationConfig)
)


def config_to_dict(config: OptimizationConfig) -> dict[str, Any]:
    data = {}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        codec = _CONFIG_CODECS.get(name)
        data[name] = value if codec is None else codec[0](value)
    return data


def config_from_dict(data: dict[str, Any]) -> OptimizationConfig:
    if not isinstance(data, dict):
        raise QueueError("optimization config must be a JSON object")
    missing = [name for name in _CONFIG_FIELDS if name not in data]
    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if missing or unknown:
        raise QueueError(
            f"optimization config fields do not match: missing {missing}, "
            f"unknown {unknown}"
        )
    values = {}
    for name in _CONFIG_FIELDS:
        codec = _CONFIG_CODECS.get(name)
        values[name] = data[name] if codec is None else codec[1](data[name])
    return OptimizationConfig(**values)


# -- jobs ---------------------------------------------------------------------

def case_job_to_dict(job: CaseJob) -> dict[str, Any]:
    return {
        "version": QUEUE_FORMAT_VERSION,
        "n_processes": job.n_processes,
        "n_nodes": job.n_nodes,
        "k": job.k,
        "mu": job.mu,
        "seed": job.seed,
        "variants": list(job.variants),
        "time_scale": job.time_scale,
        "config": None if job.config is None else config_to_dict(job.config),
        "label": job.label,
    }


def case_job_from_dict(data: dict[str, Any]) -> CaseJob:
    _check_version(data)
    config = data.get("config")
    return CaseJob(
        n_processes=data["n_processes"],
        n_nodes=data["n_nodes"],
        k=data["k"],
        mu=data["mu"],
        seed=data["seed"],
        variants=tuple(data["variants"]),
        time_scale=data["time_scale"],
        config=None if config is None else config_from_dict(config),
        label=data["label"],
    )


def encode_job(job: CaseJob) -> str:
    """Canonical job payload — the text whose hash identifies the job."""
    return canonical_json(case_job_to_dict(job))


def decode_job(text: str) -> CaseJob:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise QueueError(f"undecodable job payload: {error}") from None
    return case_job_from_dict(data)


def job_fingerprint(index: int, payload: str) -> str:
    """Durable identity of submission slot ``index`` of a sweep.

    The slot index participates so that a sweep may legitimately contain
    two identical jobs, and so that resuming re-maps results onto the same
    deterministic submission order the serial path uses.
    """
    return hashlib.sha256(f"{index}:{payload}".encode()).hexdigest()


# -- results ------------------------------------------------------------------

def variant_run_to_dict(run: VariantRun) -> dict[str, Any]:
    return {
        "variant": run.variant,
        "makespan": run.makespan,
        "schedulable": run.schedulable,
        "seconds": run.seconds,
        "evaluations": run.evaluations,
        "record": None if run.record is None else run.record.to_json_dict(),
    }


def variant_run_from_dict(data: dict[str, Any]) -> VariantRun:
    record = data.get("record")
    return VariantRun(
        variant=data["variant"],
        makespan=data["makespan"],
        schedulable=data["schedulable"],
        seconds=data["seconds"],
        evaluations=data["evaluations"],
        record=None if record is None else ScheduleRecord.from_json_dict(record),
    )


def encode_result(runs: dict[str, VariantRun], elapsed_s: float) -> str:
    """One acked job result: every variant's run plus worker wall-clock."""
    return canonical_json(
        {
            "version": QUEUE_FORMAT_VERSION,
            "elapsed_s": elapsed_s,
            "runs": {
                variant: variant_run_to_dict(run)
                for variant, run in runs.items()
            },
        }
    )


def decode_result(text: str) -> tuple[dict[str, VariantRun], float]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise QueueError(f"undecodable result payload: {error}") from None
    _check_version(data)
    runs = {
        variant: variant_run_from_dict(run)
        for variant, run in data["runs"].items()
    }
    return runs, data["elapsed_s"]


def _check_version(data: dict[str, Any]) -> None:
    version = data.get("version", QUEUE_FORMAT_VERSION)
    if version != QUEUE_FORMAT_VERSION:
        raise QueueError(
            f"unsupported queue format version {version} "
            f"(expected {QUEUE_FORMAT_VERSION})"
        )
