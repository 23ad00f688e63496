"""Serialization of models, implementations, schedules and queue payloads.

:mod:`repro.io.codec` is the one wire codec: :func:`encode` and
:func:`decode` derive the JSON form of every wire dataclass from its
fields.  :mod:`repro.io.json_codec` persists problems and solutions as
case files; the queue and injection envelopes (jobs, results, shards,
fingerprints) live in :mod:`repro.io.queue_codec` and
:mod:`repro.io.inject_codec`, which the queue subsystem imports lazily —
they are not re-exported here to keep ``import repro.io`` free of the
experiments layer.
"""

from repro.io.codec import canonical_json, decode, encode
from repro.io.json_codec import load_case, save_case, schedule_to_dict

__all__ = [
    "canonical_json",
    "decode",
    "encode",
    "load_case",
    "save_case",
    "schedule_to_dict",
]
