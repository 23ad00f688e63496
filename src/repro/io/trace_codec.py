"""Wire format of structured run traces (versioned, append-only JSONL).

A *trace* is a sequence of JSON objects, one per line, written append-only
by :class:`repro.obs.trace.Tracer`.  A distributed run produces one file
per participating process — the driver's file plus one sibling
``<path>.<worker_id>`` shard per worker — and every event carries the
run's ``run`` identifier, so the analysis layer
(:mod:`repro.obs.analyze`) stitches the shards back into one causal
trace by ``run_id`` alone.

Event kinds (the ``kind`` field):

``meta``
    First line of every file: who wrote it (``worker``, ``pid``) and
    under which run.
``span``
    One *completed* nested span, written at span exit: ``name``, file-
    local ``id``, ``parent`` id (``null`` for roots), start ``ts``
    (epoch seconds), duration ``dur`` (seconds), ``status`` (``ok`` /
    ``error`` — the error case carries the exception type in
    ``error``), and free-form JSON-scalar ``attrs``.  Children exit
    before their parents, so a child's line always precedes its
    parent's — the ordering invariant the tests pin down.
``event``
    An instantaneous point event (heartbeats, progress marks).
``metrics``
    A :meth:`repro.obs.metrics.MetricsRegistry.snapshot` embedded in
    the stream, so counters travel with the trace they explain.

The schema is versioned by ``v``; decoding rejects unknown versions and
malformed events loudly (:class:`~repro.errors.TraceError`) instead of
mis-summarizing a corrupt artifact.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Iterable, Iterator

from repro.errors import TraceError
from repro.io.codec import canonical_json

#: Bump when the event layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

KIND_META = "meta"
KIND_SPAN = "span"
KIND_EVENT = "event"
KIND_METRICS = "metrics"

SPAN_OK = "ok"
SPAN_ERROR = "error"

#: Required fields per event kind (on top of the common envelope).
_REQUIRED: dict[str, tuple[str, ...]] = {
    KIND_META: ("worker", "pid"),
    KIND_SPAN: ("name", "id", "parent", "dur", "status"),
    KIND_EVENT: ("name",),
    KIND_METRICS: ("snapshot",),
}


def encode_trace_event(event: dict[str, Any]) -> str:
    """One canonical JSONL line (sorted keys, no whitespace, no newline)."""
    return canonical_json(event)


def validate_trace_event(event: Any) -> dict[str, Any]:
    """Check one decoded event against the schema; returns it on success."""
    if not isinstance(event, dict):
        raise TraceError(f"trace event must be a JSON object, got {type(event).__name__}")
    version = event.get("v")
    if version != TRACE_SCHEMA_VERSION:
        raise TraceError(
            f"unsupported trace schema version {version!r} "
            f"(this build reads v{TRACE_SCHEMA_VERSION})"
        )
    for field in ("run", "kind"):
        if not isinstance(event.get(field), str) or not event[field]:
            raise TraceError(f"trace event missing {field!r}: {event!r}")
    if not isinstance(event.get("ts"), (int, float)):
        raise TraceError(f"trace event missing numeric 'ts': {event!r}")
    kind = event["kind"]
    if kind not in _REQUIRED:
        raise TraceError(f"unknown trace event kind {kind!r}")
    for field in _REQUIRED[kind]:
        if field not in event:
            raise TraceError(f"{kind} event missing {field!r}: {event!r}")
    if kind == KIND_SPAN:
        if event["status"] not in (SPAN_OK, SPAN_ERROR):
            raise TraceError(f"span status must be ok|error: {event!r}")
        if not isinstance(event["id"], int):
            raise TraceError(f"span id must be an int: {event!r}")
        parent = event["parent"]
        if parent is not None and not isinstance(parent, int):
            raise TraceError(f"span parent must be an int or null: {event!r}")
        if not isinstance(event["dur"], (int, float)) or event["dur"] < 0:
            raise TraceError(f"span dur must be a non-negative number: {event!r}")
        attrs = event.get("attrs", {})
        if not isinstance(attrs, dict):
            raise TraceError(f"span attrs must be an object: {event!r}")
    return event


def decode_trace_event(line: str) -> dict[str, Any]:
    """Decode and validate one JSONL line."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as error:
        raise TraceError(f"undecodable trace line: {error}") from None
    return validate_trace_event(event)


def iter_trace_events(path: str) -> Iterator[dict[str, Any]]:
    """Validated events of one trace file, in file order."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield decode_trace_event(line)
            except TraceError as error:
                raise TraceError(f"{path}:{number}: {error}") from None


def trace_files(path: str) -> list[str]:
    """``path`` plus every worker shard written next to it.

    A driver tracing to ``P`` spawns workers that write ``P.<worker_id>``
    siblings (see :func:`repro.obs.worker_trace_path`); globbing them
    back here is what lets every CLI analysis command take just the
    driver's path.
    """
    files = [path] if os.path.exists(path) else []
    files.extend(sorted(candidate for candidate in glob.glob(glob.escape(path) + ".*") if os.path.isfile(candidate)))
    if not files:
        raise TraceError(f"no trace file at {path}")
    return files


def expand_trace_paths(paths: Iterable[str]) -> list[str]:
    """Expand every given path to itself plus its worker shards (deduped)."""
    seen: dict[str, None] = {}
    for path in paths:
        for file in trace_files(path):
            seen.setdefault(file, None)
    return list(seen)
