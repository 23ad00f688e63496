"""One wire codec for every type that leaves the process as JSON.

Problems and solutions (case files, :mod:`repro.io.json_codec`), schedule
records, queue jobs and results (:mod:`repro.io.queue_codec`) and
injection targets and shard results (:mod:`repro.io.inject_codec`) all
cross through :func:`encode` and :func:`decode`.  Both derive the JSON
form of a dataclass from the dataclass itself, so a field added to a wire
type crosses the wire with no codec edit:

* **encode** — a dataclass becomes a dict of its ``init`` fields (plus
  ``version`` for the types listed in :func:`_versioned`); tuples and
  lists become lists, mappings dicts, and scalars pass through;
* **decode** — the inverse, driven by the field type hints: ``X | None``,
  ``tuple[T, ...]``, fixed-length scalar tuples, ``list[T]``,
  ``dict[str, T]``/``Mapping[str, T]`` and nested dataclasses.  The
  three wire containers that are not dataclasses
  (:class:`ProcessGraph`, :class:`PolicyAssignment`,
  :class:`ReplicaMapping`) cross as a typed form each (:data:`_FORMS`).

**Decode rule.** A decoded dict holds exactly the keys its encoder
writes: every ``init`` field, plus ``version`` where the type carries
one.  ``version`` may be omitted; when present it must equal
:data:`FORMAT_VERSION`.  A missing or unknown key raises the caller's
error class (``QueueError`` for queue payloads, ``ModelError`` for case
files) with a message naming the type and the key.  Decoding a dataclass
that defines ``validate()`` calls it.

Per-type encoders and decoders are built once, on first use, with
scalar and tuple-of-scalar fields copied by one builtin call; the target
fingerprint of every injection sweep encodes a whole problem, solution
and record.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from types import NoneType, UnionType
from typing import Any, Callable

from repro.errors import ModelError, ReproError
from repro.model.application import Application, Message, Process, ProcessGraph
from repro.model.architecture import Architecture
from repro.model.fault import FaultModel
from repro.model.mapping import ReplicaMapping
from repro.model.policy import Policy, PolicyAssignment
from repro.opt.implementation import Implementation
from repro.schedule.record import ScheduleRecord

#: Version of every versioned wire dict and envelope (bump on a layout
#: change; decoders reject any other value).
FORMAT_VERSION = 1

_Converter = Callable[[Any], Any]


def canonical_json(data: Any) -> str:
    """Serialize ``data`` deterministically (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def check_version(
    data: dict[str, Any], error: type[Exception], name: str
) -> None:
    """Raise ``error`` unless ``data``'s optional ``version`` is current."""
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise error(
            f"{name}: unsupported format version {version} "
            f"(expected {FORMAT_VERSION})"
        )


def encode(value: Any) -> Any:
    """The JSON-safe form of a wire object (see the module docstring)."""
    return _converters(type(value))[0](value)


def decode(
    tp: Any, data: Any, error: type[ReproError] = ModelError
) -> Any:
    """Rebuild a value of type ``tp`` from its :func:`encode` form.

    A dict that breaks the decode rule raises ``error``; the types' own
    constructors raise their usual errors on invalid values.
    """
    try:
        return _converters(tp)[1](data)
    except _Mismatch as mismatch:
        raise error(str(mismatch)) from None


class _Mismatch(Exception):
    """A dict breaks the decode rule (re-raised as the caller's error)."""


def _plain(value: Any) -> Any:
    return value


_PLAIN = (_plain, _plain)


def _versioned(cls: type) -> bool:
    """Whether ``cls``'s dict carries ``version`` (the standalone
    documents: case-file parts, schedule records and queue jobs)."""
    # Imported here: the experiments layer imports repro.obs, which
    # imports this package for canonical_json.
    from repro.experiments.parallel import CaseJob

    return cls in (
        Application, Architecture, FaultModel, Implementation,
        ScheduleRecord, CaseJob,
    )


@cache
def _converters(tp: Any) -> tuple[_Converter, _Converter]:
    """``(encode, decode)`` of values of type ``tp``, built once per type."""
    if tp in _FORMS:
        form, to_form, from_form = _FORMS[tp]
        enc, dec = _converters(form)
        return (
            lambda value: enc(to_form(value)),
            lambda data: from_form(dec(data)),
        )
    if dataclasses.is_dataclass(tp):
        return _dataclass_converters(tp)
    if tp in (str, int, float, bool, NoneType):
        return _PLAIN
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, UnionType):
        (inner,) = [arg for arg in args if arg is not NoneType]
        enc, dec = _converters(inner)
        if (enc, dec) == _PLAIN:
            return _PLAIN
        return (
            lambda value: None if value is None else enc(value),
            lambda data: None if data is None else dec(data),
        )
    if origin in (tuple, list):
        items = [arg for arg in args if arg is not Ellipsis]
        if all(_converters(arg) == _PLAIN for arg in items):
            return list, origin
        if len(items) == 1 and (origin is list or args[-1] is Ellipsis):
            enc, dec = _converters(items[0])
            return (
                lambda value: [enc(item) for item in value],
                lambda data: origin(dec(item) for item in data),
            )
    if origin in (dict, Mapping) and args[0] is str:
        enc, dec = _converters(args[1])
        if (enc, dec) == _PLAIN:
            return dict, dict
        return (
            lambda value: {key: enc(item) for key, item in value.items()},
            lambda data: {key: dec(item) for key, item in data.items()},
        )
    raise TypeError(f"no wire codec for {tp!r}")


def _dataclass_converters(cls: type) -> tuple[_Converter, _Converter]:
    hints = typing.get_type_hints(cls)
    fields = [
        (field.name, *_converters(hints[field.name]))
        for field in dataclasses.fields(cls)
        if field.init
    ]
    names = frozenset(name for name, _, _ in fields)
    versioned = _versioned(cls)
    name = cls.__name__

    def encode_fields(value: Any) -> dict[str, Any]:
        data = {"version": FORMAT_VERSION} if versioned else {}
        for field, enc, _ in fields:
            data[field] = enc(getattr(value, field))
        return data

    def decode_fields(data: Any) -> Any:
        if not isinstance(data, dict):
            raise _Mismatch(
                f"{name} must be a JSON object, got {type(data).__name__}"
            )
        keys = data.keys() - {"version"} if versioned else data.keys()
        if keys != names:
            raise _Mismatch(
                f"{name} keys do not match: missing {sorted(names - keys)}, "
                f"unknown {sorted(keys - names)}"
            )
        if versioned:
            check_version(data, _Mismatch, name)
        value = cls(**{field: dec(data[field]) for field, _, dec in fields})
        if hasattr(value, "validate"):
            value.validate()
        return value

    return encode_fields, decode_fields


# -- wire forms of the containers that are not dataclasses ------------------

@dataclass(frozen=True)
class _ProcessGraphForm:
    name: str
    period: float | None
    deadline: float | None
    processes: list[Process]
    messages: list[Message]


def _graph_form(graph: ProcessGraph) -> _ProcessGraphForm:
    return _ProcessGraphForm(
        graph.name, graph.period, graph.deadline,
        list(graph.processes.values()), list(graph.messages.values()),
    )


def _graph(form: _ProcessGraphForm) -> ProcessGraph:
    graph = ProcessGraph(form.name, period=form.period, deadline=form.deadline)
    for process in form.processes:
        graph.add_process(process)
    for message in form.messages:
        graph.add_message(message)
    return graph


#: ``type: (form, to_form, from_form)`` — each container crosses the wire
#: as the value of its typed form.
_FORMS: dict[type, tuple[Any, _Converter, _Converter]] = {
    ProcessGraph: (_ProcessGraphForm, _graph_form, _graph),
    PolicyAssignment: (
        dict[str, Policy], lambda policies: dict(policies.items()),
        PolicyAssignment,
    ),
    ReplicaMapping: (
        dict[str, tuple[str, ...]], lambda mapping: dict(mapping.items()),
        ReplicaMapping,
    ),
}
