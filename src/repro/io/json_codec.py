"""Case files and schedule exports.

A downstream user needs to persist three things: the *problem* (application
+ architecture + fault model), the *solution* (policies + mapping + bus
configuration) and, for deployment, the synthesized *schedule tables* and
MEDL.  Problems and solutions round-trip losslessly through one case file
(:func:`save_case` / :func:`load_case`), each part in its
:mod:`repro.io.codec` form; a malformed file raises :class:`ModelError`.
Schedules are export-only (they are deterministically derivable from a
solution via :func:`repro.schedule.list_schedule`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ModelError
from repro.io.codec import FORMAT_VERSION, check_version, decode, encode
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault import FaultModel
from repro.opt.implementation import Implementation
from repro.schedule.table import SystemSchedule


# -- schedule (export only) ----------------------------------------------------

def schedule_to_dict(schedule: SystemSchedule) -> dict[str, Any]:
    """Deployable artefact: per-node tables, MEDL, analysis results."""
    return {
        "version": FORMAT_VERSION,
        "fault_model": {"k": schedule.faults.k, "mu": schedule.faults.mu},
        "bus": encode(schedule.bus),
        "nodes": {
            node: [
                {
                    "instance": placed.instance_id,
                    "process": placed.process,
                    "start": placed.root_start,
                    "finish": placed.root_finish,
                    "worst_case_finish": placed.wcf,
                }
                for placed in schedule.node_table(node)
            ]
            for node in sorted(schedule.node_chains)
        },
        "medl": [
            {
                "message": d.bus_message_id,
                "sender": d.sender_node,
                "round": d.round_index,
                "slot_start": d.slot_start,
                "slot_end": d.slot_end,
                "offset_bytes": d.offset_bytes,
                "size_bytes": d.size_bytes,
            }
            for d in sorted(
                schedule.medl, key=lambda d: (d.slot_start, d.offset_bytes)
            )
        ],
        "completions": dict(schedule.completions),
        "schedule_length": schedule.makespan,
        "schedulable": schedule.is_schedulable,
    }


# -- whole cases ---------------------------------------------------------------

def save_case(
    path: str | Path,
    application: Application,
    architecture: Architecture,
    faults: FaultModel,
    implementation: Implementation | None = None,
) -> None:
    """Persist a problem (and optionally its solution) as one JSON file."""
    payload: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "application": encode(application),
        "architecture": encode(architecture),
        "fault_model": encode(faults),
    }
    if implementation is not None:
        payload["implementation"] = encode(implementation)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_case(
    path: str | Path,
) -> tuple[Application, Architecture, FaultModel, Implementation | None]:
    """Inverse of :func:`save_case`."""
    payload = json.loads(Path(path).read_text())
    check_version(payload, ModelError, "case file")
    return (
        decode(Application, payload["application"]),
        decode(Architecture, payload["architecture"]),
        decode(FaultModel, payload["fault_model"]),
        decode(Implementation | None, payload.get("implementation")),
    )
