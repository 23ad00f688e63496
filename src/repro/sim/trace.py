"""Event traces of simulated cycles (observability for the simulator).

Converts a :class:`repro.sim.engine.SimulationResult` into a flat,
time-ordered list of events — execution attempts, recoveries, frame
transmissions — suitable for logging, diffing two scenarios, or export to
CSV/JSON for external timeline viewers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

from repro.schedule.table import SystemSchedule
from repro.sim.engine import SimulationResult
from repro.ttp.bus import FRAME_EPS


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event of a simulated cycle."""

    time: float
    kind: str  # "start" | "fault" | "recovery" | "finish" | "dead" | "frame"
    node: str
    subject: str  # instance id or bus message id
    detail: str = ""


def build_trace(
    schedule: SystemSchedule,
    result: SimulationResult,
) -> list[TraceEvent]:
    """Reconstruct the event timeline of one simulated cycle."""
    events: list[TraceEvent] = []
    ft = schedule.ft
    mu = schedule.faults.mu

    for iid, record in result.executions.items():
        instance = ft.instance(iid)
        events.append(
            TraceEvent(record.start, "start", instance.node, iid)
        )
        # Reconstruct per-attempt fault/recovery timestamps.
        failed = record.attempts - (1 if record.produced else 0)
        clock = record.start + instance.wcet  # first attempt would end here
        for attempt in range(failed):
            events.append(
                TraceEvent(
                    clock,
                    "fault",
                    instance.node,
                    iid,
                    detail=f"attempt {attempt + 1} failed",
                )
            )
            events.append(
                TraceEvent(
                    clock + mu,
                    "recovery",
                    instance.node,
                    iid,
                    detail=f"re-execution {attempt + 1} starts",
                )
            )
            clock += mu + instance.recovery_unit
        if record.produced:
            events.append(
                TraceEvent(record.finish, "finish", instance.node, iid)
            )
        else:
            events.append(
                TraceEvent(
                    record.finish,
                    "dead",
                    instance.node,
                    iid,
                    detail="re-execution budget exhausted",
                )
            )

    for bus_message in ft.bus_messages.values():
        record = result.executions.get(bus_message.sender)
        if record is None:
            continue
        descriptor = schedule.medl[bus_message.id]
        sender_node = ft.instance(bus_message.sender).node
        valid = (
            record.produced
            and record.finish <= descriptor.slot_start + FRAME_EPS
        )
        events.append(
            TraceEvent(
                descriptor.slot_start,
                "frame",
                sender_node,
                bus_message.id,
                detail="valid" if valid else "empty (payload missed slot)",
            )
        )

    events.sort(key=lambda e: (e.time, e.kind, e.subject))
    return events


def trace_to_json(events: list[TraceEvent]) -> str:
    """Serialize a trace as a JSON array."""
    return json.dumps([asdict(event) for event in events], indent=2)


def trace_to_csv(events: list[TraceEvent]) -> str:
    """Serialize a trace as CSV (header + one row per event)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time", "kind", "node", "subject", "detail"])
    for event in events:
        writer.writerow(
            [f"{event.time:.3f}", event.kind, event.node, event.subject, event.detail]
        )
    return buffer.getvalue()


def format_trace(events: list[TraceEvent]) -> str:
    """Human-readable rendering, one line per event."""
    lines = []
    for event in events:
        detail = f"  ({event.detail})" if event.detail else ""
        lines.append(
            f"{event.time:9.2f} ms  {event.kind:<9} {event.node:<6} "
            f"{event.subject}{detail}"
        )
    return "\n".join(lines)
