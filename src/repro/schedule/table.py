"""Schedule views: the synthesized system configuration ``S`` (paper §4).

The canonical schedule artifact is the compact, immutable
:class:`repro.schedule.record.ScheduleRecord`; a :class:`SystemSchedule`
binds one record to its model context (merged graph, FT graph, fault model,
bus config) and *lazily* renders the classic object views from it — the
per-node schedule tables, the instance placements, the MEDL and the
guaranteed completions.  Nothing is materialized until a caller asks, so a
schedule that is only priced (the optimizer hot path) never grows beyond
its record.

Materialized views are cached and mutable on purpose: tests and what-if
tooling overwrite individual placements or completions, and the validator
reads its analytical bounds (``placements[iid].wcf``, ``completions``)
through the view, so it observes such edits.  Schedule facts do not: the
makespan, tardiness, degree of schedulability, completion lookup and
critical path are the record's own, so the view and the record cannot
disagree on them.  Replay structure also comes from the IR: the
simulator takes instance order and table start times from the record's
flat arrays, and contingency tables measure shifts against the record's
root schedule, so editing a view never alters *when* the synthesized
tables dispatch.  The record always keeps the as-synthesized truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph
from repro.schedule.record import BINDING_KINDS, ScheduleRecord
from repro.ttp.bus import BusConfig
from repro.ttp.medl import MEDL


@dataclass(frozen=True, slots=True)
class Binding:
    """Which constraint fixed an instance's root start time.

    ``kind`` is ``"release"`` (its release time), ``"node"`` (the previous
    instance in the node's schedule; ``source`` is its id) or ``"input"``
    (an input arrival; ``source`` is the sender instance id).
    """

    kind: str
    source: str | None = None


@dataclass(frozen=True, slots=True)
class ScheduledInstance:
    """One row of a node's static schedule table."""

    instance_id: str
    process: str
    node: str
    root_start: float
    root_finish: float
    wcf: float
    finish_row: tuple[float, ...]
    binding: Binding


class SystemSchedule:
    """Thin view over a :class:`ScheduleRecord` bound to its model context."""

    __slots__ = (
        "record",
        "graph",
        "ft",
        "faults",
        "bus",
        "_placements",
        "_order",
        "_node_chains",
        "_completions",
        "_medl",
    )

    def __init__(
        self,
        record: ScheduleRecord,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
    ) -> None:
        self.record = record
        self.graph = graph
        self.ft = ft
        self.faults = faults
        self.bus = bus
        self._placements: dict[str, ScheduledInstance] | None = None
        self._order: list[str] | None = None
        self._node_chains: dict[str, list[str]] | None = None
        self._completions: dict[str, float] | None = None
        self._medl: MEDL | None = None

    @classmethod
    def from_record(
        cls,
        record: ScheduleRecord,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
    ) -> "SystemSchedule":
        """Rebind a record (e.g. one shipped from a worker) to its context."""
        return cls(record, graph, ft, faults, bus)

    # -- lazily materialized views ----------------------------------------

    @property
    def placements(self) -> dict[str, ScheduledInstance]:
        """Instance id -> schedule-table row, rendered from the record."""
        if self._placements is None:
            record = self.record
            ids = record.instance_ids
            placements: dict[str, ScheduledInstance] = {}
            for index, iid in enumerate(ids):
                kind, source, _ = record.bindings[index]
                placements[iid] = ScheduledInstance(
                    instance_id=iid,
                    process=record.processes[record.instance_process[index]],
                    node=record.nodes[record.instance_node[index]],
                    root_start=record.root_start[index],
                    root_finish=record.root_finish[index],
                    wcf=record.wcf[index],
                    finish_row=record.finish_rows[index],
                    binding=Binding(
                        kind=BINDING_KINDS[kind],
                        source=None if source < 0 else ids[source],
                    ),
                )
            self._placements = placements
        return self._placements

    @property
    def order(self) -> list[str]:
        """Instance ids in placement (= simulation replay) order."""
        if self._order is None:
            self._order = list(self.record.instance_ids)
        return self._order

    @property
    def node_chains(self) -> dict[str, list[str]]:
        """Per-node execution chains, as instance ids."""
        if self._node_chains is None:
            record = self.record
            self._node_chains = {
                record.nodes[node_index]: [
                    record.instance_ids[i] for i in chain
                ]
                for node_index, chain in enumerate(record.node_chains)
            }
        return self._node_chains

    @property
    def completions(self) -> dict[str, float]:
        """Guaranteed completion per process."""
        if self._completions is None:
            record = self.record
            self._completions = dict(zip(record.processes, record.completions))
        return self._completions

    @property
    def medl(self) -> MEDL:
        """The bus MEDL, rendered from the record's packed descriptors."""
        if self._medl is None:
            self._medl = MEDL.from_packed(self.record.medl, self.record.nodes)
        return self._medl

    # -- schedule facts (the record's) --------------------------------------

    @property
    def makespan(self) -> float:
        """Schedule length δ: latest guaranteed completion of any process."""
        return self.record.makespan

    def tardiness(self) -> dict[str, float]:
        """Per-process positive lateness versus its (absolute) deadline."""
        return self.record.tardiness()

    def degree_of_schedulability(self) -> float:
        """Sum of deadline overshoots (0.0 when schedulable)."""
        return self.record.degree_of_schedulability()

    @property
    def is_schedulable(self) -> bool:
        return self.record.is_schedulable

    def completion(self, process: str) -> float:
        return self.record.completion(process)

    def critical_path(self) -> list[str]:
        """Process names on the chain of constraints behind the makespan."""
        return self.record.critical_path()

    # -- views ----------------------------------------------------------------

    def node_table(self, node: str) -> list[ScheduledInstance]:
        """The static schedule table of ``node`` in execution order."""
        return [self.placements[iid] for iid in self.node_chains.get(node, [])]

    # -- rendering -----------------------------------------------------------

    def format_tables(self) -> str:
        """ASCII rendering of all node schedule tables and the MEDL."""
        lines: list[str] = []
        for node in sorted(self.node_chains):
            lines.append(f"node {node}:")
            for placed in self.node_table(node):
                lines.append(
                    f"  {placed.instance_id:<24} start={placed.root_start:8.2f} "
                    f"finish={placed.root_finish:8.2f} wcf={placed.wcf:8.2f}"
                )
        if len(self.medl):
            lines.append("bus (MEDL):")
            for descriptor in sorted(
                self.medl, key=lambda d: (d.slot_start, d.offset_bytes)
            ):
                lines.append(
                    f"  {descriptor.bus_message_id:<28} round={descriptor.round_index:<3} "
                    f"slot=[{descriptor.slot_start:.2f}, {descriptor.slot_end:.2f})"
                )
        lines.append(f"schedule length = {self.makespan:.2f} ms")
        return "\n".join(lines)
