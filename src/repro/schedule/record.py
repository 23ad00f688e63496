"""Compact schedule IR: the canonical output of the list scheduler.

A :class:`ScheduleRecord` is the synthesized configuration ``S`` of the
paper (schedule tables + MEDL, §4) reduced to flat tuples: every process,
node and instance id is interned once into an index, and all per-instance
data lives in parallel arrays indexed by *placement order*.  The record is

* **immutable and hashable** — every field is a tuple of str/int/float, so
  records can key caches and be compared structurally;
* **cycle-free** — no field ever references the record or any other
  container twice, so retaining thousands of records adds no work to the
  cyclic GC (the reason the evaluator cache bound could be raised, see
  DESIGN.md);
* **picklable** — records cross process boundaries for the price of a few
  flat tuples, which is what lets experiment workers return full schedules
  instead of summary scalars;
* **JSON-stable** — every leaf is a str/int/float/``None`` that the
  :mod:`json` module reproduces exactly, so the record's
  :mod:`repro.io.codec` form (tuples as lists) re-encodes byte for byte
  and crosses the distributed queue without pickle.

Rich behaviour (per-node tables, Gantt, metrics, simulation) lives in
*views* that render lazily from a record bound to its model context —
see :class:`repro.schedule.table.SystemSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.errors import SchedulingError

#: Binding kinds, by code: what fixed an instance's root start time.
BIND_RELEASE = 0  # its own release time
BIND_NODE = 1  # the previous instance in the node's schedule
BIND_INPUT = 2  # the dominant input sender's arrival

BINDING_KINDS = ("release", "node", "input")


def overshoots(
    completions: Sequence[float], deadlines: Sequence[float | None]
) -> list[tuple[int, float]]:
    """``(process index, overshoot)`` of every process past its deadline.

    The one lateness rule: an overshoot of at most 1e-9 ms is float noise,
    not a miss.  Both sequences are indexed by process index.
    """
    late = []
    for index, deadline in enumerate(deadlines):
        if deadline is not None:
            overshoot = completions[index] - deadline
            if overshoot > 1e-9:
                late.append((index, overshoot))
    return late


def degree_of_schedulability(
    completions: Sequence[float], deadlines: Sequence[float | None]
) -> float:
    """Sum of deadline overshoots in process-index order (0.0 if none)."""
    total = 0.0
    for _, overshoot in overshoots(completions, deadlines):
        total += overshoot
    return total


@dataclass(frozen=True, slots=True)
class ScheduleRecord:
    """One synthesized system schedule as flat, index-interned arrays.

    Index spaces
    ------------
    * *process index* — position in :attr:`processes`;
    * *node index* — position in :attr:`nodes`;
    * *instance index* — position in :attr:`instance_ids`, which is the
      list scheduler's placement order (the replay order of the simulator).

    Per-instance arrays (``instance_process`` … ``bindings``) are parallel
    to :attr:`instance_ids`.  A binding is an index triple ``(kind,
    source, budget)``: the kind code (see :data:`BINDING_KINDS`), the
    instance index of the constraining predecessor (``-1`` for release
    bindings) and the adversary budget at which that constraint dominated
    the worst case.  MEDL descriptors are packed ``(bus_message_id,
    node, round, slot_start, slot_end, offset_bytes, size_bytes)``
    tuples with the sender node interned.
    """

    processes: tuple[str, ...]
    nodes: tuple[str, ...]
    instance_ids: tuple[str, ...]
    instance_process: tuple[int, ...]
    instance_node: tuple[int, ...]
    root_start: tuple[float, ...]
    root_finish: tuple[float, ...]
    wcf: tuple[float, ...]
    finish_rows: tuple[tuple[float, ...], ...]
    bindings: tuple[tuple[int, int, int], ...]
    node_chains: tuple[tuple[int, ...], ...]  # per node index
    process_replicas: tuple[tuple[int, ...], ...]  # per process index
    completions: tuple[float, ...]  # per process index
    deadlines: tuple[float | None, ...]  # per process index
    medl: tuple[tuple[str, int, int, float, float, int, int], ...]
    k: int
    mu: float

    def __len__(self) -> int:
        return len(self.instance_ids)

    # -- schedule-level metrics -------------------------------------------

    @property
    def makespan(self) -> float:
        """Schedule length δ: latest guaranteed completion of any process."""
        if not self.completions:
            raise SchedulingError("schedule has no completions")
        return max(self.completions)

    def tardiness(self) -> dict[str, float]:
        """Per-process positive lateness versus its (absolute) deadline."""
        late = overshoots(self.completions, self.deadlines)
        return {self.processes[index]: overshoot for index, overshoot in late}

    def degree_of_schedulability(self) -> float:
        """Sum of deadline overshoots (0.0 when schedulable)."""
        return degree_of_schedulability(self.completions, self.deadlines)

    @property
    def is_schedulable(self) -> bool:
        return self.degree_of_schedulability() == 0.0

    # -- lookups -----------------------------------------------------------

    def process_index(self, process: str) -> int:
        try:
            return self.processes.index(process)
        except ValueError:
            raise SchedulingError(f"unknown process {process!r}") from None

    def completion(self, process: str) -> float:
        return self.completions[self.process_index(process)]

    # -- critical path -----------------------------------------------------

    def critical_path(self) -> list[str]:
        """Process names on the chain of constraints behind the makespan.

        Starting from the process whose guaranteed completion equals the
        schedule length, follow each instance's binding backwards through
        the index triples (node predecessor or input sender) until a
        release-bound instance is reached.  Ordered source -> sink,
        deduplicated — the walk never touches the materialized views.
        """
        if not self.completions:
            raise SchedulingError("schedule has no completions")
        target = max(
            range(len(self.processes)),
            key=lambda p: (self.completions[p], self.processes[p]),
        )
        index = max(
            self.process_replicas[target],
            key=lambda i: (self.wcf[i], self.instance_ids[i]),
        )
        path: list[str] = []
        seen: set[int] = set()
        guard = 0
        while index >= 0:
            guard += 1
            if guard > len(self.instance_ids) + 1:
                raise SchedulingError("cyclic binding chain (internal error)")
            process = self.instance_process[index]
            if process not in seen:
                path.append(self.processes[process])
                seen.add(process)
            index = self.bindings[index][1]
        path.reverse()
        return path


class RecordBuilder:
    """Incremental construction of a :class:`ScheduleRecord`.

    The list scheduler appends one row per placement; ids are interned on
    first sight so the hot loop only pays dict lookups.  ``finish`` seals
    the arrays into the immutable record.
    """

    __slots__ = (
        "_processes",
        "_process_index",
        "_nodes",
        "_node_index",
        "instance_ids",
        "index_of",
        "instance_process",
        "instance_node",
        "root_start",
        "root_finish",
        "wcf",
        "finish_rows",
        "bindings",
        "node_last",
    )

    def __init__(self) -> None:
        self._processes: list[str] = []
        self._process_index: dict[str, int] = {}
        self._nodes: list[str] = []
        self._node_index: dict[str, int] = {}
        self.instance_ids: list[str] = []
        self.index_of: dict[str, int] = {}
        self.instance_process: list[int] = []
        self.instance_node: list[int] = []
        self.root_start: list[float] = []
        self.root_finish: list[float] = []
        self.wcf: list[float] = []
        self.finish_rows: list[tuple[float, ...]] = []
        self.bindings: list[tuple[int, int, int]] = []
        #: node index -> instance index of the node's last placement.
        self.node_last: dict[int, int] = {}

    @property
    def node_index(self) -> Mapping[str, int]:
        """The node -> index intern table (immutable proxy)."""
        return MappingProxyType(self._node_index)

    def process_id(self, process: str) -> int:
        index = self._process_index.get(process)
        if index is None:
            index = len(self._processes)
            self._process_index[process] = index
            self._processes.append(process)
        return index

    def node_id(self, node: str) -> int:
        index = self._node_index.get(node)
        if index is None:
            index = len(self._nodes)
            self._node_index[node] = index
            self._nodes.append(node)
        return index

    def place(
        self,
        iid: str,
        process_id: int,
        node_id: int,
        root_start: float,
        root_finish: float,
        wcf: float,
        finish_row: tuple[float, ...],
        binding: tuple[int, int, int],
    ) -> int:
        """Append one placement row; returns the new instance index."""
        index = len(self.instance_ids)
        self.index_of[iid] = index
        self.instance_ids.append(iid)
        self.instance_process.append(process_id)
        self.instance_node.append(node_id)
        self.root_start.append(root_start)
        self.root_finish.append(root_finish)
        self.wcf.append(wcf)
        self.finish_rows.append(finish_row)
        self.bindings.append(binding)
        self.node_last[node_id] = index
        return index

    def finish(
        self,
        process_replicas: tuple[tuple[int, ...], ...],
        completions: tuple[float, ...],
        deadlines: tuple[float | None, ...],
        medl: tuple[tuple[str, int, int, float, float, int, int], ...],
        k: int,
        mu: float,
    ) -> ScheduleRecord:
        chains: list[list[int]] = [[] for _ in self._nodes]
        for index, node_id in enumerate(self.instance_node):
            chains[node_id].append(index)
        node_chains = tuple(tuple(chain) for chain in chains)
        return ScheduleRecord(
            processes=tuple(self._processes),
            nodes=tuple(self._nodes),
            instance_ids=tuple(self.instance_ids),
            instance_process=tuple(self.instance_process),
            instance_node=tuple(self.instance_node),
            root_start=tuple(self.root_start),
            root_finish=tuple(self.root_finish),
            wcf=tuple(self.wcf),
            finish_rows=tuple(self.finish_rows),
            bindings=tuple(self.bindings),
            node_chains=node_chains,
            process_replicas=process_replicas,
            completions=completions,
            deadlines=deadlines,
            medl=medl,
            k=k,
            mu=mu,
        )
