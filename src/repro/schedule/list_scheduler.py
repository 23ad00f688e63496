"""Fault-tolerance aware list scheduling (paper §5.1, Fig. 6 `ListScheduling`).

Given the merged application graph, a mapping, a policy assignment and a bus
configuration, this module builds the static schedule tables for every node
and the MEDL for the TTP bus:

1. the merged graph is expanded into replica instances
   (:mod:`repro.model.ftgraph`);
2. instances become *ready* once all their predecessors are scheduled; the
   ready instance with the highest modified-PCP priority is placed next;
3. an instance is appended to its node's schedule at the earliest root time
   allowed by the node and by its inputs — for replicated predecessors this
   is the arrival of the *first* replica message (contingency scenarios are
   handled analytically, reproducing Fig. 7);
4. the worst-case analyzer attaches per-budget finish rows (shared recovery
   slack), and every outgoing bus message is packed into the earliest TDMA
   slot at/after the sender's worst-case finish, making recovery transparent
   to all other nodes;
5. finally the guaranteed completion of every process is derived from its
   replicas' worst-case finishes.

The synthesized configuration is emitted as a compact
:class:`repro.schedule.record.ScheduleRecord` — flat interned arrays, built
row by row as instances are placed — and returned wrapped in the lazy
:class:`repro.schedule.table.SystemSchedule` view.

The scheduling machinery itself lives in :mod:`repro.schedule.state` as the
explicit :class:`~repro.schedule.state.SchedulerState`; this module is
the one-shot façade (build a state, run it to completion, seal).  The
incremental kernel in :mod:`repro.schedule.incremental` drives the same
state machine from rank 0, copying the rows a move leaves unchanged from a
captured base pass, for delta re-scheduling.
"""

from __future__ import annotations

from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph, build_ft_graph
from repro.model.mapping import ReplicaMapping
from repro.model.policy import PolicyAssignment
from repro.schedule.record import ScheduleRecord
from repro.schedule.state import SchedulerState
from repro.schedule.table import SystemSchedule
from repro.ttp.bus import BusConfig


def list_schedule(
    graph: ProcessGraph,
    faults: FaultModel,
    policies: PolicyAssignment,
    mapping: ReplicaMapping,
    bus: BusConfig,
) -> SystemSchedule:
    """Build the complete system schedule for one candidate implementation."""
    ft = build_ft_graph(graph, policies, mapping, faults)
    record = build_schedule_record(graph, ft, faults, bus)
    return SystemSchedule(record, graph, ft, faults, bus)


def build_schedule_record(
    graph: ProcessGraph,
    ft: FTGraph,
    faults: FaultModel,
    bus: BusConfig,
) -> ScheduleRecord:
    """Run the list scheduler cold and emit the compact IR directly."""
    state = SchedulerState(graph, ft, faults, bus)
    state.run()
    return state.seal()
