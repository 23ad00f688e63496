"""The list scheduler's mutable core, exposed as an explicit state machine.

:class:`SchedulerState` owns every piece of mutable state the fault-tolerant
list scheduler (paper §5.1, Fig. 6) advances per placement step:

* the ready heap and per-instance predecessor countdowns,
* the :class:`repro.schedule.record.RecordBuilder` accumulating the flat
  :class:`~repro.schedule.record.ScheduleRecord` arrays,
* the worst-case analyzer's per-node chain tails,
* the bus scheduler's slot fill levels and MEDL,
* the per-instance ``root_finish`` / ``no_recovery_row`` maps feeding later
  release computations.

``step()`` places exactly one instance (one iteration of the Fig. 6 loop);
``run()`` drives the schedule to completion; ``seal()`` freezes the record.
The split exists for the incremental evaluation kernel
(:mod:`repro.schedule.incremental`), which drives a fresh state from rank 0
with its own loop and copies unaffected rows from a captured base pass.

With ``trace=ScheduleTrace()`` the state additionally records the per-step
facts the delta kernel needs to decide, during a later replay, whether an
instance's base rows can be copied verbatim: its chain tail row and each
node's bus pack sequence.

A placement that is recomputed rather than copied runs through
:meth:`SchedulerState.place` and :meth:`SchedulerState.fast_frame_budget`
in both the cold pass and the delta replay, so the two cannot drift apart.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph, Instance
from repro.obs.metrics import get_registry
from repro.schedule.analysis import (
    PlacementResult,
    WorstCaseAnalyzer,
    group_survivor_indices,
    guaranteed_completion,
)
from repro.schedule.priorities import pcp_priorities
from repro.schedule.record import (
    BIND_INPUT,
    BIND_NODE,
    BIND_RELEASE,
    RecordBuilder,
    ScheduleRecord,
    degree_of_schedulability,
)
from repro.ttp.bus import FRAME_EPS, BusConfig
from repro.ttp.medl import MessageDescriptor
from repro.ttp.schedule import BusScheduler


def _unscheduled(fast_id: str, owner: str) -> SchedulingError:
    """The error for a remote sender's frame that has no MEDL descriptor:
    bus scheduling is out of sync with the FT graph."""
    return SchedulingError(
        f"no MEDL entry for bus message {fast_id!r} while releasing "
        f"{owner!r} (bus scheduling out of sync with the FT graph)"
    )


def release_row(
    ft: FTGraph,
    iid: str,
    faults: FaultModel,
    root_finish: dict[str, float],
    no_recovery_rows: dict[str, tuple[float, ...]],
    medl_by_id: dict[str, MessageDescriptor],
) -> tuple[list[float], list[str | None]]:
    """Guaranteed release per adversary budget, plus per-budget sources.

    ``rel_row[c]`` is the latest guaranteed availability of all inputs when
    the adversary may spend ``c`` faults invalidating input messages;
    ``rel_row[0]`` is the fault-free (root) release.  ``sources[c]`` names
    the sender instance whose (possibly contingency) arrival dominates at
    budget ``c`` — the critical-path extraction follows these links — or
    ``None`` when the release time itself dominates.

    Adversary model (shared upstream delays + per-sender faults)
    ------------------------------------------------------------
    A sender replica's frames can be invalidated three ways, and their
    costs compose differently:

    * **shared delay** — faults that are *not* on the sender itself (its
      inputs, its node chain) push the sender's no-recovery row past its
      fast slot's start.  Such delays *correlate*: replicas of a group
      share predecessors, so one upstream fault may delay every replica
      past its slot simultaneously.  The model spends a single shared
      budget ``d`` whose effect applies to **all** senders at once.
    * **own recoveries** — ``t`` failed attempts on the sender delay it by
      ``t * (recovery + mu)`` on top of the shared delay.  Faults on
      distinct instances are disjoint, so these are priced per sender,
      like (partial) kills.
    * **kill** — ``kill_cost`` faults on the sender terminate it, removing
      *all* its frames; the guaranteed twin therefore costs only the
      *remaining* kills after the fast frame was silenced.

    ``rel_row[c]`` maximizes over every split ``c = d + (c - d)``: given
    ``d``, each fast frame's silencing price is the cheaper of the own
    recoveries still needed (0 if the shared delay alone misses the slot)
    and the outright kill; guaranteed/masked slots lie after the sender's
    WCF and local inputs are covered by the node DP, so only kills remove
    them.  The greedy earliest-first argument of
    :func:`group_survivor_indices` then spends the remaining ``c - d``
    faults.  Enough replicas carry a guaranteed twin that their combined
    kill price out-lasts every split's kill budget
    (``ftgraph._guaranteed_backed``).  Soundness: any concrete <= c fault
    scenario splits into faults on group senders (covered by the per-
    sender prices) and faults elsewhere (covered by some ``d``); budget 0
    reproduces the fault-free fast arrivals exactly.
    """
    k = faults.k
    mu = faults.mu
    instance = ft.instances[iid]
    node = instance.node

    rel_row = [instance.release] * (k + 1)
    sources: list[str | None] = [None] * (k + 1)

    for group in ft.inputs_of(iid):
        # The senders' static inputs come from the group's plan for this
        # node; only arrivals and rows are read from the live state.
        replicated, local, remote = group.release_plan(node)
        if not replicated:
            # Single-source group (the common case): a local finish, whose
            # delays the node DP covers, or a masked frame, whose slot lies
            # after the sender's WCF.  Only a terminal kill (impossible for
            # a sole replica of a valid policy) removes it, so the lone
            # entry survives every budget (`group_survivor_indices` pins
            # index 0) and the breakpoint scan below would only rediscover
            # it.
            if local:
                src_iid = local[0][0]
                arrival = root_finish[src_iid]
            else:
                src_iid, fast_id = remote[0][0], remote[0][1]
                descriptor = medl_by_id.get(fast_id)
                if descriptor is None:
                    raise _unscheduled(fast_id, iid)
                arrival = descriptor.slot_end
            for c in range(k + 1):
                if arrival > rel_row[c]:
                    rel_row[c] = arrival
                    sources[c] = src_iid
            continue

        # Local inputs are immune to the shared delay budget (the node DP
        # covers their chain), so only the terminal kill removes them.
        immune = [
            (root_finish[src_iid], kill_cost, src_iid)
            for src_iid, kill_cost in local
        ]
        # Per remote sender, the fast frame's silencing price at every
        # shared budget d: own recoveries still needed to miss the slot on
        # top of the shared delay (beyond reexec only a kill silences).
        # The price is non-increasing in d; a branch whose prices all equal
        # the previous d's is dominated by it (same entries, smaller kill
        # budget => an earlier survivor), so only the breakpoints where
        # some price drops need evaluating.
        fast_senders = []
        breakpoints = {0}
        for (
            src_iid, fast_id, guaranteed_id, recovery_unit, reexec, kill_cost,
        ) in remote:
            descriptor = medl_by_id.get(fast_id)
            if descriptor is None:
                raise _unscheduled(fast_id, iid)
            threshold = descriptor.slot_start + FRAME_EPS
            row = no_recovery_rows[src_iid]
            step = recovery_unit + mu
            costs = []
            for d in range(k + 1):
                fast_cost = kill_cost
                delayed = row[d]
                for t in range(reexec + 1):
                    if delayed > threshold:
                        fast_cost = t if t < kill_cost else kill_cost
                        break
                    delayed += step
                costs.append(fast_cost)
                if d and fast_cost != costs[d - 1]:
                    breakpoints.add(d)
            guaranteed = medl_by_id.get(guaranteed_id)
            fast_senders.append((
                costs,
                descriptor.slot_end,
                None if guaranteed is None else guaranteed.slot_end,
                kill_cost,
                src_iid,
            ))

        for d in sorted(breakpoints):
            entries = list(immune)
            for (
                costs, slot_end, guaranteed_end, kill_cost, src_iid,
            ) in fast_senders:
                fast_cost = costs[d]
                if fast_cost > 0:
                    entries.append((slot_end, fast_cost, src_iid))
                if guaranteed_end is not None:
                    # A kill removes both frames: after the fast one was
                    # silenced, the twin costs the remaining kills (0 when
                    # silencing already was a full kill).
                    entries.append(
                        (guaranteed_end, kill_cost - fast_cost, src_iid)
                    )
            # Survivors are tracked by *index*: on arrival-time ties a
            # value lookup would name the first tied sender, which may be
            # a replica the adversary already killed, corrupting
            # critical-path extraction.
            entries.sort()
            indices = group_survivor_indices(entries, k - d)
            for c in range(d, k + 1):
                survivor = entries[indices[c - d]]
                if survivor[0] > rel_row[c]:
                    rel_row[c] = survivor[0]
                    sources[c] = survivor[2]
    return rel_row, sources


@dataclass(slots=True)
class ScheduleTrace:
    """Per-step facts recorded during a full run for later delta replays.

    ``tail_rows[iid]`` is the analyzer's chain tail row after ``iid``'s
    placement.  ``pack`` holds each node's bus pack sequence as
    ``(bus_message_id, data_ready)`` pairs in pack order, which is what the
    replay compares against to reuse a base MEDL descriptor without
    re-running first-fit.
    """

    tail_rows: dict[str, tuple[float, ...]] = field(default_factory=dict)
    pack: dict[str, list[tuple[str, float]]] = field(default_factory=dict)


class SchedulerState:
    """One in-flight list-scheduling pass as an explicit state machine."""

    __slots__ = (
        "graph",
        "ft",
        "faults",
        "bus",
        "priorities",
        "analyzer",
        "bus_scheduler",
        "builder",
        "trace",
        "_succ_of",
        "_k",
        "ready",
        "remaining",
        "root_finish",
        "no_recovery_rows",
    )

    def __init__(
        self,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
        *,
        priorities: dict[str, float] | None = None,
        trace: ScheduleTrace | None = None,
    ) -> None:
        if len(ft) == 0:
            raise SchedulingError("nothing to schedule: the FT graph is empty")
        self.graph = graph
        self.ft = ft
        self.faults = faults
        self.bus = bus
        self.priorities = (
            pcp_priorities(ft, bus, faults) if priorities is None else priorities
        )
        self.analyzer = WorstCaseAnalyzer(faults)
        self.bus_scheduler = BusScheduler(bus)
        self.builder = RecordBuilder()
        self.root_finish = {}
        self.no_recovery_rows = {}
        self.trace = trace
        self._succ_of = ft._succ
        self._k = faults.k

        # Readiness bookkeeping: an instance is ready when all predecessors
        # in the instance DAG are placed (their bus messages are scheduled
        # at placement time, so readiness implies known arrival times).
        priorities_of = self.priorities
        self.remaining = {iid: len(ft._pred[iid]) for iid in ft.instances}
        self.ready = [
            (-priorities_of[iid], iid)
            for iid, count in self.remaining.items()
            if count == 0
        ]
        heapq.heapify(self.ready)

    @property
    def rank(self) -> int:
        """Number of instances placed so far (= next placement rank)."""
        return len(self.builder.instance_ids)

    def place(self, iid: str, instance: Instance) -> PlacementResult:
        """Compute and record ``iid``'s rows from the current state.

        Prices the instance's guaranteed release, appends it to its node's
        worst-case chain, binds the dominant input (or the node
        predecessor when the chain dominates) and writes the record row
        plus the release inputs later receivers read.
        """
        rel_row, rel_sources = release_row(
            self.ft,
            iid,
            self.faults,
            self.root_finish,
            self.no_recovery_rows,
            self.bus_scheduler.medl.by_id(),
        )
        builder = self.builder
        node_id = builder.node_id(instance.node)
        result = self.analyzer.place(instance, rel_row)
        last = builder.node_last.get(node_id)
        if result.dominant == "node" and last is not None:
            binding = (BIND_NODE, last, result.dominant_budget)
        else:
            source = rel_sources[result.dominant_budget]
            if source is None:
                binding = (BIND_RELEASE, -1, result.dominant_budget)
            else:
                binding = (
                    BIND_INPUT,
                    builder.index_of[source],
                    result.dominant_budget,
                )
        root_finish = result.root_finish
        builder.place(
            iid,
            builder.process_id(instance.process),
            node_id,
            root_finish - instance.wcet,
            root_finish,
            result.wcf,
            result.finish_row,
            binding,
        )
        self.root_finish[iid] = root_finish
        self.no_recovery_rows[iid] = result.no_recovery_row
        return result

    def fast_frame_budget(self, iid: str, instance: Instance) -> int:
        """Fault budget whose finish ``iid``'s fast frames depart after.

        Fast frames of replicas depart right after the fault-free finish
        (Fig. 4b); masked/guaranteed frames only after the worst-case
        finish so recovery stays transparent (Fig. 4a).

        Co-location caveat: killing an *earlier co-located* replica of the
        same process both removes that replica's frame and delays this one
        (fault reuse).  The fast frame therefore departs only after the
        finish under a budget covering those sibling kills, so the
        receiver-side marginal cost accounting stays sound.
        """
        instances = self.ft.instances
        root_finish = self.root_finish
        node = instance.node
        budget = 0
        for sibling in self.ft.group_of[instance.process]:
            if (
                sibling != iid
                and sibling in root_finish
                and instances[sibling].node == node
            ):
                budget += instances[sibling].kill_cost
        return budget if budget < self._k else self._k

    def step(self) -> str:
        """Place the highest-priority ready instance; one Fig. 6 iteration."""
        _, iid = heapq.heappop(self.ready)
        ft = self.ft
        instance = ft.instances[iid]
        result = self.place(iid, instance)
        trace = self.trace
        if trace is not None:
            trace.tail_rows[iid] = result.tail_row

        outgoing = ft.outgoing_bus_messages(iid)
        if outgoing:
            fast_ready = result.finish_row[
                self.fast_frame_budget(iid, instance)
            ]
            node = instance.node
            if trace is not None:
                pack_seq = trace.pack.setdefault(node, [])
            schedule_message = self.bus_scheduler.schedule_message
            for bus_message in outgoing:
                data_ready = (
                    fast_ready if bus_message.kind == "fast" else result.wcf
                )
                schedule_message(
                    bus_message.id, node, bus_message.message.size, data_ready
                )
                if trace is not None:
                    pack_seq.append((bus_message.id, data_ready))

        remaining = self.remaining
        ready = self.ready
        priorities = self.priorities
        for succ in self._succ_of[iid]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, (-priorities[succ], succ))
        return iid

    def run(self) -> None:
        """Drive the schedule to completion."""
        started = time.perf_counter()
        step = self.step
        while self.ready:
            step()
        registry = get_registry()
        registry.inc("scheduler.passes")
        registry.inc("scheduler.pass_s", time.perf_counter() - started)

    # -- sealing ------------------------------------------------------------

    def _completions(self) -> tuple[list[float], list[float | None]]:
        """Guaranteed completion and deadline per process, in intern order.

        The one completion step: :meth:`cost_view` prices from it and
        :meth:`seal` freezes it, so both read the same floats.  Raises
        :class:`~repro.errors.SchedulingError` on an incomplete schedule.
        """
        ft = self.ft
        if self.rank != len(ft):
            unplaced = [
                iid for iid, count in self.remaining.items() if count > 0
            ]
            raise SchedulingError(
                f"list scheduling left {len(unplaced)} instances unplaced "
                f"(cycle in the FT graph?): {unplaced[:5]}"
            )
        builder = self.builder
        k = self._k
        index_of = builder.index_of
        wcf = builder.wcf
        instances = ft.instances
        group_of = ft.group_of
        processes = builder._processes
        graph_processes = self.graph.processes
        completions = [
            guaranteed_completion(
                [
                    (wcf[index_of[iid]], instances[iid].kill_cost)
                    for iid in group_of[process]
                ],
                k,
            )
            for process in processes
        ]
        deadlines = [graph_processes[process].deadline for process in processes]
        return completions, deadlines

    def cost_view(self) -> tuple[float, float]:
        """``(degree_of_schedulability, makespan)`` without sealing a record.

        Candidate pricing needs only these two floats; sealing (tuple
        freezing and MEDL packing) is deferred to the winner of a
        neighbourhood.  The completions come from the step :meth:`seal`
        uses and the degree from the record's own lateness rule, so both
        floats equal the sealed record's exactly.
        """
        completions, deadlines = self._completions()
        degree = degree_of_schedulability(completions, deadlines)
        return degree, max(completions)

    def seal(self) -> ScheduleRecord:
        """Derive completions/groups and freeze the builder into the record."""
        get_registry().inc("scheduler.seals")
        completions, deadlines = self._completions()
        builder = self.builder
        index_of = builder.index_of
        group_of = self.ft.group_of
        return builder.finish(
            process_replicas=tuple(
                tuple(index_of[iid] for iid in group_of[process])
                for process in builder._processes
            ),
            completions=tuple(completions),
            deadlines=tuple(deadlines),
            medl=self.bus_scheduler.medl.packed(builder.node_index),
            k=self._k,
            mu=self.faults.mu,
        )
