"""Incremental (delta) re-scheduling around a captured base schedule.

The optimizer's neighbourhood moves change one process's mapping/policy;
the rest of the design is untouched.  A cold list-scheduling pass therefore
re-derives mostly identical rows.  This module captures one base schedule
as an :class:`EvalContext` — the sealed record plus the per-step trace —
and replays *moved* variants against it:

1. **Graph overlay** — :func:`repro.model.ftgraph.ft_graph_with_move`
   rebuilds only the moved process's cone of the FT graph, through the
   cold build's own wiring step, sharing every untouched object with the
   base by reference.  Priorities are recomputed for the moved group and
   its ancestors only, by the loop of
   :func:`repro.schedule.priorities.pcp_priorities` itself.
2. **Clean copy** — every replay starts at rank 0 from a fresh
   :class:`~repro.schedule.state.SchedulerState` and pops from a live heap
   (order may differ from the base), but an instance whose inputs are
   provably unaffected — senders value-clean with unchanged parameters,
   the MEDL descriptors it reads byte-identical, the same chain predecessor
   with an equal tail row — has its base rows copied verbatim instead of
   re-running the release/worst-case machinery.  Bus packs are copied via a
   per-node cursor into the base pack sequence for as long as a node's pack
   stream matches the base exactly; the first mismatch switches that node
   to live first-fit packing forever.
3. **Convergence** — a recomputed instance whose rows come out equal to the
   base re-enters the clean set, so divergence cones close instead of
   poisoning everything downstream.

Byte-identity is the contract: the sealed delta record must equal the cold
``build_schedule_record`` of the moved implementation *exactly* (the
property suite in ``tests/opt/test_delta_parity.py`` enforces it, and
DESIGN.md documents the argument).  Only the copy path and the bus-pack
cursor are delta-specific: recomputed rows, completions, costs and
priorities come from the steps the cold pass runs.  Whenever a
precondition cannot be established the kernel silently degrades to
recomputation — the worst case is a full replay, never a wrong record.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Iterator

from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph, ft_graph_with_move
from repro.model.mapping import ReplicaMapping
from repro.model.policy import PolicyAssignment
from repro.schedule.priorities import update_priorities
from repro.schedule.record import (
    BIND_INPUT,
    BIND_NODE,
    BIND_RELEASE,
    ScheduleRecord,
)
from repro.schedule.state import SchedulerState, ScheduleTrace
from repro.ttp.bus import BusConfig


class EvalContext:
    """One base schedule, captured with everything delta replays need."""

    __slots__ = (
        "graph",
        "ft",
        "faults",
        "bus",
        "priorities",
        "record",
        "trace",
        "no_recovery_rows",
        "base_index",
        "chain_pred",
        "reads",
        "medl_by_id",
        "_ancestors",
    )

    def __init__(
        self,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
        priorities: dict[str, float],
        record: ScheduleRecord,
        trace: ScheduleTrace,
        no_recovery_rows: dict[str, tuple[float, ...]],
        medl_by_id: dict,
    ) -> None:
        self.graph = graph
        self.ft = ft
        self.faults = faults
        self.bus = bus
        self.priorities = priorities
        self.record = record
        self.trace = trace
        self.no_recovery_rows = no_recovery_rows
        self.medl_by_id = medl_by_id
        self._ancestors: dict[str, tuple[str, ...]] = {}

        ids = record.instance_ids
        self.base_index = {iid: index for index, iid in enumerate(ids)}

        chain_pred: dict[str, str | None] = {}
        for chain in record.node_chains:
            prev: int | None = None
            for index in chain:
                chain_pred[ids[index]] = None if prev is None else ids[prev]
                prev = index
        self.chain_pred = chain_pred

        # Per-instance read sets against the *base* graph: which sender
        # instances and which MEDL descriptors its release row consults,
        # read off the same release plans.  Valid for every instance the
        # overlay shares with the base (the moved process's own instances
        # never take the copy path).
        reads: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        bus_messages = ft.bus_messages
        for iid, inst in ft.instances.items():
            senders: list[str] = []
            desc_ids: list[str] = []
            for group in ft.inputs_of(iid):
                replicated, local, remote = group.release_plan(inst.node)
                senders += [src_iid for src_iid, _ in local]
                for src_iid, fast_id, guaranteed_id, *_ in remote:
                    senders.append(src_iid)
                    desc_ids.append(fast_id)
                    if replicated and guaranteed_id in bus_messages:
                        desc_ids.append(guaranteed_id)
            reads[iid] = (tuple(senders), tuple(desc_ids))
        self.reads = reads

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(
        cls,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
    ) -> "EvalContext":
        """Run one traced cold schedule.

        The sealed record is byte-identical to an untraced
        ``build_schedule_record`` — tracing only observes.  The pass steps
        the state itself rather than calling ``run()``, so the
        ``scheduler.passes`` counter keeps counting cold passes only.
        """
        trace = ScheduleTrace()
        state = SchedulerState(graph, ft, faults, bus, trace=trace)
        step = state.step
        while state.ready:
            step()
        record = state.seal()
        return cls(
            graph=graph,
            ft=ft,
            faults=faults,
            bus=bus,
            priorities=state.priorities,
            record=record,
            trace=trace,
            no_recovery_rows=state.no_recovery_rows,
            medl_by_id=state.bus_scheduler.medl.by_id(),
        )

    # -- incremental priorities --------------------------------------------

    def _ancestor_instances(self, process: str) -> tuple[str, ...]:
        """Instances of ``process``'s graph ancestors, descendants first.

        The order is a filtered reversal of the base placement order — a
        valid topological order of the instance DAG, so each ancestor is
        visited only after every affected successor.  Replica-count changes
        on ``process`` never alter *which* processes are its ancestors, so
        the tuple is cached per process across moves.
        """
        cached = self._ancestors.get(process)
        if cached is None:
            ancestor_procs: set[str] = set()
            stack = [process]
            in_messages = self.graph.in_messages
            while stack:
                for message in in_messages(stack.pop()):
                    src = message.src
                    if src not in ancestor_procs:
                        ancestor_procs.add(src)
                        stack.append(src)
            group_of = self.ft.group_of
            member = {
                iid for proc in ancestor_procs for iid in group_of[proc]
            }
            cached = tuple(
                iid
                for iid in reversed(self.record.instance_ids)
                if iid in member
            )
            self._ancestors[process] = cached
        return cached

    def moved_priorities(
        self, moved_ft: FTGraph, process: str
    ) -> dict[str, float]:
        """PCP priorities of the moved design, recomputed incrementally.

        Only the moved process's instances and their ancestors can change
        priority (a non-ancestor's longest path to a sink never runs
        through the moved process), so the base mapping is copied and just
        those entries are recomputed by the loop of
        :func:`~repro.schedule.priorities.pcp_priorities` itself
        (:func:`~repro.schedule.priorities.update_priorities`), so every
        value is bit-equal to a full recomputation on ``moved_ft``.
        """
        priorities = dict(self.priorities)
        for iid in self.ft.group_of[process]:
            del priorities[iid]
        return update_priorities(
            moved_ft,
            self.bus,
            self.faults,
            (*moved_ft.group_of[process], *self._ancestor_instances(process)),
            priorities,
        )

    # -- delta replay ------------------------------------------------------

    def plan_move(
        self,
        policies: PolicyAssignment,
        mapping: ReplicaMapping,
        process: str,
    ) -> tuple[FTGraph, dict[str, float]]:
        """Overlay graph and incremental priorities of a move."""
        ft = ft_graph_with_move(
            self.ft, self.graph, policies, mapping, self.faults, process
        )
        return ft, self.moved_priorities(ft, process)

    def plan_moves(
        self,
        candidates: Iterable[tuple[PolicyAssignment, ReplicaMapping, str]],
    ) -> Iterator[tuple[FTGraph, dict[str, float]]]:
        """:meth:`plan_move` for a whole neighbourhood, in order.

        A generator: each plan is built only when it is drawn, so a caller
        that replays one plan before drawing the next keeps a single
        overlay graph alive at a time.
        """
        for candidate in candidates:
            yield self.plan_move(*candidate)

    def delta_schedule(
        self,
        policies: PolicyAssignment,
        mapping: ReplicaMapping,
        process: str,
        plan: tuple[FTGraph, dict[str, float]] | None = None,
    ) -> SchedulerState:
        """Replay the moved design; returns the completed, *unsealed* state.

        Callers that only price a candidate read
        :meth:`SchedulerState.cost_view` off the returned state and skip
        sealing entirely; the winner of a neighbourhood is sealed once.
        ``plan`` short-circuits the overlay/priorities computation when the
        caller already planned the move (:meth:`plan_moves`).
        """
        ft, priorities = (
            self.plan_move(policies, mapping, process)
            if plan is None
            else plan
        )
        state = SchedulerState(
            self.graph, ft, self.faults, self.bus, priorities=priorities
        )
        self._replay(state, ft, process)
        return state

    def _replay(
        self, state: SchedulerState, ft: FTGraph, process: str
    ) -> None:
        """Drive ``state`` from rank 0 to completion with base-copy fast paths.

        Rows that cannot be copied are recomputed by the cold pass's own
        :meth:`SchedulerState.place`, and fast frames wait on its
        :meth:`SchedulerState.fast_frame_budget`.
        """
        record = self.record
        base_ids = record.instance_ids
        base_index = self.base_index
        base_finish_rows = record.finish_rows
        base_root_start = record.root_start
        base_root_finish = record.root_finish
        base_wcf = record.wcf
        base_bindings = record.bindings
        base_no_recovery = self.no_recovery_rows
        base_tails = self.trace.tail_rows
        base_pack = self.trace.pack
        base_medl = self.medl_by_id
        chain_pred = self.chain_pred
        reads = self.reads

        builder = state.builder
        place = state.place
        fast_frame_budget = state.fast_frame_budget
        tails = state.analyzer.tails
        bus_scheduler = state.bus_scheduler
        ready = state.ready
        remaining = state.remaining
        priorities = state.priorities
        root_finish = state.root_finish
        no_recovery_rows = state.no_recovery_rows
        succ_of = ft._succ
        instances = ft.instances
        group_of = ft.group_of

        # Instances whose *parameters* changed never copy and keep their
        # readers dirty; value-dirtiness additionally spreads to any
        # instance whose recomputed rows differ from the base, and clears
        # again on convergence.
        param_dirty = frozenset(
            set(self.ft.group_of[process]) | set(group_of[process])
        )
        dirty_values: set[str] = set(param_dirty)
        dirty_desc: set[str] = set()
        pack_dirty: set[str] = set()  # nodes whose pack stream diverged
        cursors: dict[str, int] = {}  # node -> next base pack entry

        while ready:
            _, iid = heappop(ready)
            instance = instances[iid]
            node = instance.node
            base_at = (
                base_index.get(iid) if iid not in param_dirty else None
            )

            copy = False
            if base_at is not None:
                senders, desc_ids = reads[iid]
                if dirty_values.isdisjoint(senders) and (
                    not dirty_desc or dirty_desc.isdisjoint(desc_ids)
                ):
                    predecessor = chain_pred[iid]
                    if predecessor is None:
                        # First on its node in the base: copy only while
                        # the node has no placement (no analyzer tail).
                        copy = node not in tails
                    else:
                        copy = tails.get(node) == base_tails[predecessor]

            if copy:
                node_id = builder.node_id(node)
                kind, source, budget = base_bindings[base_at]
                if kind == BIND_NODE:
                    binding = (BIND_NODE, builder.node_last[node_id], budget)
                elif kind == BIND_INPUT:
                    binding = (
                        BIND_INPUT,
                        builder.index_of[base_ids[source]],
                        budget,
                    )
                else:
                    binding = (BIND_RELEASE, -1, budget)
                finish_row = base_finish_rows[base_at]
                wcf = base_wcf[base_at]
                builder.place(
                    iid,
                    builder.process_id(instance.process),
                    node_id,
                    base_root_start[base_at],
                    base_root_finish[base_at],
                    wcf,
                    finish_row,
                    binding,
                )
                root_finish[iid] = base_root_finish[base_at]
                no_recovery_rows[iid] = base_no_recovery[iid]
                tails[node] = base_tails[iid]
            else:
                result = place(iid, instance)
                finish_row = result.finish_row
                wcf = result.wcf

                # Convergence: rows identical to the base make this
                # instance transparent to its readers again.
                if base_at is not None:
                    if (
                        finish_row == base_finish_rows[base_at]
                        and result.no_recovery_row == base_no_recovery[iid]
                        and result.tail_row == base_tails[iid]
                    ):
                        dirty_values.discard(iid)
                    else:
                        dirty_values.add(iid)
                elif iid not in param_dirty:
                    dirty_values.add(iid)

            outgoing = ft.outgoing_bus_messages(iid)
            if outgoing:
                fast_ready = finish_row[fast_frame_budget(iid, instance)]
                pack_ok = node not in pack_dirty
                sequence = base_pack.get(node, ())
                cursor = cursors.get(node, 0)
                for bus_message in outgoing:
                    data_ready = (
                        fast_ready if bus_message.kind == "fast" else wcf
                    )
                    bid = bus_message.id
                    if (
                        pack_ok
                        and cursor < len(sequence)
                        and sequence[cursor][0] == bid
                        and sequence[cursor][1] == data_ready
                    ):
                        bus_scheduler.copy_descriptor(base_medl[bid])
                        cursor += 1
                        continue
                    if pack_ok:
                        pack_ok = False
                        pack_dirty.add(node)
                    descriptor = bus_scheduler.schedule_message(
                        bid, node, bus_message.message.size, data_ready
                    )
                    # Field-wise divergence check: slot times derive from
                    # (sender node, round) and the payload size is fixed per
                    # message, so three fields decide descriptor equality.
                    base_desc = base_medl.get(bid)
                    if (
                        base_desc is None
                        or base_desc.round_index != descriptor.round_index
                        or base_desc.offset_bytes != descriptor.offset_bytes
                        or base_desc.sender_node != descriptor.sender_node
                    ):
                        dirty_desc.add(bid)
                cursors[node] = cursor

            for succ in succ_of[iid]:
                count = remaining[succ] - 1
                remaining[succ] = count
                if count == 0:
                    heappush(ready, (-priorities[succ], succ))
