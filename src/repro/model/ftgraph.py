"""FT-extended execution graph (paper §3, functions ``F_R``/``F_X``).

Given the merged application graph, a policy assignment and a replica
mapping, this module expands every process into its replica *instances* and
every edge into per-replica message instances.  The result is the structure
the list scheduler and the worst-case analysis operate on:

* each :class:`Instance` is one replica of one process, carrying the number
  of re-executions its recovery slack must cover;
* each receiver instance owns one :class:`InputGroup` per original in-edge —
  the group lists all sender replicas, because the receiver may start as
  soon as the *first valid* message from the group arrives (§2.2);
* a sender instance produces one broadcast bus message per original edge iff
  at least one receiver replica lives on a different node (TTP is a
  broadcast bus, so a single frame serves every remote reader).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from repro.errors import ModelError
from repro.model.application import (
    Message,
    Process,
    ProcessGraph,
    topological_sort,
)
from repro.model.fault import FaultModel
from repro.model.mapping import ReplicaMapping
from repro.model.policy import PolicyAssignment


def instance_id(process: str, replica: int) -> str:
    """Identifier of replica ``replica`` (0-based) of ``process``."""
    return f"{process}:r{replica}"




@dataclass(frozen=True, slots=True)
class Instance:
    """One replica of one process, bound to a node."""

    id: str
    process: str
    replica: int
    node: str
    wcet: float
    reexecutions: int
    release: float = 0.0
    deadline: float | None = None
    checkpoints: int = 0  # extension: segment-level recovery

    @property
    def kill_cost(self) -> int:
        """Faults an adversary must spend to terminally kill this replica."""
        return 1 + self.reexecutions

    @property
    def recovery_unit(self) -> float:
        """Time one re-execution re-runs: the whole WCET, or one segment."""
        if self.checkpoints > 0:
            return self.wcet / self.checkpoints
        return self.wcet


class ReleasePlan(NamedTuple):
    """The static sender inputs of one input group at one receiver node.

    What pricing a receiver's release reads of its senders that no
    placement can change: whether each sender is local to the receiver,
    its kill cost, recovery unit and re-executions, and the ids of the
    frames a remote sender transmits.  ``local`` holds ``(src_iid,
    kill_cost)`` per sender on the receiver's node and ``remote`` holds
    ``(src_iid, fast_frame_id, guaranteed_frame_id, recovery_unit,
    reexecutions, kill_cost)`` per other sender, each in replica order;
    ``replicated`` says whether the group has more than one sender.
    """

    replicated: bool
    local: tuple[tuple[str, int], ...]
    remote: tuple[tuple[str, str, str, float, int, int], ...]


@dataclass(frozen=True)
class InputGroup:
    """All sender replicas feeding one receiver instance via one message.

    The group holds its sender instances themselves, so everything derived
    from it is a function of the group alone.  Groups are shared by
    reference between a base FT graph and its move overlays
    (:func:`ft_graph_with_move`), and an overlay builds a fresh group
    wherever a sender changed, so a shared group can never hold a
    :class:`ReleasePlan` built for other senders.
    """

    message: Message
    senders: tuple[Instance, ...]  # sender replicas, replica order

    @cached_property
    def sources(self) -> tuple[str, ...]:
        """Sender instance ids, replica order."""
        return tuple(sender.id for sender in self.senders)

    @cached_property
    def _release_plans(self) -> dict[str, ReleasePlan]:
        return {}

    def release_plan(self, node: str) -> ReleasePlan:
        """The group's :class:`ReleasePlan` at a receiver on ``node``.

        Built on first use and kept for the group's lifetime, so the
        release-row hot path classifies senders and formats frame ids
        once per (group, receiver node) instead of once per placement.
        """
        plan = self._release_plans.get(node)
        if plan is None:
            name = self.message.name
            local: list[tuple[str, int]] = []
            remote: list[tuple[str, str, str, float, int, int]] = []
            for sender in self.senders:
                src_iid = sender.id
                if sender.node == node:
                    local.append((src_iid, sender.kill_cost))
                else:
                    remote.append((
                        src_iid,
                        f"{name}[{src_iid}]",
                        f"{name}[{src_iid}]#g",
                        sender.recovery_unit,
                        sender.reexecutions,
                        sender.kill_cost,
                    ))
            plan = ReleasePlan(
                len(self.senders) > 1, tuple(local), tuple(remote)
            )
            self._release_plans[node] = plan
        return plan


@dataclass(frozen=True, slots=True)
class BusMessage:
    """A broadcast frame payload: one sender instance, one original message.

    ``kind`` selects the transmission discipline (paper §4.1/§5.1):

    * ``"masked"`` — the sender is the only replica; recovery must stay
      transparent, so the slot lies after the sender's worst-case finish
      (Fig. 4a: m2 departs only after C1 + µ);
    * ``"fast"`` — the sender is one of several replicas; the slot follows
      the fault-free finish (Fig. 4b: replica outputs are not delayed), and
      receivers account for the scenarios that invalidate the frame;
    * ``"guaranteed"`` — second frame of a replica, scheduled after its
      worst-case finish so the group still delivers when fast frames are
      missed (for re-executed replicas this is the combined policy of
      Fig. 2c; for pure replicas it is the fallback that keeps the
      receiver-side worst case sound under correlated upstream delays).
    """

    sender: str  # instance id
    message: Message
    kind: str = "masked"
    id: str = field(init=False)  # derived key, precomputed once

    def __post_init__(self) -> None:
        suffix = "#g" if self.kind == "guaranteed" else ""
        object.__setattr__(
            self, "id", f"{self.message.name}[{self.sender}]{suffix}"
        )


class FTGraph:
    """The expanded instance graph plus group/bus metadata."""

    def __init__(self) -> None:
        self.instances: dict[str, Instance] = {}
        self.group_of: dict[str, tuple[str, ...]] = {}  # process -> instance ids
        self.inputs: dict[str, tuple[InputGroup, ...]] = {}
        self.bus_messages: dict[str, BusMessage] = {}  # keyed by BusMessage.id
        self._out_bus: dict[str, list[BusMessage]] = {}  # sender instance -> frames
        # Plain adjacency dicts: the FT graph is rebuilt for every candidate
        # implementation, so edge bookkeeping sits on the optimizer's hot
        # path.  Instance edges never repeat: one message joins an ordered
        # process pair, so each (sender replica, receiver replica) pair is
        # added once.  The replicas of a process share one list (``_wire``).
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}

    # -- queries -----------------------------------------------------------

    def instance(self, iid: str) -> Instance:
        try:
            return self.instances[iid]
        except KeyError:
            raise ModelError(f"unknown instance {iid!r}") from None

    def replicas(self, process: str) -> tuple[str, ...]:
        try:
            return self.group_of[process]
        except KeyError:
            raise ModelError(f"unknown process {process!r}") from None

    def inputs_of(self, iid: str) -> tuple[InputGroup, ...]:
        return self.inputs.get(iid, ())

    def outgoing_bus_messages(self, iid: str) -> list[BusMessage]:
        """Bus frames instance ``iid`` must transmit (possibly empty).

        A non-empty result is the internal list (hot path); callers must
        not mutate it.
        """
        messages = self._out_bus.get(iid)
        return messages if messages is not None else []

    def topological_order(self) -> list[str]:
        """Deterministic (lexicographic) topological order over instance ids."""
        order = topological_sort(self._succ)
        if len(order) != len(self._succ):
            raise ModelError("FT graph contains a cycle")
        return order

    def predecessors(self, iid: str) -> list[str]:
        return sorted(self._pred[iid])

    def successors(self, iid: str) -> list[str]:
        return sorted(self._succ[iid])

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)


def build_ft_graph(
    graph: ProcessGraph,
    policies: PolicyAssignment,
    mapping: ReplicaMapping,
    faults: FaultModel,
) -> FTGraph:
    """Expand ``graph`` according to ``policies`` and ``mapping``.

    Raises :class:`ModelError` if a policy does not tolerate ``faults.k``
    faults or the mapping disagrees with the policy's replica count.
    """
    ft = FTGraph()
    for process in graph.processes.values():
        _add_instances(ft, process, policies, mapping, faults)

    for name in graph:
        _wire(ft._succ, ft.group_of, name, graph.successors)
        _wire(ft._pred, ft.group_of, name, graph.predecessors)
        groups = tuple([
            _input_group(ft, message) for message in graph.in_messages(name)
        ])
        for dst_iid in ft.group_of[name]:
            ft.inputs[dst_iid] = groups

    for name in graph:
        _add_frames(ft, graph, name, faults.k)
    return ft


def ft_graph_with_move(
    base: FTGraph,
    graph: ProcessGraph,
    policies: PolicyAssignment,
    mapping: ReplicaMapping,
    faults: FaultModel,
    process: str,
) -> FTGraph:
    """Overlay clone of ``base`` for a single-process design change.

    ``policies``/``mapping`` are the *moved* assignment (they must differ
    from ``base`` only in ``process``).  Equivalent to
    ``build_ft_graph(graph, policies, mapping, faults)`` but rebuilt only
    where the move can reach:

    * ``process``'s own instances (node, WCET, re-executions, group size),
    * adjacency and input groups touching those instances (predecessor and
      successor processes of ``process`` in the application graph),
    * bus frames transmitted by ``process`` (sender node/kinds changed) and
      by its predecessor processes (their frames' *receiver* node sets
      include ``process``'s new nodes, which decides whether a frame is
      needed at all).

    Everything else — instances, input-group objects, adjacency lists, bus
    frames — is shared by reference with ``base``, which both keeps the
    overlay cheap (O(cone), not O(graph)) and lets the delta kernel test
    "unchanged" with identity checks.  The base graph is never mutated:
    every container that differs is a fresh copy.
    """
    old_ids = base.group_of[process]

    ft = FTGraph()
    ft.instances = dict(base.instances)
    ft.group_of = dict(base.group_of)
    ft.inputs = dict(base.inputs)
    ft.bus_messages = dict(base.bus_messages)
    ft._out_bus = dict(base._out_bus)
    ft._succ = dict(base._succ)
    ft._pred = dict(base._pred)

    for iid in old_ids:
        del ft.instances[iid]
        del ft.inputs[iid]
    new_group = _add_instances(
        ft, graph.process(process), policies, mapping, faults
    )

    # Input groups: the moved process keeps its base groups verbatim (its
    # senders did not change); each successor's group over ``process`` is
    # re-pointed at the new replica tuple, other groups stay shared.
    base_inputs = base.inputs.get(old_ids[0], ())
    for iid in new_group:
        ft.inputs[iid] = base_inputs
    succ_processes = graph.successors(process)
    pred_processes = graph.predecessors(process)
    for succ_name in succ_processes:
        rewired = tuple(
            _input_group(ft, g.message) if g.message.src == process else g
            for g in base.inputs[base.group_of[succ_name][0]]
        )
        for iid in ft.group_of[succ_name]:
            ft.inputs[iid] = rewired

    # Adjacency: rewire the out-lists of senders into the move cone and the
    # in-lists of receivers inside it by the step :func:`build_ft_graph`
    # uses; every other list is shared with ``base``.  The two sides stay
    # consistent because every rebuilt edge has either its sender or both
    # endpoints rebuilt (the application DAG is bipartite around
    # ``process``: senders are its predecessors, receivers its successors).
    sender_processes = [*pred_processes, process]
    for name in sender_processes:
        _wire(ft._succ, ft.group_of, name, graph.successors)
    for name in (process, *succ_processes):
        _wire(ft._pred, ft.group_of, name, graph.predecessors)
    for iid in old_ids[len(new_group):]:
        del ft._succ[iid]
        del ft._pred[iid]

    # Bus frames: senders in the cone get their frame lists rebuilt by the
    # same step as :func:`build_ft_graph` (the list scheduler packs a
    # sender's frames in list order, so the order is part of byte-level
    # schedule identity).
    rebuilt_senders = {
        iid for name in sender_processes for iid in ft.group_of[name]
    } | set(old_ids)
    ft.bus_messages = {
        bid: m
        for bid, m in ft.bus_messages.items()
        if m.sender not in rebuilt_senders
    }
    for iid in rebuilt_senders:
        ft._out_bus.pop(iid, None)
    for name in sender_processes:
        _add_frames(ft, graph, name, faults.k)
    return ft


def _add_instances(
    ft: FTGraph,
    process: Process,
    policies: PolicyAssignment,
    mapping: ReplicaMapping,
    faults: FaultModel,
) -> tuple[str, ...]:
    """Add ``process``'s replica instances to ``ft``; returns their ids.

    Raises :class:`ModelError` if the policy does not tolerate
    ``faults.k`` faults or the mapping disagrees with its replica count.
    """
    name = process.name
    policy = policies[name]
    policy.validate_for(faults.k)
    nodes = mapping[name]
    if len(nodes) != policy.n_replicas:
        raise ModelError(
            f"process {name!r}: {len(nodes)} mapped replicas but policy "
            f"has {policy.n_replicas}"
        )
    ids = []
    for replica, node in enumerate(nodes):
        iid = instance_id(name, replica)
        wcet = process.wcet_on(node)
        if policy.checkpoints > 0:
            wcet += policy.checkpoints * faults.checkpoint_overhead
        ft.instances[iid] = Instance(
            id=iid,
            process=name,
            replica=replica,
            node=node,
            wcet=wcet,
            reexecutions=policy.reexecutions[replica],
            release=process.release,
            deadline=process.deadline,
            checkpoints=policy.checkpoints,
        )
        ids.append(iid)
    group = tuple(ids)
    ft.group_of[name] = group
    return group


def _input_group(ft: FTGraph, message: Message) -> InputGroup:
    """The input group of ``message`` over its sender's current replicas."""
    instances = ft.instances
    return InputGroup(
        message=message,
        senders=tuple([instances[iid] for iid in ft.group_of[message.src]]),
    )


def _wire(
    adjacency: dict[str, list[str]],
    group_of: dict[str, tuple[str, ...]],
    name: str,
    neighbours,
) -> None:
    """Point every replica of process ``name`` at one adjacency list.

    ``neighbours`` is ``graph.successors`` (out-lists) or
    ``graph.predecessors`` (in-lists); the list holds the neighbours'
    replicas in neighbour-name order, then replica order.  The replicas of
    a process share the list: adjacency lists are never mutated once
    built.  The cold build and the move overlay both wire through here,
    so an overlay's lists equal a cold build's element for element.
    """
    shared: list[str] = []
    for other in neighbours(name):
        shared += group_of[other]
    for iid in group_of[name]:
        adjacency[iid] = shared


def _guaranteed_backed(ft: FTGraph, group: tuple[str, ...], k: int) -> set[str]:
    """Replicas of ``group`` that must own a guaranteed frame (see below)."""
    backed = {
        iid for iid in group if ft.instances[iid].reexecutions > 0
    }
    price = sum(ft.instances[iid].kill_cost for iid in backed)
    for iid in group:
        if price >= k:
            break
        if iid not in backed:
            backed.add(iid)
            price += ft.instances[iid].kill_cost
    return backed


def _add_frames(ft: FTGraph, graph: ProcessGraph, name: str, k: int) -> None:
    """Create the broadcast frames every replica of process ``name`` sends.

    A frame is needed whenever at least one receiver replica lives on a
    different node.  Sole replicas send one transparently-masked frame;
    replicas of a replicated process send a fast frame, and enough of them
    additionally send a *guaranteed* frame (slot after the sender's WCF)
    to keep the receiver-side worst case sound: fast frames of a whole
    replica group can be invalidated together by one upstream fault that
    delays every replica past its slot (replicas share predecessors), so
    the group must retain delay-immune deliveries the adversary cannot
    also kill.  Backing replicas whose combined kill price reaches ``k``
    suffices — once the adversary spends ``d >= 1`` faults on delays it
    has at most ``k - 1`` kills left, and at ``d = 0`` every fast frame
    is still valid while the group's total price exceeds ``k``.
    Re-executed replicas carry a guaranteed frame anyway (the combined
    policy of Fig. 2c), so they are backed for free; 0-re-execution
    replicas are added in replica order only until the price is met.
    """
    group = ft.group_of[name]
    backed = _guaranteed_backed(ft, group, k)
    for message in graph.out_messages(name):
        receiver_nodes = {
            ft.instances[iid].node for iid in ft.group_of[message.dst]
        }
        for src_iid in group:
            sender = ft.instances[src_iid]
            if not receiver_nodes - {sender.node}:
                continue
            if len(group) == 1:
                kinds = ("masked",)
            elif src_iid in backed:
                kinds = ("fast", "guaranteed")
            else:
                kinds = ("fast",)
            for kind in kinds:
                bus_msg = BusMessage(sender=src_iid, message=message, kind=kind)
                ft.bus_messages[bus_msg.id] = bus_msg
                ft._out_bus.setdefault(src_iid, []).append(bus_msg)
