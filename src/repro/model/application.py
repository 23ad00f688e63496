"""Application model: processes, messages and process graphs (paper §3).

An application is a set of directed, acyclic process graphs.  Each vertex is
a :class:`Process`; an edge carries a :class:`Message` whose output feeds the
successor.  Communication between processes mapped on the same node is part
of the sender's worst-case execution time and is not modelled explicitly;
communication between nodes becomes a frame on the TTP bus (``repro.ttp``).

Times are milliseconds (floats); message sizes are bytes (ints).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from repro.errors import ModelError


@dataclass(frozen=True)
class Process:
    """One process (graph vertex).

    Parameters
    ----------
    name:
        Unique identifier within the application.
    wcet:
        Worst-case execution time in ms for every node the process *may* be
        mapped on (the set ``N_Pi`` of the paper).  A node absent from this
        mapping is not a legal mapping target.
    release:
        Earliest start time relative to the activation of the graph.
    deadline:
        Individual deadline relative to the activation of the graph, or
        ``None`` if only the graph deadline applies.
    fixed_node:
        If not ``None`` the process belongs to the paper's set ``P_M`` of
        already-mapped processes (e.g. it must sit next to a sensor) and the
        optimizer will never move it.
    fixed_policy:
        ``"reexecution"`` (set ``P_X``), ``"replication"`` (set ``P_R``) or
        ``None`` (set ``P+``, policy decided by the optimizer).
    """

    name: str
    wcet: Mapping[str, float]
    release: float = 0.0
    deadline: float | None = None
    fixed_node: str | None = None
    fixed_policy: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("process name must be a non-empty string")
        if not self.wcet:
            raise ModelError(f"process {self.name!r} has no candidate node")
        for node, cost in self.wcet.items():
            if cost <= 0:
                raise ModelError(
                    f"process {self.name!r} has non-positive WCET {cost} on {node!r}"
                )
        if self.release < 0:
            raise ModelError(f"process {self.name!r} has negative release time")
        if self.deadline is not None and self.deadline <= self.release:
            raise ModelError(
                f"process {self.name!r} deadline {self.deadline} not after "
                f"release {self.release}"
            )
        if self.fixed_node is not None and self.fixed_node not in self.wcet:
            raise ModelError(
                f"process {self.name!r} is pre-mapped to {self.fixed_node!r} "
                "which is not in its WCET table"
            )
        if self.fixed_policy not in (None, "reexecution", "replication"):
            raise ModelError(
                f"process {self.name!r} has unknown fixed policy "
                f"{self.fixed_policy!r}"
            )
        # Freeze the WCET table so the dataclass is truly immutable/hashable.
        object.__setattr__(self, "wcet", dict(self.wcet))

    @property
    def allowed_nodes(self) -> tuple[str, ...]:
        """Nodes this process may execute on, in deterministic order."""
        if self.fixed_node is not None:
            return (self.fixed_node,)
        return tuple(sorted(self.wcet))

    def wcet_on(self, node: str) -> float:
        """WCET of this process on ``node``; raises if the node is illegal."""
        try:
            return self.wcet[node]
        except KeyError:
            raise ModelError(
                f"process {self.name!r} cannot be mapped on node {node!r}"
            ) from None

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(frozen=True)
class Message:
    """A message on a graph edge (``e_ij`` of the paper).

    ``size`` is the payload length in bytes (the paper uses 1–4 byte
    messages); the TTP layer converts bytes to bus time.
    """

    name: str
    src: str
    dst: str
    size: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ModelError(f"message {self.name!r} has non-positive size")
        if self.src == self.dst:
            raise ModelError(f"message {self.name!r} is a self-loop on {self.src!r}")


class ProcessGraph:
    """A directed acyclic process graph with a period and a deadline.

    The graph does not have to be polar (single source/sink); any DAG is
    accepted, matching the randomly generated structures of the paper's
    evaluation (§6).  It is stored as plain adjacency dicts: processes and
    messages by name in insertion order, and per process its in-messages
    sorted by sender and its out-messages sorted by receiver.
    """

    def __init__(
        self,
        name: str,
        period: float | None = None,
        deadline: float | None = None,
    ) -> None:
        if period is not None and period <= 0:
            raise ModelError(f"graph {name!r} has non-positive period")
        if deadline is not None and deadline <= 0:
            raise ModelError(f"graph {name!r} has non-positive deadline")
        if deadline is not None and period is not None and deadline > period:
            raise ModelError(
                f"graph {name!r}: deadline {deadline} exceeds period {period}"
            )
        self.name = name
        self.period = period
        self.deadline = deadline
        self._processes: dict[str, Process] = {}
        self._messages: dict[str, Message] = {}
        self._in: dict[str, list[Message]] = {}  # sorted by sender
        self._out: dict[str, list[Message]] = {}  # sorted by receiver

    # -- construction -----------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Insert ``process`` as a vertex; names must be unique."""
        if process.name in self._processes:
            raise ModelError(f"duplicate process {process.name!r} in {self.name!r}")
        self._processes[process.name] = process
        self._in[process.name] = []
        self._out[process.name] = []
        return process

    def add_message(self, message: Message) -> Message:
        """Insert the edge ``message.src -> message.dst`` carrying ``message``.

        At most one message joins an ordered pair of processes.
        """
        for endpoint in (message.src, message.dst):
            if endpoint not in self._processes:
                raise ModelError(
                    f"message {message.name!r} references unknown process "
                    f"{endpoint!r}"
                )
        if message.name in self._messages:
            raise ModelError(f"duplicate message {message.name!r} in {self.name!r}")
        if message.dst in self.successors(message.src):
            raise ModelError(
                f"duplicate edge {message.src!r} -> {message.dst!r} in {self.name!r}"
            )
        self._messages[message.name] = message
        bisect.insort(self._in[message.dst], message, key=attrgetter("src"))
        bisect.insort(self._out[message.src], message, key=attrgetter("dst"))
        return message

    def connect(self, src: str, dst: str, size: int = 1, name: str | None = None) -> Message:
        """Convenience wrapper for :meth:`add_message` with an auto name."""
        if name is None:
            name = f"m_{src}_{dst}"
        return self.add_message(Message(name=name, src=src, dst=dst, size=size))

    # -- queries -----------------------------------------------------------

    @property
    def processes(self) -> dict[str, Process]:
        """All processes keyed by name (insertion order preserved).

        Returns a fresh dict (callers may mutate it freely).
        """
        return dict(self._processes)

    @property
    def messages(self) -> dict[str, Message]:
        """All messages keyed by name."""
        return dict(self._messages)

    def process(self, name: str) -> Process:
        try:
            return self._processes[name]
        except KeyError:
            raise ModelError(f"unknown process {name!r} in {self.name!r}") from None

    def __len__(self) -> int:
        return len(self._processes)

    def __contains__(self, name: str) -> bool:
        return name in self._processes

    def __iter__(self) -> Iterator[str]:
        return iter(self._processes)

    def predecessors(self, name: str) -> list[str]:
        return [m.src for m in self._in[name]]

    def successors(self, name: str) -> list[str]:
        return [m.dst for m in self._out[name]]

    def in_messages(self, name: str) -> list[Message]:
        """Messages feeding ``name``, ordered by sender name."""
        return list(self._in[name])

    def out_messages(self, name: str) -> list[Message]:
        """Messages produced by ``name``, ordered by receiver name."""
        return list(self._out[name])

    def edge_message(self, src: str, dst: str) -> Message:
        for message in self._out.get(src, ()):
            if message.dst == dst:
                return message
        raise ModelError(f"no edge {src!r} -> {dst!r} in {self.name!r}")

    def sources(self) -> list[str]:
        """Processes without predecessors."""
        return sorted(n for n, messages in self._in.items() if not messages)

    def sinks(self) -> list[str]:
        """Processes without successors."""
        return sorted(n for n, messages in self._out.items() if not messages)

    def topological_order(self) -> list[str]:
        """The lexicographic topological order of the process names.

        Raises :class:`ModelError` naming the processes a cycle keeps from
        ever becoming ready.
        """
        order = topological_sort(
            {n: [m.dst for m in messages] for n, messages in self._out.items()}
        )
        if len(order) < len(self):
            placed = set(order)
            stuck = [n for n in self._processes if n not in placed]
            raise ModelError(
                f"graph {self.name!r} has a cycle: {stuck} never become ready"
            )
        return order

    def validate(self) -> None:
        """Raise :class:`ModelError` unless the graph is a non-empty DAG."""
        if len(self) == 0:
            raise ModelError(f"graph {self.name!r} is empty")
        self.topological_order()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessGraph({self.name!r}, processes={len(self)}, "
            f"messages={len(self._messages)}, period={self.period}, "
            f"deadline={self.deadline})"
        )


def topological_sort(successors: Mapping[str, Iterable[str]]) -> list[str]:
    """Kahn's algorithm over ``node -> successors``, smallest ready name first.

    The result is the lexicographically smallest topological order.  Nodes
    on or behind a cycle never become ready and are left out, so the graph
    has a cycle exactly when the order is shorter than the graph.
    """
    pending = dict.fromkeys(successors, 0)
    for targets in successors.values():
        for target in targets:
            pending[target] += 1
    ready = [node for node, count in pending.items() if count == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for target in successors[node]:
            pending[target] -= 1
            if pending[target] == 0:
                heapq.heappush(ready, target)
    return order


@dataclass
class Application:
    """A set of process graphs implemented together on one architecture."""

    graphs: list[ProcessGraph] = field(default_factory=list)
    name: str = "application"

    def add_graph(self, graph: ProcessGraph) -> ProcessGraph:
        if any(g.name == graph.name for g in self.graphs):
            raise ModelError(f"duplicate graph {graph.name!r} in application")
        self.graphs.append(graph)
        return graph

    @property
    def processes(self) -> dict[str, Process]:
        """Union of all graph processes; names must be globally unique."""
        merged: dict[str, Process] = {}
        for graph in self.graphs:
            for name, process in graph.processes.items():
                if name in merged:
                    raise ModelError(f"process {name!r} appears in two graphs")
                merged[name] = process
        return merged

    def validate(self) -> None:
        """Validate every graph plus the global name-uniqueness invariant."""
        if not self.graphs:
            raise ModelError("application has no process graphs")
        for graph in self.graphs:
            graph.validate()
        self.processes  # raises on duplicates

    def hyperperiod(self) -> float | None:
        """Least common multiple of all graph periods (ms), or ``None``.

        Periods are interpreted at 1 µs resolution when computing the LCM so
        float periods such as 2.5 ms behave predictably.
        """
        periods = [g.period for g in self.graphs if g.period is not None]
        if not periods:
            return None
        scale = 1000  # 1 us resolution
        ticks = [round(p * scale) for p in periods]
        if any(t <= 0 for t in ticks):
            raise ModelError("periods must be >= 1 us")
        lcm = ticks[0]
        for t in ticks[1:]:
            lcm = _lcm(lcm, t)
        return lcm / scale

    def largest_message_size(self) -> int:
        """Size in bytes of the largest message in the application (min 1)."""
        sizes = [m.size for g in self.graphs for m in g.messages.values()]
        return max(sizes, default=1)


def _lcm(a: int, b: int) -> int:
    import math

    return a * b // math.gcd(a, b)


def chain(
    names: Iterable[str],
    wcet: Mapping[str, float],
    graph: ProcessGraph,
    size: int = 1,
) -> list[Process]:
    """Helper used by tests/examples: add ``names`` as a chain to ``graph``."""
    created = [graph.add_process(Process(n, dict(wcet))) for n in names]
    for src, dst in zip(created, created[1:]):
        graph.connect(src.name, dst.name, size=size)
    return created
