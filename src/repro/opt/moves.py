"""Design transformations (moves) on the critical path (paper §5.2, Fig. 8).

A move changes the mapping of a process and/or its fault-tolerance policy.
As in the paper, moves are only generated for processes on the critical path
of the current solution's schedule.  Three families are produced:

* **remap** — move the primary replica to another legal node (remaining
  replicas are re-placed by the balance heuristic);
* **policy** — change the replica count ``r`` (re-executions are then
  ``k + 1 - r``, distributed evenly), keeping the primary node;
* **replica-remap** — for replicated processes, move the *second* replica to
  a different legal node, keeping everything else.

Designer-fixed processes are respected: members of ``P_M`` generate no remap
moves, members of ``P_X``/``P_R`` no policy moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.policy import Policy
from repro.opt.implementation import Implementation
from repro.opt.initial import place_replicas


@dataclass(frozen=True)
class Move:
    """One neighbourhood transformation of the current implementation."""

    process: str
    nodes: tuple[str, ...]
    policy: Policy
    kind: str  # "remap" | "policy" | "replica-remap"

    def apply(self, implementation: Implementation) -> Implementation:
        return implementation.with_move(self.process, self.nodes, self.policy)


def generate_moves(
    merged: ProcessGraph,
    faults: FaultModel,
    implementation: Implementation,
    critical_path: Iterable[str],
    replica_counts: Sequence[int],
    checkpoint_segments: Sequence[int] = (),
) -> list[Move]:
    """All neighbour moves of ``implementation`` along ``critical_path``.

    ``checkpoint_segments`` (extension) additionally offers re-execution
    policies whose recovery re-runs only one of ``s`` segments.
    """
    wcets = {name: process.wcet for name, process in merged.processes.items()}
    load = implementation.mapping.node_load(wcets)
    moves: list[Move] = []
    for name in critical_path:
        process = merged.process(name)
        current_policy = implementation.policies[name]
        current_nodes = implementation.mapping[name]

        if process.fixed_node is None:
            for node in process.allowed_nodes:
                if node == current_nodes[0]:
                    continue
                nodes = place_replicas(
                    process, current_policy.n_replicas, node, load
                )
                moves.append(
                    Move(process=name, nodes=nodes, policy=current_policy, kind="remap")
                )

        if process.fixed_policy is None and not faults.fault_free:
            for count in replica_counts:
                if count == current_policy.n_replicas or count > faults.k + 1:
                    continue
                policy = Policy.combined(count, faults.k)
                nodes = place_replicas(process, count, current_nodes[0], load)
                moves.append(
                    Move(process=name, nodes=nodes, policy=policy, kind="policy")
                )
            for segments in checkpoint_segments:
                policy = Policy.checkpointing(faults.k, segments)
                if policy == current_policy:
                    continue
                moves.append(
                    Move(
                        process=name,
                        nodes=(current_nodes[0],),
                        policy=policy,
                        kind="policy",
                    )
                )

        if current_policy.n_replicas > 1 and len(process.allowed_nodes) > 1:
            for node in process.allowed_nodes:
                if node in current_nodes[:2]:
                    continue
                nodes = (current_nodes[0], node) + current_nodes[2:]
                moves.append(
                    Move(
                        process=name,
                        nodes=nodes,
                        policy=current_policy,
                        kind="replica-remap",
                    )
                )
    return _dedupe(moves, implementation)


def _dedupe(moves: list[Move], implementation: Implementation) -> list[Move]:
    """Drop duplicates and no-op moves, preserving order deterministically."""
    seen: set[tuple] = set()
    unique: list[Move] = []
    for move in moves:
        key = (move.process, move.nodes, move.policy)
        current = (
            move.process,
            implementation.mapping[move.process],
            implementation.policies[move.process],
        )
        if key in seen or key == current:
            continue
        seen.add(key)
        unique.append(move)
    return unique
