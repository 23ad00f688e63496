"""Modified partial-critical-path (PCP) priorities (paper §5.1, ref. [6]).

List scheduling extracts the highest-priority process from the ready list.
The priority of an instance is the length of the longest path from it to any
sink of the FT-extended graph, where

* a vertex costs its WCET plus the recovery slack its own re-executions may
  need (``C * (1 + e) + e * µ``) — fault-tolerance overhead is part of the
  critical path, which is the "modification" relative to plain PCP;
* an edge costs one TDMA round when it crosses nodes (the expected wait for
  the sender's slot plus delivery), and nothing when it stays on a node.

Priorities are recomputed for every candidate implementation because both
the mapping (edge costs) and the policy assignment (vertex costs) change.
"""

from __future__ import annotations

from typing import Iterable

from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph
from repro.ttp.bus import BusConfig


def instance_weight(wcet: float, reexecutions: int, mu: float) -> float:
    """Path weight of one instance: WCET plus worst-case recovery time.

    The operation order is part of the contract: every priority, full or
    incremental, is built from this expression, so all of them agree bit
    for bit.
    """
    return wcet * (1 + reexecutions) + reexecutions * mu


def update_priorities(
    ft: FTGraph,
    bus: BusConfig,
    faults: FaultModel,
    order: Iterable[str],
    priorities: dict[str, float],
) -> dict[str, float]:
    """(Re)compute ``priorities[iid]`` for each ``iid`` of ``order``, in order.

    The one PCP loop: each successor of an instance must already hold its
    priority when the instance is reached, so ``order`` runs from the
    sinks up.  Returns ``priorities``, updated in place.
    """
    round_length = bus.round_length
    mu = faults.mu
    instances = ft.instances
    succ_of = ft._succ
    for iid in order:
        instance = instances[iid]
        weight = instance_weight(instance.wcet, instance.reexecutions, mu)
        best_tail = 0.0
        for succ in succ_of[iid]:
            edge = round_length if instances[succ].node != instance.node else 0.0
            tail = edge + priorities[succ]
            if tail > best_tail:
                best_tail = tail
        priorities[iid] = weight + best_tail
    return priorities


def pcp_priorities(
    ft: FTGraph,
    bus: BusConfig,
    faults: FaultModel,
) -> dict[str, float]:
    """Longest path to a sink for every instance of ``ft``."""
    return update_priorities(
        ft, bus, faults, reversed(ft.topological_order()), {}
    )
