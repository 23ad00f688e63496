"""Bus access optimization (paper §4.2 / §5 step "finally").

The paper performs a final optimization of the TDMA configuration using the
techniques of Pop et al. [19]; here we implement the part that matters for
the fault-tolerance interplay: a steepest-descent search over slot *orders*
(pairwise swaps) and optional slot-length scaling.  Every candidate bus is
priced by re-running the list scheduler, so the optimization naturally
accounts for where re-execution slack forces messages into later rounds.
"""

from __future__ import annotations

from typing import Iterable

from repro.opt.cost import Cost
from repro.opt.evaluator import Evaluator
from repro.opt.implementation import Implementation


def optimize_bus_access(
    evaluator: Evaluator,
    implementation: Implementation,
    scale_factors: Iterable[float] = (),
    max_rounds: int = 10,
) -> tuple[Implementation, Cost]:
    """Improve the bus configuration of ``implementation`` by local search.

    Returns the best implementation found (possibly the input) and its cost.
    ``scale_factors`` optionally also tries scaling every slot length by the
    given factors (e.g. ``(2.0,)`` doubles frame capacity at the price of
    later slot-end delivery times).
    """
    best = implementation
    best_cost = evaluator.evaluate_record(implementation)[0]

    for _ in range(max_rounds):
        candidate, candidate_cost = _best_neighbour(
            evaluator, best, best_cost, scale_factors
        )
        if candidate is None:
            break
        best, best_cost = candidate, candidate_cost
    return best, best_cost


def _best_neighbour(
    evaluator: Evaluator,
    implementation: Implementation,
    current_cost: Cost,
    scale_factors: Iterable[float],
) -> tuple[Implementation | None, Cost]:
    """The best strictly-improving bus neighbour, or ``None``."""
    bus = implementation.bus
    order = list(bus.slot_order)
    best: Implementation | None = None
    best_cost = current_cost

    def consider(new_bus) -> None:
        nonlocal best, best_cost
        candidate = Implementation(
            policies=implementation.policies,
            mapping=implementation.mapping,
            bus=new_bus,
        )
        cost = evaluator.evaluate_record(candidate)[0]
        if cost.is_better_than(best_cost):
            best = candidate
            best_cost = cost

    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            swapped = list(order)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            consider(bus.with_slot_order(swapped))

    for factor in scale_factors:
        scaled = bus
        for node in order:
            scaled = scaled.with_slot_length(
                node, bus.slot_lengths[node] * factor
            )
        consider(scaled)

    return best, best_cost
