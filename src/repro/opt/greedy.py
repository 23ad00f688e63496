"""GreedyMPA: steepest-descent over critical-path moves (paper §5.2).

In each iteration all moves on the critical path of the current solution are
evaluated and the best one is applied — but only if it improves the current
cost, otherwise the search stops (this is the "can get stuck in a local
optimum" behaviour the tabu search of :mod:`repro.opt.tabu` fixes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.opt.cost import Cost
from repro.opt.evaluator import Evaluator
from repro.opt.implementation import Implementation
from repro.opt.moves import generate_moves


@dataclass
class SearchOutcome:
    """Result of one local-search stage (greedy or tabu)."""

    implementation: Implementation
    cost: Cost
    iterations: int = 0
    history: list[Cost] = field(default_factory=list)


def greedy_mpa(
    merged: ProcessGraph,
    faults: FaultModel,
    evaluator: Evaluator,
    start: Implementation,
    replica_counts: Sequence[int],
    max_iterations: int = 100,
    stop_when_schedulable: bool = True,
    time_limit_s: float | None = None,
    checkpoint_segments: Sequence[int] = (),
) -> SearchOutcome:
    """Greedily improve ``start``; returns the last (best) solution found."""
    registry = obs.get_registry()
    current = start
    current_cost, current_record = evaluator.evaluate_record(current)
    outcome = SearchOutcome(
        implementation=current, cost=current_cost, history=[current_cost]
    )
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s

    with obs.span("greedy") as sp:
        for _ in range(max_iterations):
            if stop_when_schedulable and current_cost.schedulable:
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            moves = generate_moves(
                merged,
                faults,
                current,
                current_record.critical_path(),
                replica_counts,
                checkpoint_segments,
            )
            registry.inc("search.greedy.moves_priced", len(moves))
            # Batched delta evaluation: the whole neighbourhood is priced
            # against one captured base context (replays that copy the
            # unchanged base rows, no records sealed); only the winner's
            # schedule is realized, and the critical path is walked on the
            # record's binding index triples — no view is ever
            # materialized.
            best = None
            best_cost = current_cost
            for candidate in evaluator.evaluate_many(current, moves):
                if candidate.cost.is_better_than(best_cost):
                    best = candidate
                    best_cost = candidate.cost
            registry.inc("search.greedy.iterations")
            if best is None:
                registry.inc("search.greedy.plateaus")
                break
            registry.inc("search.greedy.accepted")
            current = best.implementation
            current_cost = best_cost
            current_record = evaluator.realize(best)
            outcome.iterations += 1
            outcome.history.append(current_cost)
        sp.set(iterations=outcome.iterations)

    outcome.implementation = current
    outcome.cost = current_cost
    return outcome
