"""TabuSearchMPA: tabu search over mapping/policy moves (paper §5.2, Fig. 9).

The selective history is kept in two tables indexed by process:

* ``Tabu(P) > 0`` — P was changed recently; moves on it are forbidden unless
  they beat the best-so-far solution (aspiration, Fig. 9 line 9);
* ``Wait(P) > |Γ|`` — P has not been touched for a long time; moves on it
  are *diversification* candidates (Fig. 9 line 12).

Selection (Fig. 9 lines 14–20): take the best non-tabu-or-aspired move if it
improves on the best-so-far; otherwise prefer a diversification move;
otherwise the best non-tabu move; as a last resort (everything tabu) the
best move overall.  The loop ends when a schedulable solution is found (or,
in *minimize* mode, when the iteration/time budget is exhausted).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import obs
from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.opt.cost import Cost
from repro.opt.evaluator import Evaluator
from repro.opt.greedy import SearchOutcome
from repro.opt.implementation import Implementation
from repro.opt.moves import Move, generate_moves


def tabu_search_mpa(
    merged: ProcessGraph,
    faults: FaultModel,
    evaluator: Evaluator,
    start: Implementation,
    replica_counts: Sequence[int],
    max_iterations: int = 60,
    tabu_tenure: int | None = None,
    time_limit_s: float | None = None,
    stop_when_schedulable: bool = True,
    checkpoint_segments: Sequence[int] = (),
) -> SearchOutcome:
    """Run TabuSearchMPA from ``start`` and return the best-so-far solution."""
    graph_size = len(merged)
    if tabu_tenure is None:
        tabu_tenure = max(2, graph_size // 8)

    tabu: dict[str, int] = {name: 0 for name in merged}
    wait: dict[str, int] = {name: 0 for name in merged}

    registry = obs.get_registry()
    x_now = start
    best = start
    best_cost, now_record = evaluator.evaluate_record(start)
    outcome = SearchOutcome(implementation=best, cost=best_cost, history=[best_cost])
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s

    sp = obs.span("tabu")
    with sp:
        for _ in range(max_iterations):
            if stop_when_schedulable and best_cost.schedulable:
                break
            if deadline is not None and time.monotonic() > deadline:
                break

            critical_path = now_record.critical_path()
            moves = generate_moves(
                merged, faults, x_now, critical_path, replica_counts,
                checkpoint_segments,
            )
            if not moves:
                break
            registry.inc("search.tabu.moves_priced", len(moves))

            # Batched delta evaluation: the neighbourhood is priced against
            # one captured base context (replays that copy the unchanged
            # base rows, nothing sealed); only the *chosen* move's schedule
            # record is realized — the selection itself needs costs alone.
            candidates = evaluator.evaluate_many(x_now, moves)
            chosen = _select_move(
                [(c.move, c.cost) for c in candidates],
                tabu, wait, best_cost, graph_size,
            )
            if chosen is None:
                break
            move, now_cost = chosen
            chosen_eval = next(
                candidate for candidate in candidates if candidate.move is move
            )
            x_now = chosen_eval.implementation
            now_record = evaluator.realize(chosen_eval)
            outcome.iterations += 1
            registry.inc("search.tabu.iterations")
            outcome.history.append(now_cost)
            if now_cost.is_better_than(best_cost):
                best = x_now
                best_cost = now_cost
                registry.inc("search.tabu.improvements")
            else:
                registry.inc("search.tabu.plateau_iterations")

            _update_history(tabu, wait, move.process, tabu_tenure)
        sp.set(iterations=outcome.iterations)

    outcome.implementation = best
    outcome.cost = best_cost
    return outcome


def _select_move(
    evaluated: list[tuple[Move, Cost]],
    tabu: dict[str, int],
    wait: dict[str, int],
    best_cost: Cost,
    graph_size: int,
) -> tuple[Move, Cost] | None:
    """Apply the aspiration/diversification selection of Fig. 9."""

    def best_of(pairs: list[tuple[Move, Cost]]) -> tuple[Move, Cost] | None:
        if not pairs:
            return None
        return min(
            pairs,
            key=lambda pair: (
                pair[1].sort_key,
                pair[0].process,
                pair[0].kind,
                pair[0].nodes,
            ),
        )

    non_tabu = [(m, c) for m, c in evaluated if tabu[m.process] == 0]
    aspired = [
        (m, c)
        for m, c in evaluated
        if tabu[m.process] > 0 and c.is_better_than(best_cost)
    ]
    waiting = [(m, c) for m, c in evaluated if wait[m.process] > graph_size]

    candidate = best_of(non_tabu + aspired)
    if candidate is not None and candidate[1].is_better_than(best_cost):
        return candidate
    diversify = best_of(waiting)
    if diversify is not None:
        return diversify
    fallback = best_of(non_tabu)
    if fallback is not None:
        return fallback
    return best_of(evaluated)


def _update_history(
    tabu: dict[str, int],
    wait: dict[str, int],
    moved_process: str,
    tenure: int,
) -> None:
    """Decay tabu counters, age waiting counters, stamp the moved process."""
    for name in tabu:
        if tabu[name] > 0:
            tabu[name] -= 1
        wait[name] += 1
    tabu[moved_process] = tenure
    wait[moved_process] = 0
