"""Transient fault scenarios (paper §2.1).

A scenario assigns to some instances the number of *failed execution
attempts* they suffer during one operation cycle.  An instance with ``e``
re-executions can absorb up to ``e`` failures and still produce output; the
``e + 1``-th failure is terminal (the replica is dead for this cycle).
Faults beyond ``e + 1`` cannot hit the same instance — there is nothing left
to hit — so scenario generators cap per-instance failures accordingly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import SimulationError
from repro.model.ftgraph import FTGraph


@dataclass(frozen=True)
class FaultScenario:
    """A concrete assignment of failed attempts to instances."""

    failures: Mapping[str, int]

    def __post_init__(self) -> None:
        frozen = {iid: count for iid, count in self.failures.items() if count > 0}
        if any(count < 0 for count in self.failures.values()):
            raise SimulationError("failure counts must be >= 0")
        object.__setattr__(self, "failures", frozen)

    @property
    def total_faults(self) -> int:
        return sum(self.failures.values())

    def failures_of(self, iid: str) -> int:
        return self.failures.get(iid, 0)

    def describe(self) -> str:
        if not self.failures:
            return "fault-free"
        inner = ", ".join(f"{iid}x{n}" for iid, n in sorted(self.failures.items()))
        return f"faults({inner})"


FAULT_FREE = FaultScenario(failures={})


def _capacities(ft: FTGraph) -> list[tuple[str, int]]:
    """Per instance, the maximum number of faults that can hit it."""
    return [
        (iid, ft.instance(iid).reexecutions + 1) for iid in sorted(ft.instances)
    ]


def enumerate_scenarios(ft: FTGraph, k: int) -> Iterator[FaultScenario]:
    """Every scenario with at most ``k`` faults (small systems only).

    The count grows roughly as ``(instances + 1) ** k``; use
    :func:`sample_scenarios` beyond toy sizes.
    """
    caps = _capacities(ft)
    yield FAULT_FREE
    for total in range(1, k + 1):
        yield from _distributions(caps, total, {})


def _distributions(
    caps: list[tuple[str, int]],
    remaining: int,
    chosen: dict[str, int],
) -> Iterator[FaultScenario]:
    if remaining == 0:
        yield FaultScenario(failures=dict(chosen))
        return
    if not caps:
        return
    (iid, cap), rest = caps[0], caps[1:]
    for count in range(min(cap, remaining) + 1):
        if count:
            chosen[iid] = count
        yield from _distributions(rest, remaining - count, chosen)
        chosen.pop(iid, None)


def sample_scenarios(
    ft: FTGraph,
    k: int,
    rng: random.Random,
    count: int = 100,
    always_max_faults: bool = False,
) -> list[FaultScenario]:
    """Up to ``count`` *distinct* random scenarios with at most ``k`` faults.

    Draws are deduplicated by failure-map fingerprint, so a validation
    sweep never burns simulation time replaying an identical scenario.
    Fewer than ``count`` scenarios come back when the rejection budget
    (``4 * count`` draws) runs out — for tiny spaces that simply means
    every reachable scenario was drawn.

    With ``always_max_faults`` every draw spends the full budget ``k``
    where capacity allows: each fault lands on a uniformly chosen
    still-open instance, so scenarios carry exactly ``k`` faults unless
    the whole system's capacity ``sum(reexecutions + 1)`` is below ``k``
    (then the draw saturates at that capacity).  Without it the total is
    uniform over ``0..k`` first, then distributed the same way.
    """
    caps = dict(_capacities(ft))
    instance_ids = sorted(caps)
    scenarios: list[FaultScenario] = []
    seen: set[tuple[tuple[str, int], ...]] = set()
    attempts = 0
    max_attempts = max(count * 4, 16)
    while len(scenarios) < count and attempts < max_attempts:
        attempts += 1
        budget = k if always_max_faults else rng.randint(0, k)
        failures: dict[str, int] = {}
        for _ in range(budget):
            open_targets = [i for i in instance_ids if failures.get(i, 0) < caps[i]]
            if not open_targets:
                break
            target = rng.choice(open_targets)
            failures[target] = failures.get(target, 0) + 1
        key = tuple(sorted(failures.items()))
        if key in seen:
            continue
        seen.add(key)
        scenarios.append(FaultScenario(failures=failures))
    return scenarios


def adversarial_scenarios(ft: FTGraph, k: int) -> list[FaultScenario]:
    """Directed scenarios that stress the analytical worst cases.

    For every process: exhaust the re-executions of each replica in turn
    (time-redundancy worst case) and kill replicas in replica order until the
    budget runs out (space-redundancy worst case).
    """
    scenarios: list[FaultScenario] = [FAULT_FREE]
    for process, replicas in sorted(ft.group_of.items()):
        # Worst-case re-execution: all k faults on the busiest replica.
        for iid in replicas:
            cap = min(k, ft.instance(iid).reexecutions + 1)
            if cap > 0:
                scenarios.append(FaultScenario(failures={iid: cap}))
        # Worst-case replication: kill replicas earliest-first.
        failures: dict[str, int] = {}
        budget = k
        for iid in replicas:
            cost = ft.instance(iid).reexecutions + 1
            if budget < cost:
                if budget > 0:
                    failures[iid] = budget
                    budget = 0
                break
            failures[iid] = cost
            budget -= cost
        if failures:
            scenarios.append(FaultScenario(failures=failures))
    unique = {tuple(sorted(s.failures.items())): s for s in scenarios}
    return list(unique.values())
