"""The unit under injection: a schedule record plus its model context.

A shard job must be executable by any worker on any machine, so the
target carries everything needed to rebuild the replay context — the
application, the fault model, the implementation (policies + mapping +
bus) and the synthesized :class:`~repro.schedule.record.ScheduleRecord` —
as canonical JSON in its :mod:`repro.io.codec` form.  The FT graph is
*derived*, never shipped:
``build_ft_graph(merge_application(app), policies, mapping, faults)`` is
deterministic, so every worker reconstructs the identical graph (which is
what makes shard coordinates portable, see :mod:`repro.inject.space`).

The target's fingerprint (sha256 of its canonical JSON) names the sweep:
it participates in every shard fingerprint, so resuming against a broker
that holds a *different* target's shards is detected, not silently mixed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.errors import SimulationError
from repro.inject.importance import importance_scenarios
from repro.inject.space import ScenarioSpace
from repro.io.codec import canonical_json, encode
from repro.model.application import Application, ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph, build_ft_graph
from repro.model.merge import merge_application
from repro.opt.implementation import Implementation
from repro.schedule.record import ScheduleRecord
from repro.sim.batch import BatchSimulator
from repro.sim.engine import SystemSimulator
from repro.sim.faults import FaultScenario
from repro.sim.validate import BatchChecker


@dataclass(frozen=True)
class InjectContext:
    """Rebuilt replay context of one target (derived, worker-side).

    Carries both replay tiers: the scalar :class:`SystemSimulator`
    (exemplar detail, fallback) and the columnar :class:`BatchSimulator`
    plus its compiled :class:`BatchChecker` (the shard hot path) — all
    derived from the same record, compiled once per target.  The
    scenario space and the importance list are derived on first use and
    then kept with the context, so every shard of a sweep shares them.
    """

    merged: ProcessGraph
    ft: FTGraph
    record: ScheduleRecord
    k: int
    simulator: SystemSimulator
    batch: BatchSimulator
    checker: BatchChecker

    @cached_property
    def space(self) -> ScenarioSpace:
        """The target's ≤k count-vector scenario space."""
        return ScenarioSpace.of(self.ft, self.k)

    @cached_property
    def importance(self) -> list[FaultScenario]:
        """The deterministic importance list (wave 0 of every plan)."""
        return importance_scenarios(self.record, self.ft, self.k)


@dataclass(frozen=True)
class InjectTarget:
    """A validated-schedule candidate plus everything needed to replay it."""

    application: Application
    faults: FaultModel
    implementation: Implementation
    record: ScheduleRecord
    label: str = "target"

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON form (names the whole sweep)."""
        return hashlib.sha256(canonical_json(encode(self)).encode()).hexdigest()

    def build_context(self) -> InjectContext:
        """Rebuild the deterministic replay context (merged graph, FT
        graph, simulator bound to the record)."""
        merged = merge_application(self.application)
        ft = build_ft_graph(
            merged,
            self.implementation.policies,
            self.implementation.mapping,
            self.faults,
        )
        simulator = SystemSimulator.from_record(
            self.record, merged, ft, self.faults, self.implementation.bus
        )
        batch = BatchSimulator(simulator)
        checker = BatchChecker(simulator.schedule, batch)
        return InjectContext(
            merged=merged, ft=ft, record=self.record, k=self.faults.k,
            simulator=simulator, batch=batch, checker=checker,
        )


# -- worker-side context cache ------------------------------------------------

#: Rebuilt contexts keyed by target fingerprint.  A sweep's shards all
#: share one target, so a worker draining a queue rebuilds the (graph,
#: FT graph, simulator, scenario space, importance list) context once,
#: not once per shard.
_CONTEXT_CACHE: dict[str, InjectContext] = {}
_CONTEXT_CACHE_LIMIT = 4


def cached_context(
    fingerprint: str, build: Callable[[], InjectContext]
) -> InjectContext:
    """The replay context of the target named by ``fingerprint``, via the
    bounded worker-side LRU cache; ``build()`` runs only on a miss.

    Hits move the entry to the back of the insertion order, so eviction
    drops the *least recently used* fingerprint — a worker interleaving
    shards of more than ``_CONTEXT_CACHE_LIMIT`` targets never evicts
    the context it is actively replaying against.
    """
    context = _CONTEXT_CACHE.pop(fingerprint, None)
    if context is None:
        context = build()
        if len(_CONTEXT_CACHE) >= _CONTEXT_CACHE_LIMIT:
            _CONTEXT_CACHE.pop(next(iter(_CONTEXT_CACHE)))
    _CONTEXT_CACHE[fingerprint] = context
    return context


def target_from_optimization(result, application: Application) -> InjectTarget:
    """Wrap an :class:`~repro.opt.strategy.OptimizationResult` winner.

    Raises when the optimizer produced no record (nothing to inject).
    """
    if result.record is None:
        raise SimulationError(
            "optimization result carries no schedule record to inject"
        )
    return InjectTarget(
        application=application,
        faults=result.faults,
        implementation=result.implementation,
        record=result.record,
        label=getattr(result, "variant", "target"),
    )
