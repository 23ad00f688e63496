"""The overall optimization strategy and its evaluation variants (paper §5/§6).

``optimize`` implements ``OptimizationStrategy`` from Fig. 6:

1. initial bus access ``B0`` + ``InitialMPA`` (balanced mapping,
   re-execution everywhere) — stop if already schedulable;
2. ``GreedyMPA`` — stop if schedulable;
3. ``TabuSearchMPA``;
4. optional bus access optimization.

The experiment section compares five *variants* of this strategy:

========  ==================================================================
``MXR``   full strategy; policies may mix re-execution and replication
``MX``    mapping optimized, but only re-execution policies allowed
``MR``    mapping optimized, but only pure replication allowed
``NFT``   non-fault-tolerant reference (k=0) — the baseline of Table 1
``SFX``   straightforward approach: derive the best non-fault-tolerant
          mapping, then bolt re-execution on top without re-optimizing
========  ==================================================================

Applications without any deadline are optimized in *minimize* mode (the
search never stops early and the best schedule length is reported), which is
how the paper's Table 1 experiments are run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ConfigurationError
from repro.model.application import Application, ProcessGraph
from repro.model.architecture import Architecture
from repro.model.fault import NO_FAULTS, FaultModel
from repro.model.merge import merge_application
from repro.opt.busopt import optimize_bus_access
from repro.opt.cost import Cost
from repro.opt.evaluator import Evaluator
from repro.opt.greedy import greedy_mpa
from repro.opt.implementation import Implementation
from repro.opt.initial import initial_bus_access, initial_mpa, initial_policy_for
from repro.opt.tabu import tabu_search_mpa
from repro.schedule.table import SystemSchedule
from repro.ttp.bus import BusConfig


@dataclass(frozen=True)
class Variant:
    """One evaluation variant of the optimization strategy."""

    name: str
    description: str
    fault_tolerant: bool = True
    policy_mode: str = "all"  # "all" | "reexecution" | "replication"
    initial_replicas: int = 1
    optimize_moves: bool = True
    checkpoint_segments: tuple[int, ...] = ()  # extension, see Policy.checkpointing

    def replica_counts(self, k: int) -> tuple[int, ...]:
        """Replica counts the policy moves may choose from."""
        if not self.fault_tolerant:
            return ()
        if self.policy_mode == "reexecution":
            return (1,)
        if self.policy_mode == "replication":
            return (k + 1,)
        return tuple(range(1, k + 2))


VARIANTS: dict[str, Variant] = {
    "MXR": Variant(
        name="MXR",
        description="mapping + combined re-execution/replication (Fig. 6)",
    ),
    "MX": Variant(
        name="MX",
        description="mapping + re-execution only",
        policy_mode="reexecution",
    ),
    "MR": Variant(
        name="MR",
        description="mapping + active replication only",
        policy_mode="replication",
        initial_replicas=-1,  # resolved to k+1 at run time
    ),
    "NFT": Variant(
        name="NFT",
        description="optimized non-fault-tolerant reference",
        fault_tolerant=False,
    ),
    "SFX": Variant(
        name="SFX",
        description="NFT mapping, then re-execution without re-optimization",
        policy_mode="reexecution",
        optimize_moves=False,
    ),
    "MXC": Variant(
        name="MXC",
        description=(
            "extension: MXR plus checkpointed re-execution policies "
            "(segment-level recovery)"
        ),
        checkpoint_segments=(2, 4),
    ),
}


@dataclass
class OptimizationConfig:
    """Tunables of the optimization strategy (paper used CPU-time limits).

    ``rounds`` alternates GreedyMPA and TabuSearchMPA: with the scaled-down
    iteration budgets of this reproduction, a single greedy+tabu pass over
    the full mixed policy space can be trapped by early replication moves,
    so the first round of the ``MXR`` variant explores mapping moves with
    re-execution policies only and later rounds open the full policy space
    (the paper achieved the same effect with hours-long tabu runs).
    """

    greedy_max_iterations: int = 50
    tabu_max_iterations: int = 25
    tabu_tenure: int | None = 6
    rounds: int = 3
    time_limit_s: float | None = None
    ms_per_byte: float = 1.0
    bus: BusConfig | None = None
    minimize: bool | None = None  # None: auto-detect (no deadlines anywhere)
    optimize_bus: bool = False
    bus_scale_factors: tuple[float, ...] = ()
    cache_size: int | None = None  # None: Evaluator's DEFAULT_CACHE_SIZE


@dataclass
class OptimizationResult:
    """Everything a caller needs about one optimization run."""

    variant: str
    implementation: Implementation
    schedule: SystemSchedule
    cost: Cost
    faults: FaultModel
    merged: ProcessGraph
    evaluations: int = 0
    cache_hits: int = 0
    stage_costs: dict[str, Cost] = field(default_factory=dict)
    iterations: dict[str, int] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.cost.makespan

    @property
    def is_schedulable(self) -> bool:
        return self.cost.schedulable

    @property
    def record(self):
        """The compact, picklable IR of the winning schedule."""
        return self.schedule.record


def _make_evaluator(
    merged: ProcessGraph, faults: FaultModel, config: OptimizationConfig
) -> Evaluator:
    if config.cache_size is None:
        return Evaluator(merged, faults)
    return Evaluator(merged, faults, cache_size=config.cache_size)


def optimize(
    application: Application,
    architecture: Architecture,
    faults: FaultModel,
    variant: str = "MXR",
    config: OptimizationConfig | None = None,
) -> OptimizationResult:
    """Run one strategy variant on ``application`` (see module docstring)."""
    config = config or OptimizationConfig()
    try:
        spec = VARIANTS[variant.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}"
        ) from None

    if spec.name == "SFX":
        return _run_sfx(application, architecture, faults, config)

    effective_faults = faults if spec.fault_tolerant else NO_FAULTS
    merged = merge_application(application)
    bus = config.bus or initial_bus_access(
        application, architecture, config.ms_per_byte
    )
    evaluator = _make_evaluator(merged, effective_faults, config)
    span = obs.span("optimize", variant=spec.name)
    with span:
        result = _optimize_moves(
            spec, config, merged, architecture, effective_faults, bus,
            evaluator,
        )
        span.set(
            evaluations=result.evaluations, cache_hits=result.cache_hits
        )
        evaluator.publish_metrics()
    return result


def _optimize_moves(
    spec: Variant,
    config: OptimizationConfig,
    merged: ProcessGraph,
    architecture: Architecture,
    effective_faults: FaultModel,
    bus: BusConfig,
    evaluator: Evaluator,
) -> OptimizationResult:
    """The move-optimization core of :func:`optimize` (span-wrapped there)."""

    minimize = config.minimize
    if minimize is None:
        minimize = all(
            process.deadline is None for process in merged.processes.values()
        )
    stop_when_schedulable = not minimize

    initial_replicas = spec.initial_replicas
    if initial_replicas == -1:
        initial_replicas = effective_faults.k + 1
    current = initial_mpa(
        merged, architecture, effective_faults, bus, initial_replicas
    )
    cost, initial_schedule = evaluator.evaluate_full(current)

    result = OptimizationResult(
        variant=spec.name,
        implementation=current,
        schedule=initial_schedule,
        cost=cost,
        faults=effective_faults,
        merged=merged,
    )
    result.stage_costs["initial"] = cost

    counts = spec.replica_counts(effective_faults.k)
    if spec.optimize_moves and not (stop_when_schedulable and cost.schedulable):
        deadline = (
            None
            if config.time_limit_s is None
            else time.monotonic() + config.time_limit_s
        )
        for round_index in range(max(1, config.rounds)):
            if stop_when_schedulable and cost.schedulable:
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            # Staged neighbourhood: the first MXR round optimizes the
            # mapping under re-execution only; later rounds add policy moves.
            round_counts = counts
            if spec.policy_mode == "all" and round_index == 0:
                round_counts = (1,)

            greedy_remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            round_segments = spec.checkpoint_segments if round_counts == counts else ()
            greedy = greedy_mpa(
                merged,
                effective_faults,
                evaluator,
                current,
                round_counts,
                max_iterations=config.greedy_max_iterations,
                stop_when_schedulable=stop_when_schedulable,
                time_limit_s=greedy_remaining,
                checkpoint_segments=round_segments,
            )
            start = greedy.implementation
            start_cost = greedy.cost
            if cost.is_better_than(start_cost):
                start, start_cost = current, cost
            result.stage_costs[f"greedy[{round_index}]"] = start_cost
            result.iterations[f"greedy[{round_index}]"] = greedy.iterations
            if stop_when_schedulable and start_cost.schedulable:
                current, cost = start, start_cost
                break

            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            tabu = tabu_search_mpa(
                merged,
                effective_faults,
                evaluator,
                start,
                round_counts,
                max_iterations=config.tabu_max_iterations,
                tabu_tenure=config.tabu_tenure,
                time_limit_s=remaining,
                stop_when_schedulable=stop_when_schedulable,
                checkpoint_segments=round_segments,
            )
            result.stage_costs[f"tabu[{round_index}]"] = tabu.cost
            result.iterations[f"tabu[{round_index}]"] = tabu.iterations
            improved = tabu.cost.is_better_than(cost)
            if improved or start_cost.is_better_than(cost):
                current = (
                    tabu.implementation if improved else start
                )
                cost = tabu.cost if improved else start_cost
            elif round_counts == counts:
                break  # converged on the full neighbourhood

    if config.optimize_bus:
        current, cost = optimize_bus_access(
            evaluator, current, scale_factors=config.bus_scale_factors
        )
        result.stage_costs["bus"] = cost

    result.implementation = current
    result.cost = cost
    result.schedule = evaluator.evaluate_full(current)[1]
    result.evaluations = evaluator.evaluations
    result.cache_hits = evaluator.cache_hits
    return result


def _run_sfx(
    application: Application,
    architecture: Architecture,
    faults: FaultModel,
    config: OptimizationConfig,
) -> OptimizationResult:
    """SFX: best NFT mapping, then re-execution bolted on (paper §6, Fig. 10)."""
    nft = optimize(application, architecture, faults, variant="NFT", config=config)

    merged = nft.merged
    evaluator = _make_evaluator(merged, faults, config)
    implementation = nft.implementation.copy()
    for name, process in merged.processes.items():
        policy = initial_policy_for(process, faults, default_replicas=1)
        implementation.policies[name] = policy
        primary = implementation.mapping[name][0]
        if policy.n_replicas == 1:
            implementation.mapping.assign(name, (primary,))
        else:
            from repro.opt.initial import place_replicas

            wcets = {n: p.wcet for n, p in merged.processes.items()}
            load = implementation.mapping.node_load(wcets)
            implementation.mapping.assign(
                name, place_replicas(process, policy.n_replicas, primary, load)
            )

    cost, schedule = evaluator.evaluate_full(implementation)
    result = OptimizationResult(
        variant="SFX",
        implementation=implementation,
        schedule=schedule,
        cost=cost,
        faults=faults,
        merged=merged,
        evaluations=evaluator.evaluations + nft.evaluations,
        cache_hits=evaluator.cache_hits + nft.cache_hits,
    )
    result.stage_costs["nft"] = nft.cost
    result.stage_costs["sfx"] = cost
    evaluator.publish_metrics()
    return result
