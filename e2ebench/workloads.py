"""The benchmark's four workloads: pinned inputs, one timed pass, output checks.

Two seeds make the inputs.  ``case_seed`` picks the problem instances:
the Table 1a case seed and the injection target seeds (0 is the
default, 1 the held-out seed).  ``seed`` drives the random draws
of one run: the validation samples of every synthesis winner and the
stratified draws of the injection sweep.  The instances stay fixed under
``seed`` because their work does not: the 20p/2n/k3 MXR search runs
1,780 to 3,003 evaluations (1.2 to 3.1 s) over case seeds 0 to 5, which
would bury any regression bound.

Every ``OptimizationConfig`` is written out here rather than taken from
``budget_for`` or ``cruise_config``, with no clock limit, so a change to
those helpers or to a config default cannot silently change a workload.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field

from repro import obs
from repro.apps.cruise_control import cruise_control_case
from repro.gen.suite import generate_case
from repro.inject.driver import run_inject_sweep
from repro.inject.importance import importance_scenarios
from repro.inject.plan import MODE_EXHAUSTIVE, MODE_SAMPLED, plan_sweep
from repro.inject.runner import run_shard
from repro.inject.space import ScenarioSpace
from repro.inject.target import InjectTarget
from repro.model.ftgraph import build_ft_graph
from repro.model.merge import merge_application
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.opt.strategy import OptimizationConfig, optimize
from repro.schedule.list_scheduler import build_schedule_record, list_schedule
from repro.sim.validate import validate_record

#: Random samples per winner validation (plus the adversarial list).
VALIDATE_SAMPLES = 200
SHARD_SIZE = 1_024

# The cases, variants and budget below keep every pass at 1.1 to 3.5 s on
# an unloaded host, so that a run times each unit many times (see
# NOTES.md, Steadiness).
SAMPLED_BUDGET = 24_000
#: (processes, nodes, k, replicas per process) of each injection target.
INJECT_CASES = {
    "inject-exhaustive": (40, 4, 4, 1),
    "inject-sampled": (60, 4, 5, 2),
}
CRUISE_VARIANTS = ("NFT", "MXR")

#: Always-on registry counters the search increments once per iteration.
ITERATION_COUNTERS = frozenset(
    ("search.greedy.iterations", "search.tabu.iterations")
)

#: Config fields the workloads leave at their defaults, with the value
#: the workloads depend on: all-exact pricing, the initial bus, no clock.
NEUTRAL_FIELDS = (
    ("time_limit_s", None),
    ("shortlist", None),
    ("optimize_bus", False),
    ("bus", None),
    ("bus_scale_factors", ()),
)


class BenchError(RuntimeError):
    """A workload could not be built as pinned."""


def pinned_config(**fields) -> OptimizationConfig:
    """An ``OptimizationConfig`` with every workload-relevant field pinned."""
    config = OptimizationConfig(**fields)
    for name, expected in NEUTRAL_FIELDS:
        if getattr(config, name, expected) != expected:
            raise BenchError(
                f"OptimizationConfig.{name} defaults to "
                f"{getattr(config, name)!r}; the workloads assume {expected!r}"
            )
    return config


def table1_config() -> OptimizationConfig:
    """``budget_for``'s iteration caps, without its clock limit."""
    return pinned_config(
        minimize=True, rounds=3, greedy_max_iterations=40,
        tabu_max_iterations=30, tabu_tenure=6, ms_per_byte=1.0,
        time_limit_s=None,
    )


def cruise_bench_config() -> OptimizationConfig:
    """``cruise_config``'s budget, written out."""
    return pinned_config(
        minimize=True, rounds=4, greedy_max_iterations=40,
        tabu_max_iterations=40, tabu_tenure=6, ms_per_byte=2.0,
        time_limit_s=None,
    )


@dataclass
class Tally:
    """Operations attempted and failed; an operation is a synthesis job,
    a validation or an injection shard."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


@dataclass
class PassResult:
    """One timed pass over a workload's whole job list or sweep."""

    #: Seconds of each unit of the pass, in order: a search iteration (the
    #: rest of a synthesis job and its validation are one unit each) or
    #: an injection shard (with its fold).  Units do the same work in
    #: every pass.
    unit_s: list[float] = field(default_factory=list)
    search_s: float = 0.0  # summed optimize() time (synthesis)
    evaluations: int = 0
    scenarios: int = 0  # fault scenarios replayed
    winners: list = field(default_factory=list)  # synthesis: Winner | None
    aggregate: object = None  # injection: the folded InjectAggregate
    completed_shards: int = 0


# -- synthesis workloads ------------------------------------------------------


class IterationClock:
    """Clock reads at every search iteration, taken inside ``with``.

    The search increments :data:`ITERATION_COUNTERS` in the process
    registry once per greedy or tabu iteration.  Inside the block the
    registry's ``inc`` also appends ``time.perf_counter()`` to
    :attr:`stamps` for those counters, which splits a synthesis job into
    units of one iteration each (tens of milliseconds) at the cost of one
    clock read per iteration.
    """

    def __init__(self) -> None:
        self.registry = obs.get_registry()
        self.stamps: list[float] = []

    def __enter__(self) -> "IterationClock":
        registry, stamps = self.registry, self.stamps
        inc = type(registry).inc

        def stamping_inc(name, amount=1.0):
            inc(registry, name, amount)
            if name in ITERATION_COUNTERS:
                stamps.append(time.perf_counter())

        registry.inc = stamping_inc
        return self

    def __exit__(self, *exc) -> None:
        del self.registry.inc


@dataclass(frozen=True)
class Job:
    label: str
    application: object
    architecture: object
    faults: object
    variant: str
    config: OptimizationConfig


@dataclass
class Winner:
    """One job's synthesized design plus what its checks need."""

    label: str
    makespan: float
    schedulable: bool
    evaluations: int
    record: object
    merged: object
    ft: object
    faults: object
    bus: object
    violations: list[str]


class SynthWorkload:
    """synth-table1 and synth-cruise: synthesize every (case, variant)
    job, then fault-inject its winner."""

    def __init__(self, name: str, case_seed: int, seed: int) -> None:
        self.name = name
        self.case_seed = case_seed
        self.seed = seed
        self.tally = Tally()
        self.jobs: list[Job] = []

    def set_up(self) -> None:
        if self.name == "synth-table1":
            case = generate_case(20, 2, 3, mu=5.0, seed=self.case_seed)
            config = table1_config()
            self.jobs = [
                Job(f"20p-s{case.seed}/{variant}", case.application,
                    case.architecture, case.faults, variant, config)
                for variant in ("NFT", "MXR")
            ]
        else:
            application, architecture, faults = cruise_control_case()
            config = cruise_bench_config()
            self.jobs = [
                Job(f"cruise/{variant}", application, architecture, faults,
                    variant, config)
                for variant in CRUISE_VARIANTS
            ]

    def warm_up(self) -> None:
        """Nothing to fill: a search keeps no state between jobs."""

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.label
            self.tally.attempted += 2  # the synthesis and the validation
            t0 = time.perf_counter()
            try:
                with IterationClock() as clock:
                    run = optimize(job.application, job.architecture,
                                   job.faults, job.variant, job.config)
                t1 = time.perf_counter()
                implementation = run.implementation
                ft = build_ft_graph(run.merged, implementation.policies,
                                    implementation.mapping, run.faults)
                report = validate_record(
                    run.record, run.merged, ft, run.faults,
                    implementation.bus, samples=VALIDATE_SAMPLES,
                    rng=random.Random(f"{self.seed}/{job.label}"),
                )
            except Exception:
                self.tally.fail(
                    2, f"{job.label} raised:\n{traceback.format_exc()}"
                )
                result.winners.append(None)
                result.unit_s.append(time.perf_counter() - t0)
                continue
            marks = [t0, *clock.stamps, t1, time.perf_counter()]
            result.unit_s += [b - a for a, b in zip(marks, marks[1:])]
            result.search_s += t1 - t0
            result.evaluations += run.evaluations
            result.scenarios += report.scenarios_checked
            result.winners.append(Winner(
                label=job.label, makespan=run.makespan,
                schedulable=run.is_schedulable, evaluations=run.evaluations,
                record=run.record, merged=run.merged, ft=ft,
                faults=run.faults, bus=implementation.bus,
                violations=list(report.violations),
            ))
        return result

    def _runs(self, passes: list[PassResult]) -> list[list[Winner]]:
        """Every job's winners over the passes, failed runs left out."""
        return [[p.winners[index] for p in passes
                 if p.winners[index] is not None]
                for index in range(len(self.jobs))]

    def check(self, passes: list[PassResult]) -> None:
        """Delta tier == cold path, sound validations, identical repeats."""
        tally = self.tally
        if any(job.config.time_limit_s is not None for job in self.jobs):
            tally.fail(len(self.jobs), "a synthesis ran under a clock cap")
        if len({len(p.unit_s) for p in passes}) > 1:
            tally.fail(len(self.jobs), "passes ran different numbers of "
                                       "search iterations")
        for runs in self._runs(passes):
            if not runs:
                continue
            winner = runs[0]
            cold = build_schedule_record(
                winner.merged, winner.ft, winner.faults, winner.bus
            )
            if repr(cold) != repr(winner.record):
                tally.fail(1, f"{winner.label}: record differs from a "
                              "cold pass")
            if winner.schedulable:
                if winner.violations:
                    tally.fail(1, f"{winner.label}: schedulable winner "
                                  f"failed validation: "
                                  f"{winner.violations[:3]}")
            elif not all("missed its deadline" in v
                         for v in winner.violations):
                tally.fail(1, f"{winner.label}: unschedulable winner broke "
                              f"more than its deadline: "
                              f"{winner.violations[:3]}")
            for again in runs[1:]:
                if (again.makespan, again.evaluations, repr(again.record)) != (
                    winner.makespan, winner.evaluations, repr(winner.record)
                ):
                    tally.fail(2, f"{winner.label}: repeat gave another "
                                  "design")

    def designs(self, passes: list[PassResult]) -> list[tuple[float, bool]]:
        """(makespan, schedulable) of every job that produced a winner."""
        return [(runs[0].makespan, runs[0].schedulable)
                for runs in self._runs(passes) if runs]


# -- injection workloads ------------------------------------------------------


class InjectWorkload:
    """inject-exhaustive and inject-sampled: one inline batched sweep of
    an initial-MPA design per pass."""

    def __init__(self, name: str, case_seed: int, seed: int) -> None:
        self.name = name
        self.case_seed = case_seed
        self.seed = seed
        self.tally = Tally()
        self.target: InjectTarget | None = None
        self.plan = None
        self.space: ScenarioSpace | None = None
        self.importance = 0

    def _target(self) -> InjectTarget:
        n_processes, n_nodes, k, replicas = INJECT_CASES[self.name]
        case = generate_case(n_processes, n_nodes, k, mu=5.0,
                             seed=self.case_seed)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        implementation = initial_mpa(merged, case.architecture, case.faults,
                                     bus, replicas)
        schedule = list_schedule(merged, case.faults,
                                 implementation.policies,
                                 implementation.mapping, bus)
        return InjectTarget(
            application=case.application, faults=case.faults,
            implementation=implementation, record=schedule.record,
            label=f"{self.name}-{n_processes}p{n_nodes}n-k{k}-"
                  f"s{self.case_seed}",
        )

    def set_up(self) -> None:
        """Target, scenario space, importance list and the sweep plan."""
        target = self._target()
        context = target.build_context()
        k = target.faults.k
        space = ScenarioSpace.of(context.ft, k)
        ranked = importance_scenarios(target.record, context.ft, k)
        if self.name == "inject-exhaustive":
            plan = plan_sweep(space, len(ranked),
                              budget=space.total + len(ranked),
                              shard_size=SHARD_SIZE, seed=self.seed,
                              tier="exhaustive")
        else:
            plan = plan_sweep(space, len(ranked), budget=SAMPLED_BUDGET,
                              shard_size=SHARD_SIZE, seed=self.seed)
        modes = set(plan.modes.values())
        if self.name == "inject-exhaustive":
            as_pinned = modes == {MODE_EXHAUSTIVE}
        else:
            as_pinned = MODE_SAMPLED in modes and modes <= {
                MODE_EXHAUSTIVE, MODE_SAMPLED
            }
        if not as_pinned:
            raise BenchError(f"{self.name}: unexpected plan "
                             f"{plan.describe()}")
        self.target, self.plan, self.space = target, plan, space
        self.importance = len(ranked)

    def warm_up(self) -> None:
        """Fill the injection runner's per-target caches (replay context,
        scenario space, importance list) with a one-scenario sweep, so
        that no timed pass pays for them."""
        plan = plan_sweep(self.space, self.importance, budget=1,
                          shard_size=1, seed=self.seed)
        run_inject_sweep(self.target, plan)

    def run_pass(self, tracer=None) -> PassResult:
        shards = len(self.plan.shards)
        self.tally.attempted += shards
        if tracer is not None:
            tracer.job = self.target.label
        # run_inject_sweep reports every folded shard to its progress
        # sink; the time between two reports is that shard's run plus its
        # fold.
        stamps = [time.perf_counter()]
        try:
            aggregate, stats = run_inject_sweep(
                self.target, self.plan,
                progress=lambda _line: stamps.append(time.perf_counter()),
            )
        except Exception:
            self.tally.fail(shards,
                            f"sweep raised:\n{traceback.format_exc()}")
            return PassResult()
        stamps[-1] = time.perf_counter()  # the last unit takes the wrap-up
        return PassResult(
            unit_s=[b - a for a, b in zip(stamps, stamps[1:])],
            scenarios=aggregate.scenarios,
            aggregate=aggregate, completed_shards=stats.completed,
        )

    def check(self, passes: list[PassResult]) -> None:
        """Complete, violation-free, identical sweeps; batched == scalar."""
        plan, tally = self.plan, self.tally
        shards = len(plan.shards)
        reference = None
        for number, done in enumerate(passes):
            aggregate = done.aggregate
            if aggregate is None:
                continue
            problems = []
            if not aggregate.ok:
                problems.append(f"{aggregate.violation_scenarios} violations")
            if aggregate.draws != plan.total_scenarios:
                problems.append(f"draws {aggregate.draws} != "
                                f"{plan.total_scenarios}")
            if done.completed_shards != shards or not aggregate.complete:
                problems.append(f"{done.completed_shards}/{shards} shards")
            summary = _untimed(aggregate.to_dict())
            if reference is None:
                reference = summary
            elif summary != reference:
                problems.append("aggregate differs from the first pass")
            if problems:
                tally.fail(shards, f"pass {number}: " + "; ".join(problems))
        # The scalar simulator is the reference the batched kernel must
        # match; the last shard covers the highest fault-count stratum.
        spec = plan.shards[-1]
        fingerprint = self.target.fingerprint()
        tally.attempted += 1
        try:
            batched = run_shard(self.target, spec, fingerprint)
            scalar = run_shard(self.target, spec, fingerprint, batch_size=0)
        except Exception:
            tally.fail(1, f"reference shard raised:\n"
                          f"{traceback.format_exc()}")
            return
        if _untimed(batched.to_dict()) != _untimed(scalar.to_dict()):
            tally.fail(1, f"shard {spec.describe()}: batched != scalar")

    def designs(self, passes: list[PassResult]) -> list[tuple[float, bool]]:
        """(makespan, schedulable) of the injected design."""
        record = self.target.record
        return [(record.makespan, record.degree_of_schedulability() == 0.0)]


def _untimed(summary: dict) -> dict:
    """A shard or aggregate summary without its timing fields."""
    for key in ("elapsed_s", "phase_s", "scenarios_per_sec"):
        summary.pop(key, None)
    return summary


def make_workload(name: str, case_seed: int, seed: int):
    kind = SynthWorkload if name.startswith("synth-") else InjectWorkload
    return kind(name, case_seed, seed)
