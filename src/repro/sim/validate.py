"""Validation of synthesized schedules by fault injection.

For every injected scenario with at most *k* faults the validator checks:

1. **liveness** — every process produces output from at least one replica
   and no instance starves for input;
2. **analysis soundness** — every surviving instance finishes no later than
   its analytical worst-case finish, and every process no later than its
   guaranteed completion;
3. **deadlines** — processes with (absolute) deadlines meet them.

This closes the loop on the conservative approximations documented in
``DESIGN.md``: the analytical bound is checked *from below* by execution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import FaultToleranceViolation
from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph
from repro.schedule.record import ScheduleRecord
from repro.schedule.table import SystemSchedule
from repro.sim.engine import SystemSimulator
from repro.ttp.bus import BusConfig
from repro.sim.faults import (
    FaultScenario,
    adversarial_scenarios,
    enumerate_scenarios,
    sample_scenarios,
)

_EPS = 1e-6

#: Below this instance count, all <=k scenarios are enumerated exhaustively.
_EXHAUSTIVE_LIMIT = 400


@dataclass(frozen=True)
class Violation:
    """One structured check failure of one scenario.

    ``kind`` is a stable machine-readable class (``starved``,
    ``dead_process``, ``wcf_exceeded``, ``completion_exceeded``,
    ``deadline_missed``) consumed by the fault-injection aggregator;
    ``subject`` names the failing instance or process; ``detail`` is the
    human-readable message (without the scenario tag prefix).
    """

    kind: str
    subject: str
    detail: str


@dataclass
class ValidationReport:
    """Aggregated outcome of a validation run."""

    scenarios_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return f"{status} over {self.scenarios_checked} fault scenarios"


def default_scenarios(
    schedule: SystemSchedule,
    samples: int = 200,
    rng: random.Random | None = None,
) -> list[FaultScenario]:
    """Exhaustive for small systems, adversarial + random sampling otherwise."""
    ft = schedule.ft
    k = schedule.faults.k
    approx = (len(ft) + 1) ** min(k, 4)
    if approx <= _EXHAUSTIVE_LIMIT:
        return list(enumerate_scenarios(ft, k))
    rng = rng or random.Random(0xFA17)
    scenarios = adversarial_scenarios(ft, k)
    scenarios += sample_scenarios(ft, k, rng, count=samples)
    scenarios += sample_scenarios(
        ft, k, rng, count=max(10, samples // 10), always_max_faults=True
    )
    return scenarios


def validate_schedule(
    schedule: SystemSchedule,
    scenarios: Iterable[FaultScenario] | None = None,
    samples: int = 200,
    rng: random.Random | None = None,
) -> ValidationReport:
    """Simulate ``schedule`` under fault scenarios and collect violations."""
    simulator = SystemSimulator(schedule)
    report = ValidationReport()
    if scenarios is None:
        scenarios = default_scenarios(schedule, samples=samples, rng=rng)
    for scenario in scenarios:
        report.scenarios_checked += 1
        _check_one(simulator, scenario, report)
    return report


def validate_record(
    record: ScheduleRecord,
    graph: ProcessGraph,
    ft: FTGraph,
    faults: FaultModel,
    bus: BusConfig,
    scenarios: Iterable[FaultScenario] | None = None,
    samples: int = 200,
    rng: random.Random | None = None,
) -> ValidationReport:
    """Fault-inject a bare schedule IR rebound to its model context.

    This is the replay path for records that crossed a process boundary
    (experiment workers return :class:`ScheduleRecord` values, not view
    objects): the record is wrapped in a lazy view against a locally
    expanded FT graph and validated exactly like a freshly synthesized
    schedule.
    """
    schedule = SystemSchedule.from_record(record, graph, ft, faults, bus)
    return validate_schedule(schedule, scenarios=scenarios, samples=samples, rng=rng)


def check_scenario(
    simulator: SystemSimulator,
    scenario: FaultScenario,
) -> list[Violation]:
    """Simulate one scenario and classify every check failure.

    This is the single classification point shared by
    :func:`validate_schedule` and the fault-injection runner
    (:mod:`repro.inject.runner`): both see identical violation kinds and
    messages for the same scenario.
    """
    schedule = simulator.schedule
    k = schedule.faults.k
    if scenario.total_faults > k:
        raise FaultToleranceViolation(
            f"scenario {scenario.describe()} exceeds the fault model (k={k})"
        )
    result = simulator.run(scenario)
    violations: list[Violation] = []

    for iid in result.starved:
        violations.append(
            Violation("starved", iid, f"instance {iid} starved for input")
        )
    for process in result.dead_processes:
        violations.append(
            Violation(
                "dead_process", process,
                f"process {process} produced no output",
            )
        )

    for iid, record in result.executions.items():
        if not record.produced:
            continue
        bound = schedule.placements[iid].wcf
        if record.finish > bound + _EPS:
            violations.append(
                Violation(
                    "wcf_exceeded", iid,
                    f"instance {iid} finished at {record.finish:.3f} "
                    f"after its analytical WCF {bound:.3f}",
                )
            )

    for process, completion in result.completions.items():
        guaranteed = schedule.completions[process]
        if completion > guaranteed + _EPS:
            violations.append(
                Violation(
                    "completion_exceeded", process,
                    f"process {process} completed at {completion:.3f} "
                    f"after its guaranteed completion {guaranteed:.3f}",
                )
            )
        deadline = schedule.graph.process(process).deadline
        if deadline is not None and completion > deadline + _EPS:
            violations.append(
                Violation(
                    "deadline_missed", process,
                    f"process {process} missed its deadline "
                    f"{deadline:.3f} (finished {completion:.3f})",
                )
            )
    return violations


@dataclass
class BatchReport:
    """Per-kind ``(B,)`` violation masks of one batched replay.

    ``masks[kind][j]`` is True iff scalar :func:`check_scenario` on
    column ``j``'s scenario would report at least one violation of
    ``kind`` — the contract that lets the injection runner classify
    whole blocks with array comparisons and re-materialize *only* the
    violating columns as :class:`FaultScenario` objects for exemplar
    detail.
    """

    masks: dict[str, np.ndarray]
    violating: np.ndarray  # OR over the kinds

    @property
    def columns(self) -> int:
        return int(self.violating.shape[0])

    def violating_columns(self) -> np.ndarray:
        """Indices of columns with at least one violation, ascending."""
        return np.flatnonzero(self.violating)


class BatchChecker:
    """Compiled array form of :func:`check_scenario`'s bound checks.

    The analytical thresholds (per-instance WCF, per-process guaranteed
    completion and deadline) are precomputed *with the epsilon already
    added* — one float addition per bound, the same single operation the
    scalar comparison performs — so the array comparisons agree with the
    scalar path bit for bit.
    """

    def __init__(self, schedule: SystemSchedule, batch) -> None:
        self.schedule = schedule
        self.k = schedule.faults.k
        placements = schedule.placements
        self._wcf_thr = np.asarray(
            [placements[iid].wcf + _EPS for iid in batch.instance_ids],
            dtype=np.float64,
        )[:, None]
        completions = schedule.completions
        graph = schedule.graph
        guaranteed = []
        deadlines = []
        for process in batch.processes:
            guaranteed.append(completions[process] + _EPS)
            deadline = graph.process(process).deadline
            deadlines.append(np.inf if deadline is None else deadline + _EPS)
        self._guaranteed_thr = np.asarray(guaranteed, dtype=np.float64)[:, None]
        self._deadline_thr = np.asarray(deadlines, dtype=np.float64)[:, None]

    def check(self, result) -> BatchReport:
        """Classify every column of a :class:`~repro.sim.batch.BatchResult`.

        Raises :class:`FaultToleranceViolation` — with the scalar
        message, naming the first offending column's scenario — when any
        column spends more than ``k`` faults, mirroring the guard at the
        top of :func:`check_scenario`.
        """
        totals = result.failures.sum(axis=0)
        if totals.size and int(totals.max()) > self.k:
            column = int(np.argmax(totals > self.k))
            scenario = FaultScenario(failures={
                iid: int(count)
                for iid, count in zip(
                    result.sim.instance_ids, result.failures[:, column]
                )
                if count
            })
            raise FaultToleranceViolation(
                f"scenario {scenario.describe()} exceeds the fault model "
                f"(k={self.k})"
            )
        alive = result.process_alive
        masks = {
            "starved": result.starved.any(axis=0),
            "dead_process": (~alive).any(axis=0),
            "wcf_exceeded": (
                result.produced & (result.finish > self._wcf_thr)
            ).any(axis=0),
            "completion_exceeded": (
                alive & (result.completions > self._guaranteed_thr)
            ).any(axis=0),
            "deadline_missed": (
                alive & (result.completions > self._deadline_thr)
            ).any(axis=0),
        }
        violating = np.zeros(result.columns, dtype=bool)
        for mask in masks.values():
            violating |= mask
        return BatchReport(masks=masks, violating=violating)


def _check_one(
    simulator: SystemSimulator,
    scenario: FaultScenario,
    report: ValidationReport,
) -> None:
    tag = scenario.describe()
    for violation in check_scenario(simulator, scenario):
        report.add(f"{tag}: {violation.detail}")


def assert_fault_tolerant(
    schedule: SystemSchedule,
    scenarios: Sequence[FaultScenario] | None = None,
    samples: int = 200,
) -> ValidationReport:
    """Raise :class:`FaultToleranceViolation` unless validation passes."""
    report = validate_schedule(schedule, scenarios=scenarios, samples=samples)
    if not report.ok:
        preview = "; ".join(report.violations[:5])
        raise FaultToleranceViolation(
            f"schedule failed fault injection ({len(report.violations)} "
            f"violations): {preview}"
        )
    return report
