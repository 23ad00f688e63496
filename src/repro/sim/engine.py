"""Execution of a synthesized system schedule under injected faults.

The simulator replays one operation cycle: node kernels execute their static
schedule chains (sliding into recovery slack on faults), TTP controllers
broadcast frames at fixed MEDL times, and receivers start once the *first
valid* input from each replica group has arrived.

Because the system is time-triggered, the global order of events is the
placement order produced by the list scheduler; replaying instances in that
order is equivalent to an event-queue simulation (every instance's inputs
and local predecessors strictly precede it in the order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import FTGraph
from repro.schedule.record import ScheduleRecord
from repro.schedule.table import SystemSchedule
from repro.sim.controller import TTPBusModel
from repro.sim.faults import FaultScenario
from repro.sim.kernel import ExecutionRecord, NodeKernel
from repro.ttp.bus import BusConfig


@dataclass(frozen=True)
class _SourcePlan:
    """One potential input arrival, resolved against the FT graph once."""

    iid: str
    local: bool  # same node: read the producer's finish directly
    message_ids: tuple[str, ...]  # else: bus messages carrying this group


@dataclass(frozen=True)
class _InstancePlan:
    """Everything :meth:`SystemSimulator.run` needs for one instance.

    Replaying a scenario is a pure function of (plans, failure counts):
    all FT-graph traversal — input groups, replica sources, outgoing bus
    messages, name matching — happens once at simulator construction, so
    million-scenario sweeps pay only the arithmetic per run.
    """

    iid: str
    instance: object
    node: str
    table_start: float
    release: float
    groups: tuple[tuple[_SourcePlan, ...], ...]
    out_message_ids: tuple[str, ...]


@dataclass
class SimulationResult:
    """Outcome of one simulated cycle under one fault scenario."""

    scenario: FaultScenario
    executions: dict[str, ExecutionRecord] = field(default_factory=dict)
    completions: dict[str, float] = field(default_factory=dict)  # per process
    starved: list[str] = field(default_factory=list)  # instances w/o valid input
    dead_processes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every process produced output from at least one replica."""
        return not self.starved and not self.dead_processes

    def completion(self, process: str) -> float:
        try:
            return self.completions[process]
        except KeyError:
            raise SimulationError(
                f"process {process!r} produced no output in {self.scenario.describe()}"
            ) from None


class SystemSimulator:
    """Reusable simulator bound to one synthesized schedule.

    The replay runs off the compact schedule IR: instance order and table
    start times are read from the record's flat arrays, so simulating never
    materializes the per-instance placement view.
    """

    def __init__(self, schedule: SystemSchedule) -> None:
        self.schedule = schedule
        self.ft: FTGraph = schedule.ft
        self._plans = self._build_plans()

    def _build_plans(self) -> tuple[_InstancePlan, ...]:
        """Resolve the FT graph into flat per-instance replay plans."""
        ft = self.ft
        table = self.schedule.record
        plans: list[_InstancePlan] = []
        for index, iid in enumerate(table.instance_ids):
            instance = ft.instance(iid)
            groups: list[tuple[_SourcePlan, ...]] = []
            for group in ft.inputs_of(iid):
                sources: list[_SourcePlan] = []
                for src_iid in group.sources:
                    src = ft.instance(src_iid)
                    if src.node == instance.node:
                        sources.append(
                            _SourcePlan(iid=src_iid, local=True,
                                        message_ids=())
                        )
                        continue
                    message_ids = tuple(
                        bus_message.id
                        for bus_message in ft.outgoing_bus_messages(src_iid)
                        if bus_message.message.name == group.message.name
                    )
                    sources.append(
                        _SourcePlan(iid=src_iid, local=False,
                                    message_ids=message_ids)
                    )
                groups.append(tuple(sources))
            plans.append(
                _InstancePlan(
                    iid=iid,
                    instance=instance,
                    node=instance.node,
                    table_start=table.root_start[index],
                    release=instance.release,
                    groups=tuple(groups),
                    out_message_ids=tuple(
                        bus_message.id
                        for bus_message in ft.outgoing_bus_messages(iid)
                    ),
                )
            )
        return tuple(plans)

    @classmethod
    def from_record(
        cls,
        record: ScheduleRecord,
        graph: ProcessGraph,
        ft: FTGraph,
        faults: FaultModel,
        bus: BusConfig,
    ) -> "SystemSimulator":
        """Replay a bare record (e.g. one shipped back from a worker)."""
        return cls(SystemSchedule.from_record(record, graph, ft, faults, bus))

    def run(self, scenario: FaultScenario) -> SimulationResult:
        """Simulate one cycle under ``scenario`` (faults may exceed k)."""
        schedule = self.schedule
        bus = TTPBusModel(schedule.medl)
        kernels = {
            node: NodeKernel(node, schedule.faults)
            for node in schedule.record.nodes
        }
        result = SimulationResult(scenario=scenario)
        executions = result.executions

        for plan in self._plans:
            ready = plan.release
            starved = False
            for group in plan.groups:
                arrivals: list[float] = []
                for source in group:
                    record = executions.get(source.iid)
                    if record is None or not record.produced:
                        continue
                    if source.local:
                        arrivals.append(record.finish)
                        continue
                    for message_id in source.message_ids:
                        arrival = bus.valid_arrival(message_id)
                        if arrival is not None:
                            arrivals.append(arrival)
                if not arrivals:
                    starved = True
                    break
                ready = max(ready, min(arrivals))
            if starved:
                result.starved.append(plan.iid)
                # The instance cannot run without data; mark it dead so its
                # consumers starve too rather than reading garbage.
                continue
            record = kernels[plan.node].execute(
                instance=plan.instance,
                table_start=plan.table_start,
                inputs_ready=ready,
                failed_attempts=scenario.failures_of(plan.iid),
            )
            executions[plan.iid] = record
            for message_id in plan.out_message_ids:
                bus.transmit(message_id, record.output_ready)

        self._derive_completions(result)
        return result

    def _derive_completions(self, result: SimulationResult) -> None:
        """Process output time: first surviving replica's finish."""
        for process, replicas in self.ft.group_of.items():
            finishes = [
                result.executions[iid].finish
                for iid in replicas
                if iid in result.executions and result.executions[iid].produced
            ]
            if finishes:
                result.completions[process] = min(finishes)
            else:
                result.dead_processes.append(process)


def simulate(schedule: SystemSchedule, scenario: FaultScenario) -> SimulationResult:
    """One-shot convenience wrapper around :class:`SystemSimulator`."""
    return SystemSimulator(schedule).run(scenario)
