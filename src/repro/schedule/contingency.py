"""Explicit contingency schedule synthesis (paper §5.1, Figs. 4/7).

At run time a node's scheduler switches to a *contingency schedule* when a
fault is detected: subsequent processes slide into the recovery slack, and
descendants of killed replicas wait for the surviving replica's message.
The worst-case analysis guarantees such schedules exist within the slack;
this module *materializes* them, one table per fault scenario, by replaying
the scenario on the simulator.  The tables are what an engineer would
actually burn into the target's schedule memory next to the root schedule.

It also exposes :func:`transparency_report`, which checks the paper's
transparency property: a masked (re-execution) fault on one node must not
shift any start time on other nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.schedule.table import SystemSchedule
from repro.sim.engine import SystemSimulator
from repro.sim.faults import FaultScenario

_EPS = 1e-6


@dataclass(frozen=True)
class ContingencyEntry:
    """One row of a contingency table.

    ``produced`` is False for a terminally-killed replica: it occupies the
    CPU until its last failed attempt (+µ detection), which may exceed its
    analytical worst-case *finish* — the WCF only bounds executions that
    complete.
    """

    instance_id: str
    start: float
    finish: float
    shifted_by: float  # delay versus the root schedule
    produced: bool = True


@dataclass
class ContingencySchedule:
    """The per-node tables activated by one fault scenario."""

    scenario: FaultScenario
    tables: dict[str, list[ContingencyEntry]] = field(default_factory=dict)

    def shifted_nodes(self) -> list[str]:
        """Nodes whose schedule differs from the root schedule."""
        return sorted(
            node
            for node, entries in self.tables.items()
            if any(entry.shifted_by > _EPS for entry in entries)
        )

    def max_shift(self) -> float:
        return max(
            (e.shifted_by for entries in self.tables.values() for e in entries),
            default=0.0,
        )


def synthesize_contingency_schedules(
    schedule: SystemSchedule,
    scenarios: list[FaultScenario] | None = None,
) -> list[ContingencySchedule]:
    """Materialize contingency tables for the given (default: single-fault)
    scenarios."""
    simulator = SystemSimulator(schedule)
    record = schedule.record
    if scenarios is None:
        scenarios = single_fault_scenarios(schedule)
    out: list[ContingencySchedule] = []
    for scenario in scenarios:
        result = simulator.run(scenario)
        contingency = ContingencySchedule(scenario=scenario)
        for node_index, chain in enumerate(record.node_chains):
            entries = []
            for index in chain:
                iid = record.instance_ids[index]
                execution = result.executions.get(iid)
                if execution is None:
                    continue
                entries.append(
                    ContingencyEntry(
                        instance_id=iid,
                        start=execution.start,
                        finish=execution.finish,
                        shifted_by=max(
                            0.0, execution.start - record.root_start[index]
                        ),
                        produced=execution.produced,
                    )
                )
            contingency.tables[record.nodes[node_index]] = entries
        out.append(contingency)
    return out


def single_fault_scenarios(schedule: SystemSchedule) -> list[FaultScenario]:
    """One scenario per instance: its first execution attempt fails."""
    if schedule.faults.k < 1:
        return []
    return [
        FaultScenario({iid: 1})
        for iid in schedule.record.instance_ids
        # A single fault can always hit any instance (cap is e+1 >= 1).
    ]


@dataclass
class TransparencyReport:
    """Which single faults stay invisible outside their node."""

    transparent: list[str] = field(default_factory=list)  # scenario tags
    visible: dict[str, list[str]] = field(default_factory=dict)  # tag -> nodes

    @property
    def fully_transparent(self) -> bool:
        return not self.visible


def transparency_report(schedule: SystemSchedule) -> TransparencyReport:
    """Check which single-fault scenarios shift schedules on *other* nodes.

    With pure re-execution every single fault must be masked: only the
    faulty instance's own node re-arranges (paper's transparent recovery).
    With replication, killing a replica legitimately activates contingency
    schedules of descendant nodes (Fig. 7) — those scenarios are reported
    as visible together with the affected nodes.
    """
    report = TransparencyReport()
    ft = schedule.ft
    for contingency in synthesize_contingency_schedules(schedule):
        (faulty_iid,) = contingency.scenario.failures.keys()
        home_node = ft.instance(faulty_iid).node
        foreign = [n for n in contingency.shifted_nodes() if n != home_node]
        tag = contingency.scenario.describe()
        if foreign:
            report.visible[tag] = foreign
        else:
            report.transparent.append(tag)
    return report


def format_contingency(contingency: ContingencySchedule) -> str:
    """Plain-text rendering of one contingency schedule."""
    lines = [f"contingency for {contingency.scenario.describe()}:"]
    for node in sorted(contingency.tables):
        lines.append(f"  node {node}:")
        for entry in contingency.tables[node]:
            marker = (
                f"  (+{entry.shifted_by:.1f} ms)" if entry.shifted_by > _EPS else ""
            )
            lines.append(
                f"    {entry.instance_id:<24} start {entry.start:8.2f} "
                f"finish {entry.finish:8.2f}{marker}"
            )
    return "\n".join(lines)
