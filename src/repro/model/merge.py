"""Hyper-period merging of multi-rate applications (paper §3 and §5.1).

Graphs of different periods are combined into one merged graph ``Γ`` whose
period is the least common multiple of all constituent periods.  Each graph
``G_i`` contributes ``LCM / T_i`` *occurrences*; occurrence ``o`` of process
``P`` is released at ``o * T_i + release(P)`` and must finish by
``o * T_i + D_i`` (applied at the occurrence's sinks — every vertex of a DAG
precedes some sink, so sink deadlines bound the whole occurrence).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ModelError
from repro.model.application import Application, Message, ProcessGraph


@dataclass(frozen=True)
class MergedOrigin:
    """Where a merged process came from."""

    graph: str
    process: str
    occurrence: int


class MergedGraph(ProcessGraph):
    """The merged application graph ``Γ`` plus provenance metadata."""

    def __init__(self, name: str, period: float | None) -> None:
        super().__init__(name=name, period=period, deadline=None)
        self.origin: dict[str, MergedOrigin] = {}
        #: (graph name, occurrence) -> (absolute deadline, sink names)
        self.occurrence_deadlines: dict[tuple[str, int], tuple[float, list[str]]] = {}


def merged_name(process: str, occurrence: int, occurrences: int) -> str:
    """Merged vertex name: plain for single-rate graphs, ``P@o`` otherwise."""
    if occurrences == 1:
        return process
    return f"{process}@{occurrence}"


def merge_application(application: Application) -> MergedGraph:
    """Merge all graphs of ``application`` into one :class:`MergedGraph`.

    Graphs without a period contribute exactly one occurrence.  Deadlines and
    releases are converted to absolute times within the hyper-period.
    """
    application.validate()
    hyper = application.hyperperiod()
    merged = MergedGraph(name=f"{application.name}::merged", period=hyper)

    for graph in application.graphs:
        occurrences = 1
        if graph.period is not None and hyper is not None:
            ratio = hyper / graph.period
            occurrences = round(ratio)
            if abs(ratio - occurrences) > 1e-9:
                raise ModelError(
                    f"hyperperiod {hyper} is not an integer multiple of "
                    f"period {graph.period} of graph {graph.name!r}"
                )
        for occ in range(occurrences):
            offset = (graph.period or 0.0) * occ
            _merge_occurrence(merged, graph, occ, occurrences, offset)
    merged.validate()
    return merged


def _merge_occurrence(
    merged: MergedGraph,
    graph: ProcessGraph,
    occ: int,
    occurrences: int,
    offset: float,
) -> None:
    """Copy one occurrence of ``graph`` (shifted by ``offset``) into ``merged``."""
    sinks = graph.sinks()
    for name, process in graph.processes.items():
        new_name = merged_name(name, occ, occurrences)
        deadline = process.deadline
        if deadline is None and graph.deadline is not None and name in sinks:
            deadline = graph.deadline
        merged.add_process(
            replace(
                process,
                name=new_name,
                release=process.release + offset,
                deadline=None if deadline is None else deadline + offset,
            )
        )
        merged.origin[new_name] = MergedOrigin(graph.name, name, occ)
    for message in graph.messages.values():
        merged.add_message(
            Message(
                name=(
                    message.name
                    if occurrences == 1
                    else f"{message.name}@{occ}"
                ),
                src=merged_name(message.src, occ, occurrences),
                dst=merged_name(message.dst, occ, occurrences),
                size=message.size,
            )
        )
    if graph.deadline is not None:
        merged.occurrence_deadlines[(graph.name, occ)] = (
            graph.deadline + offset,
            [merged_name(s, occ, occurrences) for s in sinks],
        )
