"""Fault-tolerant static cyclic scheduling (paper §5.1)."""

from repro.schedule.analysis import (
    WorstCaseAnalyzer,
    group_guaranteed_arrival,
)
from repro.schedule.contingency import (
    synthesize_contingency_schedules,
    transparency_report,
)
from repro.schedule.gantt import GanttOptions, render_gantt
from repro.schedule.list_scheduler import build_schedule_record, list_schedule
from repro.schedule.metrics import ScheduleMetrics, compute_metrics
from repro.schedule.priorities import pcp_priorities
from repro.schedule.record import ScheduleRecord
from repro.schedule.table import Binding, ScheduledInstance, SystemSchedule

__all__ = [
    "Binding",
    "GanttOptions",
    "ScheduleMetrics",
    "ScheduleRecord",
    "ScheduledInstance",
    "SystemSchedule",
    "build_schedule_record",
    "compute_metrics",
    "WorstCaseAnalyzer",
    "group_guaranteed_arrival",
    "list_schedule",
    "pcp_priorities",
    "render_gantt",
    "synthesize_contingency_schedules",
    "transparency_report",
]
