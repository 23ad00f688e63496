"""Fault-injection simulation of synthesized schedules.

This package is the runtime substrate of the reproduction: node kernels
execute the static schedule tables (switching to contingency behaviour on
faults), TTP controllers broadcast frames at their MEDL times, and the
validator checks that a synthesized schedule really tolerates every injected
scenario of at most *k* transient faults — i.e. that the analytical bounds
of :mod:`repro.schedule.analysis` are honoured from below.
"""

from repro.sim.batch import BatchResult, BatchSimulator
from repro.sim.engine import SimulationResult, SystemSimulator, simulate
from repro.sim.faults import (
    FaultScenario,
    adversarial_scenarios,
    enumerate_scenarios,
    sample_scenarios,
)
from repro.sim.trace import build_trace, format_trace, trace_to_csv, trace_to_json
from repro.sim.validate import (
    BatchChecker,
    BatchReport,
    ValidationReport,
    assert_fault_tolerant,
    validate_schedule,
)

__all__ = [
    "BatchChecker",
    "BatchReport",
    "BatchResult",
    "BatchSimulator",
    "FaultScenario",
    "SimulationResult",
    "SystemSimulator",
    "ValidationReport",
    "adversarial_scenarios",
    "assert_fault_tolerant",
    "build_trace",
    "enumerate_scenarios",
    "format_trace",
    "sample_scenarios",
    "simulate",
    "trace_to_csv",
    "trace_to_json",
    "validate_schedule",
]
