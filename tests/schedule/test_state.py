"""Contract tests of :class:`repro.schedule.state.SchedulerState`.

The incremental kernel leans on three properties of the explicit state
machine, checked here in isolation from the delta machinery:

* **observation-only tracing** — running with a :class:`ScheduleTrace`
  attached never perturbs the schedule;
* **complete traces** — the trace holds a tail row for every placed
  instance and, per node, the pack sequence of exactly the MEDL messages
  that node sends;
* **cost_view parity** — the unsealed ``(degree, makespan)`` view equals
  the sealed record's values bit for bit (this is what lets
  ``Evaluator.evaluate_many`` price candidates without sealing).
"""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.gen.suite import generate_case
from repro.model.ftgraph import build_ft_graph
from repro.model.merge import merge_application
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.schedule.state import SchedulerState, ScheduleTrace


def _state(n=12, nodes=3, k=2, seed=1, replicas=2, trace=None):
    case = generate_case(n, nodes, k, mu=5.0, seed=seed)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(
        merged, case.architecture, case.faults, bus, replicas
    )
    ft = build_ft_graph(merged, impl.policies, impl.mapping, case.faults)
    return SchedulerState(merged, ft, case.faults, bus, trace=trace)


class TestTrace:
    def test_tracing_is_observation_only(self):
        untraced = _state()
        untraced.run()
        golden = untraced.seal()

        trace = ScheduleTrace()
        traced = _state(trace=trace)
        traced.run()
        sealed = traced.seal()
        assert sealed == golden
        assert repr(sealed) == repr(golden)

    def test_trace_covers_every_instance(self):
        trace = ScheduleTrace()
        state = _state(trace=trace)
        state.run()
        record = state.seal()
        assert set(trace.tail_rows) == set(record.instance_ids)
        assert record.medl
        # Pack order is MEDL insertion order restricted to one sender node.
        sent: dict[str, list[str]] = {}
        for row in record.medl:
            sent.setdefault(record.nodes[row[1]], []).append(row[0])
        assert {
            node: [bus_message_id for bus_message_id, _ in sequence]
            for node, sequence in trace.pack.items()
        } == sent


class TestCostView:
    def test_cost_view_matches_sealed_record(self):
        state = _state()
        state.run()
        degree, makespan = state.cost_view()
        record = state.seal()
        assert degree == record.degree_of_schedulability()
        assert makespan == record.makespan

    def test_cost_view_on_incomplete_schedule_raises(self):
        state = _state()
        state.step()
        with pytest.raises(SchedulingError):
            state.cost_view()

    def test_seal_on_incomplete_schedule_raises(self):
        state = _state()
        state.step()
        with pytest.raises(SchedulingError):
            state.seal()
