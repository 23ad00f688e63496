"""Contract tests of :class:`repro.schedule.state.SchedulerState`.

The incremental kernel leans on four properties of the explicit state
machine, checked here in isolation from the delta machinery:

* **snapshot/restore byte parity** — rewinding to a mid-run snapshot and
  re-running the suffix reproduces the exact record, and one snapshot can
  seed any number of replays;
* **declared state is complete** — a step mutates no list or dict of the
  state or its components that is not named in a ``PER_PASS`` tuple, and
  restore hands back fresh copies of those that are;
* **observation-only tracing** — running with a :class:`ScheduleTrace`
  attached never perturbs the schedule;
* **cost_view parity** — the unsealed ``(degree, makespan)`` view equals
  the sealed record's values bit for bit (this is what lets
  ``Evaluator.evaluate_many`` price candidates without sealing).
"""

from __future__ import annotations

import copy

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


class TestSnapshotRestore:
    def test_restore_replays_identical_suffix(self):
        reference = _state()
        reference.run()
        golden = reference.seal()

        state = _state()
        for _ in range(len(state.ft) // 2):
            state.step()
        snapshot = state.snapshot()
        assert snapshot.rank == state.rank
        state.run()
        first = state.seal()
        assert first == golden

        state.restore(snapshot)
        assert state.rank == snapshot.rank
        state.run()
        second = state.seal()
        assert second == golden
        assert repr(second) == repr(golden)

    def test_one_snapshot_seeds_many_replays(self):
        state = _state()
        for _ in range(3):
            state.step()
        snapshot = state.snapshot()
        records = []
        for _ in range(3):
            state.restore(snapshot)
            state.run()
            records.append(state.seal())
        assert records[0] == records[1] == records[2]

    def test_restore_at_rank_zero(self):
        state = _state(n=8, nodes=2, k=1, seed=0, replicas=1)
        snapshot = state.snapshot()
        assert snapshot.rank == 0
        state.run()
        golden = state.seal()
        state.restore(snapshot)
        state.run()
        assert state.seal() == golden


def _components(state):
    """The state and every component of it that declares per-pass state."""
    bus_scheduler = state.bus_scheduler
    return (
        state,
        state.analyzer,
        bus_scheduler,
        bus_scheduler.medl,
        state.builder,
    )


def _attributes(part):
    names = getattr(type(part), "__slots__", None) or vars(part)
    return {name: getattr(part, name) for name in names}


class TestDeclaredState:
    def test_steps_mutate_declared_containers_only(self):
        state = _state()
        undeclared = {}
        for part in _components(state):
            declared = type(part).PER_PASS
            for name in declared:
                assert isinstance(getattr(part, name), (list, dict)), name
            for name, value in _attributes(part).items():
                if name not in declared and isinstance(value, (list, dict)):
                    key = f"{type(part).__name__}.{name}"
                    undeclared[key] = (part, name, copy.deepcopy(value))

        for _ in range(len(state.ft) // 2):
            state.step()
        snapshot = state.snapshot()
        saved = copy.deepcopy(snapshot.containers)
        state.restore(snapshot)
        state.run()
        # The run mutated the restored containers, not the snapshot's.
        assert snapshot.containers == saved

        mutated = [
            key
            for key, (part, name, before) in undeclared.items()
            if getattr(part, name) != before
        ]
        assert mutated == []


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
        assert set(trace.ready_rank) == set(record.instance_ids)
        # An instance can never become ready after its own placement.
        rank_of = {iid: i for i, iid in enumerate(record.instance_ids)}
        for iid, ready in trace.ready_rank.items():
            assert 0 <= ready <= rank_of[iid]


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
