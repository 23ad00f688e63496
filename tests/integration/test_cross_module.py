"""Cross-module integration: gantt/metrics/trace/io against optimized systems."""

import json

from repro.gen.suite import generate_case
from repro.io.codec import decode, encode
from repro.opt.implementation import Implementation
from repro.opt.strategy import OptimizationConfig, optimize
from repro.schedule.contingency import synthesize_contingency_schedules
from repro.schedule.gantt import render_gantt
from repro.schedule.list_scheduler import list_schedule
from repro.schedule.metrics import compute_metrics
from repro.sim.engine import SystemSimulator, simulate
from repro.sim.faults import FAULT_FREE
from repro.sim.trace import build_trace, trace_to_csv, trace_to_json

FAST = OptimizationConfig(
    minimize=True, rounds=2, greedy_max_iterations=8, tabu_max_iterations=5
)


def _optimized(n=12, nodes=2, k=2, seed=5, variant="MXR"):
    case = generate_case(n, nodes, k, mu=5.0, seed=seed)
    result = optimize(case.application, case.architecture, case.faults, variant, FAST)
    return case, result


class TestRenderingPipeline:
    def test_gantt_renders_optimized_schedule(self):
        _, result = _optimized()
        text = render_gantt(result.schedule)
        assert "schedule length" in text
        # Every node appears as a row.
        for node in result.schedule.node_chains:
            assert node in text

    def test_metrics_consistent_with_schedule(self):
        _, result = _optimized()
        metrics = compute_metrics(result.schedule)
        assert metrics.makespan == result.makespan
        total_instances = sum(m.instances for m in metrics.nodes.values())
        assert total_instances == len(result.schedule.placements)

    def test_trace_covers_all_instances(self):
        _, result = _optimized()
        sim_result = simulate(result.schedule, FAULT_FREE)
        events = build_trace(result.schedule, sim_result)
        started = {e.subject for e in events if e.kind == "start"}
        assert started == set(result.schedule.placements)
        json.loads(trace_to_json(events))
        assert trace_to_csv(events).startswith("time,")


class TestSolutionPersistence:
    def test_optimized_solution_round_trips_and_reschedules(self):
        case, result = _optimized(variant="MXR")
        payload = json.dumps(encode(result.implementation))
        restored = decode(Implementation, json.loads(payload))
        schedule = list_schedule(
            result.merged,
            result.faults,
            restored.policies,
            restored.mapping,
            restored.bus,
        )
        assert schedule.makespan == result.makespan


class TestContingencyOnOptimized:
    def test_all_single_fault_contingencies_within_bounds(self):
        _, result = _optimized(k=2)
        contingencies = synthesize_contingency_schedules(result.schedule)
        assert len(contingencies) == len(result.schedule.placements)
        for contingency in contingencies:
            for entries in contingency.tables.values():
                for entry in entries:
                    if not entry.produced:
                        continue  # dead replicas only bound CPU occupancy
                    bound = result.schedule.placements[entry.instance_id].wcf
                    assert entry.finish <= bound + 1e-6

    def test_simulator_reusable_across_scenarios(self):
        _, result = _optimized(k=2)
        simulator = SystemSimulator(result.schedule)
        a = simulator.run(FAULT_FREE)
        b = simulator.run(FAULT_FREE)
        assert a.completions == b.completions
