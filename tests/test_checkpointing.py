"""Tests for the checkpointing extension (Policy.checkpointing).

The DATE 2005 paper names checkpointing (§1) among the software
fault-tolerance techniques but evaluates only re-execution and replication;
this extension adds segment-level recovery: with ``s`` checkpoints a
re-execution re-runs ``C/s`` instead of ``C``, at a fault-free cost of
``s * checkpoint_overhead``.
"""

import pytest

from repro.errors import ModelError
from repro.model.application import Application
from repro.model.fault import FaultModel
from repro.model.ftgraph import build_ft_graph
from repro.model.mapping import ReplicaMapping
from repro.model.merge import merge_application
from repro.model.policy import Policy, PolicyAssignment
from repro.schedule.list_scheduler import list_schedule
from repro.sim.faults import FaultScenario
from repro.sim.engine import simulate
from repro.sim.validate import validate_schedule
from repro.ttp.bus import BusConfig

from tests.conftest import make_graph, schedule_single_graph

BUS1 = BusConfig.minimal(("N1",), 4)
BUS2 = BusConfig(("N1", "N2"), {"N1": 10.0, "N2": 10.0}, ms_per_byte=5.0)


class TestPolicy:
    def test_constructor(self):
        p = Policy.checkpointing(2, segments=4)
        assert p.n_replicas == 1
        assert p.reexecutions == (2,)
        assert p.checkpoints == 4
        assert p.tolerates(2)

    def test_single_checkpoint_rejected(self):
        with pytest.raises(ModelError):
            Policy.checkpointing(1, segments=1)

    def test_negative_checkpoints_rejected(self):
        with pytest.raises(ModelError):
            Policy(1, (1,), checkpoints=-2)

    def test_describe_mentions_segments(self):
        assert "s=4" in Policy.checkpointing(1, 4).describe()

    def test_plain_policies_unaffected(self):
        assert Policy.reexecution(2).checkpoints == 0


class TestAnalysis:
    def test_recovery_rerun_is_one_segment(self):
        """C=40, k=2, mu=10, 4 segments: WCF = 40 + 2*(10+10) = 80."""
        faults = FaultModel(k=2, mu=10.0)
        graph = make_graph({"P1": {"N1": 40.0}})
        schedule = schedule_single_graph(
            graph, faults, {"P1": Policy.checkpointing(2, 4)}, {"P1": "N1"}, BUS1
        )
        assert schedule.completions["P1"] == pytest.approx(80.0)

    def test_checkpoint_overhead_inflates_wcet(self):
        """With overhead o=2 and 4 segments, fault-free WCET becomes 48."""
        faults = FaultModel(k=2, mu=10.0, checkpoint_overhead=2.0)
        graph = make_graph({"P1": {"N1": 40.0}})
        schedule = schedule_single_graph(
            graph, faults, {"P1": Policy.checkpointing(2, 4)}, {"P1": "N1"}, BUS1
        )
        placed = schedule.placements["P1:r0"]
        assert placed.root_finish == pytest.approx(48.0)
        # WCF = 48 + 2 * (48/4 + 10) = 92
        assert placed.wcf == pytest.approx(92.0)

    def test_checkpointing_beats_reexecution_for_long_processes(self):
        faults = FaultModel(k=3, mu=5.0, checkpoint_overhead=1.0)
        graph = make_graph({"P1": {"N1": 90.0}})
        rex = schedule_single_graph(
            graph, faults, {"P1": Policy.reexecution(3)}, {"P1": "N1"}, BUS1
        )
        cp = schedule_single_graph(
            graph, faults, {"P1": Policy.checkpointing(3, 4)}, {"P1": "N1"}, BUS1
        )
        assert cp.makespan < rex.makespan

    def test_overhead_can_make_checkpointing_lose(self):
        """Huge checkpoint overhead: plain re-execution is better."""
        faults = FaultModel(k=1, mu=1.0, checkpoint_overhead=50.0)
        graph = make_graph({"P1": {"N1": 20.0}})
        rex = schedule_single_graph(
            graph, faults, {"P1": Policy.reexecution(1)}, {"P1": "N1"}, BUS1
        )
        cp = schedule_single_graph(
            graph, faults, {"P1": Policy.checkpointing(1, 2)}, {"P1": "N1"}, BUS1
        )
        assert rex.makespan < cp.makespan


class TestSimulation:
    def _schedule(self):
        faults = FaultModel(k=2, mu=10.0)
        graph = make_graph(
            {"A": {"N1": 40.0}, "B": {"N2": 30.0}}, [("A", "B", 2)]
        )
        return schedule_single_graph(
            graph,
            faults,
            {"A": Policy.checkpointing(2, 4), "B": Policy.reexecution(2)},
            {"A": "N1", "B": "N2"},
            BUS2,
        )

    def test_kernel_reruns_one_segment(self):
        schedule = self._schedule()
        result = simulate(schedule, FaultScenario({"A:r0": 1}))
        record = result.executions["A:r0"]
        # 40 + (segment 10 + mu 10) = 60
        assert record.finish == pytest.approx(60.0)

    def test_validation_passes(self):
        report = validate_schedule(self._schedule())
        assert report.ok, report.violations[:3]


class TestOptimizerIntegration:
    def test_mxc_variant_runs_and_validates(self):
        from repro.gen.suite import generate_case
        from repro.opt.strategy import OptimizationConfig, optimize

        case = generate_case(10, 2, 2, mu=5.0, seed=1)
        faults = FaultModel(k=2, mu=5.0, checkpoint_overhead=1.0)
        cfg = OptimizationConfig(minimize=True, rounds=2, tabu_max_iterations=6)
        result = optimize(case.application, case.architecture, faults, "MXC", cfg)
        assert result.makespan > 0
        report = validate_schedule(result.schedule, samples=100)
        assert report.ok, report.violations[:3]

    def test_mxc_not_worse_than_mxr(self):
        from repro.gen.suite import generate_case
        from repro.opt.strategy import OptimizationConfig, optimize

        faults = FaultModel(k=3, mu=5.0, checkpoint_overhead=0.5)
        cfg = OptimizationConfig(minimize=True, rounds=2, tabu_max_iterations=8)
        totals = {"MXR": 0.0, "MXC": 0.0}
        for seed in (0, 1):
            case = generate_case(12, 2, 3, mu=5.0, seed=seed)
            for variant in totals:
                result = optimize(
                    case.application, case.architecture, faults, variant, cfg
                )
                totals[variant] += result.makespan
        assert totals["MXC"] <= totals["MXR"] + 1e-6

    def test_checkpoint_policy_round_trips_through_json(self):
        from repro.io.codec import decode, encode
        from repro.opt.implementation import Implementation

        impl = Implementation(
            policies=PolicyAssignment({"A": Policy.checkpointing(2, 4)}),
            mapping=ReplicaMapping({"A": ("N1",)}),
            bus=BUS1,
        )
        restored = decode(Implementation, encode(impl))
        assert restored.policies["A"].checkpoints == 4
