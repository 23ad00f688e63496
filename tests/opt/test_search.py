"""Unit tests for GreedyMPA, TabuSearchMPA and the overall strategy."""

import pytest

from repro.errors import ConfigurationError
from repro.model.application import Application, Process, ProcessGraph
from repro.model.architecture import homogeneous_architecture
from repro.model.fault import FaultModel
from repro.model.merge import merge_application
from repro.opt.evaluator import Evaluator
from repro.opt.greedy import greedy_mpa
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.opt.strategy import VARIANTS, OptimizationConfig, optimize
from repro.opt.tabu import tabu_search_mpa

from tests.conftest import make_graph


def _setup(n_heavy=3):
    processes = {
        f"P{i}": {"N1": 40.0 + i, "N2": 45.0 + i} for i in range(n_heavy)
    }
    edges = [(f"P{i}", f"P{i+1}", 1) for i in range(n_heavy - 1)]
    graph = make_graph(processes, edges)
    app = Application([graph])
    arch = homogeneous_architecture(2)
    faults = FaultModel(k=1, mu=5.0)
    merged = merge_application(app)
    bus = initial_bus_access(app, arch)
    impl = initial_mpa(merged, arch, faults, bus)
    evaluator = Evaluator(merged, faults)
    return app, arch, faults, merged, impl, evaluator


class TestGreedy:
    def test_never_worse_than_start(self):
        _, _, faults, merged, impl, evaluator = _setup()
        start_cost = evaluator.evaluate_record(impl)[0]
        outcome = greedy_mpa(
            merged, faults, evaluator, impl, (1, 2),
            max_iterations=10, stop_when_schedulable=False,
        )
        assert not start_cost.is_better_than(outcome.cost)

    def test_history_is_monotone(self):
        _, _, faults, merged, impl, evaluator = _setup()
        outcome = greedy_mpa(
            merged, faults, evaluator, impl, (1, 2),
            max_iterations=10, stop_when_schedulable=False,
        )
        keys = [c.sort_key for c in outcome.history]
        assert keys == sorted(keys, reverse=True) or keys == sorted(keys)
        # Strictly: each step improves.
        for earlier, later in zip(keys, keys[1:]):
            assert later < earlier

    def test_iteration_cap_respected(self):
        _, _, faults, merged, impl, evaluator = _setup(n_heavy=5)
        outcome = greedy_mpa(
            merged, faults, evaluator, impl, (1, 2),
            max_iterations=1, stop_when_schedulable=False,
        )
        assert outcome.iterations <= 1


class TestTabu:
    def test_best_never_worse_than_start(self):
        _, _, faults, merged, impl, evaluator = _setup()
        start_cost = evaluator.evaluate_record(impl)[0]
        outcome = tabu_search_mpa(
            merged, faults, evaluator, impl, (1, 2),
            max_iterations=8, stop_when_schedulable=False,
        )
        assert not start_cost.is_better_than(outcome.cost)

    def test_can_escape_greedy_plateau(self):
        """Tabu accepts non-improving moves, so it keeps iterating."""
        _, _, faults, merged, impl, evaluator = _setup()
        greedy = greedy_mpa(
            merged, faults, evaluator, impl, (1, 2),
            max_iterations=20, stop_when_schedulable=False,
        )
        outcome = tabu_search_mpa(
            merged, faults, evaluator, greedy.implementation, (1, 2),
            max_iterations=10, stop_when_schedulable=False,
        )
        assert outcome.iterations > 0  # it moved even though greedy was stuck

    def test_time_limit_stops_search(self):
        _, _, faults, merged, impl, evaluator = _setup(n_heavy=6)
        outcome = tabu_search_mpa(
            merged, faults, evaluator, impl, (1, 2),
            max_iterations=10_000, time_limit_s=0.3,
            stop_when_schedulable=False,
        )
        assert outcome.iterations < 10_000


class TestStrategy:
    def test_unknown_variant_rejected(self):
        app, arch, faults, *_ = _setup()
        with pytest.raises(ConfigurationError):
            optimize(app, arch, faults, variant="XYZ")

    def test_all_variants_run(self):
        app, arch, faults, *_ = _setup()
        cfg = OptimizationConfig(
            minimize=True, rounds=1, tabu_max_iterations=3, greedy_max_iterations=3
        )
        for variant in VARIANTS:
            result = optimize(app, arch, faults, variant, cfg)
            assert result.makespan > 0
            assert result.variant == variant.upper()

    def test_nft_ignores_fault_model(self):
        app, arch, faults, *_ = _setup()
        cfg = OptimizationConfig(minimize=True, rounds=1, tabu_max_iterations=2)
        result = optimize(app, arch, faults, "NFT", cfg)
        assert result.faults.fault_free
        # No recovery slack anywhere.
        for placed in result.schedule.placements.values():
            assert placed.wcf == pytest.approx(placed.root_finish)

    def test_mx_uses_only_reexecution(self):
        app, arch, faults, *_ = _setup()
        cfg = OptimizationConfig(minimize=True, rounds=2, tabu_max_iterations=5)
        result = optimize(app, arch, faults, "MX", cfg)
        for _, policy in result.implementation.policies.items():
            assert policy.is_pure_reexecution

    def test_mr_uses_only_replication(self):
        app, arch, faults, *_ = _setup()
        cfg = OptimizationConfig(minimize=True, rounds=2, tabu_max_iterations=5)
        result = optimize(app, arch, faults, "MR", cfg)
        for _, policy in result.implementation.policies.items():
            assert policy.is_pure_replication

    def test_mxr_not_worse_than_nft(self):
        app, arch, faults, *_ = _setup()
        cfg = OptimizationConfig(minimize=True, rounds=2, tabu_max_iterations=5)
        nft = optimize(app, arch, faults, "NFT", cfg)
        mxr = optimize(app, arch, faults, "MXR", cfg)
        assert mxr.makespan >= nft.makespan

    def test_deadline_mode_stops_when_schedulable(self):
        graph = make_graph(
            {"A": {"N1": 10.0, "N2": 10.0}}, [], deadline=10_000.0
        )
        app = Application([graph])
        arch = homogeneous_architecture(2)
        result = optimize(app, arch, FaultModel(k=1, mu=5.0), "MXR")
        assert result.is_schedulable
        # The initial solution is already schedulable: no search stages ran.
        assert "tabu[0]" not in result.stage_costs

    def test_infeasible_deadline_reports_unschedulable(self):
        graph = make_graph({"A": {"N1": 50.0}}, [], deadline=55.0)
        app = Application([graph])
        arch = homogeneous_architecture(1)
        cfg = OptimizationConfig(rounds=1, tabu_max_iterations=3)
        result = optimize(app, arch, FaultModel(k=2, mu=5.0), "MXR", cfg)
        assert not result.is_schedulable
        assert result.cost.degree > 0

    def test_sfx_keeps_nft_mapping(self):
        app, arch, faults, *_ = _setup()
        cfg = OptimizationConfig(minimize=True, rounds=1, tabu_max_iterations=3)
        nft = optimize(app, arch, faults, "NFT", cfg)
        sfx = optimize(app, arch, faults, "SFX", cfg)
        for process in nft.implementation.policies:
            assert (
                sfx.implementation.mapping.primary(process)
                == nft.implementation.mapping.primary(process)
            )
            assert sfx.implementation.policies[process].is_pure_reexecution

    def test_sfx_not_better_than_mxr(self):
        app, arch, faults, *_ = _setup()
        cfg = OptimizationConfig(minimize=True, rounds=2, tabu_max_iterations=8)
        sfx = optimize(app, arch, faults, "SFX", cfg)
        mxr = optimize(app, arch, faults, "MXR", cfg)
        assert mxr.makespan <= sfx.makespan + 1e-9
