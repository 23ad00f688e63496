"""Unit tests for cost ordering and the caching evaluator."""

from repro.model.application import Application
from repro.model.fault import FaultModel
from repro.model.merge import merge_application
from repro.opt.cost import WORST_COST, Cost
from repro.opt.evaluator import Evaluator
from repro.opt.implementation import Implementation
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.model.architecture import homogeneous_architecture
from repro.model.policy import Policy

from tests.conftest import make_graph


class TestCostOrdering:
    def test_schedulable_beats_unschedulable(self):
        good = Cost(schedulable=True, degree=0.0, makespan=500.0)
        bad = Cost(schedulable=False, degree=1.0, makespan=100.0)
        assert good.is_better_than(bad)

    def test_lower_degree_wins_among_unschedulable(self):
        a = Cost(schedulable=False, degree=5.0, makespan=100.0)
        b = Cost(schedulable=False, degree=10.0, makespan=90.0)
        assert a.is_better_than(b)

    def test_lower_makespan_wins_among_schedulable(self):
        a = Cost(schedulable=True, degree=0.0, makespan=90.0)
        b = Cost(schedulable=True, degree=0.0, makespan=100.0)
        assert a.is_better_than(b)

    def test_worst_cost_loses_everything(self):
        any_cost = Cost(schedulable=False, degree=1e12, makespan=1e12)
        assert any_cost.is_better_than(WORST_COST)

    def test_str_renders(self):
        assert "schedulable" in str(Cost(True, 0.0, 10.0))
        assert "unschedulable" in str(Cost(False, 3.0, 10.0))


def _setup():
    graph = make_graph(
        {"A": {"N1": 10.0, "N2": 12.0}, "B": {"N1": 20.0, "N2": 25.0}},
        [("A", "B", 2)],
    )
    app = Application([graph])
    arch = homogeneous_architecture(2)
    faults = FaultModel(k=1, mu=5.0)
    merged = merge_application(app)
    bus = initial_bus_access(app, arch)
    impl = initial_mpa(merged, arch, faults, bus)
    return merged, faults, impl


class TestEvaluator:
    def test_cache_hits_on_identical_design(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        first = evaluator.evaluate_record(impl)[0]
        second = evaluator.evaluate_record(impl.copy())[0]
        assert first == second
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1

    def test_cache_distinguishes_designs(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        evaluator.evaluate_record(impl)[0]
        other = impl.with_move("A", ("N2",), Policy.reexecution(1))
        evaluator.evaluate_record(other)[0]
        assert evaluator.evaluations == 2

    def test_cache_can_be_disabled(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults, cache_size=0)
        evaluator.evaluate_record(impl)[0]
        evaluator.evaluate_record(impl)[0]
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 0

    def test_cost_matches_schedule(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        cost = evaluator.evaluate_record(impl)[0]
        schedule = evaluator.evaluate_full(impl)[1]
        assert cost.makespan == schedule.makespan
        assert cost.schedulable == schedule.is_schedulable
