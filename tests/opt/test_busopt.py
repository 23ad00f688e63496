"""Unit tests for bus access optimization."""

from repro.model.application import Application, Process, ProcessGraph
from repro.model.architecture import homogeneous_architecture
from repro.model.fault import FaultModel
from repro.model.merge import merge_application
from repro.opt.busopt import optimize_bus_access
from repro.opt.evaluator import Evaluator
from repro.opt.implementation import Implementation
from repro.opt.initial import initial_mpa
from repro.ttp.bus import BusConfig

from tests.conftest import make_graph


def _setup(slot_order):
    """A chain N1 -> N2 where the slot order strongly matters."""
    graph = make_graph(
        {"A": {"N1": 20.0}, "B": {"N2": 20.0}},
        [("A", "B", 2)],
    )
    app = Application([graph])
    arch = homogeneous_architecture(2)
    faults = FaultModel(k=1, mu=5.0)
    merged = merge_application(app)
    bus = BusConfig(slot_order, {"N1": 10.0, "N2": 10.0}, ms_per_byte=5.0)
    impl = initial_mpa(merged, arch, faults, bus)
    return merged, faults, impl


class TestBusOpt:
    def test_improves_bad_slot_order(self):
        # N2 before N1: the A->B message always waits almost a full round.
        merged, faults, impl = _setup(("N2", "N1"))
        evaluator = Evaluator(merged, faults)
        before = evaluator.evaluate_record(impl)[0]
        best, after = optimize_bus_access(evaluator, impl)
        assert after.makespan <= before.makespan
        assert best.bus.slot_order in (("N1", "N2"), ("N2", "N1"))

    def test_keeps_good_configuration(self):
        merged, faults, impl = _setup(("N1", "N2"))
        evaluator = Evaluator(merged, faults)
        before = evaluator.evaluate_record(impl)[0]
        best, after = optimize_bus_access(evaluator, impl)
        assert after.makespan <= before.makespan

    def test_never_worse(self):
        for order in (("N1", "N2"), ("N2", "N1")):
            merged, faults, impl = _setup(order)
            evaluator = Evaluator(merged, faults)
            before = evaluator.evaluate_record(impl)[0]
            _, after = evaluator_cost = optimize_bus_access(evaluator, impl)
            assert not before.is_better_than(after)

    def test_scale_factors_considered(self):
        merged, faults, impl = _setup(("N2", "N1"))
        evaluator = Evaluator(merged, faults)
        best, after = optimize_bus_access(
            evaluator, impl, scale_factors=(2.0,)
        )
        before = evaluator.evaluate_record(impl)[0]
        assert not before.is_better_than(after)

    def test_mapping_and_policies_untouched(self):
        merged, faults, impl = _setup(("N2", "N1"))
        evaluator = Evaluator(merged, faults)
        best, _ = optimize_bus_access(evaluator, impl)
        assert best.mapping["A"] == impl.mapping["A"]
        assert best.policies["A"] == impl.policies["A"]
