"""Tests for the single-pass evaluation pipeline (evaluate_full + LRU cache).

The tentpole invariant: one ``list_schedule`` pass per unique design point.
``evaluate_full`` must price and schedule consistently, the LRU must stay
bounded, and a repeated (identical) tabu run must be served entirely from
the cache — zero additional schedulings.
"""

import random

from repro.model.architecture import homogeneous_architecture
from repro.model.fault import FaultModel
from repro.model.merge import merge_application
from repro.model.application import Application
from repro.model.policy import Policy
from repro.obs.metrics import MetricsRegistry
from repro.opt.evaluator import Evaluator, _cost
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.opt.tabu import tabu_search_mpa
from repro.gen.suite import generate_case

from tests.conftest import make_graph


def _random_implementation(rng, merged, base, faults, nodes):
    """A random valid design point derived from ``base``."""
    impl = base.copy()
    for name in merged:
        r = rng.randint(1, faults.k + 1)
        policy = Policy.combined(r, faults.k)
        chosen = tuple(rng.sample(nodes, r))
        impl.policies[name] = policy
        impl.mapping.assign(name, chosen)
    return impl


class TestEvaluateFull:
    def test_cost_matches_evaluate_for_random_implementations(self):
        """Property: evaluate_full's cost equals evaluate_record's, and both
        match the cost derived from the returned schedule."""
        case = generate_case(12, 3, 2, mu=5.0, seed=3)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        base = initial_mpa(merged, case.architecture, case.faults, bus)
        nodes = list(case.architecture.node_names)
        rng = random.Random(0xBEEF)

        cached = Evaluator(merged, case.faults)
        uncached = Evaluator(merged, case.faults, cache_size=0)
        for _ in range(25):
            impl = _random_implementation(rng, merged, base, case.faults, nodes)
            cost, schedule = cached.evaluate_full(impl)
            assert cost == uncached.evaluate_record(impl)[0]
            record = schedule.record
            assert cost == _cost(
                record.degree_of_schedulability(), record.makespan
            )
            assert cost.makespan == schedule.makespan
            # A second request is a pure cache hit, never a reschedule: the
            # cache retains the compact record, so the re-materialized view
            # wraps the *same* record object (views themselves are rebuilt).
            before = cached.evaluations
            assert cached.evaluate_record(impl)[0] == cost
            assert cached.evaluate_full(impl)[1].record is schedule.record
            assert cached.evaluations == before

    def test_lru_cache_stays_bounded(self):
        case = generate_case(8, 2, 1, mu=5.0, seed=0)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        base = initial_mpa(merged, case.architecture, case.faults, bus)
        nodes = list(case.architecture.node_names)
        rng = random.Random(7)

        evaluator = Evaluator(merged, case.faults, cache_size=4)
        for _ in range(20):
            impl = _random_implementation(rng, merged, base, case.faults, nodes)
            evaluator.evaluate_full(impl)
        assert len(evaluator._cache) <= 4

    def test_lru_evicts_least_recently_used(self):
        graph = make_graph(
            {"A": {"N1": 10.0, "N2": 12.0}, "B": {"N1": 20.0, "N2": 25.0}},
            [("A", "B", 2)],
        )
        app = Application([graph])
        arch = homogeneous_architecture(2)
        faults = FaultModel(k=1, mu=5.0)
        merged = merge_application(app)
        bus = initial_bus_access(app, arch)
        impl_a = initial_mpa(merged, arch, faults, bus)
        impl_b = impl_a.with_move("A", ("N2",), Policy.reexecution(1))
        impl_c = impl_a.with_move("B", ("N1",), Policy.reexecution(1))

        evaluator = Evaluator(merged, faults, cache_size=2)
        evaluator.evaluate_record(impl_a)
        evaluator.evaluate_record(impl_b)
        evaluator.evaluate_record(impl_a)  # refresh a: b is now least recent
        evaluator.evaluate_record(impl_c)  # evicts b
        evaluations = evaluator.evaluations
        evaluator.evaluate_record(impl_a)
        assert evaluator.evaluations == evaluations  # hit
        evaluator.evaluate_record(impl_b)
        assert evaluator.evaluations == evaluations + 1  # miss: was evicted

    def test_cache_hit_rate_accounting(self):
        case = generate_case(8, 2, 1, mu=5.0, seed=1)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus)
        evaluator = Evaluator(merged, case.faults)
        registry = MetricsRegistry()
        evaluator.publish_metrics(registry)
        assert registry.value("evaluator.cache.hit_rate") == 0.0
        evaluator.evaluate_record(impl)
        evaluator.evaluate_record(impl)
        evaluator.evaluate_record(impl)
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 2
        evaluator.publish_metrics(registry)
        assert registry.value("evaluator.cache.hit_rate") == 2 / 3


class TestTabuSinglePass:
    def test_identical_tabu_run_costs_zero_extra_evaluations(self):
        """Re-running the same tabu search is served entirely by the cache.

        This pins the tentpole rewiring: the chosen move's implementation
        and schedule are reused (no ``move.apply`` + ``evaluator.schedule``
        re-derivation), so every design point the search touches is
        scheduled exactly once across both runs.
        """
        case = generate_case(10, 2, 2, mu=5.0, seed=0)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        start = initial_mpa(merged, case.architecture, case.faults, bus)
        evaluator = Evaluator(merged, case.faults)

        first = tabu_search_mpa(
            merged, case.faults, evaluator, start, (1, 2, 3),
            max_iterations=5, stop_when_schedulable=False,
        )
        evaluations_first = evaluator.evaluations
        hits_first = evaluator.cache_hits
        assert evaluations_first > 0

        second = tabu_search_mpa(
            merged, case.faults, evaluator, start, (1, 2, 3),
            max_iterations=5, stop_when_schedulable=False,
        )
        assert second.cost == first.cost
        assert second.implementation.signature() == first.implementation.signature()
        # Zero new schedulings: everything the identical run touches hits.
        assert evaluator.evaluations == evaluations_first
        assert evaluator.cache_hits > hits_first
        # Accounting stays consistent: every request is a miss or a hit.
        total = evaluator.evaluations + evaluator.cache_hits
        assert total == evaluations_first + hits_first + (
            evaluator.cache_hits - hits_first
        )
