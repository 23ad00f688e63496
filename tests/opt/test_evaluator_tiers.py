"""Tests of the evaluator's tier surface and its counter contracts.

The consolidated surface (see the module docstring of
:mod:`repro.opt.evaluator`) promises:

* ``evaluations`` counts *pricings not served by the cache* and always
  equals ``full_evaluations + delta_evaluations``;
* realizing a record-less candidate moves no counter: it returns the
  record of the candidate's own captured context, which the search prices
  its next neighbourhood against;
* a view request for a priced design that was never realized rebuilds
  its record cold once, counted in ``record_rebuilds``, and memoizes it;
* pricing retains no scheduler state: a priced neighbourhood holds costs,
  not replayed states;
* costs are tier-independent: a delta-priced candidate costs what a fresh
  evaluator's cold ``evaluate_record`` pass prices, and both its sealed
  delta replay and its realized record are byte-equal to a cold
  ``build_schedule_record``.
"""

from __future__ import annotations

import gc

from repro.gen.suite import generate_case
from repro.model.ftgraph import build_ft_graph
from repro.model.merge import merge_application
from repro.opt.evaluator import Evaluator
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.opt.moves import generate_moves
from repro.schedule.list_scheduler import build_schedule_record
from repro.schedule.state import SchedulerState


def _setup(n=12, nodes=2, k=2, seed=1):
    case = generate_case(n, nodes, k, mu=5.0, seed=seed)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(merged, case.architecture, case.faults, bus)
    return merged, case.faults, impl


def _neighbourhood(merged, faults, impl, evaluator):
    record = evaluator.evaluate_record(impl)[1]
    moves = generate_moves(
        merged, faults, impl, record.critical_path(), (1, 2, 3)
    )
    assert moves
    return moves


class TestCounters:
    def test_evaluations_splits_into_full_and_delta(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        moves = _neighbourhood(merged, faults, impl, evaluator)
        assert evaluator.full_evaluations == 1  # the base record
        candidates = evaluator.evaluate_many(impl, moves)
        assert len(candidates) == len(moves)
        assert evaluator.delta_evaluations == len(moves)
        assert evaluator.evaluations == (
            evaluator.full_evaluations + evaluator.delta_evaluations
        )
        assert evaluator.record_rebuilds == 0

    def test_repriced_neighbourhood_is_all_cache_hits(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        moves = _neighbourhood(merged, faults, impl, evaluator)
        first = evaluator.evaluate_many(impl, moves)
        evaluations = evaluator.evaluations
        hits = evaluator.cache_hits
        second = evaluator.evaluate_many(impl, moves)
        assert evaluator.evaluations == evaluations  # zero new pricings
        assert evaluator.cache_hits == hits + len(moves)
        for a, b in zip(first, second):
            assert a.cost == b.cost

    def test_realize_of_fresh_delta_pricing_is_free(self):
        """Realize reads the followed design's context record: no counter
        moves."""
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        moves = _neighbourhood(merged, faults, impl, evaluator)
        candidate = evaluator.evaluate_many(impl, moves)[0]
        evaluations = evaluator.evaluations
        record = evaluator.realize(candidate)
        assert evaluator.evaluations == evaluations
        assert evaluator.record_rebuilds == 0
        assert record is evaluator.context_for(candidate.implementation).record
        # Memoized: realizing again returns the same object.
        assert evaluator.realize(candidate) is record
        # The cache entry was filled in, so a view request for the same
        # design reuses the very record object.
        view = evaluator.evaluate_full(candidate.implementation)[1]
        assert view.record is record
        assert evaluator.evaluations == evaluations
        assert evaluator.record_rebuilds == 0

    def test_realize_of_record_less_cache_hit_reads_the_context_record(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        moves = _neighbourhood(merged, faults, impl, evaluator)
        evaluator.evaluate_many(impl, moves)  # prices, stores record-less
        hit = evaluator.evaluate_many(impl, moves)[0]  # cache hit, no record
        evaluations = evaluator.evaluations
        record = evaluator.realize(hit)
        assert evaluator.evaluations == evaluations
        assert evaluator.record_rebuilds == 0
        assert record is evaluator.context_for(hit.implementation).record
        assert evaluator.realize(hit) is record
        view = evaluator.evaluate_full(hit.implementation)[1]
        assert view.record is record
        assert evaluator.record_rebuilds == 0


    def test_view_of_unrealized_delta_pricing_rebuilds_once(self):
        """A view request for a delta-priced design that was never realized
        rebuilds its record cold: counted once, memoized."""
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        moves = _neighbourhood(merged, faults, impl, evaluator)
        candidate = evaluator.evaluate_many(impl, moves)[0]
        design = candidate.implementation
        evaluations = evaluator.evaluations
        cost, view = evaluator.evaluate_full(design)
        assert cost == candidate.cost
        assert evaluator.evaluations == evaluations
        assert evaluator.record_rebuilds == 1
        ft = build_ft_graph(merged, design.policies, design.mapping, faults)
        cold = build_schedule_record(merged, ft, faults, design.bus)
        assert repr(view.record) == repr(cold)
        # Memoized in the cache entry: the next view reuses the record.
        again = evaluator.evaluate_full(design)[1]
        assert again.record is view.record
        assert evaluator.evaluations == evaluations
        assert evaluator.record_rebuilds == 1


class TestRetention:
    def test_priced_neighbourhood_holds_no_scheduler_state(self):
        """Each replayed state dies with its pricing: the candidates of a
        neighbourhood keep costs, not states."""
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        moves = _neighbourhood(merged, faults, impl, evaluator)

        def states():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, SchedulerState)]

        before = states()
        candidates = evaluator.evaluate_many(impl, moves)
        assert len(candidates) == len(moves)
        alive = [s for s in states() if not any(s is b for b in before)]
        assert alive == []


class TestTierParity:
    def test_delta_and_full_tier_agree(self):
        merged, faults, impl = _setup()
        delta_eval = Evaluator(merged, faults, cache_size=0)
        full_eval = Evaluator(merged, faults)
        moves = _neighbourhood(
            merged, faults, impl, Evaluator(merged, faults)
        )
        priced = delta_eval.evaluate_many(impl, moves)
        assert delta_eval.delta_evaluations == len(moves)
        context = delta_eval.context_for(impl)
        for candidate in priced:
            design = candidate.implementation
            cost, _ = full_eval.evaluate_record(design)
            ft = build_ft_graph(
                merged, design.policies, design.mapping, faults
            )
            cold = build_schedule_record(merged, ft, faults, design.bus)
            assert candidate.cost == cost
            # The delta tier's own record: the candidate's replay, sealed.
            state = context.delta_schedule(
                design.policies, design.mapping, candidate.move.process
            )
            assert repr(state.seal()) == repr(cold)
            assert delta_eval.realize(candidate) == cold
        assert full_eval.delta_evaluations == 0
        assert full_eval.full_evaluations == len(moves)

    def test_context_is_cached_per_base(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults)
        first = evaluator.context_for(impl)
        second = evaluator.context_for(impl.copy())
        assert first is second


class TestCacheOffBehaviour:
    def test_uncached_evaluator_prices_every_request(self):
        merged, faults, impl = _setup()
        evaluator = Evaluator(merged, faults, cache_size=0)
        moves = _neighbourhood(
            merged, faults, impl, Evaluator(merged, faults)
        )
        evaluator.evaluate_many(impl, moves)
        evaluator.evaluate_many(impl, moves)
        assert evaluator.cache_hits == 0
        assert evaluator.delta_evaluations == 2 * len(moves)
        info = evaluator.cache_info()
        assert info.size == 0 and info.bound == 0
