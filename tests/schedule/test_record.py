"""Properties of the compact ScheduleRecord IR.

The record is the canonical synthesized-configuration artifact, so it must
(1) pickle losslessly (workers ship it across process boundaries), (2) be
hashable with structural equality (it keys caches), and (3) contain no
reference cycles (retained records must add nothing to cyclic-GC work —
the argument behind the enlarged evaluator cache, see DESIGN.md).
"""

import gc
import pickle

import pytest

from repro.gen.suite import generate_case
from repro.model.merge import merge_application
from repro.opt.evaluator import Evaluator
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.schedule.list_scheduler import build_schedule_record, list_schedule
from repro.schedule.record import BINDING_KINDS, ScheduleRecord

from tests.schedule.parity_cases import CASES, build_schedule


def _record_for(n, nodes, k, seed, replicas=1):
    case = generate_case(n, nodes, k, mu=5.0, seed=seed)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(merged, case.architecture, case.faults, bus, replicas)
    schedule = list_schedule(merged, case.faults, impl.policies, impl.mapping, bus)
    return schedule.record


class TestPickleRoundTrip:
    @pytest.mark.parametrize("tag,n,nodes,k,seed,replicas", CASES)
    def test_round_trip_is_lossless(self, tag, n, nodes, k, seed, replicas):
        record = build_schedule(n, nodes, k, seed, replicas).record
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert hash(clone) == hash(record)
        assert clone.critical_path() == record.critical_path()
        assert clone.makespan == record.makespan

    def test_pickle_is_compact(self):
        """The IR's payload must stay in flat-tuple territory: a record
        pickles to a small fraction of a megabyte even for a large case."""
        record = _record_for(20, 2, 3, seed=0)
        assert len(pickle.dumps(record)) < 64 * 1024


class TestEqualityAndHash:
    def test_identical_builds_are_equal(self):
        a = _record_for(10, 2, 2, seed=4)
        b = _record_for(10, 2, 2, seed=4)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_different_seeds_differ(self):
        a = _record_for(10, 2, 2, seed=4)
        b = _record_for(10, 2, 2, seed=5)
        assert a != b

    def test_usable_as_dict_key(self):
        a = _record_for(8, 2, 1, seed=0)
        b = _record_for(8, 2, 1, seed=0)
        seen = {a: "first"}
        assert seen[b] == "first"


class TestCycleFreedom:
    @pytest.mark.parametrize("tag,n,nodes,k,seed,replicas", CASES)
    def test_no_reference_cycles(self, tag, n, nodes, k, seed, replicas):
        """DFS over ``gc.get_referents`` must never revisit an object on the
        current path: the record's object graph is a strict tree/DAG."""
        record = build_schedule(n, nodes, k, seed, replicas).record

        on_path: set[int] = set()
        finished: set[int] = set()
        stack: list[tuple[object, bool]] = [(record, False)]
        while stack:
            obj, done = stack.pop()
            if done:
                on_path.discard(id(obj))
                finished.add(id(obj))
                continue
            if id(obj) in finished:
                continue
            assert id(obj) not in on_path, (
                f"reference cycle through {type(obj).__name__}"
            )
            if isinstance(obj, (str, bytes, int, float, bool, type(None), type)):
                continue
            on_path.add(id(obj))
            stack.append((obj, True))
            for child in gc.get_referents(obj):
                stack.append((child, False))

    def test_gc_untracks_record_payload(self):
        """CPython untracks tuples of atomic values as it traverses them —
        so a retained record contributes (almost) nothing to GC re-scans.
        Two collections make the cascade deterministic: the first untracks
        the leaf rows, the second the outer arrays that hold them."""
        record = _record_for(12, 3, 2, seed=1)
        gc.collect()
        gc.collect()
        assert not gc.is_tracked(record.root_start)
        assert not gc.is_tracked(record.finish_rows)
        assert not gc.is_tracked(record.bindings)
        assert not gc.is_tracked(record.medl)


class TestRecordSemantics:
    def test_binding_triples_are_index_valid(self):
        record = _record_for(12, 3, 2, seed=2, replicas=3)
        n = len(record)
        for index, (kind, source, budget) in enumerate(record.bindings):
            assert 0 <= kind < len(BINDING_KINDS)
            assert 0 <= budget <= record.k
            if BINDING_KINDS[kind] == "release":
                assert source == -1
            else:
                # Constraining predecessors are always placed earlier.
                assert 0 <= source < index <= n

    def test_builder_output_matches_evaluator_cache_entry(self):
        case = generate_case(8, 2, 1, mu=5.0, seed=0)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus)
        evaluator = Evaluator(merged, case.faults)
        cost, record = evaluator.evaluate_record(impl)
        assert isinstance(record, ScheduleRecord)
        assert cost.makespan == record.makespan
        # The cached record is exactly what a direct build produces.
        from repro.model.ftgraph import build_ft_graph

        ft = build_ft_graph(merged, impl.policies, impl.mapping, case.faults)
        direct = build_schedule_record(merged, ft, case.faults, impl.bus)
        assert direct == record
