"""Parity of derived cache signatures with from-scratch ones.

The evaluator keys each neighbourhood candidate by a signature derived
from its base's (:meth:`Implementation.moved_signature`: only the moved
process's entry is rebuilt).  A derived key that differed from the
candidate's own :meth:`Implementation.signature` would split or merge
cache entries, so these tests walk random move chains over the cases of
the delta parity suite — remaps, replica-count changes and checkpointed
policies — and check every derived key against a from-scratch one.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.policy import Policy
from repro.opt.evaluator import Evaluator
from repro.opt.moves import generate_moves
from tests.opt.test_delta_parity import _build

_CHAINS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    n=st.integers(8, 14),
    nodes=st.integers(2, 3),
    k=st.integers(0, 3),
    seed=st.integers(0, 7),
    replicas=st.sampled_from([None, 2]),
    picks=st.lists(st.integers(0, 999), min_size=1, max_size=4),
)
@_CHAINS
def test_derived_signatures_equal_from_scratch_ones(
    n, nodes, k, seed, replicas, picks
):
    merged, faults, _, impl = _build(n, nodes, k, seed, replicas)
    evaluator = Evaluator(merged, faults)
    kinds = set()
    for pick in picks:
        base_signature = impl.signature()
        record = evaluator.evaluate_record(impl)[1]
        moves = generate_moves(
            merged, faults, impl, record.critical_path(), (1, 2, 3), (2, 4)
        )
        if not moves:
            return
        for move in moves:
            candidate = move.apply(impl)
            derived = candidate.moved_signature(base_signature, move.process)
            scratch = candidate.signature()
            assert derived == scratch
            assert hash(derived) == hash(scratch)
            # Every entry but the moved one is the base's own tuple.
            for entry, base_entry in zip(derived[0], base_signature[0]):
                if entry[0] != move.process:
                    assert entry is base_entry
            kinds.add((move.kind, move.policy.checkpoints > 0))
        # The evaluator keys each candidate by the derived signature.
        for candidate in evaluator.evaluate_many(impl, moves):
            assert candidate._signature == candidate.implementation.signature()
        impl = moves[pick % len(moves)].apply(impl)
    assert kinds


def test_chains_cover_checkpointed_and_replica_count_moves():
    """The move families the property walks do occur on these cases."""
    kinds = set()
    for seed in range(4):
        merged, faults, _, impl = _build(12, 3, 2, seed)
        record = Evaluator(merged, faults).evaluate_record(impl)[1]
        for move in generate_moves(
            merged, faults, impl, record.critical_path(), (1, 2, 3), (2, 4)
        ):
            candidate = move.apply(impl)
            derived = candidate.moved_signature(impl.signature(), move.process)
            assert derived == candidate.signature()
            if move.policy.checkpoints > 0:
                kinds.add("checkpointed")
            if move.policy.n_replicas != impl.policies[move.process].n_replicas:
                kinds.add("replica-count")
    assert kinds == {"checkpointed", "replica-count"}


def test_mutating_an_implementation_changes_its_signature():
    merged, faults, _, impl = _build(10, 2, 2, seed=1)
    process = sorted(impl.policies)[0]
    signed = impl.signature()
    impl.policies[process] = Policy.checkpointing(faults.k, 3)
    after_policy = impl.signature()
    assert after_policy != signed
    nodes = impl.mapping[process]
    other = next(node for node in merged.process(process).allowed_nodes
                 if node != nodes[0])
    impl.mapping.assign(process, (other,))
    after_mapping = impl.signature()
    assert after_mapping != after_policy
    # A derived signature tracks the mutation too: it is computed from
    # the implementation's current values every time.
    assert impl.moved_signature(signed, process) == after_mapping
