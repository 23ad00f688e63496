"""Unit tests for the FT-extended execution graph."""

import pytest

from repro.errors import ModelError
from repro.gen.suite import generate_case
from repro.model.application import Application, Process, ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import build_ft_graph, ft_graph_with_move, instance_id
from repro.model.mapping import ReplicaMapping
from repro.model.merge import merge_application
from repro.model.policy import Policy, PolicyAssignment
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.opt.moves import generate_moves


def _merged_chain():
    g = ProcessGraph("g")
    g.add_process(Process("A", {"N1": 10.0, "N2": 12.0}))
    g.add_process(Process("B", {"N1": 20.0, "N2": 22.0}))
    g.connect("A", "B", size=2)
    return merge_application(Application([g]))


FAULTS = FaultModel(k=2, mu=5.0)


def test_instance_id_format():
    assert instance_id("P1", 0) == "P1:r0"


def test_reexecution_explodes_to_one_instance_each():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(2))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    assert len(ft) == 2
    assert ft.replicas("A") == ("A:r0",)
    assert ft.instance("A:r0").reexecutions == 2
    assert ft.instance("A:r0").kill_cost == 3


def test_replication_explodes_to_k_plus_one_instances():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2", "N1"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    assert ft.replicas("A") == ("A:r0", "A:r1", "A:r2")
    assert all(ft.instance(i).reexecutions == 0 for i in ft.replicas("A"))


def test_input_groups_list_all_sender_replicas():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2", "N1"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    groups = ft.inputs_of("B:r0")
    assert len(groups) == 1
    assert groups[0].sources == ("A:r0", "A:r1", "A:r2")


def test_bus_messages_masked_for_sole_replica():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(2))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    out = ft.outgoing_bus_messages("A:r0")
    assert [m.kind for m in out] == ["masked"]
    assert out[0].id == "m_A_B[A:r0]"


def test_plain_replicas_backed_by_guaranteed_frames_up_to_k():
    """One upstream fault can delay a whole replica group past its fast
    slots simultaneously, so enough replicas must own a guaranteed
    (post-WCF) frame that their combined kill price reaches k — without
    that backing a group of pure replicas has no delivery the worst-case
    analysis may rely on.  Replicas beyond the required price stay
    fast-only (no wasted bus slots)."""
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2", "N1"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    senders = [i for i in ft.replicas("A") if ft.outgoing_bus_messages(i)]
    assert senders  # co-located replicas (A:r1 on B's node) send nothing
    for i in senders:
        assert "fast" in {m.kind for m in ft.outgoing_bus_messages(i)}
    # Every receiver must see delay-immune deliveries whose combined kill
    # price reaches k: a sender co-located with the receiver is immune via
    # its local finish, a remote one via its guaranteed frame.
    for receiver in ft.replicas("B"):
        receiver_node = ft.instances[receiver].node
        immune_price = sum(
            ft.instances[i].kill_cost
            for i in ft.replicas("A")
            if ft.instances[i].node == receiver_node
            or "guaranteed" in {m.kind for m in ft.outgoing_bus_messages(i)}
        )
        assert immune_price >= FAULTS.k


def test_bus_messages_fast_plus_guaranteed_for_reexecuted_replicas():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.combined(2, 2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    kinds_r0 = sorted(m.kind for m in ft.outgoing_bus_messages("A:r0"))
    kinds_r1 = sorted(m.kind for m in ft.outgoing_bus_messages("A:r1"))
    # r0 carries the re-execution (e=(1,0)): fast + guaranteed frames.
    assert kinds_r0 == ["fast", "guaranteed"]
    # r1 is co-located with B's node? (N2) -> no remote receiver, no frames,
    # unless B has replicas elsewhere; B lives on N2 only, so r1 sends none.
    assert kinds_r1 == []


def test_no_bus_message_when_colocated():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(2))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N1",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    assert ft.outgoing_bus_messages("A:r0") == []


def test_policy_not_tolerating_k_rejected():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(1))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    with pytest.raises(ModelError):
        build_ft_graph(merged, policies, mapping, FAULTS)


def test_mapping_policy_mismatch_rejected():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    with pytest.raises(ModelError):
        build_ft_graph(merged, policies, mapping, FAULTS)


def test_topological_order_respects_dependencies():
    merged = _merged_chain()
    policies = PolicyAssignment(
        {"A": Policy.replication(2), "B": Policy.reexecution(2)}
    )
    mapping = ReplicaMapping({"A": ("N1", "N2", "N1"), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    order = ft.topological_order()
    for a_replica in ft.replicas("A"):
        assert order.index(a_replica) < order.index("B:r0")


def test_unknown_instance_raises():
    merged = _merged_chain()
    policies = PolicyAssignment.uniform(iter(["A", "B"]), Policy.reexecution(2))
    mapping = ReplicaMapping({"A": ("N1",), "B": ("N2",)})
    ft = build_ft_graph(merged, policies, mapping, FAULTS)
    with pytest.raises(ModelError):
        ft.instance("nope:r0")
    with pytest.raises(ModelError):
        ft.replicas("nope")



def test_noop_overlay_adjacency_matches_base():
    """An overlay that moves nothing wires every list like the cold build.

    The cold build and the move overlay share one wiring step, so for
    every process the overlay's successor and predecessor lists equal the
    base's element for element, order included."""
    differing = []
    for n, nodes, k, seed in ((20, 2, 2, 0), (30, 3, 3, 1)):
        case = generate_case(n, nodes, k, seed=seed)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus, 2)
        base = build_ft_graph(merged, impl.policies, impl.mapping, case.faults)
        for process in merged:
            overlay = ft_graph_with_move(
                base, merged, impl.policies, impl.mapping, case.faults,
                process,
            )
            for moved, cold in (
                (overlay._succ, base._succ),
                (overlay._pred, base._pred),
            ):
                assert moved.keys() == cold.keys()
                differing += [
                    (n, process, iid)
                    for iid in moved
                    if moved[iid] != cold[iid]
                ]
    assert differing == []


def test_overlay_release_plans_match_a_cold_build():
    """Every release plan an overlay serves equals a cold build's.

    Input groups are shared between a base graph and its overlays, and
    each caches one release plan per receiver node.  The base's plans are
    all built first, so a shared group carrying a plan for senders the
    move replaced would show here as a stale plan."""
    checked = 0
    for n, nodes, k, seed in ((20, 2, 2, 0), (30, 3, 3, 1)):
        case = generate_case(n, nodes, k, seed=seed)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus, 2)
        base = build_ft_graph(merged, impl.policies, impl.mapping, case.faults)
        for iid, instance in base.instances.items():
            for group in base.inputs_of(iid):
                group.release_plan(instance.node)
        moves = generate_moves(
            merged, case.faults, impl, list(merged), (1, 2, 3), (2,)
        )
        assert moves
        for move in moves:
            moved = move.apply(impl)
            overlay = ft_graph_with_move(
                base, merged, moved.policies, moved.mapping, case.faults,
                move.process,
            )
            cold = build_ft_graph(
                merged, moved.policies, moved.mapping, case.faults
            )
            assert overlay.instances == cold.instances
            for iid, instance in cold.instances.items():
                node = instance.node
                assert [
                    group.release_plan(node) for group in overlay.inputs_of(iid)
                ] == [
                    group.release_plan(node) for group in cold.inputs_of(iid)
                ]
                checked += 1
    assert checked > 0
