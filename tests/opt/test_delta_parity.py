"""Golden-parity suite of the delta evaluation kernel.

The kernel's contract (DESIGN.md, "Incremental evaluation kernel") is that
a delta re-schedule of a moved design is *byte-identical* to a cold full
pass over the moved design's FT graph — same instance placement order,
same float arithmetic, same MEDL, same record.  These tests drive random
cases through random move chains and compare against
:func:`repro.schedule.list_scheduler.build_schedule_record` field by field,
plus the supporting exact-parity contracts the kernel rests on:

* :meth:`EvalContext.moved_priorities` equals a full
  :func:`~repro.schedule.priorities.pcp_priorities` recomputation on the
  overlay graph, bit for bit;
* :meth:`~repro.schedule.state.SchedulerState.cost_view` equals the sealed
  record's ``(degree_of_schedulability, makespan)``, bit for bit.

The move chains include checkpointed re-execution policies, whose
recovery re-runs one segment (``recovery_unit < wcet``) in both the
release rows and the worst-case analysis.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.cruise_control import cruise_control_case
from repro.gen.suite import generate_case
from repro.model.ftgraph import build_ft_graph
from repro.model.merge import merge_application
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.opt.moves import generate_moves
from repro.schedule.incremental import EvalContext
from repro.schedule.list_scheduler import build_schedule_record
from repro.schedule.priorities import pcp_priorities
from repro.schedule.state import SchedulerState

_SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build(n, nodes, k, seed, replicas=None):
    case = generate_case(n, nodes, k, mu=5.0 if k else 0.0, seed=seed)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    if replicas is None:
        impl = initial_mpa(merged, case.architecture, case.faults, bus)
    else:
        impl = initial_mpa(
            merged, case.architecture, case.faults, bus, replicas
        )
    return merged, case.faults, bus, impl


def _capture(merged, faults, bus, impl):
    ft = build_ft_graph(merged, impl.policies, impl.mapping, faults)
    return EvalContext.capture(merged, ft, faults, bus)


def _cold_record(merged, faults, bus, impl):
    ft = build_ft_graph(merged, impl.policies, impl.mapping, faults)
    return ft, build_schedule_record(merged, ft, faults, bus)


@given(
    n=st.integers(8, 14),
    nodes=st.integers(2, 3),
    k=st.integers(0, 3),
    seed=st.integers(0, 7),
    picks=st.lists(st.integers(0, 999), min_size=1, max_size=3),
)
@_SLOW
def test_delta_record_byte_identical_along_move_chains(
    n, nodes, k, seed, picks
):
    """Random case, random chain of search moves: delta == cold, bytewise.

    Each step captures the current implementation as the base, applies one
    randomly chosen neighbourhood move through the delta kernel and
    compares the sealed record against a cold full pass of the moved
    design.  ``repr`` equality is the byte-identity check: every field is
    a flat tuple of str/int/float and float repr is the shortest exact
    round-trip, so it distinguishes even ``0.0`` from ``-0.0``.
    """
    merged, faults, bus, impl = _build(n, nodes, k, seed)
    for pick in picks:
        context = _capture(merged, faults, bus, impl)
        moves = generate_moves(
            merged, faults, impl, context.record.critical_path(), (1, 2, 3),
            (2, 4),
        )
        if not moves:
            return
        move = moves[pick % len(moves)]
        candidate = move.apply(impl)

        # Incremental priorities: bit-equal to a full recomputation on the
        # overlay graph.
        moved_ft, priorities = context.plan_move(
            candidate.policies, candidate.mapping, move.process
        )
        assert priorities == pcp_priorities(moved_ft, bus, faults)

        # Delta replay: unsealed cost parity, then sealed byte parity.
        state = context.delta_schedule(
            candidate.policies, candidate.mapping, move.process
        )
        degree, makespan = state.cost_view()
        delta_rec = state.seal()
        assert degree == delta_rec.degree_of_schedulability()
        assert makespan == delta_rec.makespan

        _, cold_rec = _cold_record(merged, faults, bus, candidate)
        assert delta_rec == cold_rec
        assert repr(delta_rec) == repr(cold_rec)

        impl = candidate  # chain: the moved design becomes the next base


def _frame_ids(ft, iid):
    return [message.id for message in ft.outgoing_bus_messages(iid)]


def test_delta_record_parity_on_replicated_base():
    """Deterministic spot check with replicated initial policies.

    Replicas > 1 exercise the fast/guaranteed frame pairs of the MEDL.
    The neighbourhood covers the two moves that change what an unmoved
    part of the base schedule sends or waits for, and both replay from
    rank 0 with the copy path on:

    * a move that changes the frame set of a predecessor sender it leaves
      untouched (moving a receiver creates or removes the sender's remote
      frames, which pack at the sender's own placement, possibly first in
      the schedule);
    * a replica-count move, which grows or shrinks the moved group and
      every successor's pending-predecessor count.
    """
    merged, faults, bus, impl = _build(12, 3, 2, seed=3, replicas=2)
    context = _capture(merged, faults, bus, impl)
    moves = generate_moves(
        merged, faults, impl, context.record.critical_path(), (1, 2, 3)
    )
    assert moves
    base_ft = context.ft
    frame_set_moves = replica_count_moves = 0
    for move in moves:
        candidate = move.apply(impl)
        plan = context.plan_move(
            candidate.policies, candidate.mapping, move.process
        )
        moved_ft = plan[0]
        if any(
            _frame_ids(base_ft, src_iid) != _frame_ids(moved_ft, src_iid)
            for message in merged.in_messages(move.process)
            for src_iid in base_ft.group_of[message.src]
        ):
            frame_set_moves += 1
        if len(moved_ft.group_of[move.process]) != len(
            base_ft.group_of[move.process]
        ):
            replica_count_moves += 1
        state = context.delta_schedule(
            candidate.policies, candidate.mapping, move.process, plan=plan
        )
        delta_rec = state.seal()
        _, cold_rec = _cold_record(merged, faults, bus, candidate)
        assert delta_rec == cold_rec
        assert repr(delta_rec) == repr(cold_rec)
    assert frame_set_moves >= 1
    assert replica_count_moves >= 1


def test_capture_record_matches_untraced_cold_pass():
    """Capturing (a traced run) does not perturb the schedule."""
    merged, faults, bus, impl = _build(14, 3, 3, seed=5)
    context = _capture(merged, faults, bus, impl)
    _, cold_rec = _cold_record(merged, faults, bus, impl)
    assert context.record == cold_rec
    assert repr(context.record) == repr(cold_rec)


def test_cost_view_sums_several_late_processes_like_the_record():
    """Cost parity where the degree sums overshoots over several processes.

    Under a 60 ms deadline the cruise controller misses it on several
    sinks.  The unsealed cost view of the base pass equals its sealed
    record's ``(degree_of_schedulability, makespan)``, and every
    neighbour priced by delta replay costs exactly what its cold record
    does."""
    application, architecture, faults = cruise_control_case(deadline=60.0)
    merged = merge_application(application)
    bus = initial_bus_access(application, architecture, 2.0)
    impl = initial_mpa(merged, architecture, faults, bus, 2)
    ft = build_ft_graph(merged, impl.policies, impl.mapping, faults)
    state = SchedulerState(merged, ft, faults, bus)
    state.run()
    cost = state.cost_view()
    record = state.seal()
    assert cost == (record.degree_of_schedulability(), record.makespan)
    assert len(record.tardiness()) > 1 and cost[0] > 0.0

    context = EvalContext.capture(merged, ft, faults, bus)
    moves = generate_moves(
        merged, faults, impl, context.record.critical_path(), (1, 2, 3)
    )
    assert moves
    for move in moves:
        candidate = move.apply(impl)
        state = context.delta_schedule(
            candidate.policies, candidate.mapping, move.process
        )
        _, cold_rec = _cold_record(merged, faults, bus, candidate)
        assert state.cost_view() == (
            cold_rec.degree_of_schedulability(), cold_rec.makespan
        )
