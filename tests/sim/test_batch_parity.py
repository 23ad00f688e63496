"""Parity suite of the batched scenario-replay kernel.

The contract (DESIGN.md, "Batched scenario simulation") is bit-parity,
the same discipline as ``tests/opt/test_delta_parity.py``: for any
target and any ``(instances, B)`` failure matrix, every ``run_batch``
column re-materialized through :meth:`BatchResult.scalarize` is
``repr``-byte-equal to the scalar :meth:`SystemSimulator.run` on the
same scenario — completions, starved sets, dead processes, execution
records, including failure counts *beyond* the fault model's ``k`` and
beyond a replica's re-execution budget (dead replicas).  On top of the
replay, :class:`BatchChecker` masks must agree with scalar
:func:`check_scenario` per violation kind, and a batched
:func:`run_shard` must produce byte-identical shard summaries (violation
counts, exemplar ``order`` tuples, messages) to the scalar path on
every tier.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FaultToleranceViolation
from repro.gen.suite import generate_case
from repro.inject.importance import importance_scenarios
from repro.inject.plan import plan_sweep
from repro.inject.runner import run_shard
from repro.inject.space import ScenarioSpace
from repro.inject.target import InjectTarget
from repro.model.merge import merge_application
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.schedule.list_scheduler import list_schedule
from repro.sim.faults import FaultScenario
from repro.sim.validate import check_scenario

_SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (processes, nodes, k, seed, replicas) — mixed shapes: single-replica
#: chains, replica groups with remote senders, k=3 deep strata, and two
#: replicas on three nodes (receivers whose input groups differ in their
#: number of possible arrivals, replicated groups with no local sender).
_TARGET_SHAPES = (
    (8, 2, 2, 0, 1),
    (10, 3, 2, 3, 3),
    (12, 2, 3, 1, 2),
    (9, 3, 2, 7, 3),
    (12, 3, 2, 0, 2),
)


@lru_cache(maxsize=None)
def _target(shape_index: int) -> InjectTarget:
    n, nodes, k, seed, replicas = _TARGET_SHAPES[shape_index]
    case = generate_case(n, nodes, k, mu=5.0, seed=seed)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(merged, case.architecture, case.faults, bus, replicas)
    schedule = list_schedule(
        merged, case.faults, impl.policies, impl.mapping, bus
    )
    return InjectTarget(
        application=case.application,
        faults=case.faults,
        implementation=impl,
        record=schedule.record,
        label=f"parity-{n}p{nodes}n-k{k}",
    )


@lru_cache(maxsize=None)
def _context(shape_index: int):
    return _target(shape_index).build_context()


def _row_kinds(shape_index: int) -> set[str]:
    """The kinds of replay rows a target holds, read off its FT graph."""
    context = _context(shape_index)
    ft = context.ft
    kinds = set()
    for iid in context.batch.instance_ids:
        node = ft.instance(iid).node
        groups = ft.inputs_of(iid)
        if not groups:
            kinds.add("input-less")
        arrivals = []  # possible arrivals per input group
        for group in groups:
            local = [
                src for src in group.sources if ft.instance(src).node == node
            ]
            if local and len(local) < len(group.sources):
                kinds.add("local and remote senders")
            if len(group.sources) > 1 and not local:
                kinds.add("replicated group without a local sender")
            arrivals.append(len(local) + sum(
                1 for message in ft.bus_messages.values()
                if message.sender in group.sources
                and message.sender not in local
                and message.message.name == group.message.name
            ))
        if len(set(arrivals)) > 1:
            kinds.add("unequal group sizes")
    return kinds


def test_target_shapes_cover_the_kernel_row_kinds():
    """The shapes together exercise every row layout the kernel pads,
    gathers and reduces."""
    kinds = set().union(*map(_row_kinds, range(len(_TARGET_SHAPES))))
    assert kinds >= {
        "input-less",
        "local and remote senders",
        "replicated group without a local sender",
        "unequal group sizes",
    }


def _random_matrix(context, rng: np.random.Generator, width: int,
                   beyond_caps: bool) -> np.ndarray:
    """Random failure matrix in plan order; optionally beyond each
    replica's capacity (dead replicas) and the fault model's k."""
    ids = context.batch.instance_ids
    caps = np.asarray(
        [context.ft.instance(iid).reexecutions + 1 for iid in ids],
        dtype=np.int64,
    )
    high = caps + (2 if beyond_caps else 0)
    matrix = rng.integers(0, high[:, None] + 1, size=(len(ids), width))
    # Sparsify: most instances fault-free, like real scenarios.
    matrix[rng.random(matrix.shape) > 0.3] = 0
    return matrix.astype(np.int64)


def _column_scenario(context, matrix: np.ndarray, j: int) -> FaultScenario:
    return FaultScenario(failures={
        iid: int(count)
        for iid, count in zip(context.batch.instance_ids, matrix[:, j])
        if count
    })


@_SLOW
@given(
    shape_index=st.integers(min_value=0, max_value=len(_TARGET_SHAPES) - 1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    beyond_caps=st.booleans(),
)
def test_every_column_is_repr_equal_to_the_scalar_run(
    shape_index, seed, beyond_caps
):
    """run_batch columns == SystemSimulator.run, byte for byte.

    ``beyond_caps`` drives counts past the re-execution budget (dead
    replicas, starving consumers) and past the fault model's k — the
    replay itself is defined for any counts, exactly like the scalar
    engine."""
    context = _context(shape_index)
    rng = np.random.default_rng(seed)
    matrix = _random_matrix(context, rng, width=37, beyond_caps=beyond_caps)
    replay = context.batch.run_batch(matrix)
    for j in range(matrix.shape[1]):
        scenario = _column_scenario(context, matrix, j)
        scalar = context.simulator.run(scenario)
        batched = replay.scalarize(j, scenario)
        assert repr(batched) == repr(scalar)
        # scalarize without the scenario reconstructs it from the column.
        assert replay.scalarize(j).scenario == scenario


@_SLOW
@given(
    shape_index=st.integers(min_value=0, max_value=len(_TARGET_SHAPES) - 1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_checker_masks_agree_with_scalar_classification(shape_index, seed):
    """Per-kind BatchChecker masks == check_scenario kinds, per column."""
    context = _context(shape_index)
    rng = np.random.default_rng(seed)
    matrix = _random_matrix(context, rng, width=29, beyond_caps=False)
    k = _target(shape_index).faults.k
    # Clamp each column into the fault model so check_scenario accepts it.
    for j in range(matrix.shape[1]):
        while matrix[:, j].sum() > k:
            hit = np.flatnonzero(matrix[:, j])
            matrix[hit[rng.integers(len(hit))], j] -= 1
    replay = context.batch.run_batch(matrix)
    report = context.checker.check(replay)
    for j in range(matrix.shape[1]):
        scenario = _column_scenario(context, matrix, j)
        kinds = {v.kind for v in check_scenario(context.simulator, scenario)}
        for kind, mask in report.masks.items():
            assert bool(mask[j]) == (kind in kinds), (kind, j)
        assert bool(report.violating[j]) == bool(kinds)


@pytest.mark.parametrize("shape_index", range(len(_TARGET_SHAPES)))
def test_exceeding_k_raises_the_scalar_message(shape_index):
    context = _context(shape_index)
    target = _target(shape_index)
    ids = context.batch.instance_ids
    matrix = np.zeros((len(ids), 3), dtype=np.int64)
    matrix[: target.faults.k + 1, 1] = 1  # column 1 spends k+1 faults
    replay = context.batch.run_batch(matrix)
    scenario = _column_scenario(context, matrix, 1)
    with pytest.raises(FaultToleranceViolation) as scalar_error:
        check_scenario(context.simulator, scenario)
    with pytest.raises(FaultToleranceViolation) as batch_error:
        context.checker.check(replay)
    assert str(batch_error.value) == str(scalar_error.value)


@pytest.mark.parametrize("shape_index", range(len(_TARGET_SHAPES)))
def test_run_shard_batched_matches_scalar_on_every_tier(shape_index):
    """Whole-shard byte equality through run_shard, all three tiers.

    batch_size=5 forces multiple ragged blocks per shard; the scalar
    reference is batch_size=0.  Exemplar ``order`` tuples, violation
    counts and messages all ride on the compared dicts."""
    target = _target(shape_index)
    context = _context(shape_index)
    space = ScenarioSpace.of(context.ft, target.faults.k)
    ranked = importance_scenarios(target.record, context.ft, target.faults.k)
    fingerprint = target.fingerprint()
    # A small budget forces stratified sampling on the deep strata while
    # the shallow ones stay exhaustive; importance rides in wave 0.
    plan = plan_sweep(space, len(ranked), budget=250, shard_size=40)
    tiers = {spec.tier for spec in plan.shards}
    assert "importance" in tiers
    for spec in plan.shards:
        scalar = run_shard(target, spec, fingerprint, batch_size=0).to_dict()
        batched = run_shard(target, spec, fingerprint, batch_size=5).to_dict()
        for summary in (scalar, batched):
            summary.pop("elapsed_s")
            summary.pop("phase_s")
        assert batched == scalar
