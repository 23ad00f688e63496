"""The importance tier rediscovers the PR 3 starvation counterexample.

The pre-fix worst-case analysis was unsound in two coupled ways, both
reverted here via monkeypatching to rebuild the historical model:

* **structure** (``ftgraph._guaranteed_backed``): only *re-executed*
  replicas carried a guaranteed post-WCF frame, so a group of pure
  replicas delivered through fast frames alone;
* **pricing** (``state.release_row``): each fast frame's invalidation
  was priced per sender from that sender's own finish row, so the
  adversary paid once *per replica* to delay the group — even though one
  upstream fault delays every replica past its fast slot simultaneously
  (replicas consume the same broadcast frame).

On the chain below the weak analysis claims schedulability while a
single fault on ``A:r0`` starves ``C``: both ``B`` replicas fall back to
``A:r1``'s much later frame, miss their fast slots together, and no
guaranteed frame exists.  The sweep's importance tier must surface this
in its first shard wave, before any coverage shard runs.
"""

from __future__ import annotations

import pytest

import repro.model.ftgraph as ftgraph
import repro.schedule.state as state
from repro.inject.driver import run_inject_sweep
from repro.inject.importance import importance_scenarios
from repro.inject.plan import plan_sweep
from repro.inject.runner import run_shard
from repro.inject.space import ScenarioSpace
from repro.inject.target import InjectTarget
from repro.model.application import Application, Process, ProcessGraph
from repro.model.architecture import Architecture, Node
from repro.model.fault import FaultModel
from repro.model.mapping import ReplicaMapping
from repro.model.merge import merge_application
from repro.model.policy import Policy, PolicyAssignment
from repro.opt.implementation import Implementation
from repro.opt.initial import initial_bus_access
from repro.schedule.list_scheduler import list_schedule
from repro.schedule.state import group_survivor_indices
from repro.sim.engine import SystemSimulator
from repro.sim.faults import FaultScenario


def _prefix_backed(ft, group, k):
    """Pre-fix structure: guaranteed frames only for re-executed replicas."""
    return {iid for iid in group if ft.instances[iid].reexecutions > 0}


def _prefix_release_row(ft, iid, faults, root_finish, no_recovery_rows,
                        medl_by_id):
    """Pre-fix pricing: per-sender frame invalidation, no shared delays.

    A fast frame costs the cheaper of an outright kill and the smallest
    fault count ``q*`` whose worst finish (own recoveries *or* upstream
    delays, priced against this sender alone) misses the slot start; the
    guaranteed twin, where present, costs the remaining kills.
    """
    k = faults.k
    mu = faults.mu
    instances = ft.instances
    instance = instances[iid]
    rel_row = [instance.release] * (k + 1)
    sources: list[str | None] = [None] * (k + 1)
    for group in ft.inputs_of(iid):
        replicated, local, remote = group.release_plan(instance.node)
        arrivals = [
            (root_finish[src_iid], kill_cost, src_iid)
            for src_iid, kill_cost in local
        ]
        for (src_iid, fast_id, guaranteed_id, recovery_unit, reexec,
             kill_cost) in remote:
            slot = medl_by_id[fast_id]
            if not replicated:
                arrivals.append((slot.slot_end, kill_cost, src_iid))
                continue
            guaranteed = medl_by_id.get(guaranteed_id)
            guaranteed_end = None if guaranteed is None else guaranteed.slot_end
            slot_end = slot.slot_end
            row = no_recovery_rows[src_iid]
            step = recovery_unit + mu
            threshold = slot.slot_start + 1e-9
            q_star = k + 1
            for q in range(k + 1):
                finishes = [row[d] + (q - d) * step for d in range(q + 1)
                            if (q - d) <= reexec]
                if finishes and max(finishes) > threshold:
                    q_star = q
                    break
            fast_cost = kill_cost if kill_cost < q_star else q_star
            arrivals.append((slot_end, fast_cost, src_iid))
            if guaranteed_end is not None and fast_cost < kill_cost:
                arrivals.append((guaranteed_end, kill_cost - fast_cost,
                                 src_iid))
        arrivals.sort()
        for c, index in enumerate(group_survivor_indices(arrivals, k)):
            arrival = arrivals[index][0]
            if arrival > rel_row[c]:
                rel_row[c] = arrival
                sources[c] = arrivals[index][2]
    return rel_row, sources


def _chain_target() -> InjectTarget:
    """A -> B -> C with correlated-delay exposure.

    ``A`` and ``B`` are pure replica pairs on distinct nodes (no reuse
    budget, fast slots right after the fault-free finish); ``C`` sits on
    a node with no ``B`` replica, so it lives off ``B``'s frames alone.
    ``A:r1`` is slow: the fallback frame after a fault on ``A:r0``
    arrives far past both ``B`` fast slots.
    """
    g = ProcessGraph("chain", period=400.0, deadline=400.0)
    g.add_process(Process("A", {"N1": 10.0, "N2": 60.0}))
    g.add_process(Process("B", {"N3": 10.0, "N4": 10.0}))
    g.add_process(Process("C", {"N1": 10.0}, fixed_node="N1"))
    g.connect("A", "B", size=2)
    g.connect("B", "C", size=2)
    app = Application([g])
    arch = Architecture([Node("N1"), Node("N2"), Node("N3"), Node("N4")])
    faults = FaultModel(k=1, mu=5.0)
    policies = PolicyAssignment({
        "A": Policy.replication(1),
        "B": Policy.replication(1),
        "C": Policy.reexecution(1),
    })
    mapping = ReplicaMapping({
        "A": ("N1", "N2"),
        "B": ("N3", "N4"),
        "C": ("N1",),
    })
    bus = initial_bus_access(app, arch)
    merged = merge_application(app)
    schedule = list_schedule(merged, faults, policies, mapping, bus)
    return InjectTarget(
        application=app,
        faults=faults,
        implementation=Implementation(
            policies=policies, mapping=mapping, bus=bus
        ),
        record=schedule.record,
        label="prefix-chain",
    )


@pytest.fixture
def weak_target(monkeypatch) -> InjectTarget:
    """The chain scheduled — and later simulated — under the weak model.

    Both patches stay active for the whole test so the FT graph the
    simulator rebuilds matches the record's MEDL (no guaranteed frames).
    """
    monkeypatch.setattr(ftgraph, "_guaranteed_backed", _prefix_backed)
    monkeypatch.setattr(state, "release_row", _prefix_release_row)
    return _chain_target()


def test_importance_tier_rediscovers_starvation_in_wave_zero(weak_target):
    context = weak_target.build_context()
    # The weak analysis *claims* schedulability: every worst-case finish
    # meets the graph deadline.  That claim is what the sweep refutes.
    assert max(weak_target.record.wcf) <= 400.0
    assert all(m.kind != "guaranteed" for m in context.ft.bus_messages.values())

    space = ScenarioSpace.of(context.ft, weak_target.faults.k)
    ranked = importance_scenarios(
        weak_target.record, context.ft, weak_target.faults.k
    )
    plan = plan_sweep(space, len(ranked), budget=10_000)

    # First shard wave == the importance tier, ahead of all coverage.
    wave0 = [s for s in plan.shards if s.wave == 0]
    assert wave0 and all(s.tier == "importance" for s in wave0)
    assert plan.shards[: len(wave0)] == wave0

    fingerprint = weak_target.fingerprint()
    first = run_shard(weak_target, wave0[0], fingerprint)
    assert first.violation_scenarios >= 1
    assert first.class_counts.get("starved", 0) >= 1
    starved = first.exemplars["starved"]
    assert starved.subject == "C:r0"

    # The exemplar names a within-budget scenario and replays: the same
    # failure map starves C on a simulator rebuilt from the bare record.
    assert sum(starved.failures.values()) <= weak_target.faults.k
    simulator = SystemSimulator.from_record(
        weak_target.record, context.merged, context.ft,
        weak_target.faults, weak_target.implementation.bus,
    )
    replay = simulator.run(FaultScenario(failures=starved.failures))
    assert "C:r0" in replay.starved

    # The full sweep agrees and reports the importance findings apart
    # from the probabilistic coverage machinery.
    aggregate, _ = run_inject_sweep(weak_target, plan)
    summary = aggregate.to_dict()
    assert summary["ok"] is False
    assert summary["importance"]["violations"] >= 1
    assert summary["class_counts"]["starved"] >= 1


def test_sound_model_schedules_the_same_chain_cleanly():
    """Unpatched, the same design gets guaranteed frames and survives an
    exhaustive sweep — the weakness is in the reverted model, not the
    chain."""
    target = _chain_target()
    context = target.build_context()
    kinds = [m.kind for m in context.ft.bus_messages.values()]
    assert "guaranteed" in kinds

    space = ScenarioSpace.of(context.ft, target.faults.k)
    plan = plan_sweep(space, 0, budget=10_000, tier="exhaustive")
    aggregate, _ = run_inject_sweep(target, plan)
    summary = aggregate.to_dict()
    assert summary["ok"] is True
    assert summary["residual_upper_bound"] == 0.0
