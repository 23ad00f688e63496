"""Shard execution, streaming aggregation, and the wire codecs."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.inject.aggregate import InjectAggregate, ShardResult
from repro.inject.driver import run_inject_sweep
from repro.inject.importance import importance_scenarios
from repro.inject.plan import plan_sweep
from repro.inject.runner import run_shard
from repro.inject.space import ScenarioSpace
from repro.io.codec import decode, encode
from repro.io.inject_codec import (
    decode_shard_job,
    decode_shard_result,
    encode_shard_job,
    encode_shard_result,
)
from repro.io.queue_codec import parse_payload, payload_kind
from repro.sim.validate import validate_schedule
from repro.schedule.table import SystemSchedule
from repro.sim.faults import enumerate_scenarios


def make_plan(target, budget=100_000, shard_size=64, seed=0, tier="auto"):
    context = target.build_context()
    space = ScenarioSpace.of(context.ft, target.faults.k)
    ranked = importance_scenarios(target.record, context.ft, target.faults.k)
    return plan_sweep(
        space, len(ranked), budget, shard_size=shard_size, seed=seed, tier=tier
    )


def test_exhaustive_sweep_agrees_with_validate_schedule(small_target):
    """The sharded exhaustive sweep is the old validator, redistributed."""
    context = small_target.build_context()
    schedule = SystemSchedule.from_record(
        small_target.record, context.merged, context.ft,
        small_target.faults, small_target.implementation.bus,
    )
    reference = validate_schedule(
        schedule,
        scenarios=enumerate_scenarios(context.ft, small_target.faults.k),
    )

    aggregate, stats = run_inject_sweep(
        small_target, make_plan(small_target, tier="exhaustive")
    )
    assert stats.completed == len(aggregate.plan.shards)
    assert aggregate.complete
    assert aggregate.ok == reference.ok
    # Coverage counters account for the entire space, every stratum exact.
    space = ScenarioSpace.of(context.ft, small_target.faults.k)
    for t, stratum in aggregate.strata.items():
        assert stratum.covered == space.stratum_size(t)
    assert aggregate.residual_upper_bound() == (
        0.0 if reference.ok else pytest.approx(
            aggregate.violation_scenarios / space.total, abs=1e-12
        )
    )


def test_shard_results_fold_order_independently(small_target):
    plan = make_plan(small_target, shard_size=16)
    fingerprint = small_target.fingerprint()
    results = [run_shard(small_target, s, fingerprint) for s in plan.shards]

    forward = InjectAggregate(plan=plan)
    for result in results:
        forward.fold(result)
    backward = InjectAggregate(plan=plan)
    for result in reversed(results):
        backward.fold(result)

    assert forward.to_dict() == backward.to_dict()


def test_double_fold_is_rejected(small_target):
    plan = make_plan(small_target, shard_size=16)
    result = run_shard(small_target, plan.shards[0], small_target.fingerprint())
    aggregate = InjectAggregate(plan=plan)
    aggregate.fold(result)
    with pytest.raises(SimulationError):
        aggregate.fold(result)


def test_negative_batch_size_is_rejected(small_target):
    """A sweep with a negative block width simulated nothing; it must
    not report a complete, violation-free plan."""
    plan = make_plan(small_target, tier="exhaustive")
    assert plan.total_scenarios - plan.importance_count == 45
    with pytest.raises(SimulationError, match="batch size"):
        run_shard(small_target, plan.shards[0], batch_size=-1)
    with pytest.raises(SimulationError, match="batch size"):
        run_inject_sweep(small_target, plan, batch_size=-1)


def test_fold_rejects_a_result_short_of_its_budget(small_target):
    """A result decoded from the wire with one draw removed is not folded."""
    plan = make_plan(small_target, tier="exhaustive")
    result = run_shard(small_target, plan.shards[-1])
    tampered = result.to_dict()
    tampered["draws"] -= 1
    aggregate = InjectAggregate(plan=plan)
    with pytest.raises(SimulationError, match="draws"):
        aggregate.fold(decode(ShardResult, tampered))
    assert aggregate.shards_folded == aggregate.draws == 0
    aggregate.fold(result)
    assert aggregate.draws == plan.shards[-1].scenario_budget


def test_stratified_shards_are_reproducible(replicated_target):
    plan = make_plan(
        replicated_target, budget=300, shard_size=50, tier="stratified"
    )
    spec = next(s for s in plan.shards if s.tier == "stratified")
    fingerprint = replicated_target.fingerprint()
    first = run_shard(replicated_target, spec, fingerprint).to_dict()
    second = run_shard(replicated_target, spec, fingerprint).to_dict()
    for summary in (first, second):
        summary.pop("elapsed_s")
        summary.pop("phase_s")
    assert first == second
    # Draws-with-replacement: trials may exceed unique scenarios, never
    # the other way around.
    assert first["draws"] == spec.draws >= first["scenarios"] >= 1


def test_shard_job_codec_round_trip(small_target):
    plan = make_plan(small_target, shard_size=16)
    payload = encode_shard_job(
        encode(small_target), small_target.fingerprint(), plan.shards[0]
    )
    assert payload_kind(payload) == "inject_shard"
    spec, target_fp, load_target = decode_shard_job(parse_payload(payload))
    target = load_target()
    assert spec == plan.shards[0]
    assert target_fp == small_target.fingerprint()
    assert target.fingerprint() == small_target.fingerprint()
    # Byte-stable re-encoding: payload text is canonical.
    assert encode_shard_job(encode(target), target_fp, spec) == payload


def test_shard_result_codec_round_trip(small_target):
    plan = make_plan(small_target, shard_size=16)
    result = run_shard(small_target, plan.shards[0], small_target.fingerprint())
    text = encode_shard_result(result)
    decoded = decode_shard_result(text)
    assert decoded == result
    assert encode_shard_result(decoded) == text


def test_legacy_case_job_payloads_are_untouched():
    """CaseJob payloads carry no kind marker and keep their bytes."""
    from repro.experiments.parallel import CaseJob
    from repro.io.queue_codec import decode_job, encode_job

    job = CaseJob(
        n_processes=8, n_nodes=2, k=2, mu=5.0, seed=0,
        variants=("NFT",), time_scale=1.0, config=None, label="t",
    )
    payload = encode_job(job)
    assert payload_kind(payload) is None
    assert encode_job(decode_job(payload)) == payload


def test_worker_dispatches_inject_shards(small_target):
    """A Worker drains inject shards from a broker next to nothing else."""
    from repro.inject.partition import shard_fingerprint
    from repro.queue.memory import MemoryBroker
    from repro.queue.worker import Worker

    plan = make_plan(small_target, shard_size=32)
    target_fp = small_target.fingerprint()
    target_dict = encode(small_target)
    broker = MemoryBroker()
    fingerprints = [shard_fingerprint(target_fp, s) for s in plan.shards]
    for fingerprint, spec in zip(fingerprints, plan.shards):
        broker.enqueue(
            fingerprint, encode_shard_job(target_dict, target_fp, spec), 3
        )

    worker = Worker(broker, worker_id="w0", poll_interval_s=0.01)
    acked = worker.run(drain=True)
    assert acked == len(plan.shards)
    assert worker.failed == 0

    aggregate = InjectAggregate(plan=plan)
    for fingerprint in fingerprints:
        result = decode_shard_result(broker.result(fingerprint))
        # Workers replay through the batched kernel, not the scalar
        # loop: only the batch path spends classify time per block.
        assert result.phase_s.classify > 0.0
        aggregate.fold(result)
    assert aggregate.complete
    inline, _ = run_inject_sweep(small_target, plan)
    queued_summary = aggregate.to_dict()
    inline_summary = inline.to_dict()
    for summary in (queued_summary, inline_summary):
        summary.pop("elapsed_s")
        summary.pop("scenarios_per_sec")
        summary.pop("phase_s")
    assert queued_summary == inline_summary


def test_batched_shards_match_scalar_reference(replicated_target):
    """Every tier, every shard: batch path == scalar path, byte for byte.

    Small odd block widths force multi-block streaming with ragged final
    blocks; 0 is the scalar reference."""
    plan = make_plan(replicated_target, budget=400, shard_size=64)
    fingerprint = replicated_target.fingerprint()
    assert {s.tier for s in plan.shards} >= {"importance", "stratified"}
    for spec in plan.shards:
        summaries = [
            run_shard(
                replicated_target, spec, fingerprint, batch_size=batch_size
            ).to_dict()
            for batch_size in (0, 7, 1024)
        ]
        for summary in summaries:
            summary.pop("elapsed_s")
            summary.pop("phase_s")
        assert summaries[0] == summaries[1] == summaries[2]


def test_shard_phase_timings_cover_the_work(small_target):
    plan = make_plan(small_target, shard_size=32)
    result = run_shard(small_target, plan.shards[0], small_target.fingerprint())
    phases = result.to_dict()["phase_s"]
    assert set(phases) == {"materialize", "simulate", "classify", "fold"}
    assert all(value >= 0.0 for value in phases.values())
    assert sum(phases.values()) <= result.elapsed_s
    assert phases["simulate"] > 0.0  # the batch replay actually ran


def test_shards_of_one_target_share_one_space(small_target, monkeypatch):
    """The replay context owns the derived scenario space: two shards of
    one target build it once and replay against the same object."""
    import repro.inject.target as target_module

    plan = make_plan(small_target)
    assert len(plan.shards) >= 2
    monkeypatch.setattr(target_module, "_CONTEXT_CACHE", {})
    built: list[ScenarioSpace] = []
    build = ScenarioSpace.of

    def spy(ft, k):
        built.append(build(ft, k))
        return built[-1]

    monkeypatch.setattr(ScenarioSpace, "of", spy)
    fingerprint = small_target.fingerprint()
    for spec in plan.shards[:2]:
        run_shard(small_target, spec, fingerprint)
    assert len(built) == 1
    context = target_module.cached_context(
        fingerprint, small_target.build_context
    )
    assert context.space is built[0]


def test_context_cache_is_lru(small_target, monkeypatch):
    import repro.inject.target as target_module

    monkeypatch.setattr(target_module, "_CONTEXT_CACHE", {})
    build = small_target.build_context
    hot = target_module.cached_context("hot", build)
    for cold in range(target_module._CONTEXT_CACHE_LIMIT - 1):
        target_module.cached_context(f"cold-a-{cold}", build)
    assert target_module.cached_context("hot", build) is hot
    target_module.cached_context("cold-b", build)
    assert target_module.cached_context("hot", build) is hot
    assert "cold-a-0" not in target_module._CONTEXT_CACHE


def test_aggregate_dict_shapes(small_target):
    aggregate, _ = run_inject_sweep(small_target, make_plan(small_target))
    summary = aggregate.to_dict()
    assert set(summary) >= {
        "ok", "complete", "scenarios", "draws", "violation_scenarios",
        "strata", "residual_upper_bound", "scenarios_per_sec", "exemplars",
    }
    from repro.experiments.reporting import format_inject

    text = format_inject(summary)
    assert "Fault injection:" in text and "per-stratum coverage" in text
