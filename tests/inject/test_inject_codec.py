"""Wire pins of the injection codec: target fingerprints, shard jobs and
shard results.

The target fingerprint names a sweep (it keys every shard of
``ftds inject --resume``) and acked shard results stay in broker files,
so a codec change that moves one byte of either shows up here.
"""

from __future__ import annotations

import hashlib
import json

from repro.inject.aggregate import Exemplar, PhaseSeconds, ShardResult
from repro.inject.partition import ShardSpec
from repro.io.codec import encode
from repro.io.inject_codec import (
    decode_shard_result,
    encode_shard_job,
    encode_shard_result,
)

#: ``InjectTarget.fingerprint()`` of the ``replicated_target`` and
#: ``small_target`` fixtures.
PINNED_REPLICATED_TARGET_FP = (
    "4bb5455fdee1d720aa1e747b7744ae12c48bc9a2a9c9922e2fdc35d9a9979ead"
)
PINNED_SMALL_TARGET_FP = (
    "3e0c83dbfba6c7bb8dfd3cb6b3e070f7e0cf21297c992abe49f2710deb053ec2"
)

#: A stratified shard's result with an exemplar and every phase time set.
FIXED_SHARD_RESULT = ShardResult(
    fingerprint="5" * 64,
    spec=ShardSpec(
        tier="stratified", wave=1, stratum=2, lo=3, hi=4, draws=50, seed=7
    ),
    scenarios=48,
    draws=50,
    violation_draws=2,
    violation_scenarios=1,
    class_counts={"wcf_exceeded": 1},
    exemplars={
        "wcf_exceeded": Exemplar(
            order=(1, 2, 3, 17),
            failures={"P1": 1, "P2": 1},
            subject="P2:r1",
            detail="finish 71.5 exceeds wcf 70.0",
        )
    },
    elapsed_s=0.5,
    phase_s=PhaseSeconds(
        materialize=0.125, simulate=0.25, classify=0.0625, fold=0.03125
    ),
)

#: sha256 of ``encode_shard_result(FIXED_SHARD_RESULT)``.
PINNED_SHARD_RESULT_SHA256 = (
    "ad48799dc07db52df1e12446acc30806ac0ba48b44698d49cdafff6b5cd34031"
)


#: sha256 of the shard-job payload of ``small_target`` in
#: ``test_shard_job_text_is_pinned``.
PINNED_SHARD_JOB_SHA256 = (
    "80f9484cc3fde8a191a906ca285c6aebe9fcf64b81e986b6d47ad3ba886c3de2"
)


def test_target_fingerprints_are_pinned(replicated_target, small_target):
    assert replicated_target.fingerprint() == PINNED_REPLICATED_TARGET_FP
    assert small_target.fingerprint() == PINNED_SMALL_TARGET_FP


def test_shard_result_text_is_pinned():
    text = encode_shard_result(FIXED_SHARD_RESULT)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        PINNED_SHARD_RESULT_SHA256
    )
    assert decode_shard_result(text) == FIXED_SHARD_RESULT


def test_shard_result_without_phase_times_decodes():
    """Results stored before per-phase timing existed fold with zeros."""
    data = json.loads(encode_shard_result(FIXED_SHARD_RESULT))
    del data["result"]["phase_s"]
    decoded = decode_shard_result(json.dumps(data)).to_dict()
    assert decoded.pop("phase_s") == dict.fromkeys(
        ("materialize", "simulate", "classify", "fold"), 0.0
    )
    expected = FIXED_SHARD_RESULT.to_dict()
    expected.pop("phase_s")
    assert decoded == expected


def test_shard_job_text_is_pinned(small_target):
    """The shard-job payload embeds the target and its fingerprint."""
    spec = ShardSpec(
        tier="exhaustive", wave=1, stratum=1, lo=0, hi=16, draws=16, seed=0
    )
    payload = encode_shard_job(
        encode(small_target), small_target.fingerprint(), spec
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        PINNED_SHARD_JOB_SHA256
    )


def test_sweep_payloads_are_the_canonical_job_envelope(small_target):
    """The driver serializes the target once per sweep, yet every payload
    is still the canonical JSON of its whole job envelope, byte for byte."""
    from repro.inject.driver import _shard_jobs
    from repro.inject.importance import importance_scenarios
    from repro.inject.plan import plan_sweep
    from repro.inject.space import ScenarioSpace
    from repro.io.codec import FORMAT_VERSION, canonical_json
    from repro.io.inject_codec import INJECT_JOB_KIND

    context = small_target.build_context()
    k = small_target.faults.k
    plan = plan_sweep(
        ScenarioSpace.of(context.ft, k),
        len(importance_scenarios(small_target.record, context.ft, k)),
        100_000,
        shard_size=16,
    )
    target_dict = encode(small_target)
    target_fp = small_target.fingerprint()
    _, payloads = _shard_jobs(small_target, plan)
    payloads = list(payloads)
    assert len(payloads) == len(plan.shards) > 1
    for spec, payload in zip(plan.shards, payloads):
        assert payload == canonical_json({
            "kind": INJECT_JOB_KIND,
            "version": FORMAT_VERSION,
            "target": target_dict,
            "target_fingerprint": target_fp,
            "spec": encode(spec),
        })


def test_workers_never_cache_an_unverified_target(small_target, monkeypatch):
    """A shard job without the target fingerprint, or claiming one its
    target does not hash to, is nacked and caches no context."""
    import repro.inject.target as target_module
    from repro.queue.memory import MemoryBroker
    from repro.queue.worker import Worker

    monkeypatch.setattr(target_module, "_CONTEXT_CACHE", {})
    spec = ShardSpec(
        tier="exhaustive", wave=1, stratum=1, lo=0, hi=4, draws=4, seed=0
    )
    good = json.loads(
        encode_shard_job(encode(small_target), small_target.fingerprint(), spec)
    )
    unkeyed = {key: value for key, value in good.items()
               if key != "target_fingerprint"}
    forged = {**good, "target_fingerprint": "0" * 64}
    broker = MemoryBroker()
    broker.enqueue("unkeyed", json.dumps(unkeyed), 1)
    broker.enqueue("forged", json.dumps(forged), 1)
    worker = Worker(broker, worker_id="w0", poll_interval_s=0.01)
    assert worker.run(drain=True) == 0
    errors = {letter.fingerprint: letter.error
              for letter in broker.dead_letters()}
    assert "QueueError" in errors["unkeyed"]
    assert "target_fingerprint" in errors["unkeyed"]
    assert "QueueError" in errors["forged"]
    assert "hashes to" in errors["forged"]
    assert target_module._CONTEXT_CACHE == {}
