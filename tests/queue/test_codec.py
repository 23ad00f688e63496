"""JSON wire-format tests: byte-identical round-trips, validated decodes."""

import dataclasses
import hashlib
import json

import pytest

from repro.errors import QueueError
from repro.experiments.parallel import CaseJob, run_case_job
from repro.experiments.runner import VariantRun
from repro.gen.suite import generate_case
from repro.io.codec import canonical_json, decode, encode
from repro.io.queue_codec import (
    decode_job,
    decode_result,
    encode_job,
    encode_result,
    job_fingerprint,
)
from repro.model.ftgraph import build_ft_graph
from repro.opt.strategy import OptimizationConfig, optimize
from repro.schedule.record import ScheduleRecord
from repro.sim.validate import validate_record
from repro.ttp.bus import BusConfig

TINY = OptimizationConfig(
    minimize=True, rounds=1, greedy_max_iterations=3, tabu_max_iterations=2
)

#: Every OptimizationConfig field set away from its default.
EVERY_FIELD = OptimizationConfig(
    greedy_max_iterations=9,
    tabu_max_iterations=4,
    tabu_tenure=None,
    rounds=2,
    time_limit_s=1.5,
    ms_per_byte=2.0,
    bus=BusConfig(("N2", "N1"), {"N1": 4.0, "N2": 6.5}, ms_per_byte=0.5),
    minimize=True,
    optimize_bus=True,
    bus_scale_factors=(0.5, 2.0),
    cache_size=128,
)

#: ``encode_job`` text of a job carrying EVERY_FIELD.  Job fingerprints
#: hash this text, so a change here orphans the checkpoints of existing
#: broker files under ``--resume``.
PINNED_JOB_TEXT = (
    '{"config":{"bus":{"ms_per_byte":0.5,"slot_lengths":{"N1":4.0,"N2":6.5},'
    '"slot_order":["N2","N1"]},"bus_scale_factors":[0.5,2.0],'
    '"cache_size":128,"greedy_max_iterations":9,"minimize":true,'
    '"ms_per_byte":2.0,"optimize_bus":true,"rounds":2,'
    '"tabu_max_iterations":4,"tabu_tenure":null,"time_limit_s":1.5},'
    '"k":2,"label":"pinned","mu":1.0,"n_nodes":2,"n_processes":8,"seed":0,'
    '"time_scale":2.0,"variants":["MXR"],"version":1}'
)

#: A small record with every field populated (a ``None`` deadline, nested
#: rows, bindings, chains and a MEDL descriptor).
FIXED_RECORD = ScheduleRecord(
    processes=("P1", "P2"),
    nodes=("N1", "N2"),
    instance_ids=("P1:r0", "P2:r0", "P2:r1"),
    instance_process=(0, 1, 1),
    instance_node=(0, 0, 1),
    root_start=(0.0, 30.0, 42.5),
    root_finish=(30.0, 50.0, 62.5),
    wcf=(40.0, 70.0, 62.5),
    finish_rows=((30.0, 40.0), (50.0, 70.0), (62.5, 62.5)),
    bindings=((0, -1, 0), (1, 0, 1), (2, 0, 0)),
    node_chains=((0, 1), (2,)),
    process_replicas=((0,), (1, 2)),
    completions=(40.0, 62.5),
    deadlines=(None, 100.0),
    medl=(("m1[P1:r0]", 0, 0, 32.5, 37.5, 0, 4),),
    k=1,
    mu=10.0,
)

#: sha256 of FIXED_RECORD's canonical JSON.  Result texts and the
#: injection target fingerprint (the ``ftds inject --resume`` key) hash
#: this encoding, so a renamed or reshaped key shows up here.
PINNED_RECORD_SHA256 = (
    "740aed4a9ba6f49ee4e929e4de4da4a276274e310322c4b089dbae66787e7956"
)

#: A result map with one recorded and one record-less run.
FIXED_RUNS = {
    "MXR": VariantRun(
        variant="MXR", makespan=62.5, schedulable=True, seconds=0.25,
        evaluations=17, record=FIXED_RECORD,
    ),
    "NFT": VariantRun(
        variant="NFT", makespan=50.0, schedulable=False, seconds=0.125,
        evaluations=3, record=None,
    ),
}

#: sha256 of ``encode_result(FIXED_RUNS, 1.5)``.  Acked results stay in
#: broker files across upgrades and are decoded again on ``--resume``.
PINNED_RESULT_SHA256 = (
    "ed32a38369e58e19ab1d024c6d5fd44ee0f21622cd958353d095ba9d9b34297e"
)


@pytest.fixture(scope="module")
def optimized():
    """One real optimization winner with full model context."""
    case = generate_case(8, 2, 2, mu=5.0, seed=0)
    result = optimize(case.application, case.architecture, case.faults, "MXR", TINY)
    return result


class TestCaseJobRoundTrip:
    def test_plain_job_round_trips_byte_identically(self):
        job = CaseJob(20, 3, 4, 5.0, 7, ("NFT", "MXR"), label="row 3")
        text = encode_job(job)
        decoded = decode_job(text)
        assert decoded == job
        assert encode_job(decoded) == text

    def test_job_with_config_round_trips_byte_identically(self):
        config = OptimizationConfig(
            greedy_max_iterations=9,
            tabu_max_iterations=4,
            tabu_tenure=None,
            rounds=2,
            time_limit_s=1.5,
            minimize=True,
            bus_scale_factors=(0.5, 2.0),
            cache_size=128,
        )
        job = CaseJob(8, 2, 2, 1.0, 0, ("MXR",), time_scale=2.0, config=config)
        text = encode_job(job)
        decoded = decode_job(text)
        assert decoded == job
        assert decoded.config == config
        assert encode_job(decoded) == text

    def test_job_text_is_pinned(self):
        job = CaseJob(
            8, 2, 2, 1.0, 0, ("MXR",), time_scale=2.0, config=EVERY_FIELD,
            label="pinned",
        )
        assert encode_job(job) == PINNED_JOB_TEXT
        assert decode_job(PINNED_JOB_TEXT) == job

    def test_fingerprint_depends_on_slot_and_payload(self):
        job = CaseJob(8, 2, 2, 5.0, 0, ("NFT",))
        payload = encode_job(job)
        assert job_fingerprint(0, payload) != job_fingerprint(1, payload)
        other = encode_job(CaseJob(8, 2, 2, 5.0, 1, ("NFT",)))
        assert job_fingerprint(0, payload) != job_fingerprint(0, other)
        # Stable across invocations: resume recomputes identical identities.
        assert job_fingerprint(0, payload) == job_fingerprint(0, payload)

    def test_undecodable_payload_raises_queue_error(self):
        with pytest.raises(QueueError):
            decode_job("not json at all {{{")

    def test_unknown_version_rejected(self):
        data = encode(CaseJob(8, 2, 2, 5.0, 0, ("NFT",)))
        data["version"] = 99
        with pytest.raises(QueueError):
            decode(CaseJob, data, QueueError)


class TestConfigRoundTrip:
    def test_every_field_round_trips(self):
        """Fails on any OptimizationConfig field the codec does not encode:
        a dropped field would decode to its default."""
        for field in dataclasses.fields(OptimizationConfig):
            assert getattr(EVERY_FIELD, field.name) != field.default, (
                f"set {field.name} away from its default in EVERY_FIELD"
            )
        data = json.loads(canonical_json(encode(EVERY_FIELD)))
        assert decode(OptimizationConfig, data, QueueError) == EVERY_FIELD

    def test_missing_field_rejected(self):
        data = encode(EVERY_FIELD)
        del data["cache_size"]
        with pytest.raises(QueueError, match="cache_size"):
            decode(OptimizationConfig, data, QueueError)

    def test_unknown_field_rejected(self):
        data = encode(EVERY_FIELD)
        data["no_such_knob"] = 8
        with pytest.raises(QueueError, match="no_such_knob"):
            decode(OptimizationConfig, data, QueueError)


class TestRecordRoundTrip:
    def test_record_round_trips_byte_identically(self, optimized):
        record = optimized.record
        text = canonical_json(encode(record))
        decoded = decode(ScheduleRecord, json.loads(text))
        assert decoded == record
        assert hash(decoded) == hash(record)
        assert canonical_json(encode(decoded)) == text

    def test_record_encoding_is_pinned(self):
        text = canonical_json(encode(FIXED_RECORD))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_RECORD_SHA256
        assert decode(ScheduleRecord, json.loads(text)) == FIXED_RECORD

    def test_decoded_record_passes_fault_injection(self, optimized):
        record = decode(
            ScheduleRecord,
            json.loads(canonical_json(encode(optimized.record))),
        )
        implementation = optimized.implementation
        ft = build_ft_graph(
            optimized.merged,
            implementation.policies,
            implementation.mapping,
            optimized.faults,
        )
        report = validate_record(
            record,
            optimized.merged,
            ft,
            optimized.faults,
            implementation.bus,
            samples=20,
        )
        assert report.ok, report.violations

    def test_decoded_record_renders_same_metrics(self, optimized):
        record = optimized.record
        decoded = decode(ScheduleRecord, encode(record))
        assert decoded.makespan == record.makespan
        assert decoded.is_schedulable == record.is_schedulable
        assert decoded.critical_path() == record.critical_path()


class TestResultRoundTrip:
    def test_variant_runs_round_trip_byte_identically(self):
        job = CaseJob(8, 2, 2, 5.0, 0, ("NFT", "MXR"), config=TINY)
        runs = run_case_job(job)
        text = encode_result(runs, 1.25)
        decoded_runs, elapsed = decode_result(text)
        assert elapsed == 1.25
        assert set(decoded_runs) == set(runs)
        for variant, run in runs.items():
            decoded = decoded_runs[variant]
            assert decoded == run  # dataclass equality covers the record
            assert decoded.record == run.record
        assert encode_result(decoded_runs, elapsed) == text

    def test_recordless_run_round_trips(self):
        run = VariantRun(
            variant="NFT", makespan=10.5, schedulable=True, seconds=0.1,
            evaluations=3, record=None,
        )
        decoded = decode(VariantRun, encode(run), QueueError)
        assert decoded == run

    def test_result_text_is_pinned(self):
        text = encode_result(FIXED_RUNS, 1.5)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_RESULT_SHA256
        assert decode_result(text) == (FIXED_RUNS, 1.5)

    def test_undecodable_result_raises_queue_error(self):
        with pytest.raises(QueueError):
            decode_result("][")
