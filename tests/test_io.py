"""Round-trip tests for the JSON codec."""

import hashlib
import json

import pytest

from repro.errors import ModelError, QueueError
from repro.apps.cruise_control import cruise_control_case
from repro.experiments.runner import VariantRun
from repro.gen.suite import generate_case
from repro.io.codec import decode, encode
from repro.io.json_codec import load_case, save_case, schedule_to_dict
from repro.io.queue_codec import decode_result, encode_result
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault import FaultModel
from repro.model.merge import merge_application
from repro.opt.implementation import Implementation
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.schedule.list_scheduler import list_schedule


def _case():
    return generate_case(8, 2, 2, mu=5.0, seed=3)


#: sha256 of the ``save_case`` file of ``generate_case(8, 2, 2, mu=5.0,
#: seed=0)`` with its initial MPA: saved case files load across upgrades.
PINNED_CASE_SHA256 = (
    "0b5d3081741012dc8f6162667dba775aa461e03bada392367f984beed009e807"
)


class TestApplicationRoundTrip:
    def test_random_case(self):
        case = _case()
        data = encode(case.application)
        clone = decode(Application, json.loads(json.dumps(data)))
        original = case.application.graphs[0]
        restored = clone.graphs[0]
        assert {n: p.wcet for n, p in original.processes.items()} == {
            n: p.wcet for n, p in restored.processes.items()
        }
        assert sorted(original.messages) == sorted(restored.messages)
        assert restored.deadline == original.deadline

    def test_cruise_controller_preserves_constraints(self):
        app, _, _ = cruise_control_case()
        restored = decode(Application, encode(app))
        graph = restored.graphs[0]
        assert len(graph) == 32
        assert graph.process("s_wheel_fl").fixed_node == "ABS"
        assert graph.deadline == 250.0

    def test_unsupported_version_rejected(self):
        case = _case()
        data = encode(case.application)
        data["version"] = 99
        with pytest.raises(ModelError):
            decode(Application, data)


class TestArchitectureAndFaults:
    def test_architecture_round_trip(self):
        case = _case()
        restored = decode(Architecture, encode(case.architecture))
        assert restored.node_names == case.architecture.node_names

    def test_architecture_with_bus(self):
        from repro.model.architecture import Architecture, Node
        from repro.ttp.bus import BusConfig

        arch = Architecture(
            [Node("A"), Node("B")],
            bus=BusConfig.minimal(("A", "B"), 4, ms_per_byte=2.0),
        )
        restored = decode(Architecture, encode(arch))
        assert restored.bus is not None
        assert restored.bus.signature() == arch.bus.signature()

    def test_fault_model_round_trip(self):
        case = _case()
        restored = decode(FaultModel, encode(case.faults))
        assert restored == case.faults


class TestImplementationRoundTrip:
    def test_policies_mapping_bus_preserved(self):
        case = _case()
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus)
        restored = decode(
            Implementation, json.loads(json.dumps(encode(impl)))
        )
        assert restored.signature() == impl.signature()

    def test_restored_solution_schedules_identically(self):
        case = _case()
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus)
        restored = decode(Implementation, encode(impl))
        a = list_schedule(merged, case.faults, impl.policies, impl.mapping, impl.bus)
        b = list_schedule(
            merged, case.faults, restored.policies, restored.mapping, restored.bus
        )
        assert a.makespan == b.makespan


class TestScheduleExport:
    def test_contains_tables_medl_and_metrics(self):
        case = _case()
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus)
        schedule = list_schedule(
            merged, case.faults, impl.policies, impl.mapping, bus
        )
        data = schedule_to_dict(schedule)
        assert data["schedule_length"] == schedule.makespan
        assert set(data["nodes"]) == set(schedule.node_chains)
        assert len(data["medl"]) == len(schedule.medl)
        total_rows = sum(len(rows) for rows in data["nodes"].values())
        assert total_rows == len(schedule.placements)
        json.dumps(data)  # must be JSON-serializable


class TestSaveLoadCase:
    def test_full_round_trip(self, tmp_path):
        case = _case()
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus)
        path = tmp_path / "case.json"
        save_case(path, case.application, case.architecture, case.faults, impl)
        app, arch, faults, restored = load_case(path)
        assert faults == case.faults
        assert arch.node_names == case.architecture.node_names
        assert restored is not None
        assert restored.signature() == impl.signature()

    def test_case_file_is_pinned(self, tmp_path):
        case = generate_case(8, 2, 2, mu=5.0, seed=0)
        merged = merge_application(case.application)
        bus = initial_bus_access(case.application, case.architecture)
        impl = initial_mpa(merged, case.architecture, case.faults, bus)
        path = tmp_path / "case.json"
        save_case(path, case.application, case.architecture, case.faults, impl)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_CASE_SHA256

    def test_problem_only(self, tmp_path):
        case = _case()
        path = tmp_path / "problem.json"
        save_case(path, case.application, case.architecture, case.faults)
        _, _, _, restored = load_case(path)
        assert restored is None


class TestDecodeRule:
    def test_missing_and_unknown_keys_raise_the_layer_error(self, tmp_path):
        """A decoded dict must hold exactly its encoder's keys: case files
        raise ModelError, queue payloads QueueError, naming type and key."""
        case = _case()
        path = tmp_path / "case.json"
        save_case(path, case.application, case.architecture, case.faults)
        saved = json.loads(path.read_text())
        del saved["application"]["graphs"][0]["processes"][0]["release"]
        path.write_text(json.dumps(saved))
        with pytest.raises(ModelError, match="Process.*release"):
            load_case(path)
        saved = json.loads(path.read_text())
        saved["application"]["graphs"][0]["processes"][0]["release"] = 0.0
        saved["fault_model"]["no_such_knob"] = 1
        path.write_text(json.dumps(saved))
        with pytest.raises(ModelError, match="FaultModel.*no_such_knob"):
            load_case(path)

        run = VariantRun(
            variant="NFT", makespan=10.5, schedulable=True, seconds=0.1,
            evaluations=3, record=None,
        )
        result = json.loads(encode_result({"NFT": run}, 1.0))
        del result["runs"]["NFT"]["record"]
        with pytest.raises(QueueError, match="VariantRun.*record"):
            decode_result(json.dumps(result))
        result["runs"]["NFT"]["record"] = None
        result["runs"]["NFT"]["no_such_knob"] = 1
        with pytest.raises(QueueError, match="VariantRun.*no_such_knob"):
            decode_result(json.dumps(result))
