"""Unit tests for the cruise-controller case study (paper §6)."""

import pytest

from repro.apps.cruise_control import (
    CC_DEADLINE_MS,
    CC_FAULTS,
    cruise_control_application,
    cruise_control_architecture,
    cruise_control_case,
)


class TestStructure:
    def test_32_processes(self):
        app = cruise_control_application()
        assert len(app.graphs[0]) == 32

    def test_three_paper_nodes(self):
        arch = cruise_control_architecture()
        assert arch.node_names == ("ETM", "ABS", "TCM")

    def test_paper_fault_model(self):
        assert CC_FAULTS.k == 2
        assert CC_FAULTS.mu == 2.0
        assert CC_DEADLINE_MS == 250.0

    def test_graph_is_valid_dag(self):
        app = cruise_control_application()
        app.validate()

    def test_sensors_and_actuators_pinned(self):
        graph = cruise_control_application().graphs[0]
        for name, process in graph.processes.items():
            if name.startswith("s_") or name.startswith("a_"):
                assert process.fixed_node is not None, name
            else:
                assert process.fixed_node is None, name

    def test_wheel_sensors_on_abs(self):
        graph = cruise_control_application().graphs[0]
        for wheel in ("s_wheel_fl", "s_wheel_fr", "s_wheel_rl", "s_wheel_rr"):
            assert graph.process(wheel).fixed_node == "ABS"

    def test_throttle_actuator_on_etm(self):
        graph = cruise_control_application().graphs[0]
        assert graph.process("a_throttle").fixed_node == "ETM"

    def test_control_chain_exists(self):
        """Sensor data must reach the throttle actuator."""
        import networkx as nx

        messages = cruise_control_application().graphs[0].messages.values()
        graph = nx.DiGraph((m.src, m.dst) for m in messages)
        assert nx.has_path(graph, "s_wheel_fl", "a_throttle")
        assert nx.has_path(graph, "s_cc_buttons", "a_throttle")

    def test_case_bundle(self):
        app, arch, faults = cruise_control_case()
        assert len(app.graphs[0]) == 32
        assert faults is CC_FAULTS
        assert app.graphs[0].deadline == 250.0

    def test_custom_deadline(self):
        app, _, _ = cruise_control_case(deadline=300.0)
        assert app.graphs[0].deadline == 300.0

    def test_free_processes_can_run_anywhere(self):
        graph = cruise_control_application().graphs[0]
        for name, process in graph.processes.items():
            if process.fixed_node is None:
                assert set(process.wcet) == {"ETM", "ABS", "TCM"}, name
