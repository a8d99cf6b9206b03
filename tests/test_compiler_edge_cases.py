"""Edge-case and stress tests for the compiler across device families."""

import pytest

from repro.arch import Device, heavy_hex_topology, linear_topology, ring_topology
from repro.circuits import QuantumCircuit
from repro.compiler import QompressCompiler
from repro.compression import FullQuquart, get_strategy
from repro.metrics import evaluate_eps
from repro.runner import make_device
from repro.workloads import build_benchmark
from tests.conftest import make_random_circuit


class TestUnusualCircuits:
    def test_single_qubit_circuit(self, grid_device):
        circuit = QuantumCircuit(1).h(0).t(0).h(0).measure(0)
        compiled = QompressCompiler(grid_device).compile(circuit)
        assert compiled.num_ops == 4
        assert compiled.makespan_ns > 0

    def test_gate_free_circuit(self, grid_device):
        circuit = QuantumCircuit(3)
        compiled = QompressCompiler(grid_device).compile(circuit)
        assert compiled.num_ops == 0
        assert compiled.makespan_ns == 0.0
        report = evaluate_eps(compiled)
        assert report.gate_eps == pytest.approx(1.0)
        assert report.coherence_eps == pytest.approx(1.0)

    def test_idle_qubits_are_still_placed(self, grid_device):
        circuit = QuantumCircuit(6).cx(0, 1)
        compiled = QompressCompiler(grid_device, get_strategy("qubit_only")).compile(circuit)
        assert set(compiled.initial_placement) == set(range(6))

    def test_measurement_only_circuit(self, grid_device):
        circuit = QuantumCircuit(4).measure_all()
        compiled = QompressCompiler(grid_device).compile(circuit)
        assert compiled.num_ops == 4
        assert all(op.gate == "measure" for op in compiled.ops)

    def test_barriers_are_dropped(self, grid_device):
        circuit = QuantumCircuit(3).barrier().x(0).barrier(1, 2)
        compiled = QompressCompiler(grid_device).compile(circuit)
        assert all(op.gate != "barrier" for op in compiled.ops)

    def test_repeated_compilation_is_deterministic(self, grid_device):
        circuit = make_random_circuit(8, 30, seed=21)
        compiler = QompressCompiler(grid_device, get_strategy("eqm"))
        first = compiler.compile(circuit)
        second = compiler.compile(circuit)
        assert [op.gate for op in first.ops] == [op.gate for op in second.ops]
        assert first.initial_placement == second.initial_placement
        assert first.makespan_ns == pytest.approx(second.makespan_ns)


class TestDeviceFamilies:
    @pytest.mark.parametrize("topology_builder", [
        lambda: ring_topology(65),
        lambda: heavy_hex_topology(),
        lambda: linear_topology(20),
    ])
    @pytest.mark.parametrize("strategy", ["qubit_only", "eqm", "rb"])
    def test_benchmarks_compile_on_every_family(self, topology_builder, strategy):
        device = Device(topology=topology_builder())
        circuit = build_benchmark("cnu", 13, seed=0)
        compiled = QompressCompiler(device, get_strategy(strategy)).compile(circuit)
        report = evaluate_eps(compiled)
        assert 0 < report.gate_eps <= 1
        assert compiled.makespan_ns > 0

    def test_low_connectivity_needs_more_communication(self):
        circuit = build_benchmark("qaoa_random", 16, seed=2)
        grid = QompressCompiler(make_device("grid", 16), get_strategy("qubit_only")).compile(circuit)
        ring = QompressCompiler(
            Device(topology=ring_topology(16)), get_strategy("qubit_only")
        ).compile(circuit)
        assert ring.communication_op_count() >= grid.communication_op_count()

    def test_sparse_circuit_on_large_device(self):
        # A small circuit on the 65-unit heavy-hex device: most units idle.
        device = Device(topology=heavy_hex_topology())
        circuit = make_random_circuit(5, 15, seed=3)
        compiled = QompressCompiler(device, get_strategy("eqm")).compile(circuit)
        used_units = {slot[0] for slot in compiled.initial_placement.values()}
        assert len(used_units) <= 5
        assert evaluate_eps(compiled).gate_eps > 0


class TestFullQuquartInvariants:
    def test_moves_track_final_placement(self, grid_device):
        circuit = make_random_circuit(8, 30, seed=4, include_swaps=False)
        compiled = QompressCompiler(grid_device, FullQuquart()).compile(circuit)
        position = dict(compiled.initial_placement)
        for op in compiled.ops:
            for qubit, slot in op.moves.items():
                position[qubit] = slot
        assert position == compiled.final_placement

    def test_fq_schedules_every_op(self, grid_device):
        circuit = make_random_circuit(6, 20, seed=5, include_swaps=False)
        compiled = QompressCompiler(grid_device, FullQuquart()).compile(circuit)
        assert all(op.start_ns >= 0 for op in compiled.ops)
        # Encodes happen before anything else touches their units.
        first_op_per_unit: dict[int, str] = {}
        for op in sorted(compiled.ops, key=lambda o: o.start_ns):
            for unit in op.units:
                first_op_per_unit.setdefault(unit, op.gate)
        for unit in compiled.ququart_units:
            assert first_op_per_unit[unit] in ("enc", "x", "measure")


class TestRoutedInvariants:
    @pytest.mark.parametrize("strategy", ["qubit_only", "eqm", "rb", "awe", "pp"])
    def test_final_placement_is_injective(self, grid_device, strategy):
        circuit = make_random_circuit(6, 40, seed=6)
        compiled = QompressCompiler(grid_device, get_strategy(strategy)).compile(circuit)
        slots = list(compiled.final_placement.values())
        assert len(set(slots)) == len(slots)

    @pytest.mark.parametrize("strategy", ["qubit_only", "eqm"])
    def test_ops_only_touch_enabled_units(self, grid_device, strategy):
        circuit = make_random_circuit(6, 40, seed=7)
        compiled = QompressCompiler(grid_device, get_strategy(strategy)).compile(circuit)
        for op in compiled.ops:
            for unit, slot in op.slots:
                if slot == 1:
                    assert unit in compiled.ququart_units
