"""Tests for the Toffoli / Fredkin / rzz decomposition pass."""

import pickle

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, decompose_to_basis
from repro.circuits.decompose import _append_ccx, _append_cswap
from repro.circuits.gates import Gate
from repro.simulation import simulate_logical_circuit


def _states_equivalent(a: np.ndarray, b: np.ndarray) -> bool:
    return abs(np.vdot(a, b)) ** 2 > 1 - 1e-9


class TestDecomposition:
    def test_only_basis_gates_remain(self):
        circuit = QuantumCircuit(4).ccx(0, 1, 2).cswap(0, 2, 3).rzz(0.3, 1, 2)
        lowered = decompose_to_basis(circuit)
        assert all(gate.num_qubits <= 2 for gate in lowered)
        assert all(gate.name not in ("ccx", "cswap", "rzz") for gate in lowered)

    def test_plain_gates_copied_verbatim(self, bell_circuit):
        lowered = decompose_to_basis(bell_circuit)
        assert lowered == bell_circuit

    def test_decomposition_is_idempotent(self):
        circuit = QuantumCircuit(3).ccx(0, 1, 2)
        once = decompose_to_basis(circuit)
        twice = decompose_to_basis(once)
        assert once == twice

    @pytest.mark.parametrize("bits", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)])
    def test_toffoli_truth_table(self, bits):
        prep = QuantumCircuit(3)
        for index, bit in enumerate(bits):
            if bit:
                prep.x(index)
        prep.ccx(0, 1, 2)
        expected = simulate_logical_circuit(prep)
        lowered = decompose_to_basis(prep)
        actual = simulate_logical_circuit(lowered)
        assert _states_equivalent(expected, actual)

    @pytest.mark.parametrize("bits", [(0, 1, 0), (1, 1, 0), (1, 0, 1)])
    def test_fredkin_truth_table(self, bits):
        prep = QuantumCircuit(3)
        for index, bit in enumerate(bits):
            if bit:
                prep.x(index)
        prep.cswap(0, 1, 2)
        expected = simulate_logical_circuit(prep)
        actual = simulate_logical_circuit(decompose_to_basis(prep))
        assert _states_equivalent(expected, actual)

    def test_toffoli_on_superposition(self):
        circuit = QuantumCircuit(3).h(0).h(1).ccx(0, 1, 2)
        expected = simulate_logical_circuit(circuit)
        actual = simulate_logical_circuit(decompose_to_basis(circuit))
        assert _states_equivalent(expected, actual)

    def test_rzz_equivalence(self):
        circuit = QuantumCircuit(2).h(0).h(1).rzz(0.7, 0, 1)
        expected = simulate_logical_circuit(circuit)
        actual = simulate_logical_circuit(decompose_to_basis(circuit))
        assert _states_equivalent(expected, actual)

    def test_gate_counts_of_toffoli(self):
        lowered = decompose_to_basis(QuantumCircuit(3).ccx(0, 1, 2))
        counts = lowered.count_ops()
        assert counts["cx"] == 6
        assert counts["h"] == 2


def copying_lowering(circuit: QuantumCircuit) -> QuantumCircuit:
    """The lowering loop as it was: a fresh ``Gate`` for every gate it keeps."""
    lowered = QuantumCircuit(circuit.num_qubits, circuit.name)
    lowered._cregs = list(circuit.cregs)
    for gate in circuit:
        start = len(lowered)
        if gate.name == "ccx":
            _append_ccx(lowered, *gate.qubits)
        elif gate.name == "cswap":
            _append_cswap(lowered, *gate.qubits)
        elif gate.name == "rzz":
            a, b = gate.qubits
            lowered.cx(a, b)
            lowered.rz(gate.params[0], b)
            lowered.cx(a, b)
        else:
            lowered.append(
                Gate(gate.name, gate.qubits, gate.params,
                     cbits=gate.cbits, condition=gate.condition)
            )
            continue
        if gate.condition is not None:
            lowered.apply_condition(start, gate.condition)
    return lowered


def _conditioned_ccx() -> QuantumCircuit:
    circuit = QuantumCircuit(4, "conditioned")
    circuit.add_creg("c", 1)
    circuit.h(0).measure_mid(0, 0)
    circuit.add("ccx", 1, 2, 3, condition=((0,), 1))
    circuit.add("x", 1, condition=((0,), 1))
    return circuit.measure_all()


def _self_composed() -> QuantumCircuit:
    circuit = QuantumCircuit(3, "twice").h(0).cx(0, 1).rz(0.25, 2).ccx(0, 1, 2).measure(2)
    return circuit.compose(circuit)


class TestPassThrough:
    def test_basis_gates_are_the_same_objects(self, ghz_circuit):
        circuit = ghz_circuit.copy().rz(0.5, 3).measure_all()
        lowered = decompose_to_basis(circuit)
        assert len(lowered) == len(circuit)
        assert all(out is gate for out, gate in zip(lowered, circuit))

    def test_a_repeated_object_is_copied_from_its_second_use(self):
        circuit = _self_composed()
        lowered = decompose_to_basis(circuit)
        assert lowered == copying_lowering(circuit)
        assert len({id(gate) for gate in lowered}) == len(lowered)
        assert lowered[0] is circuit[0]

    @pytest.mark.parametrize(
        "build",
        [
            _self_composed,
            _conditioned_ccx,
            lambda: QuantumCircuit(3, "rzz").h(0).rzz(0.3, 0, 1).rzz(0.3, 1, 2).cx(0, 2),
        ],
        ids=["compose-self", "conditioned-ccx", "rzz"],
    )
    def test_pickles_byte_equal_to_the_copying_loop(self, build):
        circuit = build()
        expected = copying_lowering(circuit)
        lowered = decompose_to_basis(circuit)
        for protocol in (2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            assert pickle.dumps(lowered, protocol) == pickle.dumps(expected, protocol)
