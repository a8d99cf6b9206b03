"""Tests for the QuantumCircuit container."""

import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Gate, QuantumCircuit


class TestBuilder:
    def test_empty_circuit(self):
        circuit = QuantumCircuit(3)
        assert circuit.num_qubits == 3
        assert len(circuit) == 0
        assert circuit.depth() == 0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_builder_methods_chain(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(0.5, 1).measure_all()
        names = [gate.name for gate in circuit]
        assert names == ["h", "cx", "rz", "measure", "measure"]

    def test_out_of_range_qubit_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError, match="only has 2 qubits"):
            circuit.x(2)

    def test_append_prebuilt_gate(self):
        circuit = QuantumCircuit(2)
        circuit.append(Gate("cx", (0, 1)))
        assert circuit[0].name == "cx"

    def test_barrier_defaults_to_all_qubits(self):
        circuit = QuantumCircuit(3).barrier()
        assert circuit[0].qubits == (0, 1, 2)

    def test_iteration_and_indexing(self, bell_circuit):
        assert [g.name for g in bell_circuit] == ["h", "cx"]
        assert bell_circuit[1].qubits == (0, 1)

    def test_equality(self):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cx(0, 1)
        c = QuantumCircuit(2).h(0)
        assert a == b
        assert a != c


class TestStructuralQueries:
    def test_count_ops(self, ghz_circuit):
        counts = ghz_circuit.count_ops()
        assert counts["h"] == 1
        assert counts["cx"] == 4

    def test_num_two_qubit_gates(self, ghz_circuit):
        assert ghz_circuit.num_two_qubit_gates() == 4

    def test_active_qubits(self):
        circuit = QuantumCircuit(5).x(0).cx(1, 3)
        assert circuit.active_qubits() == {0, 1, 3}

    def test_interaction_pairs(self):
        circuit = QuantumCircuit(3).cx(0, 1).cx(0, 1).cx(1, 2)
        pairs = circuit.interaction_pairs()
        assert pairs[(0, 1)] == 2
        assert pairs[(1, 2)] == 1
        assert (0, 2) not in pairs

    def test_interaction_pairs_ignore_meta(self):
        circuit = QuantumCircuit(3).barrier().cx(0, 2)
        assert set(circuit.interaction_pairs()) == {(0, 2)}

    def test_moments_pack_disjoint_gates(self, layered_circuit):
        moments = layered_circuit.moments()
        # h(0), h(1) and the disjoint cx(2,3) all fit in the first moment;
        # cx(0,1) and x(3) wait for their operands to become free.
        assert set(moments[0]) == {0, 1, 3}
        assert set(moments[1]) == {2, 5}
        assert set(moments[2]) == {4}

    def test_depth(self, layered_circuit):
        assert layered_circuit.depth() == 3

    def test_gate_timesteps_start_at_one(self, layered_circuit):
        steps = layered_circuit.gate_timesteps()
        assert min(steps.values()) == 1
        assert steps[0] == 1
        assert steps[4] == 3  # cx(1, 2) waits for both preceding cx layers

    def test_depth_of_serial_chain(self):
        circuit = QuantumCircuit(2)
        for _ in range(7):
            circuit.cx(0, 1)
        assert circuit.depth() == 7


class TestTransformations:
    def test_copy_is_independent(self, bell_circuit):
        clone = bell_circuit.copy()
        clone.x(0)
        assert len(clone) == len(bell_circuit) + 1

    def test_remapped(self, bell_circuit):
        remapped = bell_circuit.remapped({0: 1, 1: 0})
        assert remapped[1].qubits == (1, 0)

    def test_remapped_onto_larger_register(self, bell_circuit):
        remapped = bell_circuit.remapped({0: 3, 1: 4}, num_qubits=5)
        assert remapped.num_qubits == 5
        assert remapped[1].qubits == (3, 4)

    def test_compose(self, bell_circuit):
        tail = QuantumCircuit(2).x(1)
        combined = bell_circuit.compose(tail)
        assert [g.name for g in combined] == ["h", "cx", "x"]

    def test_compose_larger_rejected(self, bell_circuit):
        with pytest.raises(ValueError):
            bell_circuit.compose(QuantumCircuit(3).x(2))

    def test_without_meta(self):
        circuit = QuantumCircuit(2).h(0).measure(0).barrier().cx(0, 1)
        stripped = circuit.without_meta()
        assert [g.name for g in stripped] == ["h", "cx"]


class TestApplyCondition:
    def test_conditions_every_gate_since_start(self):
        circuit = QuantumCircuit(2).h(0).x(0).cx(0, 1)
        circuit.apply_condition(1, ((0,), 1))
        assert [gate.condition for gate in circuit] == [None, ((0,), 1), ((0,), 1)]

    def test_barrier_in_range_leaves_circuit_unchanged(self):
        circuit = QuantumCircuit(2).h(0).x(1).barrier().z(0)
        before = circuit.gates
        assert circuit.depth() == 3
        with pytest.raises(ValueError, match="barrier cannot be classically conditioned"):
            circuit.apply_condition(0, ((0,), 1))
        assert circuit.gates == before
        assert circuit._derived is None
        assert circuit.depth() == 3

    def test_differently_conditioned_gate_leaves_circuit_unchanged(self):
        circuit = QuantumCircuit(2).h(0)
        circuit.add("x", 1, condition=((1,), 1))
        circuit.z(0)
        before = circuit.gates
        circuit.moments()
        with pytest.raises(ValueError, match="already conditioned on different bits"):
            circuit.apply_condition(0, ((0,), 1))
        assert circuit.gates == before
        assert circuit._derived is None


def uncached_moments(circuit: QuantumCircuit) -> list[list[int]]:
    """The ASAP layering loop as it was before the cache, run from scratch."""
    layers: list[list[int]] = []
    frontier: dict[int, int] = defaultdict(int)
    clbit_frontier: dict[int, int] = defaultdict(int)
    for index, gate in enumerate(circuit):
        start = max((frontier[q] for q in gate.qubits), default=0)
        for bit in gate.clbits_touched:
            start = max(start, clbit_frontier[bit])
        while len(layers) <= start:
            layers.append([])
        layers[start].append(index)
        for q in gate.qubits:
            frontier[q] = start + 1
        for bit in gate.clbits_touched:
            clbit_frontier[bit] = start + 1
    return layers


#: ``QuantumCircuit(3, "legacy")`` with h, cx, barrier, measure_mid, a
#: conditioned x, reset, cx and measure, pickled (protocol 4) by the
#: version before the layering cache existed.
LEGACY_PICKLE = (
    b"\x80\x04\x95\xce\x01\x00\x00\x00\x00\x00\x00\x8c\x16repro.circuits.circuit\x94"
    b"\x8c\x0eQuantumCircuit\x94\x93\x94)\x81\x94}\x94(\x8c\nnum_qubits\x94K\x03\x8c"
    b"\x04name\x94\x8c\x06legacy\x94\x8c\x06_gates\x94]\x94(\x8c\x14repro.circuits."
    b"gates\x94\x8c\x04Gate\x94\x93\x94)\x81\x94}\x94(h\x06\x8c\x01h\x94\x8c\x06qubits"
    b"\x94K\x00\x85\x94\x8c\x06params\x94)\x8c\x05cbits\x94)\x8c\tcondition\x94Nubh"
    b"\x0c)\x81\x94}\x94(h\x06\x8c\x02cx\x94h\x10K\x00K\x01\x86\x94h\x12)h\x13)h\x14"
    b"Nubh\x0c)\x81\x94}\x94(h\x06\x8c\x07barrier\x94h\x10K\x00K\x01K\x02\x87\x94h\x12"
    b")h\x13)h\x14Nubh\x0c)\x81\x94}\x94(h\x06\x8c\x0bmeasure_mid\x94h\x10K\x01\x85\x94"
    b"h\x12)h\x13K\x00\x85\x94h\x14Nubh\x0c)\x81\x94}\x94(h\x06\x8c\x01x\x94h\x10K\x02"
    b"\x85\x94h\x12)h\x13)h\x14K\x00\x85\x94K\x01\x86\x94ubh\x0c)\x81\x94}\x94(h\x06"
    b"\x8c\x05reset\x94h\x10K\x01\x85\x94h\x12)h\x13)h\x14Nubh\x0c)\x81\x94}\x94(h\x06"
    b"h\x17h\x10K\x01K\x02\x86\x94h\x12)h\x13)h\x14Nubh\x0c)\x81\x94}\x94(h\x06\x8c\x07"
    b"measure\x94h\x10K\x02\x85\x94h\x12)h\x13K\x01\x85\x94h\x14Nube\x8c\x06_cregs\x94]"
    b"\x94ub."
)


def _legacy_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, "legacy").h(0).cx(0, 1).barrier().measure_mid(1, 0)
    circuit.x(2)
    circuit.apply_condition(len(circuit) - 1, ((0,), 1))
    return circuit.reset(1).cx(1, 2).measure(2, 1)


class TestLayeringCache:
    def test_refreshed_after_append(self):
        circuit = QuantumCircuit(2).h(0)
        assert circuit.moments() == [[0]]
        circuit.append(Gate("cx", (0, 1)))
        assert circuit.moments() == [[0], [1]]
        assert circuit.depth() == 2
        assert circuit.gate_timesteps() == {0: 1, 1: 2}

    def test_refreshed_after_add_and_builders(self):
        circuit = QuantumCircuit(2).h(0)
        assert circuit.depth() == 1
        circuit.add("x", 0)
        assert circuit.moments() == [[0], [1]]
        circuit.h(1)
        assert circuit.moments() == [[0, 2], [1]]

    def test_refreshed_after_apply_condition(self):
        circuit = QuantumCircuit(2).measure_mid(0, 0).x(1)
        assert circuit.moments() == [[0, 1]]
        circuit.apply_condition(1, ((0,), 1))
        assert circuit.moments() == [[0], [1]]
        assert circuit.gate_timesteps() == {0: 1, 1: 2}

    def test_returned_layers_are_caller_owned(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).x(2)
        first = circuit.moments()
        first[0].append(99)
        first.append([42])
        circuit.gate_timesteps()[0] = 7
        assert circuit.moments() == [[0, 2], [1]]
        assert circuit.gate_timesteps() == {0: 1, 1: 2, 2: 1}

    def test_analysed_circuit_pickles_like_a_fresh_copy(self):
        analysed = _legacy_circuit()
        fresh = _legacy_circuit()
        analysed.moments()
        assert "layers" in analysed._derived
        for protocol in (2, 4, pickle.HIGHEST_PROTOCOL):
            assert pickle.dumps(analysed, protocol) == pickle.dumps(fresh, protocol)

    def test_cache_never_enters_equality_and_copies_share_it(self):
        analysed = _legacy_circuit()
        analysed.depth()
        assert analysed == _legacy_circuit()
        assert analysed.copy()._layering() is analysed._layering()
        assert "_derived" not in vars(pickle.loads(pickle.dumps(analysed)))

    def test_circuit_from_legacy_pickle_lays_out(self):
        restored = pickle.loads(LEGACY_PICKLE)
        assert "_derived" not in vars(restored)
        assert restored == _legacy_circuit()
        assert restored.moments() == [[0], [1], [2], [3], [4, 5], [6], [7]]
        assert restored.depth() == 7
        restored.x(0)
        assert restored.moments() == uncached_moments(restored)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["h", "cx", "barrier", "measure_mid", "measure", "reset", "if_x"]),
                st.permutations(range(4)),
                st.integers(0, 2),
                st.integers(1, 3),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_uncached_loop(self, ops):
        circuit = QuantumCircuit(4)
        for name, qubits, bit, span, probe in ops:
            if name == "cx":
                circuit.cx(qubits[0], qubits[1])
            elif name == "barrier":
                circuit.barrier(*sorted(qubits[:span]))
            elif name in ("measure_mid", "measure"):
                circuit.add(name, qubits[0], cbits=(bit,))
            elif name == "reset":
                circuit.reset(qubits[0])
            elif name == "if_x":
                circuit.add("x", qubits[0], condition=(tuple(range(bit, bit + span)), 1))
            else:
                circuit.h(qubits[0])
                circuit.apply_condition(len(circuit) - 1, ((bit,), span % 2))
            if probe:
                assert circuit.moments() == uncached_moments(circuit)
        expected = uncached_moments(circuit)
        assert circuit.moments() == expected
        assert circuit.depth() == len(expected)
        assert circuit.gate_timesteps() == {
            index: step for step, layer in enumerate(expected, start=1) for index in layer
        }
