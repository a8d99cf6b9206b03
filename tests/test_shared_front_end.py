"""One front end per circuit: a sweep builds, lowers and weighs each circuit once.

The points of a sweep that differ only in strategy share one built source
circuit (``ExecutionBackend.source_circuit``), and copies of one gate list
share its basis lowering and interaction weights
(``QuantumCircuit.derived``).  These tests count the work with spies on the
uncached builders, and pin that nothing shared leaks: a caller's mutation
reaches neither the memo nor a later compile, and no cache enters a pickle.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import Counter

import pytest

from repro.backends.trajectory import TrajectoryBackend
from repro.circuits import QuantumCircuit, decompose
from repro.circuits.decompose import decompose_to_basis
from repro.compiler import weights
from repro.compiler.weights import interaction_weights
from repro.compression.exhaustive import ExhaustiveCompression
from repro.runner import DeviceSpec, SweepPlan, SweepPoint, points
from repro.workloads import build_benchmark

#: The benchmark's compile-sweep plan at seed 0: 4 circuits x 5 strategies.
SWEEP = SweepPlan.cartesian(
    ("qft", "qaoa_random"), (16, 20), ("qubit_only", "fq", "eqm", "rb", "awe"),
    device=DeviceSpec(kind="grid"), seed=0,
)


@pytest.fixture
def work(monkeypatch):
    """Counts of builds, lowerings and weighings."""
    counts: Counter = Counter()
    for module, name, label in ((points, "build_benchmark", "build"),
                                (decompose, "_lower", "lower"),
                                (weights, "_weigh", "weigh")):
        def counted(*args, _original=getattr(module, name), _label=label, **kwargs):
            counts[_label] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def _digest(result) -> str:
    fields = [dataclasses.astuple(op) for op in result.compiled.ops]
    return repr((fields, dataclasses.astuple(result.report)))


def _dumps(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def test_a_sweep_builds_lowers_and_weighs_each_circuit_once(work):
    backend = TrajectoryBackend()  # empty memos
    results = [backend.compile_point(point) for point in SWEEP]
    assert len(results) == 20
    assert work == {"build": 4, "lower": 4, "weigh": 4}
    lowered = [result.compiled.lowered_circuit for result in results]
    assert len({id(circuit) for circuit in lowered}) == 20


def test_the_memo_keys_on_the_circuit_identity(work):
    backend = TrajectoryBackend()
    point = SweepPoint("qaoa_random", 8, "eqm", device=DeviceSpec(kind="grid"))
    variants = [point, dataclasses.replace(point, seed=1),
                dataclasses.replace(point, num_qubits=10), dataclasses.replace(point, benchmark="qft")]
    for variant in variants:
        expected = build_benchmark(variant.benchmark, variant.num_qubits, seed=variant.seed)
        assert backend.source_circuit(variant) == expected
    assert backend.source_circuit(dataclasses.replace(
        point, strategy="rb", device=DeviceSpec(kind="ring"), backend="external-sim",
    )) == backend.source_circuit(point)
    assert work["build"] == 4
    texts = [f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n{body} q[0],q[1];\n'
             for body in ("cx", "cz")]
    first, second = (backend.source_circuit(SweepPoint.from_qasm(text, "eqm", name="same"))
                     for text in texts)
    assert [gate.name for gate in first] == ["cx"]
    assert [gate.name for gate in second] == ["cz"]


def test_an_exhaustive_plan_weighs_its_circuit_once(work):
    lowered = decompose_to_basis(build_benchmark("cuccaro", 8))
    work.clear()
    plan = ExhaustiveCompression().plan(lowered, DeviceSpec(kind="grid").build(8))
    assert plan.pairs
    assert work == {"weigh": 1}


def test_mutations_reach_neither_the_memo_nor_a_later_compile(work):
    point = SweepPoint("qaoa_random", 8, "awe", device=DeviceSpec(kind="grid"))
    later = dataclasses.replace(point, strategy="rb")
    backend = TrajectoryBackend()
    first = backend.compile_point(point)
    handed = backend.source_circuit(point)
    handed.h(0)
    first.compiled.lowered_circuit.x(1)
    again = backend.compile_point(later)
    clean = TrajectoryBackend().compile_point(later)
    assert _digest(again) == _digest(clean)
    assert list(again.compiled.lowered_circuit) == list(clean.compiled.lowered_circuit)
    assert len(backend.source_circuit(point)) == len(handed) - 1
    assert len(decompose_to_basis(handed)) == len(again.compiled.lowered_circuit) + 1
    assert work["build"] == 2  # one per backend


def test_no_cache_enters_a_pickle(work):
    point = SweepPoint("cuccaro", 6, "eqm", device=DeviceSpec(kind="grid"))
    backend = TrajectoryBackend()
    result = backend.compile_point(point)
    circuit = backend.source_circuit(point)
    assert interaction_weights(decompose_to_basis(circuit))
    assert circuit == build_benchmark("cuccaro", 6)
    for value in (circuit, result.compiled.lowered_circuit, result):
        data = _dumps(value)
        for name in (b"_derived", b"lowering", b"weights"):
            assert name not in data
    assert "_derived" not in vars(pickle.loads(_dumps(circuit)))


class TestDerivedMemo:
    def test_copies_share_it_and_a_mutation_drops_it(self, work):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).ccx(0, 1, 2)
        before = interaction_weights(circuit)
        copy = circuit.copy("renamed")
        assert interaction_weights(copy) == before
        assert decompose_to_basis(copy).name == "renamed"
        assert work == {"weigh": 1, "lower": 1}
        copy.cx(1, 2)
        assert interaction_weights(copy) != before
        assert interaction_weights(circuit) == before
        assert work == {"weigh": 2, "lower": 1}

    def test_apply_condition_and_classification_drop_it(self):
        circuit = QuantumCircuit(3).h(0).measure(0, 0).cx(1, 2)
        lowered = decompose_to_basis(circuit)
        circuit.apply_condition(2, ((0,), 1))
        assert decompose_to_basis(circuit) != lowered
        assert decompose_to_basis(circuit)[2].condition == ((0,), 1)
        classified = circuit.classify_measurements()
        assert decompose_to_basis(classified)[1].name == "measure_mid"
        assert decompose_to_basis(circuit)[1].name == "measure"

    def test_results_are_the_callers_own(self):
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2)
        interaction_weights(circuit)[(0, 1)] = 99.0
        assert interaction_weights(circuit) == {(0, 1): 1.0, (1, 2): 0.5}
        decompose_to_basis(circuit).x(0)
        assert len(decompose_to_basis(circuit)) == 2
