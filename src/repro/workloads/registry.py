"""Benchmark registry: build any paper workload by name and size."""

from __future__ import annotations

from collections.abc import Callable

from repro.circuits.circuit import QuantumCircuit
from repro.workloads.bv import bernstein_vazirani
from repro.workloads.clifford_t import random_clifford_t
from repro.workloads.cnu import generalized_toffoli
from repro.workloads.cuccaro import cuccaro_adder
from repro.workloads.graphs import (
    binary_welded_tree_graph,
    cylinder_graph,
    random_graph,
    torus_graph,
)
from repro.workloads.ghz import ghz_state
from repro.workloads.qaoa import qaoa_from_graph
from repro.workloads.qft import qft_circuit
from repro.workloads.qram import qram_circuit
from repro.workloads.teleport import teleport_chain


def _qaoa_builder(graph_builder: Callable, label: str) -> Callable[[int, int], QuantumCircuit]:
    def build(num_qubits: int, seed: int = 0) -> QuantumCircuit:
        graph = graph_builder(num_qubits)
        return qaoa_from_graph(graph, seed=seed, name=f"{label}-{num_qubits}")

    return build


def _random_qaoa(num_qubits: int, seed: int = 0) -> QuantumCircuit:
    graph = random_graph(num_qubits, density=0.3, seed=seed)
    return qaoa_from_graph(graph, seed=seed, name=f"qaoa_random-{num_qubits}")


_BUILDERS: dict[str, Callable[[int, int], QuantumCircuit]] = {
    "cuccaro": lambda n, seed=0: cuccaro_adder(n),
    "cnu": lambda n, seed=0: generalized_toffoli(n),
    "qram": lambda n, seed=0: qram_circuit(n),
    "bv": lambda n, seed=0: bernstein_vazirani(n, seed=seed),
    "qaoa_random": _random_qaoa,
    "qaoa_cylinder": _qaoa_builder(cylinder_graph, "qaoa_cylinder"),
    "qaoa_torus": _qaoa_builder(torus_graph, "qaoa_torus"),
    "qaoa_bwt": _qaoa_builder(binary_welded_tree_graph, "qaoa_bwt"),
    "qft": lambda n, seed=0: qft_circuit(n),
    "ghz": lambda n, seed=0: ghz_state(n),
    "random_clifford_t": lambda n, seed=0: random_clifford_t(n, seed=seed),
    "teleport": lambda n, seed=0: teleport_chain(n),
}

#: Smallest sensible size per benchmark (some constructions need a minimum).
MINIMUM_SIZES: dict[str, int] = {
    "cuccaro": 4,
    "cnu": 3,
    "qram": 5,
    "bv": 2,
    "qaoa_random": 3,
    "qaoa_cylinder": 4,
    "qaoa_torus": 8,
    "qaoa_bwt": 4,
    "qft": 2,
    "ghz": 2,
    "random_clifford_t": 2,
    "teleport": 3,
}


def build_benchmark(name: str, num_qubits: int, seed: int = 0) -> QuantumCircuit:
    """Build a benchmark circuit by name on (approximately) ``num_qubits`` qubits."""
    key = name.strip().lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(_BUILDERS)}")
    minimum = MINIMUM_SIZES[key]
    if num_qubits < minimum:
        raise ValueError(f"benchmark {name!r} needs at least {minimum} qubits")
    return _BUILDERS[key](num_qubits, seed)
