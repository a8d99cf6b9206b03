"""Interaction weights between logical qubits (Section 4.2).

The weight of a pair (i, j) is ``w(i, j) = sum over ops o containing both i
and j of 1 / s(o)`` where ``s(o)`` is the 1-based timestep of the operation.
Early interactions therefore count more than late ones.  The total weight
``W(i) = sum_j w(i, j)`` ranks qubits for placement order.
"""

from __future__ import annotations

from collections import defaultdict

from repro.circuits.circuit import QuantumCircuit


def interaction_weights(circuit: QuantumCircuit) -> dict[tuple[int, int], float]:
    """Pairwise interaction weights, keyed by sorted qubit pairs.

    Computed once per gate list and kept in the circuit's
    :meth:`~repro.circuits.circuit.QuantumCircuit.derived` memo, which its
    copies share; the returned dict is the caller's own.
    """
    return dict(circuit.derived("weights", lambda: _weigh(circuit)))


def _weigh(circuit: QuantumCircuit) -> dict[tuple[int, int], float]:
    """The weight sum behind :func:`interaction_weights`."""
    steps = circuit.gate_timesteps()
    weights: dict[tuple[int, int], float] = defaultdict(float)
    for index, gate in enumerate(circuit):
        if gate.is_meta or gate.num_qubits < 2:
            continue
        step = steps[index]
        operands = sorted(gate.qubits)
        for position, a in enumerate(operands):
            for b in operands[position + 1 :]:
                weights[(a, b)] += 1.0 / step
    return dict(weights)


def total_weights(circuit: QuantumCircuit) -> dict[int, float]:
    """Total interaction weight ``W(i)`` of every circuit qubit."""
    return weight_totals(interaction_weights(circuit), circuit.num_qubits)


def weight_totals(weights: dict[tuple[int, int], float], num_qubits: int) -> dict[int, float]:
    """``W(i)`` of qubits ``0..num_qubits-1`` from already computed pair weights."""
    totals: dict[int, float] = {qubit: 0.0 for qubit in range(num_qubits)}
    for (a, b), weight in weights.items():
        totals[a] += weight
        totals[b] += weight
    return totals


def weight_between(weights: dict[tuple[int, int], float], a: int, b: int) -> float:
    """Lookup helper tolerating either ordering of the pair."""
    if a == b:
        return 0.0
    key = (a, b) if a < b else (b, a)
    return weights.get(key, 0.0)
