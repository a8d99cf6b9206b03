"""Encoding semantics and verification helpers.

Implements the qubit-pair-to-ququart correspondence of Eq. 2 and the tools
used by tests and the Figure 3 benchmark: simulating logical circuits,
reading the logical qubits back out of a mixed-radix register, and tracing
the state evolution of CX gates on bare and encoded operands.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.pulses.unitaries import qubit_gate, target_unitary
from repro.simulation.statevector import MixedRadixState


def encoded_level_for_bits(q0: int, q1: int) -> int:
    """Ququart level storing the encoded qubit pair ``|q0 q1>`` (Eq. 2)."""
    if q0 not in (0, 1) or q1 not in (0, 1):
        raise ValueError("encoded bits must be 0 or 1")
    return 2 * q0 + q1


def bits_for_encoded_level(level: int) -> tuple[int, int]:
    """Inverse of :func:`encoded_level_for_bits`."""
    if level not in (0, 1, 2, 3):
        raise ValueError("a ququart level must be in 0..3")
    return (level >> 1) & 1, level & 1


def logical_state_of_units(
    state: MixedRadixState, slot_assignment: dict[tuple[int, int], int]
) -> dict[int, int]:
    """Read logical qubit values out of a (computational-basis) register state.

    Parameters
    ----------
    state:
        The register state; it must be (close to) a computational basis state.
    slot_assignment:
        Mapping from ``(unit, slot)`` to logical qubit index.

    Returns
    -------
    Mapping from logical qubit index to its bit value.
    """
    levels, probability = state.dominant_basis_state()
    if probability < 1.0 - 1e-6:
        raise ValueError(
            "register is not in a computational basis state "
            f"(dominant probability {probability:.4f})"
        )
    values: dict[int, int] = {}
    for (unit, slot), logical in slot_assignment.items():
        dim = state.dims[unit]
        level = levels[unit]
        if dim == 2:
            if slot != 0:
                raise ValueError("bare qubits only have slot 0")
            values[logical] = level
        else:
            q0, q1 = bits_for_encoded_level(level)
            values[logical] = q0 if slot == 0 else q1
    return values


def simulate_logical_circuit(
    circuit: QuantumCircuit, initial_bits: tuple[int, ...] | None = None
) -> np.ndarray:
    """State vector of a logical (all-qubit) circuit; for small circuits only.

    Measurements and barriers are ignored; the state is returned with qubit 0
    as the most significant index, matching :class:`MixedRadixState` ordering.
    """
    num_qubits = circuit.num_qubits
    if num_qubits > 14:
        raise ValueError("logical simulation is limited to 14 qubits")
    dims = (2,) * num_qubits
    if initial_bits is None:
        initial_bits = (0,) * num_qubits
    state = MixedRadixState.from_levels(dims, initial_bits)
    for gate in circuit:
        if gate.is_meta:
            continue
        matrix = qubit_gate(gate.name, gate.params)
        state.apply(matrix, gate.qubits)
    return state.vector


def cx_state_evolution(gate_name: str, initial_levels: tuple[int, ...], steps: int = 40) -> dict:
    """Populations of every basis state during a CX-style gate (Figure 3).

    The paper plots the state populations while the optimal-control pulse
    runs.  We substitute the pulse dynamics with a geodesic interpolation of
    the target unitary (its fractional matrix powers), which reproduces the
    qualitative picture: the same initial and final states, and intermediate
    superpositions whose complexity grows with the Hilbert-space dimension.

    Parameters
    ----------
    gate_name:
        Physical gate name, e.g. ``"cx2"`` or ``"cx0q"``.
    initial_levels:
        Initial level of each physical unit the gate touches.
    steps:
        Number of interpolation points (including both endpoints).

    Returns
    -------
    Dict with keys ``"times"`` (fractions of the gate duration),
    ``"populations"`` (array of shape ``(steps, dimension)``),
    ``"dims"`` (unit dimensions) and ``"labels"`` (basis-state labels).
    """
    if steps < 2:
        raise ValueError("at least two interpolation steps are required")
    unitary, dims = target_unitary(gate_name)
    state = MixedRadixState.from_levels(dims, initial_levels)
    initial_vector = state.vector
    times = np.linspace(0.0, 1.0, steps)
    populations = np.zeros((steps, initial_vector.size))
    for row, fraction in enumerate(times):
        if fraction == 0.0:
            partial = np.eye(unitary.shape[0], dtype=complex)
        else:
            from scipy.linalg import fractional_matrix_power

            partial = fractional_matrix_power(unitary, float(fraction))
        evolved = partial @ initial_vector
        populations[row] = np.abs(evolved) ** 2
    labels = [state.basis_labels(index) for index in range(initial_vector.size)]
    return {
        "gate": gate_name,
        "times": times,
        "populations": populations,
        "dims": dims,
        "labels": labels,
    }
