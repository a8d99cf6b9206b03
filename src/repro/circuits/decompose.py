"""Decomposition of multi-controlled gates into the {1q, cx} basis.

The compiler operates on one- and two-qubit gates only.  Workloads such as
the Cuccaro adder, the generalized Toffoli (CNU) and QRAM are naturally
written with Toffoli (``ccx``) and Fredkin (``cswap``) gates; this module
lowers them using the textbook constructions (Barenco et al. 1995).

It also provides ``append_*`` helpers for controlled rotations and other
gates that appear in OpenQASM sources (``cu1``/``cp``, ``crz``, ``cy``,
``ch``, ``cu3``) but have no native entry in the circuit IR's gate set:
the QASM frontend (:mod:`repro.circuits.qasm`) and the QFT workload lower
them on the fly through these helpers.  All rewrites are exact up to global
phase, which the EPS metrics and the equivalence checker ignore.
"""

from __future__ import annotations

from dataclasses import replace

from repro.circuits.circuit import QuantumCircuit


def _append_ccx(circuit: QuantumCircuit, c1: int, c2: int, target: int) -> None:
    """Standard 6-CNOT, 9 single-qubit gate Toffoli decomposition."""
    circuit.h(target)
    circuit.cx(c2, target)
    circuit.tdg(target)
    circuit.cx(c1, target)
    circuit.t(target)
    circuit.cx(c2, target)
    circuit.tdg(target)
    circuit.cx(c1, target)
    circuit.t(c2)
    circuit.t(target)
    circuit.h(target)
    circuit.cx(c1, c2)
    circuit.t(c1)
    circuit.tdg(c2)
    circuit.cx(c1, c2)


def _append_cswap(circuit: QuantumCircuit, control: int, a: int, b: int) -> None:
    """Fredkin gate via CX conjugation of a Toffoli."""
    circuit.cx(b, a)
    _append_ccx(circuit, control, a, b)
    circuit.cx(b, a)


# ----------------------------------------------------------------------
# controlled rotations and friends (QASM frontend + QFT workload)
# ----------------------------------------------------------------------
def append_cphase(circuit: QuantumCircuit, theta: float, control: int, target: int) -> None:
    """Controlled-phase ``cu1(theta)`` via {rz, cx}, exact up to global phase."""
    circuit.rz(theta / 2.0, control)
    circuit.cx(control, target)
    circuit.rz(-theta / 2.0, target)
    circuit.cx(control, target)
    circuit.rz(theta / 2.0, target)


def append_crz(circuit: QuantumCircuit, theta: float, control: int, target: int) -> None:
    """Controlled ``rz(theta)`` (qelib1 ``crz``) via {rz, cx}."""
    circuit.rz(theta / 2.0, target)
    circuit.cx(control, target)
    circuit.rz(-theta / 2.0, target)
    circuit.cx(control, target)


def append_cy(circuit: QuantumCircuit, control: int, target: int) -> None:
    """Controlled-Y via S-conjugation of a CX (qelib1 ``cy``)."""
    circuit.sdg(target)
    circuit.cx(control, target)
    circuit.s(target)


def append_ch(circuit: QuantumCircuit, control: int, target: int) -> None:
    """Controlled-Hadamard, following the qelib1 ``ch`` definition."""
    circuit.h(target)
    circuit.sdg(target)
    circuit.cx(control, target)
    circuit.h(target)
    circuit.t(target)
    circuit.cx(control, target)
    circuit.t(target)
    circuit.h(target)
    circuit.s(target)
    circuit.x(target)
    circuit.s(control)


def append_cu3(
    circuit: QuantumCircuit,
    theta: float,
    phi: float,
    lam: float,
    control: int,
    target: int,
) -> None:
    """Controlled generic single-qubit rotation (qelib1 ``cu3``)."""
    circuit.rz((lam + phi) / 2.0, control)
    circuit.rz((lam - phi) / 2.0, target)
    circuit.cx(control, target)
    circuit.add("u", target, params=(-theta / 2.0, 0.0, -(phi + lam) / 2.0))
    circuit.cx(control, target)
    circuit.add("u", target, params=(theta / 2.0, phi, 0.0))


def decompose_to_basis(circuit: QuantumCircuit) -> QuantumCircuit:
    """Return an equivalent circuit containing only 1q and 2q gates.

    ``ccx`` and ``cswap`` gates are expanded and ``rzz`` is rewritten as
    ``cx; rz; cx``, so the router only has to understand ``cx`` and ``swap``
    two-qubit interactions.  Every other gate passes through as the same
    (immutable) object.  One the source repeats, as ``c.compose(c)`` does, is
    copied from its second use on: pickle would memo-reference a repeated
    object, and the lowered circuit's bytes would depend on the sharing.

    The lowering is built once per gate list and kept in the circuit's
    :meth:`~repro.circuits.circuit.QuantumCircuit.derived` memo, so copies
    of one circuit (every strategy of a sweep) share it; each call returns
    a copy of its own, named and registered like ``circuit``.
    """
    lowered = circuit.derived("lowering", lambda: _lower(circuit)).copy()
    lowered.name = circuit.name
    lowered._cregs = list(circuit.cregs)
    return lowered


def _lower(circuit: QuantumCircuit) -> QuantumCircuit:
    """The lowering loop behind :func:`decompose_to_basis`."""
    lowered = QuantumCircuit(circuit.num_qubits, circuit.name)
    passed: set[int] = set()
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
            lowered.append(replace(gate) if id(gate) in passed else gate)
            passed.add(id(gate))
            continue
        # Conditioned multi-qubit gates expand to all-conditioned bodies:
        # the expansion is unitary, so conditioning every piece is exact.
        if gate.condition is not None:
            lowered.apply_condition(start, gate.condition)
    # basis gates only, each object once: the lowering lowers to itself
    lowered._shared_derived()["lowering"] = lowered
    return lowered
