"""Quantum circuit intermediate representation.

The compiler in :mod:`repro.compiler` consumes circuits expressed over
logical qubits.  This package provides the :class:`Gate` and
:class:`QuantumCircuit` containers (the circuit caches its ASAP layering),
decomposition helpers for multi-controlled gates, QASM I/O and drawing.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".gates": ("Gate", "SINGLE_QUBIT_GATES", "TWO_QUBIT_GATES", "THREE_QUBIT_GATES"),
    ".circuit": ("QuantumCircuit",),
    ".decompose": ("decompose_to_basis",),
    ".qasm": ("QasmError", "PhysicalInstruction", "PhysicalProgram", "circuit_to_qasm",
              "compiled_to_qasm", "parse_physical_qasm", "parse_qasm", "parse_qasm_file"),
    ".drawing": ("draw_circuit",),
})
