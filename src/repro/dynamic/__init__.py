"""Dynamic-circuit subsystem: OpenQASM 3 frontend and branch-complete checking.

Static circuits are verified by unitary replay
(:mod:`repro.simulation.verify`); dynamic circuits — mid-circuit
measurement, reset, classical control — branch at runtime, so this package
provides their counterparts:

``parse_qasm3`` / ``circuit_to_qasm3``
    An OpenQASM 3 subset frontend (``qubit``/``bit`` declarations, ``int``
    constants, ``if`` blocks, both measurement spellings) with the same
    exact round-trip guarantee as the OpenQASM 2 frontend.

``simulate_dynamic``
    A branch-complete ideal simulator: every measurement splits the state
    into its outcome branches, so the full distribution over classical
    registers and conditioned states is available for exact checking —
    the dynamic analogue of ``replay_compiled``.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".qasm3": ("circuit_to_qasm3", "parse_qasm3"),
    ".simulate": ("DynamicBranch", "branch_distribution", "reduced_density", "simulate_dynamic"),
})
