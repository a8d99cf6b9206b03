"""The Qompress compiler pipeline (Section 4).

Compilation proceeds in four stages:

1. **Planning** — a compression strategy (:mod:`repro.compression`) decides
   which logical qubit pairs should share a ququart.
2. **Mapping** — logical qubits are placed onto the expanded slot graph of
   the device using interaction weights (:mod:`repro.compiler.mapping`).
3. **Routing** — non-adjacent two-qubit gates trigger SWAP insertion over
   the enabled slots, using the success-probability cost of Eq. 4
   (:mod:`repro.compiler.routing`).
4. **Scheduling** — physical operations receive start times honouring
   per-unit serialization; simultaneous single-qubit gates on the two halves
   of a ququart are merged (:mod:`repro.compiler.scheduling`).

:class:`QompressCompiler` orchestrates the stages and returns a
:class:`CompiledCircuit` carrying everything the metrics need.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".result": ("CompiledCircuit", "PhysicalOp"),
    ".weights": ("interaction_weights", "total_weights"),
    ".mapping": ("Placement", "initial_mapping"),
    ".costs": ("CostModel",),
    ".routing": ("Router",),
    ".scheduling": ("schedule_ops",),
    ".pipeline": ("QompressCompiler",),
})
