"""Mixed-radix physical gate set.

This package names and classifies every physical operation available on a
ququart-capable device (Figure 2 / Table 1 of the paper): single-qubit and
single-ququart gates, internal CX/SWAP inside an encoded ququart, partial
qubit-ququart and ququart-ququart gates, the full ququart SWAP, and the
encode/decode operations.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".styles": ("GateStyle",),
    ".library": ("PHYSICAL_GATES", "PhysicalGateSpec", "gate_spec"),
    ".resolution": ("UnitMode", "resolve_cx", "resolve_single_qubit", "resolve_swap"),
})
