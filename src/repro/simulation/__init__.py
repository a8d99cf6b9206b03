"""Mixed-radix state-vector simulation.

Used to validate that the encoded/partial gate set faithfully reproduces
qubit semantics (the paper's Figure 3 demonstration) and to verify compiled
circuits are functionally equivalent to their logical sources on small
instances.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".statevector": ("MixedRadixState",),
    ".batched": ("BatchedMixedRadixState",),
    ".encoding": ("encoded_level_for_bits", "bits_for_encoded_level", "logical_state_of_units",
                  "simulate_logical_circuit", "cx_state_evolution"),
    ".verify": ("VerificationError", "assert_equivalent", "compiled_state_fidelity",
                "replay_compiled"),
})
