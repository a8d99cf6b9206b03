"""Device architectures for mixed-radix compilation.

Provides the coupling-graph topologies used in the paper's evaluation
(square grid sized to the circuit, 65-unit heavy-hex, ring), the
:class:`Device` model combining a topology with gate durations, fidelities
and coherence times, and the expanded ququart interaction graph with
``2V`` qubit slots and ``4E + V`` edges (Section 4.1).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".topology": ("Topology", "grid_topology", "grid_for_circuit", "heavy_hex_topology",
                  "linear_topology", "ring_topology"),
    ".device": ("Device",),
    ".interaction_graph": ("Slot", "expanded_slot_graph", "slot_neighbors"),
})
