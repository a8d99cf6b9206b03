"""Qubit-to-ququart compression strategies (Section 5) and baselines (Section 6.2).

Every strategy examines the logical circuit (and sometimes the device) and
produces a :class:`~repro.compiler.plan.CompressionPlan` describing which
qubit pairs should share a ququart.  The available strategies are:

=====================  =====  ==========================================
Strategy               Abbr.  Idea
=====================  =====  ==========================================
QubitOnly              —      never encode; the standard-compilation baseline
FullQuquart            FQ     prior-work baseline: pair everything, decode
                              and re-encode around every external operation
ExtendedQubitMapping   EQM    let the mapper pair qubits opportunistically
RingBased              RB     compress within cycles of the interaction graph
AverageWeightPerEdge   AWE    maximise the contracted graph's mean edge weight
ProgressivePairing     PP     greedy pairing guided by estimated fidelity deltas
ExhaustiveCompression  EC     greedy search that recompiles every candidate pair
=====================  =====  ==========================================
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".base": ("CompressionStrategy", "circuit_interaction_graph"),
    ".baselines": ("QubitOnly", "FullQuquart"),
    ".eqm": ("ExtendedQubitMapping",),
    ".ring_based": ("RingBased",),
    ".awe": ("AverageWeightPerEdge",),
    ".progressive": ("ProgressivePairing",),
    ".exhaustive": ("ExhaustiveCompression",),
    ".registry": ("get_strategy", "_STRATEGIES"),
})
