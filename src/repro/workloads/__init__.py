"""Benchmark workloads used in the paper's evaluation (Section 6.3) and beyond.

Structured circuits: Cuccaro ripple-carry adder, generalized Toffoli (CNU),
QRAM, Bernstein-Vazirani.  Graph-based circuits: QAOA-style interaction
circuits built from random (30 % density), cylinder, torus and binary
welded tree graphs.  Algorithmic families added on top of the paper's
eight: the QFT (dense all-to-all interactions), GHZ preparation (purely
local chain) and seeded random Clifford+T circuits (no structure at all).
Dynamic circuits: the teleportation chain (mid-circuit measurement with
feed-forward corrections).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".graphs": ("binary_welded_tree_graph", "cylinder_graph", "random_graph", "torus_graph"),
    ".bv": ("bernstein_vazirani",),
    ".cuccaro": ("cuccaro_adder",),
    ".cnu": ("generalized_toffoli",),
    ".ghz": ("ghz_state",),
    ".qft": ("qft_circuit",),
    ".qram": ("qram_circuit",),
    ".qaoa": ("qaoa_from_graph",),
    ".clifford_t": ("random_clifford_t",),
    ".names": ("ALGORITHMIC_BENCHMARKS", "BENCHMARK_NAMES", "DYNAMIC_BENCHMARKS",
               "STRUCTURED_BENCHMARKS", "GRAPH_BENCHMARKS"),
    ".registry": ("MINIMUM_SIZES", "build_benchmark"),
    ".teleport": ("teleport_chain",),
})
