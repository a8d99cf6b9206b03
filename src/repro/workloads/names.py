"""Benchmark names, kept apart from their builders so listing them is cheap."""

from __future__ import annotations

#: Structured benchmarks with localized interaction groups.
STRUCTURED_BENCHMARKS: tuple[str, ...] = ("cuccaro", "cnu", "qram", "bv")

#: Graph-based QAOA benchmarks.
GRAPH_BENCHMARKS: tuple[str, ...] = (
    "qaoa_random",
    "qaoa_cylinder",
    "qaoa_torus",
    "qaoa_bwt",
)

#: Algorithmic families beyond the paper's fixed eight: dense all-to-all
#: (qft), purely local (ghz) and unstructured seeded-random circuits.
ALGORITHMIC_BENCHMARKS: tuple[str, ...] = ("qft", "ghz", "random_clifford_t")

#: Dynamic benchmarks: mid-circuit measurement with feed-forward control.
DYNAMIC_BENCHMARKS: tuple[str, ...] = ("teleport",)

#: Every benchmark name understood by :func:`build_benchmark`.
BENCHMARK_NAMES: tuple[str, ...] = (
    STRUCTURED_BENCHMARKS + GRAPH_BENCHMARKS + ALGORITHMIC_BENCHMARKS
    + DYNAMIC_BENCHMARKS
)
