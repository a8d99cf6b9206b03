"""Static analysis: program verification and determinism lint (zero simulation).

Two layers, one report vocabulary:

* **Program verifier** (:mod:`repro.analysis.passes`) — linear-time
  passes over compiled op streams proving encode/decode bracketing,
  slot residency, classical dataflow, schedule legality and
  kernel-schedule conformance.  API: :func:`verify_compiled`.
* **Determinism lint** (:mod:`repro.analysis.source_lint`) — AST rules
  over the source tree guarding the reproducibility contract (seeded
  RNG streams, wall-clock-free content keys, validated backend results).

Batch drivers for the CLI and CI live in :mod:`repro.analysis.drivers`.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".report": ("AnalysisReport", "Finding", "SEVERITIES"),
    ".passes": ("PROGRAM_PASSES", "verify_compiled"),
    ".source_lint": ("SOURCE_RULES", "lint_paths", "lint_source_text"),
    ".drivers": ("CANONICAL_STRATEGIES", "lint_qasm", "lint_store", "lint_workloads"),
})
