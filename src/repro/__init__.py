"""Qompress reproduction: mixed-radix (qubit/ququart) quantum compilation.

This package reproduces the system described in "Qompress: Efficient
Compilation for Ququarts Exploiting Partial and Mixed Radix Operations for
Communication Reduction" (ASPLOS 2023).  It provides:

* a self-contained quantum circuit intermediate representation
  (:mod:`repro.circuits`),
* the mixed-radix gate set with the paper's Table 1 duration model and a
  transmon-Hamiltonian pulse optimizer (:mod:`repro.gates`,
  :mod:`repro.pulses`),
* a mixed-radix state-vector simulator used to validate gate semantics
  (:mod:`repro.simulation`),
* device topologies and the expanded interaction graph
  (:mod:`repro.arch`),
* the Qompress compiler pipeline: mapping, routing, scheduling
  (:mod:`repro.compiler`),
* the qubit-to-ququart compression strategies and baselines
  (:mod:`repro.compression`),
* success-probability metrics (:mod:`repro.metrics`),
* the paper's benchmark workloads (:mod:`repro.workloads`), and
* the evaluation harness regenerating every table and figure
  (:mod:`repro.evaluation`).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".circuits": ("Gate", "QuantumCircuit"),
    ".arch": ("Device", "Topology", "grid_topology", "heavy_hex_topology",
              "linear_topology", "ring_topology"),
    ".pulses": ("GateDurationTable",),
    ".compiler": ("QompressCompiler", "CompiledCircuit"),
    ".compression": ("QubitOnly", "FullQuquart", "ExhaustiveCompression",
                     "ExtendedQubitMapping", "RingBased", "AverageWeightPerEdge",
                     "ProgressivePairing", "get_strategy"),
    ".metrics": ("EPSReport", "evaluate_eps"),
})

__version__ = "0.1.0"
