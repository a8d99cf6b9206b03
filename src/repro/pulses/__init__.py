"""Device physics: pulse durations, transmon Hamiltonian, pulse optimization.

The paper obtains its gate durations (Table 1) by running the Juqbox
optimal-control package against a two-transmon Hamiltonian (Eq. 3).  Juqbox
is a Julia package and is not available offline, so this package provides:

* :class:`GateDurationTable` — the calibrated duration/fidelity model the
  compiler and all experiments consume, seeded with the paper's published
  Table 1 values and fully overridable;
* :class:`TransmonSystem` — the same drift + control Hamiltonian, expressed
  in a frame rotating at the first transmon's frequency;
* :class:`PulseOptimizer` — a piecewise-constant (GRAPE-style) optimizer
  built on SciPy that demonstrates the duration-vs-Hilbert-dimension trend
  the paper reports, on gates small enough to optimize on a laptop;
* target unitaries for every gate in Figure 2 (:mod:`repro.pulses.unitaries`).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".durations": ("DEFAULT_SINGLE_QUDIT_FIDELITY", "DEFAULT_TWO_QUDIT_FIDELITY",
                   "GateDurationTable"),
    ".hamiltonian": ("TransmonParams", "TransmonSystem"),
    ".optimizer": ("PulseOptimizer", "PulseResult"),
    ".calibration": ("calibrate_gate", "durations_from_pulse_results"),
    ".unitaries": ("embed_operator", "encode_unitary", "internal_cx_unitary", "partial_cx_unitary",
                   "partial_swap_unitary", "qubit_gate", "target_unitary"),
})
