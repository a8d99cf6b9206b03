"""Evaluation harness regenerating the paper's tables and figures.

Each public function corresponds to one experiment:

===========================  =================================================
Function                     Paper artefact
===========================  =================================================
``table1_durations``         Table 1 (gate durations)
``figure3_state_evolution``  Figure 3 (CX2 vs CX0q state dynamics)
``figure4_exhaustive``       Figure 4 (exhaustive search, cylinder QAOA)
``strategy_sweep``           Figures 7 & 10 (gate / coherence EPS vs size)
``figure8_gate_distribution`` Figure 8 (gate-type histogram, torus QAOA 30)
``figure9_qubit_error_sweep`` Figure 9 (sensitivity to better qubit error)
``figure11_t1_improvement``  Figure 11 (10x better T1)
``figure12_t1_ratio_sweep``  Figure 12 (total EPS vs ququart T1 ratio)
``figure13_topologies``      Figure 13 (improvement ranges across topologies)
``validate_eps``             analytic EPS vs Monte Carlo noise simulation
``cross_backend_check``      EPS agreement across execution backends
===========================  =================================================

Every registry benchmark compiles through :mod:`repro.runner`
(``compile_benchmark`` and ``run_strategies`` build sweep points and run
them with ``execute_plan``); ``compile_circuit`` is the inline path for a
live circuit or a hand-built device.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".sweep": ("DEFAULT_STRATEGIES", "compile_benchmark", "compile_circuit", "run_strategies"),
    ".experiments": ("figure3_state_evolution", "figure4_exhaustive", "figure8_gate_distribution",
                     "figure9_qubit_error_sweep", "figure11_t1_improvement",
                     "figure12_t1_ratio_sweep", "figure13_topologies", "strategy_sweep",
                     "table1_durations"),
    ".reporting": ("format_table", "results_to_rows", "save_csv"),
    ".defaults": ("DEFAULT_CROSSCHECK_BACKENDS", "DEFAULT_VALIDATION_BENCHMARKS",
                  "DEFAULT_VALIDATION_SHOTS", "DEFAULT_VALIDATION_SIZES",
                  "DEFAULT_VALIDATION_STRATEGIES"),
    ".validate": ("TRACKED_VALIDATION_HEADERS", "VALIDATION_HEADERS", "validation_headers",
                  "ValidationRow", "validate_eps", "validation_rows"),
    ".crosscheck": ("CROSSCHECK_HEADERS", "CrossCheckRow", "cross_backend_check",
                    "crosscheck_rows"),
    ".ablations": ("AblationResult", "internal_gate_ablation", "merging_ablation",
                   "uniform_routing_ablation"),
})
