"""Expected-probability-of-success metrics (Section 6.1.1).

The paper evaluates compiled circuits with two multiplicative statistics:

* **Gate EPS** — the product of the success rate of every physical gate.
* **Coherence EPS** — the product, over logical qubits, of
  ``exp(-t_qb / T1_qb - t_qd / T1_qd)`` where ``t_qb`` / ``t_qd`` is the time
  the qubit spends stored in a qubit-mode / ququart-mode unit.

The product of the two is the overall EPS used for the crossover studies.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".eps": ("EPSReport", "coherence_eps", "evaluate_eps", "gate_eps", "total_eps"),
    ".histograms": ("FIGURE8_CATEGORIES", "grouped_histogram"),
})
