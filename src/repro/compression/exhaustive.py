"""Exhaustive Compression (EC, Section 5.1).

EC is the paper's "ideal but impractical" reference: at every step it
recompiles the circuit once per candidate pair and keeps the pair that
maximises the resulting circuit fidelity, repeating until no pair helps.

Two selection modes are provided, matching Figure 4:

* ``"critical"`` — candidates are grouped by their relationship to the
  critical path (qubits in non-communication gates on the critical path
  first, then qubits interacting with it, then everything else), and the
  first group containing an improving pair is used.
* ``"any"`` — every pair of currently-unpaired qubits is considered.
"""

from __future__ import annotations

from itertools import combinations

from repro.arch.device import Device
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDAG
from repro.circuits.decompose import decompose_to_basis
from repro.compiler.pipeline import QompressCompiler
from repro.compiler.plan import CompressionPlan
from repro.compiler.weights import interaction_weights, weight_between
from repro.compression.base import CompressionStrategy
from repro.metrics.eps import gate_eps


class ExhaustiveCompression(CompressionStrategy):
    """Greedy exhaustive search over compression pairs via recompilation."""

    name = "ec"

    def __init__(
        self,
        selection: str = "critical",
        max_pairs: int | None = None,
        max_evaluations: int = 2000,
        metric=gate_eps,
    ) -> None:
        if selection not in ("critical", "any"):
            raise ValueError("selection must be 'critical' or 'any'")
        self.selection = selection
        self.max_pairs = max_pairs
        self.max_evaluations = max_evaluations
        self.metric = metric

    # ------------------------------------------------------------------
    def plan(self, circuit: QuantumCircuit, device: Device) -> CompressionPlan:
        compiler = QompressCompiler(device)
        # Lowered once here, not once per candidate compile.
        lowered = decompose_to_basis(circuit)
        pairs: list[tuple[int, int]] = []
        limit = self.max_pairs if self.max_pairs is not None else circuit.num_qubits // 2
        evaluations = 0

        best_score = self._score(compiler, lowered, pairs)
        while len(pairs) < limit and evaluations < self.max_evaluations:
            paired = {q for pair in pairs for q in pair}
            groups = self._candidate_groups(circuit, paired)
            chosen: tuple[int, int] | None = None
            chosen_score = best_score
            for group in groups:
                for candidate in group:
                    if evaluations >= self.max_evaluations:
                        break
                    evaluations += 1
                    score = self._score(compiler, lowered, pairs + [candidate])
                    if score > chosen_score + 1e-15:
                        chosen_score = score
                        chosen = candidate
                if chosen is not None and self.selection == "critical":
                    break
            if chosen is None:
                break
            pairs.append(chosen)
            best_score = chosen_score
        return CompressionPlan(pairs=tuple(sorted(pairs)))

    # ------------------------------------------------------------------
    def _score(
        self, compiler: QompressCompiler, lowered: QuantumCircuit, pairs: list[tuple[int, int]]
    ) -> float:
        if pairs:
            plan = CompressionPlan(pairs=tuple(pairs))
        else:
            plan = CompressionPlan(qubit_only=True)
        compiled = compiler.compile_with_plan(lowered, plan, "ec-probe", already_lowered=True)
        return self.metric(compiled)

    def _candidate_groups(
        self, circuit: QuantumCircuit, paired: set[int]
    ) -> list[list[tuple[int, int]]]:
        available = [q for q in range(circuit.num_qubits) if q not in paired]
        all_pairs = [tuple(sorted(pair)) for pair in combinations(available, 2)]
        if self.selection == "any":
            return [all_pairs]
        dag = CircuitDAG(circuit)
        critical_qubits = dag.critical_path_qubits()
        weights = interaction_weights(circuit)

        def interacts_with_critical(qubit: int) -> bool:
            return any(
                weight_between(weights, qubit, other) > 0.0 for other in critical_qubits
            )

        on_path: list[tuple[int, int]] = []
        touching: list[tuple[int, int]] = []
        remaining: list[tuple[int, int]] = []
        for a, b in all_pairs:
            if a in critical_qubits and b in critical_qubits:
                on_path.append((a, b))
            elif interacts_with_critical(a) or interacts_with_critical(b):
                touching.append((a, b))
            else:
                remaining.append((a, b))
        return [on_path, touching, remaining]
