"""Exhaustive Compression (EC, Section 5.1).

EC is the paper's "ideal but impractical" reference: at every step it
recompiles the circuit once per candidate pair and keeps the pair that
maximises the resulting circuit fidelity, repeating until no pair helps.

Two selection modes are provided, matching Figure 4:

* ``"critical"`` — candidates are grouped by their relationship to the
  critical path, and the first group containing an improving pair is used.
  The critical qubits are those of every gate on one longest dependency
  chain of the lowered circuit (ties go to the lowest gate index; barriers
  count as gates).  Pairs of two critical qubits come first, then pairs with
  a qubit that interacts with a critical one, then everything else.
* ``"any"`` — every pair of currently-unpaired qubits is considered.
"""

from __future__ import annotations

from itertools import combinations

from repro.arch.device import Device
from repro.circuits.circuit import QuantumCircuit
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
        # Lowered once here, not once per candidate compile.  The candidate
        # groups come from the same lowered circuit the compiles score.
        lowered = decompose_to_basis(circuit)
        critical = _critical_path_qubits(lowered)
        weights = interaction_weights(lowered)
        pairs: list[tuple[int, int]] = []
        limit = self.max_pairs if self.max_pairs is not None else circuit.num_qubits // 2
        evaluations = 0

        best_score = self._score(compiler, lowered, pairs)
        while len(pairs) < limit and evaluations < self.max_evaluations:
            paired = {q for pair in pairs for q in pair}
            groups = self._candidate_groups(lowered.num_qubits, paired, critical, weights)
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
        self,
        num_qubits: int,
        paired: set[int],
        critical_qubits: set[int],
        weights: dict[tuple[int, int], float],
    ) -> list[list[tuple[int, int]]]:
        available = [q for q in range(num_qubits) if q not in paired]
        all_pairs = [tuple(sorted(pair)) for pair in combinations(available, 2)]
        if self.selection == "any":
            return [all_pairs]

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


def _critical_path_qubits(circuit: QuantumCircuit) -> set[int]:
    """Qubits of every gate on one longest dependency chain of ``circuit``.

    A gate depends on the previous gate on each of its qubits and classical
    bits.  The ASAP layering follows the same dependencies, so a gate's
    timestep is the longest chain ending at it; one reverse pass gives each
    gate its successors and its longest chain to the end.  The walk starts at
    the lowest-index gate heading a longest chain and steps to the
    lowest-index successor that stays on one.
    """
    if len(circuit) == 0:
        return set()
    steps = circuit.gate_timesteps()
    total = circuit.depth()
    successors: list[set[int]] = [set() for _ in circuit]
    remaining = [0] * len(circuit)
    next_on: dict[tuple[str, int], int] = {}  # qubit or bit -> next gate on it
    for index in range(len(circuit) - 1, -1, -1):
        gate = circuit[index]
        wires = [("q", q) for q in gate.qubits] + [("c", b) for b in gate.clbits_touched]
        successors[index] = {next_on[w] for w in wires if w in next_on}
        remaining[index] = 1 + max((remaining[s] for s in successors[index]), default=0)
        next_on.update((w, index) for w in wires)
    current = min(i for i, steps_to_end in enumerate(remaining)
                  if steps[i] == 1 and steps_to_end == total)
    qubits = set(circuit[current].qubits)
    while successors[current]:
        current = min(s for s in successors[current] if steps[current] + remaining[s] == total)
        qubits.update(circuit[current].qubits)
    return qubits
