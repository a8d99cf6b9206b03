"""Progressive Pairing compression (PP, Section 5.5).

PP starts from a full qubit-only mapping of the circuit, which gives a
global picture of where every qubit would live.  It then estimates, for
every candidate pair, how the total interaction cost (interaction weight
times Eq. 4 distance) would change if the two qubits shared a ququart —
without recompiling — and greedily accepts the pair with the largest
estimated fidelity gain.  After each accepted pair the circuit is remapped
with the chosen pairs forced, and the estimates are refreshed.  The loop
stops when no candidate improves the estimate.
"""

from __future__ import annotations

from repro.arch.device import Device
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.costs import CostModel
from repro.compiler.mapping import MappingError, Placement, initial_mapping
from repro.compiler.plan import CompressionPlan
from repro.compiler.weights import interaction_weights
from repro.compression.base import CompressionStrategy


class ProgressivePairing(CompressionStrategy):
    """Greedy pairing guided by estimated distance-based fidelity deltas."""

    name = "pp"

    def __init__(self, max_pairs: int | None = None, max_candidates: int = 400) -> None:
        self.max_pairs = max_pairs
        self.max_candidates = max_candidates

    def plan(self, circuit: QuantumCircuit, device: Device) -> CompressionPlan:
        weights = interaction_weights(circuit)
        if not weights:
            return CompressionPlan()
        pairs: list[tuple[int, int]] = []
        limit = self.max_pairs if self.max_pairs is not None else circuit.num_qubits // 2

        while len(pairs) < limit:
            placement, ququart_units = self._map(circuit, device, pairs)
            if placement is None:
                break
            costs = CostModel(device, ququart_units)
            baseline = self._estimated_cost(weights, placement, costs)
            best_gain = 0.0
            best_pair: tuple[int, int] | None = None
            paired = {q for pair in pairs for q in pair}
            candidates = self._candidate_pairs(weights, paired)
            for a, b in candidates:
                for first, second in ((a, b), (b, a)):
                    estimate = self._estimate_with_pair(
                        weights, placement, costs, first, second
                    )
                    gain = baseline - estimate
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_pair = (a, b) if a < b else (b, a)
            if best_pair is None:
                break
            pairs.append(best_pair)
        return CompressionPlan(pairs=tuple(sorted(pairs)))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _map(
        self, circuit: QuantumCircuit, device: Device, pairs: list[tuple[int, int]]
    ) -> tuple[Placement | None, frozenset[int]]:
        try:
            if pairs:
                return initial_mapping(circuit, device, forced_pairs=tuple(pairs))
            return initial_mapping(circuit, device, qubit_only=True)
        except MappingError:
            # The circuit does not fit without compression; fall back to a
            # free-pairing map so PP can still reason about distances.
            try:
                return initial_mapping(
                    circuit, device, allow_free_pairing=True, forced_pairs=tuple(pairs)
                )
            except MappingError:
                return None, frozenset()

    def _candidate_pairs(
        self, weights: dict[tuple[int, int], float], paired: set[int]
    ) -> list[tuple[int, int]]:
        ranked = sorted(weights.items(), key=lambda item: item[1], reverse=True)
        candidates = [
            pair for pair, _weight in ranked
            if pair[0] not in paired and pair[1] not in paired
        ]
        return candidates[: self.max_candidates]

    def _estimated_cost(
        self,
        weights: dict[tuple[int, int], float],
        placement: Placement,
        costs: CostModel,
    ) -> float:
        total = 0.0
        for (a, b), weight in weights.items():
            total += weight * costs.interaction_distance(placement[a], placement[b])
        return total

    def _estimate_with_pair(
        self,
        weights: dict[tuple[int, int], float],
        placement: Placement,
        costs: CostModel,
        keep: int,
        move: int,
    ) -> float:
        """Estimated cost if ``move`` is re-placed into ``keep``'s unit.

        The distances of pairs not involving ``move`` are unchanged, so only
        terms touching ``move`` are re-evaluated with its hypothetical new
        location.  This mirrors the paper's "compute the estimated fidelity
        with and without the compression based on changes in distance ...
        without remapping and rerouting".
        """
        keep_slot = placement[keep]
        hypothetical = dict(placement)
        hypothetical[move] = (keep_slot[0], 1 - keep_slot[1])
        total = 0.0
        for (a, b), weight in weights.items():
            if {a, b} == {keep, move}:
                # Internal interaction: essentially free compared to
                # routed interactions.
                continue
            total += weight * costs.interaction_distance(hypothetical[a], hypothetical[b])
        return total
