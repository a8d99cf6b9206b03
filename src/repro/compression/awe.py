"""Average Weight per Edge compression (AWE, Section 5.4).

AWE repeatedly merges the pair of (still uncompressed) qubits whose
contraction maximises the mean edge weight of the interaction graph,
stopping when no contraction improves it.  Merging qubits that share many
interactions concentrates weight onto fewer edges, which is intended to
increase locality; the paper finds the strategy inconsistent in practice,
which the evaluation harness reproduces.
"""

from __future__ import annotations

from repro.arch.device import Device
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.plan import CompressionPlan
from repro.compression.base import (
    Adjacency, CompressionStrategy, contract, copy_order, interaction_adjacency,
)


def _edge_weights(graph: Adjacency):
    """Edge weights in ``nx.Graph.edges`` order, for bit-equal float sums."""
    seen: set = set()
    for node, neighbours in graph.items():
        yield from (weight for neighbour, weight in neighbours.items() if neighbour not in seen)
        seen.add(node)


def _contracted_average(graph: Adjacency, a, b, edges: int, total: float) -> float:
    """Mean edge weight of ``graph`` with ``a`` and ``b`` merged, in O(deg a + deg b).

    ``edges`` and ``total`` describe ``graph``.  Contraction keeps every
    weight but ``w(a, b)``, summed onto one edge per merged neighbour.
    """
    neighbors_a = graph[a]
    neighbors_b = graph[b]
    joined = b in neighbors_a
    merged = len((neighbors_a.keys() | neighbors_b.keys()) - {a, b})
    new_edges = edges - len(neighbors_a) - len(neighbors_b) + joined + merged
    if new_edges == 0:
        return 0.0
    return (total - (neighbors_a[b] if joined else 0.0)) / new_edges


class AverageWeightPerEdge(CompressionStrategy):
    """Merge pairs that maximise the contracted graph's average edge weight."""

    name = "awe"

    def __init__(self, max_pairs: int | None = None) -> None:
        self.max_pairs = max_pairs

    def plan(self, circuit: QuantumCircuit, device: Device) -> CompressionPlan:
        # Idle qubits never help the average; drop them from consideration.
        graph = {node: nbrs for node, nbrs in interaction_adjacency(circuit).items() if nbrs}
        pairs: list[tuple[int, int]] = []
        limit = self.max_pairs if self.max_pairs is not None else circuit.num_qubits // 2

        while len(pairs) < limit:
            edges = sum(map(len, graph.values())) // 2
            total = sum(_edge_weights(graph))
            current = total / edges if edges else 0.0
            best_gain = 0.0
            best_pair: tuple[int, int] | None = None
            candidates = [node for node in graph if isinstance(node, int)]
            for i, a in enumerate(candidates):
                for b in candidates[i + 1 :]:
                    if b not in graph[a] and graph[a].keys().isdisjoint(graph[b]):
                        continue
                    gain = _contracted_average(graph, a, b, edges, total) - current
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_pair = (a, b)
            if best_pair is None:
                break
            a, b = best_pair
            pairs.append((a, b) if a < b else (b, a))
            # Rebuilt as graph.copy() was: later tie-breaks see its neighbour order.
            graph = contract(copy_order(graph), a, b)
        return CompressionPlan(pairs=tuple(sorted(pairs)))
