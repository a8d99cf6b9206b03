"""Average Weight per Edge compression (AWE, Section 5.4).

AWE repeatedly merges the pair of (still uncompressed) qubits whose
contraction maximises the mean edge weight of the interaction graph,
stopping when no contraction improves it.  Merging qubits that share many
interactions concentrates weight onto fewer edges, which is intended to
increase locality; the paper finds the strategy inconsistent in practice,
which the evaluation harness reproduces.
"""

from __future__ import annotations

import networkx as nx

from repro.arch.device import Device
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.plan import CompressionPlan
from repro.compression.base import CompressionStrategy, circuit_interaction_graph


def _average_edge_weight(graph: nx.Graph) -> float:
    """Mean weight over edges; zero for an edgeless graph."""
    if graph.number_of_edges() == 0:
        return 0.0
    total = sum(data["weight"] for _a, _b, data in graph.edges(data=True))
    return total / graph.number_of_edges()


def _contracted(graph: nx.Graph, a, b) -> nx.Graph:
    """Copy of the graph with nodes ``a`` and ``b`` merged into one."""
    merged = graph.copy()
    target = (a, b)
    merged.add_node(target)
    for original in (a, b):
        for neighbor in graph.neighbors(original):
            if neighbor in (a, b):
                continue
            weight = graph.edges[original, neighbor]["weight"]
            if merged.has_edge(target, neighbor):
                merged.edges[target, neighbor]["weight"] += weight
            else:
                merged.add_edge(target, neighbor, weight=weight)
    merged.remove_node(a)
    merged.remove_node(b)
    return merged


def _contracted_average(graph: nx.Graph, a, b, edges: int, total: float) -> float:
    """``_average_edge_weight(_contracted(graph, a, b))`` in O(deg a + deg b).

    ``edges`` and ``total`` describe ``graph``.  Contraction keeps every
    weight but ``w(a, b)``, summed onto one edge per merged neighbour.
    """
    neighbors_a = graph.adj[a]
    neighbors_b = graph.adj[b]
    joined = b in neighbors_a
    merged = len((neighbors_a.keys() | neighbors_b.keys()) - {a, b})
    new_edges = edges - len(neighbors_a) - len(neighbors_b) + joined + merged
    if new_edges == 0:
        return 0.0
    return (total - (neighbors_a[b]["weight"] if joined else 0.0)) / new_edges


class AverageWeightPerEdge(CompressionStrategy):
    """Merge pairs that maximise the contracted graph's average edge weight."""

    name = "awe"

    def __init__(self, max_pairs: int | None = None) -> None:
        self.max_pairs = max_pairs

    def plan(self, circuit: QuantumCircuit, device: Device) -> CompressionPlan:
        graph = circuit_interaction_graph(circuit)
        # Idle qubits never help the average; drop them from consideration.
        graph.remove_nodes_from([node for node in list(graph.nodes) if graph.degree(node) == 0])
        pairs: list[tuple[int, int]] = []
        limit = self.max_pairs if self.max_pairs is not None else circuit.num_qubits // 2

        while len(pairs) < limit:
            current = _average_edge_weight(graph)
            edges = graph.number_of_edges()
            total = sum(weight for _a, _b, weight in graph.edges(data="weight"))
            best_gain = 0.0
            best_pair: tuple[int, int] | None = None
            candidates = [node for node in graph.nodes if isinstance(node, int)]
            for i, a in enumerate(candidates):
                for b in candidates[i + 1 :]:
                    if not (graph.has_edge(a, b) or graph.adj[a].keys() & graph.adj[b].keys()):
                        continue
                    gain = _contracted_average(graph, a, b, edges, total) - current
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_pair = (a, b)
            if best_pair is None:
                break
            a, b = best_pair
            pairs.append((a, b) if a < b else (b, a))
            graph = _contracted(graph, a, b)
        return CompressionPlan(pairs=tuple(sorted(pairs)))
