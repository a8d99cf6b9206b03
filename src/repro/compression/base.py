"""Shared infrastructure for compression strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod

import networkx as nx

from repro.arch.device import Device
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.plan import CompressionPlan
from repro.compiler.weights import interaction_weights


class CompressionStrategy(ABC):
    """Base class: decide which qubit pairs to encode into ququarts."""

    #: Short name used in reports and the strategy registry.
    name: str = "base"

    @abstractmethod
    def plan(self, circuit: QuantumCircuit, device: Device) -> CompressionPlan:
        """Produce the compression plan for a circuit on a device."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def circuit_interaction_graph(circuit: QuantumCircuit) -> nx.Graph:
    """Weighted interaction graph of a circuit.

    Nodes are logical qubits (every qubit in the register, including idle
    ones); edges carry the Section 4.2 interaction weight and the raw
    interaction count.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(circuit.num_qubits))
    weights = interaction_weights(circuit)
    counts = circuit.interaction_pairs()
    for (a, b), weight in weights.items():
        graph.add_edge(a, b, weight=weight, count=counts.get((a, b), 0))
    return graph


#: ``adjacency[u][v]`` is the weight of edge ``{u, v}``.  RB and AWE break
#: ties by iteration order, so the helpers below keep the ``nx.Graph`` order.
Adjacency = dict


def interaction_adjacency(circuit: QuantumCircuit) -> Adjacency:
    """``circuit_interaction_graph(circuit)`` as an :data:`Adjacency`, in its order."""
    adjacency: Adjacency = {qubit: {} for qubit in range(circuit.num_qubits)}
    for (a, b), weight in interaction_weights(circuit).items():
        adjacency[a][b] = adjacency[b][a] = weight
    return adjacency


def copy_order(adjacency: Adjacency) -> Adjacency:
    """What ``nx.Graph.copy()`` rebuilds: neighbours in the order edges are first met."""
    rebuilt: Adjacency = {node: {} for node in adjacency}
    for node, neighbours in adjacency.items():
        for neighbour, weight in neighbours.items():
            rebuilt[node][neighbour] = rebuilt[neighbour][node] = weight
    return rebuilt


def contract(adjacency: Adjacency, a, b) -> Adjacency:
    """Merge ``a`` and ``b`` into a new last node ``(a, b)`` in place, as networkx would.

    Weights onto a shared neighbour are summed; ``(a, b)`` ends each neighbour's dict.
    """
    merged = adjacency[(a, b)] = {}
    for original in (a, b):
        for neighbour, weight in adjacency[original].items():
            if neighbour != a and neighbour != b:
                weight += merged.get(neighbour, 0.0)
                merged[neighbour] = adjacency[neighbour][(a, b)] = weight
    for original in (a, b):
        for neighbour in adjacency.pop(original):
            del adjacency[neighbour][original]
    return adjacency


def greedy_max_weight_pairing(graph: nx.Graph, pair_everything: bool = False) -> list[tuple[int, int]]:
    """Pair qubits by descending interaction weight.

    Uses a maximum-weight matching on the interaction graph, then (when
    ``pair_everything`` is set, as the FQ baseline requires) pairs any
    remaining unmatched qubits arbitrarily.
    """
    matching = nx.max_weight_matching(graph, maxcardinality=pair_everything, weight="weight")
    pairs = [tuple(sorted(edge)) for edge in matching]
    if pair_everything:
        matched = {q for pair in pairs for q in pair}
        leftovers = sorted(set(graph.nodes) - matched)
        while len(leftovers) >= 2:
            a = leftovers.pop(0)
            b = leftovers.pop(0)
            pairs.append((a, b))
    return sorted(pairs)


def simultaneity_counts(circuit: QuantumCircuit) -> dict[tuple[int, int], int]:
    """How often two qubits are busy in the same timestep with *different* gates.

    Used by the Ring-Based strategy to avoid pairings that would serialize:
    if both encoded qubits are frequently needed at the same time by
    different operations, putting them in one ququart forces those
    operations to run one after the other.
    """
    counts: dict[tuple[int, int], int] = {}
    for layer in circuit.moments():
        busy: list[tuple[int, set[int]]] = []
        for gate_index in layer:
            gate = circuit[gate_index]
            if gate.is_meta:
                continue
            busy.append((gate_index, set(gate.qubits)))
        for i, (gate_i, qubits_i) in enumerate(busy):
            for gate_j, qubits_j in busy[i + 1 :]:
                for a in qubits_i:
                    for b in qubits_j:
                        if a == b:
                            continue
                        key = (a, b) if a < b else (b, a)
                        counts[key] = counts.get(key, 0) + 1
    return counts
