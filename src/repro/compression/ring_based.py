"""Ring-Based compression (RB, Section 5.3).

Circuits such as the generalized Toffoli and the Cuccaro adder have
interaction graphs built from small cycles (triangles).  Compressing a pair
of qubits inside each cycle collapses the cycle and flattens the interaction
graph toward a line, which maps and routes far more cheaply.

The strategy:

1. For every qubit, find the minimum-length cycle through it (so every
   qubit is covered without enumerating all cycles).
2. Bound the cycle size by the smallest cycle length found.
3. Inside each cycle, consider compressing the qubit with the fewest
   interactions outside the cycle with every other cycle member; score the
   candidates by internal interaction weight, shared neighbours and external
   connectivity, minus a penalty for simultaneous use (which would cause
   serialization).
4. Contract the chosen pair in the interaction graph, recollect statistics,
   and repeat until no beneficial compression remains.
"""

from __future__ import annotations

from repro.arch.device import Device
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.plan import CompressionPlan
from repro.compression.base import (
    Adjacency, CompressionStrategy, contract, copy_order, interaction_adjacency,
    simultaneity_counts,
)


class RingBased(CompressionStrategy):
    """Compress qubit pairs that share cycles of the interaction graph."""

    name = "rb"

    def __init__(self, max_pairs: int | None = None, simultaneity_penalty: float = 0.05) -> None:
        self.max_pairs = max_pairs
        self.simultaneity_penalty = simultaneity_penalty

    def plan(self, circuit: QuantumCircuit, device: Device) -> CompressionPlan:
        simultaneous = simultaneity_counts(circuit)
        pairs: list[tuple[int, int]] = []
        paired: set[int] = set()
        limit = self.max_pairs if self.max_pairs is not None else circuit.num_qubits // 2

        working = copy_order(interaction_adjacency(circuit))
        while len(pairs) < limit:
            cycles = _minimum_cycles(working)
            if not cycles:
                break
            bound = min(len(cycle) for cycle in cycles)
            cycles = [cycle for cycle in cycles if len(cycle) <= bound + 1]
            candidate = self._best_candidate(working, cycles, simultaneous, paired)
            if candidate is None:
                break
            a, b = candidate
            pairs.append((a, b) if a < b else (b, a))
            paired.update((a, b))
            contract(working, a, b)
        return CompressionPlan(pairs=tuple(sorted(pairs)))

    # ------------------------------------------------------------------
    # candidate scoring
    # ------------------------------------------------------------------
    def _best_candidate(
        self,
        graph: Adjacency,
        cycles: list[list[int]],
        simultaneous: dict[tuple[int, int], int],
        paired: set[int],
    ) -> tuple[int, int] | None:
        pair_cycle_membership: dict[tuple[int, int], int] = {}
        for cycle in cycles:
            originals = [node for node in cycle if _is_original(node)]
            for a in originals:
                for b in originals:
                    if a < b:
                        pair_cycle_membership[(a, b)] = pair_cycle_membership.get((a, b), 0) + 1
        best: tuple[float, tuple[int, int]] | None = None
        for cycle in cycles:
            members = [q for q in cycle if _is_original(q) and q not in paired]
            if len(members) < 2:
                continue
            # The anchor is the cycle member with the fewest interactions
            # outside the cycle.
            def external_degree(qubit: int) -> int:
                return sum(1 for n in graph[qubit] if n not in cycle)

            anchor = min(members, key=external_degree)
            for other in members:
                if other == anchor:
                    continue
                score = self._score_pair(graph, anchor, other, simultaneous, pair_cycle_membership)
                if score <= 0.0:
                    continue
                if best is None or score > best[0]:
                    best = (score, (anchor, other))
        return best[1] if best is not None else None

    def _score_pair(
        self,
        graph: Adjacency,
        a: int,
        b: int,
        simultaneous: dict[tuple[int, int], int],
        membership: dict[tuple[int, int], int],
    ) -> float:
        internal = graph[a].get(b, 0.0)
        neighbors_a = graph[a].keys() - {b}
        neighbors_b = graph[b].keys() - {a}
        shared = len(neighbors_a & neighbors_b)
        connectivity = len(neighbors_a | neighbors_b)
        key = (a, b) if a < b else (b, a)
        simultaneity = simultaneous.get(key, 0)
        cycles_shared = membership.get(key, 0)
        return (
            internal
            + 0.5 * shared
            + 0.1 * connectivity
            + 0.25 * cycles_shared
            - self.simultaneity_penalty * simultaneity
        )


# ----------------------------------------------------------------------
# graph helpers
# ----------------------------------------------------------------------
def _is_original(node) -> bool:
    """Contracted pair nodes are tuples; original qubits are plain ints."""
    return isinstance(node, int)


def _minimum_cycles(graph: Adjacency) -> list[list[int]]:
    """For every node, the minimum-length cycle through it (if any)."""
    cycles: list[list[int]] = []
    seen: set[frozenset] = set()
    for node in graph:
        cycle = _min_cycle_through(graph, node)
        if cycle is None:
            continue
        key = frozenset(cycle)
        if key in seen:
            continue
        seen.add(key)
        cycles.append(cycle)
    return cycles


def _min_cycle_through(graph: Adjacency, node) -> list | None:
    """Shortest cycle containing ``node`` found by removing each incident edge.

    Re-adding a probed edge moves each endpoint to the end of the other's
    neighbours, as ``nx.Graph.add_edge`` does, and later probes' BFS order
    depends on it.  No cycle beats a triangle, so once one is found the
    remaining edges are only moved, not probed.
    """
    best: list | None = None
    for neighbor in list(graph[node]):
        weight = graph[node].pop(neighbor)
        del graph[neighbor][node]
        if best is None or len(best) > 3:
            path = _shortest_path(graph, neighbor, node)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        graph[node][neighbor] = graph[neighbor][node] = weight
    return best


def _shortest_path(graph: Adjacency, source, target) -> list | None:
    """``nx.shortest_path(graph, source, target)`` of networkx 3.x, or None.

    The same bidirectional BFS, growing the smaller fringe one level at a
    time, so it returns the same one of several equal-length paths.
    """
    pred, succ = {source: None}, {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        forward_step = len(forward) <= len(reverse)
        level, seen, other = (forward, pred, succ) if forward_step else (reverse, succ, pred)
        fringe: list = []
        for v in level:
            for w in graph[v]:
                if w not in seen:
                    fringe.append(w)
                    seen[w] = v
                if w in other:
                    return _chain(pred, w)[::-1] + _chain(succ, succ[w])
        forward, reverse = (fringe, reverse) if forward_step else (forward, fringe)
    return None


def _chain(links: dict, node) -> list:
    """``node`` followed by its links up to the BFS root."""
    chain = []
    while node is not None:
        chain.append(node)
        node = links[node]
    return chain
