"""Dependency DAG over circuit gates.

The DAG connects each gate to the next gate acting on any of the same
qubits.  In the compile path only the exhaustive strategy's candidate
selection (``ExhaustiveCompression._candidate_groups``) uses it, to find
the qubits on a critical path (Section 5.1 of the paper); the router
walks gates in program order and the scheduler places ops as soon as
their units are free, neither through this DAG.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate


class CircuitDAG:
    """Gate dependency graph of a :class:`QuantumCircuit`.

    Nodes are gate indices into ``circuit.gates``.  An edge ``i -> j`` means
    gate ``j`` must execute after gate ``i`` because they share a qubit and
    ``j`` appears later in program order.
    """

    def __init__(self, circuit: QuantumCircuit) -> None:
        self.circuit = circuit
        self.num_nodes = len(circuit)
        self._successors: dict[int, set[int]] = defaultdict(set)
        self._predecessors: dict[int, set[int]] = defaultdict(set)
        self._build()

    def _build(self) -> None:
        last_on_qubit: dict[int, int] = {}
        last_on_clbit: dict[int, int] = {}
        for index, gate in enumerate(self.circuit):
            for qubit in gate.qubits:
                previous = last_on_qubit.get(qubit)
                if previous is not None and previous != index:
                    self._successors[previous].add(index)
                    self._predecessors[index].add(previous)
                last_on_qubit[qubit] = index
            # Classical bits order conservatively: a measurement writing a
            # bit and any gate conditioned on it form a dependency chain.
            for bit in gate.clbits_touched:
                previous = last_on_clbit.get(bit)
                if previous is not None and previous != index:
                    self._successors[previous].add(index)
                    self._predecessors[index].add(previous)
                last_on_clbit[bit] = index

    # ------------------------------------------------------------------
    # basic graph accessors
    # ------------------------------------------------------------------
    def successors(self, node: int) -> set[int]:
        """Gates that directly depend on ``node``."""
        return set(self._successors.get(node, set()))

    def predecessors(self, node: int) -> set[int]:
        """Gates that ``node`` directly depends on."""
        return set(self._predecessors.get(node, set()))

    def gate(self, node: int) -> Gate:
        """The gate object for a node index."""
        return self.circuit[node]

    def front_layer(self) -> list[int]:
        """Gate indices with no predecessors (ready to execute first)."""
        return [n for n in range(self.num_nodes) if not self._predecessors.get(n)]

    def topological_order(self) -> list[int]:
        """A topological ordering of gate indices (program order is one)."""
        in_degree = {n: len(self._predecessors.get(n, ())) for n in range(self.num_nodes)}
        ready = deque(n for n in range(self.num_nodes) if in_degree[n] == 0)
        order: list[int] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for succ in sorted(self._successors.get(node, ())):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != self.num_nodes:
            raise RuntimeError("cycle detected in circuit DAG")  # pragma: no cover
        return order

    # ------------------------------------------------------------------
    # path analysis
    # ------------------------------------------------------------------
    def longest_path_lengths(
        self, weight: Callable[[Gate], float] | None = None
    ) -> tuple[dict[int, float], dict[int, float]]:
        """Longest path *to* and *from* each node, inclusive of the node.

        Parameters
        ----------
        weight:
            Function assigning a positive cost to each gate.  Defaults to 1
            per gate (depth-style critical path).

        Returns
        -------
        (to_node, from_node):
            ``to_node[i]`` is the heaviest chain ending at gate ``i`` and
            ``from_node[i]`` the heaviest chain starting at gate ``i``.
        """
        cost = weight if weight is not None else (lambda gate: 1.0)
        order = self.topological_order()
        to_node: dict[int, float] = {}
        for node in order:
            best_pred = max(
                (to_node[p] for p in self._predecessors.get(node, ())), default=0.0
            )
            to_node[node] = best_pred + cost(self.gate(node))
        from_node: dict[int, float] = {}
        for node in reversed(order):
            best_succ = max(
                (from_node[s] for s in self._successors.get(node, ())), default=0.0
            )
            from_node[node] = best_succ + cost(self.gate(node))
        return to_node, from_node

    def critical_path_length(self, weight: Callable[[Gate], float] | None = None) -> float:
        """Weight of the heaviest dependency chain in the circuit."""
        if self.num_nodes == 0:
            return 0.0
        to_node, _ = self.longest_path_lengths(weight)
        return max(to_node.values())

    def critical_path(self, weight: Callable[[Gate], float] | None = None) -> list[int]:
        """One heaviest dependency chain, as a list of gate indices."""
        if self.num_nodes == 0:
            return []
        to_node, from_node = self.longest_path_lengths(weight)
        total = max(to_node.values())
        # Walk forward picking nodes on a maximal chain.
        path: list[int] = []
        candidates = [
            n
            for n in range(self.num_nodes)
            if not self._predecessors.get(n) and abs(from_node[n] - total) < 1e-9
        ]
        current = min(candidates)
        path.append(current)
        while self._successors.get(current):
            nexts = [
                s
                for s in self._successors[current]
                if abs(to_node[current] + from_node[s] - total) < 1e-9
            ]
            if not nexts:
                break
            current = min(nexts)
            path.append(current)
        return path

    def critical_path_qubits(self, weight: Callable[[Gate], float] | None = None) -> set[int]:
        """Set of logical qubits touched by gates on a critical path."""
        qubits: set[int] = set()
        for node in self.critical_path(weight):
            qubits.update(self.gate(node).qubits)
        return qubits
