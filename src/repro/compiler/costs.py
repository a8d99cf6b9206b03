"""Success-probability cost model (Eq. 4 of the paper).

The probability that a gate ``g`` on connection ``(i, j)`` succeeds is

    S(i, j, g) = F(i, j, g) * exp(-T(i, j, g) / T1_i) * exp(-T(i, j, g) / T1_j)

where the T1 of a unit depends on whether it is operated as a qubit or as a
ququart.  Path costs aggregate ``-log S`` over SWAP hops plus a final CX
term.  The :class:`CostModel` fixes the unit modes (which are decided at
mapping time and never change during routing) and answers every cost query
the mapper and router need.
"""

from __future__ import annotations

import heapq
import math

from repro.arch.device import Device
from repro.arch.interaction_graph import Slot
from repro.gates.resolution import UnitMode, resolve_cx, resolve_single_qubit, resolve_swap


class CostModel:
    """Cost queries for a device with a fixed set of ququart-mode units.

    Parameters
    ----------
    device:
        The target device (topology, durations, T1).
    ququart_units:
        Physical units operated in ququart mode (both slots enabled).
    """

    def __init__(self, device: Device, ququart_units: frozenset[int] | set[int]) -> None:
        self.device = device
        self.ququart_units = frozenset(ququart_units)
        #: ``slot -> [(neighbour, swap_cost)]``, filled as searches reach
        #: each slot: the modes are fixed, so every SWAP edge is static.
        self._adjacency: dict[Slot, list[tuple[Slot, float]]] = {}
        #: ``source -> (distances, previous)`` of completed searches.
        self._searches: dict[Slot, tuple[dict[Slot, float], dict[Slot, Slot]]] = {}
        #: ``(control, target) -> cx_cost``: static for the same reason.
        self._cx_costs: dict[tuple[Slot, Slot], float] = {}

    # ------------------------------------------------------------------
    # unit / slot structure
    # ------------------------------------------------------------------
    def unit_mode(self, unit: int) -> UnitMode:
        """Operating mode of a physical unit."""
        return UnitMode.QUQUART if unit in self.ququart_units else UnitMode.QUBIT

    def is_enabled(self, slot: Slot) -> bool:
        """Whether a slot can hold a logical qubit under the fixed modes."""
        unit, position = slot
        if position == 0:
            return True
        return unit in self.ququart_units

    def enabled_slots(self) -> list[Slot]:
        """Every slot that can hold a logical qubit."""
        slots: list[Slot] = []
        for unit in range(self.device.num_units):
            slots.append((unit, 0))
            if unit in self.ququart_units:
                slots.append((unit, 1))
        return slots

    def slot_neighbors(self, slot: Slot) -> list[Slot]:
        """Enabled slots reachable from ``slot`` with one two-qudit gate."""
        unit, position = slot
        neighbors: list[Slot] = []
        if unit in self.ququart_units:
            neighbors.append((unit, 1 - position))
        for adjacent in self.device.topology.neighbors(unit):
            neighbors.append((adjacent, 0))
            if adjacent in self.ququart_units:
                neighbors.append((adjacent, 1))
        return [candidate for candidate in neighbors if self.is_enabled(candidate)]

    # ------------------------------------------------------------------
    # physical gate selection
    # ------------------------------------------------------------------
    def single_qubit_gate(self, slot: Slot) -> str:
        """Physical gate realising a single-qubit gate on a logical qubit at ``slot``."""
        unit, position = slot
        return resolve_single_qubit(self.unit_mode(unit), position)

    def cx_gate(self, control: Slot, target: Slot) -> str:
        """Physical gate realising CX(control, target) for adjacent or co-located slots."""
        same_unit = control[0] == target[0]
        return resolve_cx(
            self.unit_mode(control[0]), control[1],
            self.unit_mode(target[0]), target[1],
            same_unit=same_unit,
        )

    def swap_gate(self, slot_a: Slot, slot_b: Slot) -> str:
        """Physical gate realising SWAP between two slots."""
        same_unit = slot_a[0] == slot_b[0]
        return resolve_swap(
            self.unit_mode(slot_a[0]), slot_a[1],
            self.unit_mode(slot_b[0]), slot_b[1],
            same_unit=same_unit,
        )

    # ------------------------------------------------------------------
    # success probabilities
    # ------------------------------------------------------------------
    def op_success(self, gate_name: str, units: tuple[int, ...]) -> float:
        """``S(i, j, g)`` for a physical gate on specific units."""
        duration = self.device.durations.duration(gate_name)
        fidelity = self.device.durations.fidelity(gate_name)
        success = fidelity
        for unit in set(units):
            t1 = self.device.t1_ns(unit in self.ququart_units)
            success *= math.exp(-duration / t1)
        return success

    def op_cost(self, gate_name: str, units: tuple[int, ...]) -> float:
        """``-log S`` of one physical operation."""
        success = self.op_success(gate_name, units)
        if success <= 0.0:
            return float("inf")
        return -math.log(success)

    def swap_cost(self, slot_a: Slot, slot_b: Slot) -> float:
        """``-log S`` of the SWAP connecting two adjacent (or co-located) slots."""
        gate = self.swap_gate(slot_a, slot_b)
        return self.op_cost(gate, (slot_a[0], slot_b[0]))

    def cx_cost(self, control: Slot, target: Slot) -> float:
        """``-log S`` of the CX between two adjacent (or co-located) slots, memoised."""
        key = (control, target)
        cost = self._cx_costs.get(key)
        if cost is None:
            cost = self.op_cost(self.cx_gate(control, target), (control[0], target[0]))
            self._cx_costs[key] = cost
        return cost

    # ------------------------------------------------------------------
    # distances (Eq. 4 aggregated over best paths)
    # ------------------------------------------------------------------
    def swap_distance(self, source: Slot, destination: Slot) -> float:
        """Minimum total SWAP cost to move a qubit from ``source`` to ``destination``."""
        return self._search(source)[0].get(destination, float("inf"))

    def interaction_distance(self, slot_a: Slot, slot_b: Slot) -> float:
        """Eq. 4 path cost for making two qubits interact (SWAPs + final CX).

        The final CX may happen from any slot adjacent to ``slot_b`` (or
        internally if the qubits end up co-encoded), so we take the minimum
        over ``slot_b``'s neighbourhood of (swap distance + CX cost).
        """
        if slot_a == slot_b:
            return 0.0
        best = float("inf")
        candidates = [slot_b] + self.slot_neighbors(slot_b)
        distances = self._search(slot_a)[0]
        for landing in candidates:
            if landing == slot_b:
                travel = distances.get(slot_b, float("inf"))
                # Landing on the partner slot means co-location: internal CX
                # if the unit is a ququart, otherwise impossible.
                if slot_b[0] in self.ququart_units:
                    other = (slot_b[0], 1 - slot_b[1])
                    cost = travel + self.cx_cost(other, slot_b)
                else:
                    cost = float("inf")
            else:
                travel = distances.get(landing, float("inf"))
                cost = travel + self.cx_cost(landing, slot_b)
            best = min(best, cost)
        return best

    def shortest_slot_path(self, source: Slot, destination: Slot) -> list[Slot]:
        """Cheapest SWAP path between two enabled slots, inclusive of endpoints."""
        if source == destination:
            return [source]
        distances, previous = self._search(source)
        if destination not in distances:
            raise RuntimeError(f"no route from {source} to {destination}")
        path = [destination]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return path

    def _edges(self, slot: Slot) -> list[tuple[Slot, float]]:
        """SWAP edges ``(neighbour, cost)`` leaving ``slot``, computed once.

        ``slot`` may be disabled: PP estimates from hypothetical slots.
        """
        edges = self._adjacency.get(slot)
        if edges is None:
            edges = [(n, self.swap_cost(slot, n)) for n in self.slot_neighbors(slot)]
            self._adjacency[slot] = edges
        return edges

    def _search(self, source: Slot) -> tuple[dict[Slot, float], dict[Slot, Slot]]:
        """Single-source SWAP-cost Dijkstra: ``(distances, previous)``, cached.

        Pops in ``(cost, slot)`` order and relaxes only on a strictly lower
        cost, so each path (and its float cost, summed edge by edge along
        the path) is the one an early-exit search to that slot would find.
        """
        cached = self._searches.get(source)
        if cached is not None:
            return cached
        distances: dict[Slot, float] = {source: 0.0}
        previous: dict[Slot, Slot] = {}
        queue: list[tuple[float, Slot]] = [(0.0, source)]
        visited: set[Slot] = set()
        while queue:
            cost, slot = heapq.heappop(queue)
            if slot in visited:
                continue
            visited.add(slot)
            for neighbor, step in self._edges(slot):
                new_cost = cost + step
                if new_cost < distances.get(neighbor, float("inf")):
                    distances[neighbor] = new_cost
                    previous[neighbor] = slot
                    heapq.heappush(queue, (new_cost, neighbor))
        self._searches[source] = (distances, previous)
        return distances, previous

